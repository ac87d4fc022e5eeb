"""System-states family: hours collapse into weighted composite hours.

Operating decisions are taken once per state and weighted by how many hours
the state represents.  Chronology survives through the transition counts:
startup indicators exist per observed state-to-state move and are charged
once per occurrence, and storage is tracked by per-transition level shifts
(the mean of the net injections of the two states straddling the move).
Cumulative-count matrices bound the reconstructed storage level at checkpoint
hours; the reduced variant applies those bounds per window between
checkpoints for short-cycling storage, which is cheaper but only limits the
net change within each window.

Constraint prefixes added here (see ``common`` for the shared core):
``dwdef`` per-transition level shift, ``endlo``/``endhi`` end-of-horizon
level, ``chklo``/``chkhi`` cumulative checkpoint bounds, ``winlo``/``winhi``
per-window bounds.
"""

from __future__ import annotations

import numpy as np

from ..milp import MilpModel, LE, GE, EQ
from ..system import PowerSystem, StorageUnit, SHORT_TERM
from ..aggregation import StateClustering, TransitionMatrices
from .common import (FormulationOutput, ModelMeta, Col, Row, periods, state_moves,
                     checkpoint_labels, tile_columns, tile_rows, add_investment, add_operating_core)


def _state_family(system: PowerSystem, states: StateClustering,
                  matrices: TransitionMatrices, invest: bool, kind: str) -> FormulationOutput:
    trans = matrices.transitions
    fo = FormulationOutput(MilpModel(kind), ModelMeta(kind, invest))
    per = periods(kind, states.horizon_hours, states=states)
    x = add_investment(fo, system, invest)
    col = add_operating_core(fo, system, per.labels, states.demand, states.renewable_avail,
                             per.weights, x)
    a, b, _ = state_moves(states.assignment, states.num_states)   # the observed transitions
    moves = [f"s{i}_s{j}" for i, j in zip(a.tolist(), b.tolist())]

    # startups are decided per observed transition and paid per occurrence
    step = a != b
    steps = [mv for mv, st in zip(moves, step.tolist()) if st]
    count = trans[a, b][step].astype(np.float64)
    y = tile_columns(fo, steps, [Col("y", g.id, ub=1.0, obj=count * g.startup_cost,
                                    integer=True) for g in system.thermal])
    tile_rows(fo, steps, [
        Row("start", g.id, [(col["u", g.id][b[step]], 1.0), (col["u", g.id][a[step]], -1.0),
                            (y["y", g.id], -1.0)], LE)
        for g in system.thermal])

    # storage level shift per transition: mean net injection of both states
    dw = {}
    for k, s in enumerate(system.storage):
        dw[s.id] = tile_columns(fo, moves, [Col("dw", s.id, lb=-np.inf, ub=np.inf)])["dw", s.id]
        tile_rows(fo, moves, [Row("dwdef", s.id, [(dw[s.id], 1.0)] + [
            (col[sym, s.id][st], c) for st in (a, b)
            for sym, c in (("b", -0.5 * s.efficiency), ("q", 0.5), ("sp", 0.5))],
            EQ, 0.5 * (states.inflows[a, k] + states.inflows[b, k]))])

    def bounds(s: StorageUnit, tag: str, counts: np.ndarray) -> list[Row]:
        """A >= and a <= row per checkpoint, named ``<tag>lo``/``<tag>hi``,
        over the dw columns weighted by ``counts`` (checkpoints x moves)."""
        shift, invested = (dw[s.id][None, :], counts.astype(np.float64)), x.get(s.id, -1)
        return [Row(f"{tag}lo", s.id, [shift, (invested, -s.epr_min)], GE, s.w_min - s.w0),
                Row(f"{tag}hi", s.id, [shift, (invested, -s.epr_max)], LE, s.w_max - s.w0)]

    # end-of-horizon level, one label per storage unit: W0 plus every
    # transition shift, counted
    storage = system.storage
    shift = (np.reshape([dw[s.id] for s in storage], (len(storage), len(moves))),
             trans[a, b][None, :].astype(np.float64))
    invested = [x.get(s.id, -1) for s in storage]
    tile_rows(fo, system.storage_ids, [
        Row("endlo", None, [shift, (invested, [-s.epr_min for s in storage])], GE,
            [s.w_fin - s.w0 for s in storage]),
        Row("endhi", None, [shift, (invested, [-s.epr_max for s in storage])], LE,
            [s.w_max - s.w0 for s in storage])])
    # checkpoint bounds
    rows = []
    for s in storage:
        window = kind == "ss_rfm" and s.kind == SHORT_TERM
        rows += bounds(s, "win" if window else "chk",
                       (matrices.reduced_frequency if window else matrices.frequency)[:, a, b])
    tile_rows(fo, checkpoint_labels(matrices.checkpoints), rows)
    return fo


def build_ss(system: PowerSystem, states: StateClustering,
             matrices: TransitionMatrices, invest: bool = False) -> FormulationOutput:
    """States model with cumulative checkpoint bounds for every storage unit."""
    return _state_family(system, states, matrices, invest, "ss")


def build_ss_rfm(system: PowerSystem, states: StateClustering,
                 matrices: TransitionMatrices, invest: bool = False) -> FormulationOutput:
    """States model with per-window bounds for short-term storage.

    Long-term storage keeps the cumulative checkpoint bounds; short-term
    units are bounded window by window (counts of transitions inside each
    window only), which keeps daily cycling representable under many
    checkpoints without tying every checkpoint back to the first hour.
    """
    return _state_family(system, states, matrices, invest, "ss_rfm")
