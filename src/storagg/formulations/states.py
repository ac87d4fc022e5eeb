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
from .common import (FormulationOutput, ModelMeta, Col, Row, periods, move_labels,
                     checkpoint_labels, tile_columns, tile_rows, add_investment, add_operating_core)


def _state_family(system: PowerSystem, states: StateClustering,
                  matrices: TransitionMatrices, invest: bool, kind: str) -> FormulationOutput:
    trans = matrices.transitions
    m = MilpModel(kind)
    per = periods(kind, states.horizon_hours, states=states)
    x = add_investment(m, system, invest)
    col = add_operating_core(m, system, per.labels, states.demand, states.renewable_avail,
                             per.weights, x)
    a, b = np.nonzero(trans > 0)                      # the observed transitions
    moves = move_labels(a, b)

    # startups are decided per observed transition and paid per occurrence
    step = a != b
    steps = [mv for mv, st in zip(moves, step.tolist()) if st]
    count = trans[a, b][step].astype(np.float64)
    y = tile_columns(m, steps, [Col("y", g.id, ub=1.0, obj=count * g.startup_cost,
                                    integer=True) for g in system.thermal])
    tile_rows(m, steps, [
        Row("start", g.id, [(col["u", g.id][b[step]], 1.0), (col["u", g.id][a[step]], -1.0),
                            (y["y", g.id], -1.0)], LE)
        for g in system.thermal])

    # storage level shift per transition: mean net injection of both states
    dw = {}
    for k, s in enumerate(system.storage):
        dw[s.id] = tile_columns(m, moves, [Col("dw", s.id, lb=-np.inf, ub=np.inf)])["dw", s.id]
        tile_rows(m, moves, [Row("dwdef", s.id, [(dw[s.id], 1.0)] + [
            (col[sym, s.id][st], c) for st in (a, b)
            for sym, c in (("b", -0.5 * s.efficiency), ("q", 0.5), ("sp", 0.5))],
            EQ, 0.5 * (states.inflows[a, k] + states.inflows[b, k]))])

    def bounds(s: StorageUnit, tag: str, counts: np.ndarray, lo: float, hi: float,
               uid: str | None) -> list[Row]:
        """A >= and a <= row per label, named ``<tag>lo``/``<tag>hi``, over
        the dw columns weighted by ``counts`` (labels x transitions)."""
        shift, invested = (dw[s.id][None, :], counts.astype(np.float64)), x.get(s.id, -1)
        return [Row(f"{tag}lo", uid, [shift, (invested, -s.epr_min)], GE, lo),
                Row(f"{tag}hi", uid, [shift, (invested, -s.epr_max)], LE, hi)]

    # end-of-horizon level: W0 plus every transition shift, counted
    for s in system.storage:
        tile_rows(m, [s.id], bounds(s, "end", trans[a, b][None, :], s.w_fin - s.w0,
                                    s.w_max - s.w0, None))
    # checkpoint bounds
    rows = []
    for s in system.storage:
        window = kind == "ss_rfm" and s.kind == SHORT_TERM
        counts = (matrices.reduced_frequency if window else matrices.frequency)[:, a, b]
        rows += bounds(s, "win" if window else "chk", counts, s.w_min - s.w0,
                       s.w_max - s.w0, s.id)
    tile_rows(m, checkpoint_labels(matrices.checkpoints), rows)

    return FormulationOutput(model=m, meta=ModelMeta(kind, invest))


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
