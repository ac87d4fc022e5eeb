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
from ..system import PowerSystem, StorageUnit
from ..aggregation import StateClustering, TransitionMatrices
from .common import (FormulationOutput, periods, var_name, add_investment,
                     add_operating_core)


def _state_family(system: PowerSystem, states: StateClustering,
                  matrices: TransitionMatrices, invest: bool, kind: str) -> FormulationOutput:
    s_count = states.num_states
    trans = matrices.transitions
    m = MilpModel(kind)
    per = periods(kind, states.horizon_hours, states=states)
    labels, weights = per.labels, per.weights
    x = add_investment(m, system, invest)
    add_operating_core(m, system, labels, states.demand, states.renewable_avail,
                       weights, x)

    pairs = [(a, b) for a in range(s_count) for b in range(s_count) if trans[a, b] > 0]
    move = {(a, b): f"s{a}_s{b}" for a, b in pairs}   # label of a transition

    # startups are decided per observed transition and paid per occurrence
    for a, b in pairs:
        if a == b:
            continue
        for g in system.thermal:
            y = m.add_var(var_name("y", move[a, b], g.id), ub=1.0, integer=True,
                          obj=float(trans[a, b]) * g.startup_cost)
            m.add_con(f"start_{move[a, b]}_{g.id}",
                      [(var_name("u", labels[b], g.id), 1.0),
                       (var_name("u", labels[a], g.id), -1.0),
                       (y, -1.0)], LE, 0.0)

    # storage level shift per transition: mean net injection of both states
    for k, s in enumerate(system.storage):
        for a, b in pairs:
            dw = m.add_var(var_name("dw", move[a, b], s.id), lb=-np.inf, ub=np.inf)
            terms = [(dw, 1.0)]
            for st in (a, b):
                terms.append((var_name("b", labels[st], s.id), -0.5 * s.efficiency))
                terms.append((var_name("q", labels[st], s.id), 0.5))
                terms.append((var_name("sp", labels[st], s.id), 0.5))
            rhs = 0.5 * float(states.inflows[a, k] + states.inflows[b, k])
            m.add_con(f"dwdef_{move[a, b]}_{s.id}", terms, EQ, rhs)

    def bound_rows(tag: str, s: StorageUnit, matrix: np.ndarray, lo_rhs: float, hi_rhs: float,
                   suffix: str = ""):
        """One >= and one <= row over the dw variables weighted by a count matrix,
        named ``<tag>lo<suffix>_<unit>`` and ``<tag>hi<suffix>_<unit>``."""
        terms_lo = [(var_name("dw", move[a, b], s.id), float(matrix[a, b]))
                    for a, b in pairs if matrix[a, b] > 0]
        terms_hi = list(terms_lo)
        if s.id in x:
            terms_lo.append((x[s.id], -s.epr_min))
            terms_hi.append((x[s.id], -s.epr_max))
        m.add_con(f"{tag}lo{suffix}_{s.id}", terms_lo, GE, lo_rhs)
        m.add_con(f"{tag}hi{suffix}_{s.id}", terms_hi, LE, hi_rhs)

    # end-of-horizon level: W0 plus every transition shift, counted
    for s in system.storage:
        bound_rows("end", s, trans, s.w_fin - s.w0, s.w_max - s.w0)

    # checkpoint bounds
    for ki, k in enumerate(matrices.checkpoints):
        for s in system.storage:
            use_window = kind == "ss_rfm" and s.kind == "short_term"
            matrix = matrices.reduced_frequency[ki] if use_window else matrices.frequency[ki]
            bound_rows("win" if use_window else "chk", s, matrix,
                       s.w_min - s.w0, s.w_max - s.w0, suffix=f"_k{k}")

    return FormulationOutput(model=m, kind=kind, meta={"kind": kind, "invest": invest})


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
