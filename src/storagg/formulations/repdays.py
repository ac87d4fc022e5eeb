"""Representative-days family: a few real days stand for the whole horizon.

Each representative day is modeled hour by hour with its own chronology and
its costs are weighted by the number of days its cluster represents.  In the
plain variant every day is storage-cyclic: the level at the end of the day
must not fall below the level the day started from, so no energy can be
netted across days.  The enhanced variant replaces that with two chronology
devices derived from the day sequence: commitments are linked across
day-cluster transitions, and storage is additionally tracked by checkpoint
variables chained across the real calendar through the day-to-representative
hour map, with end-of-horizon and box bounds applied at the checkpoints.

Constraint prefixes added here: ``cyc`` day cyclicity, ``ulink`` cross-day
commitment linking, ``cbal`` checkpoint level chaining, ``clo``/``chi``
checkpoint level box, ``cfin`` end-of-horizon checkpoint requirement.
"""

from __future__ import annotations

import numpy as np

from ..milp import MilpModel, INF, LE, GE, EQ
from ..system import PowerSystem
from ..timeseries import HOURS_PER_DAY, TimeHorizonData
from ..aggregation import (RepPeriodClustering, TransitionMatrices,
                           default_checkpoints)
from .common import (FormulationOutput, periods, var_name, add_investment,
                     add_operating_core, add_hourly_levels, add_hourly_startups)


def _rep_day_core(system: PowerSystem, data: TimeHorizonData,
                  rp: RepPeriodClustering, invest: bool, kind: str):
    per = periods(kind, data.horizon_hours, rp=rp)
    labels, hours, weights = per.labels, per.hours, per.weights
    # the plain model treats every day as its own fresh chronology; the
    # enhanced one concatenates the days so commitments and levels carry
    # over, with checkpoints and commitment links tying the chain back to
    # the real calendar
    day_starts = set(range(0, len(labels), HOURS_PER_DAY)) if kind == "rp" else None

    m = MilpModel(kind)
    x = add_investment(m, system, invest)
    add_operating_core(m, system, labels, data.demand[hours],
                       data.renewable_avail[hours], weights, x)
    add_hourly_startups(m, system, labels, weights, day_starts=day_starts)
    add_hourly_levels(m, system, labels, data.inflows[hours], x, day_starts=day_starts)
    return m, x, per


def _day_edge_labels(rp: RepPeriodClustering, cluster: int) -> tuple[str, str]:
    first = int(rp.medoid_days[cluster]) * HOURS_PER_DAY
    return f"p{first}", f"p{first + HOURS_PER_DAY - 1}"


def build_rp(system: PowerSystem, data: TimeHorizonData,
             rp: RepPeriodClustering, invest: bool = False) -> FormulationOutput:
    m, _, _ = _rep_day_core(system, data, rp, invest, "rp")
    for r in range(rp.num_rp):
        _, last = _day_edge_labels(rp, r)
        for s in system.storage:
            m.add_con(f"cyc_r{r}_{s.id}", [(var_name("w", last, s.id), 1.0)], GE, s.w0)
    return FormulationOutput(model=m, kind="rp", meta={"kind": "rp", "invest": invest})


def build_rp_tmci(system: PowerSystem, data: TimeHorizonData,
                  rp: RepPeriodClustering, matrices: TransitionMatrices,
                  window: int = 168, theta: float = 1.0,
                  invest: bool = False) -> FormulationOutput:
    """Representative days enhanced with day-sequence chronology.

    ``window`` sets the checkpoint spacing in hours (a multiple of the day
    length).  ``theta`` is the day-transition count at which commitment
    linking kicks in; a value in (0, 1) is read as a fraction of all day
    transitions, and ``inf`` disables linking entirely.
    """
    if window % HOURS_PER_DAY != 0:
        raise ValueError(f"checkpoint window {window} must be a multiple of {HOURS_PER_DAY}")
    m, x, per = _rep_day_core(system, data, rp, invest, "rp_tmci")

    # commitment continuity across observed day-cluster transitions
    nrpp = matrices.rp_transitions
    threshold = theta * float(nrpp.sum()) if 0 < theta < 1 else theta
    for a, bb in np.argwhere((nrpp >= threshold) & (nrpp > 0)).tolist():
        _, last_a = _day_edge_labels(rp, a)
        first_b, _ = _day_edge_labels(rp, bb)
        for g in system.thermal:
            m.add_con(f"ulink_r{a}_r{bb}_{g.id}",
                      [(var_name("u", last_a, g.id), 1.0), (var_name("u", first_b, g.id), -1.0)],
                      EQ, 0.0)

    # checkpoint storage levels chained across the real calendar
    checkpoints = default_checkpoints(data.horizon_hours, window)
    inflows = data.inflows[per.hours]               # per period
    for k in checkpoints:
        for s in system.storage:
            has_x = s.id in x
            wchk = m.add_var(var_name("wchk", f"k{k}", s.id),
                             lb=0.0 if has_x else s.w_min, ub=INF if has_x else s.w_max)
            if has_x:
                m.add_con(f"clo_k{k}_{s.id}", [(wchk, 1.0), (x[s.id], -s.epr_min)],
                          GE, s.w_min)
                m.add_con(f"chi_k{k}_{s.id}", [(wchk, 1.0), (x[s.id], -s.epr_max)],
                          LE, s.w_max)
    prev = 0
    for k in checkpoints:
        k = int(k)
        for j, s in enumerate(system.storage):
            coeffs: dict[str, float] = {var_name("wchk", f"k{k}", s.id): 1.0}
            if prev:
                coeffs[var_name("wchk", f"k{prev}", s.id)] = -1.0
            rhs = 0.0 if prev else s.w0
            for t in per.pos[prev:k].tolist():
                for sym, c in (("b", -s.efficiency), ("q", 1.0), ("sp", 1.0)):
                    name = var_name(sym, per.labels[t], s.id)
                    coeffs[name] = coeffs.get(name, 0.0) + c
                rhs += float(inflows[t, j])
            m.add_con(f"cbal_k{k}_{s.id}", coeffs, EQ, rhs)
        prev = k
    for s in system.storage:
        m.add_con(f"cfin_{s.id}", [(var_name("wchk", f"k{checkpoints[-1]}", s.id), 1.0)],
                  GE, s.w_fin)

    meta = {"kind": "rp_tmci", "invest": invest,
            "checkpoints": [int(k) for k in checkpoints]}
    return FormulationOutput(model=m, kind="rp_tmci", meta=meta)
