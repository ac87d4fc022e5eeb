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
from .common import (FormulationOutput, var_name, add_investment,
                     add_operating_core, add_hourly_levels, add_hourly_startups)


def _rep_day_core(system: PowerSystem, data: TimeHorizonData,
                  rp: RepPeriodClustering, invest: bool, kind: str):
    day_order = np.argsort(rp.medoid_days)          # model days in calendar order
    rep_hours: list[int] = []
    hour_weight: list[float] = []
    for r in day_order:
        f = int(rp.medoid_days[r]) * HOURS_PER_DAY
        rep_hours.extend(range(f, f + HOURS_PER_DAY))
        hour_weight.extend([float(rp.weights[r])] * HOURS_PER_DAY)
    labels = [f"p{h}" for h in rep_hours]
    weights = np.array(hour_weight)
    # the plain model treats every day as its own fresh chronology; the
    # enhanced one concatenates the days so commitments and levels carry
    # over, with checkpoints and commitment links tying the chain back to
    # the real calendar
    day_starts = set(range(0, len(labels), HOURS_PER_DAY)) if kind == "rp" else None

    m = MilpModel(kind)
    x = add_investment(m, system, invest)
    add_operating_core(m, system, labels, data.demand[rep_hours],
                       data.renewable_avail[rep_hours], weights, x)
    add_hourly_startups(m, system, labels, weights, day_starts=day_starts)
    add_hourly_levels(m, system, labels, data.inflows[rep_hours], x, day_starts=day_starts)
    return m, x, labels, rep_hours, weights


def _day_edge_labels(rp: RepPeriodClustering, cluster: int) -> tuple[str, str]:
    first = int(rp.medoid_days[cluster]) * HOURS_PER_DAY
    return f"p{first}", f"p{first + HOURS_PER_DAY - 1}"


def build_rp(system: PowerSystem, data: TimeHorizonData,
             rp: RepPeriodClustering, invest: bool = False) -> FormulationOutput:
    m, x, labels, rep_hours, weights = _rep_day_core(system, data, rp, invest, "rp")
    for r in range(rp.num_rp):
        _, last = _day_edge_labels(rp, r)
        for s in system.storage:
            m.add_con(f"cyc_r{r}_{s.id}", [(var_name("w", last, s.id), 1.0)], GE, s.w0)
    meta = {
        "kind": "rp",
        "invest": invest,
        "time_labels": labels,
        "time_weights": [float(v) for v in weights],
        "hours": rep_hours,
        "terminal": "cyclic_day",
    }
    return FormulationOutput(model=m, kind="rp", meta=meta)


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
    m, x, labels, rep_hours, weights = _rep_day_core(system, data, rp, invest, "rp_tmci")

    # commitment continuity across observed day-cluster transitions
    nrpp = matrices.rp_transitions
    total = float(nrpp.sum())
    threshold = theta * total if 0 < theta < 1 else theta
    linked_pairs = []
    if np.isfinite(threshold):
        for a in range(rp.num_rp):
            for bb in range(rp.num_rp):
                if nrpp[a, bb] >= threshold and nrpp[a, bb] > 0:
                    linked_pairs.append((a, bb))
    for a, bb in linked_pairs:
        _, last_a = _day_edge_labels(rp, a)
        first_b, _ = _day_edge_labels(rp, bb)
        for g in system.thermal:
            m.add_con(f"ulink_r{a}_r{bb}_{g.id}",
                      [(var_name("u", last_a, g.id), 1.0), (var_name("u", first_b, g.id), -1.0)],
                      EQ, 0.0)

    # checkpoint storage levels chained across the real calendar
    p_total = rp.horizon_hours
    checkpoints = default_checkpoints(p_total, window)
    hour_map = rp.hour_map()
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
        for s in system.storage:
            coeffs: dict[str, float] = {var_name("wchk", f"k{k}", s.id): 1.0}
            if prev:
                coeffs[var_name("wchk", f"k{prev}", s.id)] = -1.0
            rhs = 0.0 if prev else s.w0
            for p in range(prev, k):
                rep_h = int(hour_map[p])
                lbl = f"p{rep_h}"
                for sym, c in (("b", -s.efficiency), ("q", 1.0), ("sp", 1.0)):
                    name = var_name(sym, lbl, s.id)
                    coeffs[name] = coeffs.get(name, 0.0) + c
                rhs += float(data.inflows[rep_h, system.storage_ids.index(s.id)])
            m.add_con(f"cbal_k{k}_{s.id}", coeffs, EQ, rhs)
        prev = k
    for s in system.storage:
        m.add_con(f"cfin_{s.id}", [(var_name("wchk", f"k{checkpoints[-1]}", s.id), 1.0)],
                  GE, s.w_fin)

    meta = {
        "kind": "rp_tmci",
        "invest": invest,
        "time_labels": labels,
        "time_weights": [float(v) for v in weights],
        "hours": rep_hours,
        "terminal": "final_checkpoint",
        "checkpoints": [int(k) for k in checkpoints],
        "window": int(window),
        "theta": None if np.isinf(theta) else float(theta),
        "linked_pairs": [[int(a), int(bb)] for a, bb in linked_pairs],
    }
    return FormulationOutput(model=m, kind="rp_tmci", meta=meta)
