"""Building blocks shared by every time representation.

All formulations dispatch the same operating core per modeled period: thermal
commitment and production split, renewable use, non-served power, storage
charge/discharge, network flows through shift factors, and spinning reserve.
They differ only in what a "period" is (an hour, a composite hour, or an hour
of a representative day), in how startups are linked, and in how storage
levels are carried through time, which each family adds on top.

Every variable is named ``var_name(symbol, label, id)``, e.g. ``u_p5_gas``;
that name is the only index a built model keeps, and evaluation reads
solution values back by it.

Constraint name prefixes (the family tag used by the audit tooling):

==========  =========================================================
``bal``     nodal power balance per period
``flow``    circuit flow definition from shift factors
``psplit``  production = minimum-when-committed + above-minimum part
``pcap``    above-minimum production capped by commitment
``start``   startup indicator linking consecutive commitments
``rcap``    reserve + production within committed capacity
``rreq``    system spinning reserve requirement
``dcap``    storage discharge within existing + invested capacity
``ccap``    storage charge within existing + invested capacity
``level``   hourly storage balance
``lvlo``    storage level above investment-raised floor
``lvhi``    storage level below investment-raised ceiling
``fin``     end-of-horizon storage requirement
==========  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..milp import MilpModel, INF, LE, GE, EQ
from ..system import PowerSystem
from ..timeseries import HOURS_PER_DAY
from ..aggregation import StateClustering, RepPeriodClustering


@dataclass
class FormulationOutput:
    """A built model plus the metadata evaluation needs to interpret it:
    ``kind``, ``invest`` and, for ``rp_tmci``, the ``checkpoints``."""

    model: MilpModel
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def registry(self) -> tuple[str, ...]:
        """The model's variable names in declaration order."""
        return self.model.var_names


class Periods(NamedTuple):
    """One kind's time layout: the period ``labels`` in declaration order,
    the real hour each period is (``hours``; None for the states family,
    whose periods are composite hours) and ``pos``, the period index of
    every real hour."""

    labels: list[str]
    hours: np.ndarray | None
    pos: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        """The number of real hours each period stands for."""
        return np.bincount(self.pos, minlength=len(self.labels))


def periods(kind: str, horizon_hours: int, states: StateClustering | None = None,
            rp: RepPeriodClustering | None = None) -> Periods:
    """The hour -> period map of ``kind`` over ``horizon_hours`` real hours:
    every hour for ``hm``; one composite hour per state, by the state
    assignment, for the states family; for representative days the hours of
    the medoid days in calendar order, each real hour going to the same hour
    of day in its cluster's medoid day.  Raises ValueError for an unknown
    kind, a missing clustering or one that covers another horizon.
    """
    if kind == "hm":
        hours = pos = np.arange(horizon_hours)
    elif kind in ("ss", "ss_rfm"):
        if states is None:
            raise ValueError(f"{kind!r} periods need the state clustering")
        hours, pos = None, states.assignment
    elif kind in ("rp", "rp_tmci"):
        if rp is None:
            raise ValueError(f"{kind!r} periods need the day clustering")
        days = np.sort(rp.medoid_days)              # model days in calendar order
        hours = (days[:, None] * HOURS_PER_DAY + np.arange(HOURS_PER_DAY)).ravel()
        model_day = np.searchsorted(days, rp.medoid_days)[rp.day_assignment]
        t = np.arange(rp.horizon_hours)
        pos = model_day[t // HOURS_PER_DAY] * HOURS_PER_DAY + t % HOURS_PER_DAY
    else:
        raise ValueError(f"unknown formulation kind {kind!r}")
    if len(pos) != horizon_hours:
        raise ValueError(f"the {kind!r} clustering covers {len(pos)} hours, "
                         f"not {horizon_hours}")
    labels = ([f"s{s}" for s in range(states.num_states)] if hours is None
              else [f"p{h}" for h in hours.tolist()])
    return Periods(labels, hours, pos)


def var_name(symbol: str, label: str, uid: str) -> str:
    """The name of variable ``symbol`` for period ``label`` and unit, node or
    circuit ``uid``, e.g. ``q_p17_gas`` or ``dw_s3_s5_bess``."""
    return f"{symbol}_{label}_{uid}"


def add_investment(m: MilpModel, system: PowerSystem, invest: bool) -> dict:
    """Declare new-capacity variables for investable storage.

    With ``invest`` false no variable is declared, which pins every candidate
    at zero and turns the capacity couplings below into plain bounds.
    Returns the storage id -> ``x_<id>`` map of declared variables.
    """
    x: dict = {}
    if not invest:
        return x
    for s in system.storage:
        if s.investable:
            x[s.id] = m.add_var(f"x_{s.id}", lb=0.0, ub=INF, obj=s.inv_cost)
    return x


def add_operating_core(m: MilpModel, system: PowerSystem, labels: list[str],
                       demand: np.ndarray, vmax: np.ndarray,
                       weights: np.ndarray, x: dict) -> None:
    """Add the per-period dispatch block for every label.

    ``demand`` and ``vmax`` are (T, n_nodes) in period order; ``weights`` is
    the number of real hours each period stands for and scales every running
    cost.  Variables are named ``var_name(symbol, label, id)`` with symbols
    ``q``, ``qhat``, ``u``, ``r`` (thermal), ``q``, ``b``, ``sp`` (storage),
    ``v``, ``pns`` (node) and ``pf`` (circuit).
    """
    cfg = system.config
    net = system.network
    buses = net.buses
    nonslack = net.nonslack
    thermal_at = {n: [g for g in system.thermal if g.bus == n] for n in buses}
    storage_at = {n: [s for s in system.storage if s.bus == n] for n in buses}

    for t, label in enumerate(labels):
        wt = float(weights[t])
        # this label's variable names, keyed by unit, node or circuit id
        q, qhat, u, r, b, sp, v, pns, pf = ({} for _ in range(9))
        for g in system.thermal:
            q[g.id] = m.add_var(var_name("q", label, g.id), obj=wt * g.marginal_cost)
            qhat[g.id] = m.add_var(var_name("qhat", label, g.id))
            u[g.id] = m.add_var(var_name("u", label, g.id), ub=1.0, integer=True,
                                obj=wt * g.commitment_cost)
            r[g.id] = m.add_var(var_name("r", label, g.id), ub=g.ramp_10min)
        for s in system.storage:
            has_x = s.id in x
            q[s.id] = m.add_var(var_name("q", label, s.id),
                                ub=INF if has_x else s.q_max)
            b[s.id] = m.add_var(var_name("b", label, s.id),
                                ub=INF if has_x else s.b_max)
            sp[s.id] = m.add_var(var_name("sp", label, s.id), obj=wt * cfg.spill_penalty)
        for j, n in enumerate(buses):
            v[n] = m.add_var(var_name("v", label, n), ub=max(0.0, float(vmax[t, j])))
            pns[n] = m.add_var(var_name("pns", label, n), obj=wt * cfg.pns_penalty)
        for c in net.circuits:
            pf[c.id] = m.add_var(var_name("pf", label, c.id),
                                 lb=-c.capacity, ub=c.capacity)

        # nodal balance: generation - charging + flows in - flows out + pns = demand
        for j, n in enumerate(buses):
            terms: list = [(q[g.id], 1.0) for g in thermal_at[n]]
            for s in storage_at[n]:
                terms.append((q[s.id], 1.0))
                terms.append((b[s.id], -1.0))
            terms.append((v[n], 1.0))
            terms.append((pns[n], 1.0))
            for c in net.circuits:
                if c.to_bus == n:
                    terms.append((pf[c.id], 1.0))
                if c.from_bus == n:
                    terms.append((pf[c.id], -1.0))
            m.add_con(f"bal_{label}_{n}", terms, EQ, float(demand[t, j]))

        # circuit flows follow injections through the shift-factor matrix
        if net.circuits:
            inj_vars: dict[str, list] = {}
            for n in nonslack:
                inj: list = [(q[g.id], 1.0) for g in thermal_at[n]]
                for s in storage_at[n]:
                    inj.append((q[s.id], 1.0))
                    inj.append((b[s.id], -1.0))
                inj.append((v[n], 1.0))
                inj.append((pns[n], 1.0))
                inj_vars[n] = inj
            for ci, c in enumerate(net.circuits):
                terms = [(pf[c.id], 1.0)]
                rhs = 0.0
                for jj, n in enumerate(nonslack):
                    factor = float(net.isf[ci, jj])
                    if factor == 0.0:
                        continue
                    for var, sgn in inj_vars[n]:
                        terms.append((var, -factor * sgn))
                    rhs -= factor * float(demand[t, buses.index(n)])
                m.add_con(f"flow_{label}_{c.id}", terms, EQ, rhs)

        for g in system.thermal:
            m.add_con(f"psplit_{label}_{g.id}",
                      [(q[g.id], 1.0), (u[g.id], -g.q_min), (qhat[g.id], -1.0)], EQ, 0.0)
            m.add_con(f"pcap_{label}_{g.id}",
                      [(qhat[g.id], 1.0), (u[g.id], -(g.q_max - g.q_min))], LE, 0.0)
            m.add_con(f"rcap_{label}_{g.id}",
                      [(r[g.id], 1.0), (q[g.id], 1.0), (u[g.id], -g.q_max)], LE, 0.0)
        if cfg.reserve_fraction > 0.0:
            m.add_con(f"rreq_{label}",
                      [(r[g.id], 1.0) for g in system.thermal], GE,
                      cfg.reserve_fraction * float(demand[t].sum()))

        for s in system.storage:
            if s.id in x:
                m.add_con(f"dcap_{label}_{s.id}",
                          [(q[s.id], 1.0), (x[s.id], -1.0)], LE, s.q_max)
                m.add_con(f"ccap_{label}_{s.id}",
                          [(b[s.id], 1.0), (x[s.id], -s.efficiency)], LE, s.b_max)


def add_hourly_levels(m: MilpModel, system: PowerSystem, labels: list[str],
                      inflows: np.ndarray, x: dict,
                      day_starts: set[int] | None = None) -> None:
    """Chained hourly storage levels ``w_<label>_<unit>`` over consecutive
    labels.

    Position 0 (and every position in ``day_starts``) anchors at the unit's
    initial level instead of the previous period, which is how representative
    days restart their own chronology.
    """
    for label in labels:
        for s in system.storage:
            has_x = s.id in x
            w = m.add_var(var_name("w", label, s.id),
                          lb=0.0 if has_x else s.w_min, ub=INF if has_x else s.w_max)
            if has_x:
                m.add_con(f"lvlo_{label}_{s.id}", [(w, 1.0), (x[s.id], -s.epr_min)],
                          GE, s.w_min)
                m.add_con(f"lvhi_{label}_{s.id}", [(w, 1.0), (x[s.id], -s.epr_max)],
                          LE, s.w_max)
    for t, label in enumerate(labels):
        fresh = t == 0 or (day_starts is not None and t in day_starts)
        for k, s in enumerate(system.storage):
            terms = [(var_name("w", label, s.id), 1.0),
                     (var_name("q", label, s.id), 1.0),
                     (var_name("sp", label, s.id), 1.0),
                     (var_name("b", label, s.id), -s.efficiency)]
            rhs = float(inflows[t, k])
            if fresh:
                rhs += s.w0
            else:
                terms.append((var_name("w", labels[t - 1], s.id), -1.0))
            m.add_con(f"level_{label}_{s.id}", terms, EQ, rhs)


def add_hourly_startups(m: MilpModel, system: PowerSystem, labels: list[str],
                        weights: np.ndarray, day_starts: set[int] | None = None) -> None:
    """Startup indicators ``y_<label>_<unit>`` chained over consecutive labels.

    At position 0 (and at each ``day_starts`` position) the previous
    commitment is the unit's configured initial state.  The startup cost is
    weighted like the other running costs of its period.
    """
    for t, label in enumerate(labels):
        wt = float(weights[t])
        for g in system.thermal:
            m.add_var(var_name("y", label, g.id), ub=1.0, integer=True,
                      obj=wt * g.startup_cost)
    for t, label in enumerate(labels):
        fresh = t == 0 or (day_starts is not None and t in day_starts)
        for g in system.thermal:
            terms = [(var_name("u", label, g.id), 1.0), (var_name("y", label, g.id), -1.0)]
            if fresh:
                rhs = float(system.initial_commitment(g.id))
            else:
                terms.append((var_name("u", labels[t - 1], g.id), -1.0))
                rhs = 0.0
            m.add_con(f"start_{label}_{g.id}", terms, LE, rhs)
