"""Building blocks shared by every time representation.

All formulations dispatch the same operating core per modeled period: thermal
commitment and production split, renewable use, non-served power, storage
charge/discharge, network flows through shift factors, and spinning reserve.
They differ only in what a "period" is (an hour, a composite hour, or an hour
of a representative day), in how startups are linked, and in how storage
levels are carried through time, which each family adds on top.  The
hour-based kinds ``hm``, ``rp`` and ``rp_tmci`` share one ``hour_chain`` and
differ only in its ``step`` and in the rows each adds after it.

A builder describes one period once, as a stencil of columns (``Col``) and
rows (``Row``), and ``tile_columns``/``tile_rows`` repeat it over the
period labels in one bulk call per stencil; what changes from period to
period is given per label.  Rows address columns by the positions
``tile_columns`` returns; a link to the previous period is that position
array shifted by one (``shifted``), with no term where ``fresh`` starts a
chronology.  Names read ``<symbol>_<label>_<id>``, e.g. ``u_p5_gas``, all
composed by ``names``, distinct by construction: ids are distinct
identifiers (``validate_system``), a symbol serves one kind of id, and each
kind's labels have one form.  Tiled label-major, one (symbol, id) block's
entries lie a stencil's width apart: the tilers record each stencil's first
position, label count and block keys in ``ModelMeta.columns``/``rows``, and
evaluation reads a solution at the ``positions`` they give, composing no
name.

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

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ..milp import MilpModel, INF, LE, GE, EQ
from ..system import PowerSystem
from ..timeseries import HOURS_PER_DAY, TimeHorizonData
from ..aggregation import StateClustering, RepPeriodClustering


# a layout: one [first position, label count, key, ...] per tiled stencil
_TILED = {"range": (lambda v: all(
    isinstance(t, list) and len(t) >= 2 and all(type(i) is int and i >= 0 for i in t[:2])
    and all(isinstance(key, str) for key in t[2:]) for t in v),
    "a list of [first position, label count, key, ...] lists")}


@dataclass
class ModelMeta:
    """What evaluation needs to interpret a built model, its sidecar's
    ``meta`` (``milp.write_registry``): the ``kind``, ``invest``, for
    ``rp_tmci`` the ``checkpoints``, and the tiled blocks' layout."""

    kind: str
    invest: bool
    checkpoints: list[int] | None = None    # rp_tmci only
    columns: list = field(default_factory=list, metadata=_TILED)
    rows: list = field(default_factory=list, metadata=_TILED)


@dataclass
class FormulationOutput:
    """A built model plus its ``ModelMeta``."""

    model: MilpModel
    meta: ModelMeta

    @property
    def kind(self) -> str:
        return self.meta.kind

    @property
    def registry(self) -> Sequence[str]:
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


def state_moves(assignment: np.ndarray, num_states: int) -> tuple[np.ndarray, ...]:
    """(a, b, move): the moves a -> b between consecutive hours' states, in
    the order the states builder tiles them, and each hour's move index."""
    key, move = np.unique(assignment[:-1] * num_states + assignment[1:], return_inverse=True)
    return key // num_states, key % num_states, move


def checkpoint_labels(checkpoints) -> list[str]:
    """The label ``k<hour>`` of each checkpoint hour."""
    return [f"k{int(k)}" for k in checkpoints]


class Col(NamedTuple):
    """A stencil column; ``lb``, ``ub`` and ``obj`` are given once or per
    label."""
    symbol: str
    id: str | None
    lb: object = 0.0
    ub: object = INF
    obj: object = 0.0
    integer: bool = False


class Row(NamedTuple):
    """A stencil row.  Each term pairs columns with coefficients of the same
    width, each given once, per label or as a (1 or labels, n) block of n
    entries per label; a negative column drops its entry.  ``rhs`` is given
    once or per label."""
    prefix: str
    id: str | None
    terms: list
    sense: str
    rhs: object = 0.0


def names(labels: list[str], stencil: list) -> list[str]:
    """``<key[0]>_<label>_<key[1]>`` (e.g. ``q_p17_gas``) for every label
    and stencil key, label-major; a None id drops its part."""
    parts = [(f"{key[0]}_", "" if key[1] is None else f"_{key[1]}") for key in stencil]
    return [head + label + tail for label in labels for head, tail in parts]


def _block(value) -> np.ndarray:
    """A value given once or per label, as a 2-D block of 1 or labels rows."""
    a = np.asarray(value)
    return a.reshape(-1, 1) if a.ndim < 2 else a


def _side_by_side(blocks: list, count: int, dtype) -> np.ndarray:
    """2-D blocks of 1 or ``count`` rows, laid side by side in a (count,
    total width) array."""
    out = np.empty((count, sum(b.shape[1] for b in blocks)), dtype)
    for b, stop in zip(blocks, accumulate(b.shape[1] for b in blocks)):
        out[:, stop - b.shape[1]:stop] = b
    return out


def _key(symbol: str, uid: str | None) -> str:
    """A block's key, ``<symbol>_<id>`` (``<symbol>`` for a None id); the
    keys are distinct by construction, as the names are."""
    return symbol if uid is None else f"{symbol}_{uid}"


def positions(layout: list, symbol: str, ids: list, count: int) -> np.ndarray:
    """The (count, len(ids)) positions of ``symbol``'s block of each id in
    ``layout``: the k-th key of a stencil tiled from ``first`` starts at
    ``first + k``, its entries the stencil's width apart.  ValueError if a
    block is not recorded or holds another count."""
    blocks = {key: (first + k, len(keys), n) for first, n, *keys in layout
              for k, key in enumerate(keys)}
    grid = np.empty((count, len(ids)), dtype=np.int64)
    for j, key in enumerate(_key(symbol, uid) for uid in ids):
        start, stride, found = blocks.get(key, (0, 0, None))
        if found != count:
            raise ValueError(f"block {key!r} of the model holds {found or 'no'} entries, "
                             f"expected {count}")
        grid[:, j] = start + stride * np.arange(count)
    return grid


def tile_columns(fo: FormulationOutput, labels: list[str], stencil: list[Col]) -> dict:
    """Add ``stencil``'s columns for every label in one ``add_vars`` call
    and record their blocks in ``fo.meta.columns``; returns (symbol, id) ->
    their positions over the labels."""
    n = len(labels)
    fields = [_side_by_side([_block(c[j]) for c in stencil], n, np.float64)
              for j in (2, 3, 4, 5)]
    fo.meta.columns.append([fo.model.num_vars, n, *(_key(*c[:2]) for c in stencil)])
    pos = fo.model.add_vars(names(labels, stencil), *(f.ravel() for f in fields))
    pos = pos.reshape(n, len(stencil))
    return {(c.symbol, c.id): pos[:, k] for k, c in enumerate(stencil)}


def tile_rows(fo: FormulationOutput, labels: list[str], stencil: list[Row]) -> None:
    """Add ``stencil``'s rows for every label in one ``add_rows`` call, each
    row's terms in order, and record their blocks in ``fo.meta.rows``."""
    n = len(labels)
    terms = [(i, cols, coef) for i, r in enumerate(stencil) for cols, coef in r.terms]
    cols = [_block(t[1]) for t in terms]
    col = _side_by_side(cols, n, np.int64)
    val = _side_by_side([_block(t[2]) for t in terms], n, np.float64)
    at = np.repeat([t[0] for t in terms], [c.shape[1] for c in cols])
    rhs = _side_by_side([_block(r.rhs) for r in stencil], n, np.float64)
    m = fo.model
    fo.meta.rows.append([m.num_cons, n, *(_key(*r[:2]) for r in stencil)])
    m.add_rows(names(labels, stencil), (np.arange(n)[:, None] * len(stencil) + at).ravel(),
               col.ravel(), val.ravel(), np.tile([r.sense for r in stencil], n), rhs.ravel())


def shifted(cols: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Each label's previous column, -1 where ``fresh`` starts a chronology."""
    return np.where(fresh, -1, np.roll(cols, 1))


def add_investment(fo: FormulationOutput, system: PowerSystem, invest: bool) -> dict:
    """Declare new-capacity variables ``x_<id>`` for investable storage.

    With ``invest`` false no variable is declared, which pins every candidate
    at zero and turns the capacity couplings below into plain bounds.
    Returns the storage id -> column position map of declared variables.
    """
    units = [s for s in system.storage if s.investable] if invest else []
    x = tile_columns(fo, [s.id for s in units], [Col("x", None, obj=[s.inv_cost for s in units])])
    return {s.id: int(j) for s, j in zip(units, x.get(("x", None), []))}


def add_levels(fo: FormulationOutput, system: PowerSystem, labels: list[str], x: dict,
               symbol: str, lo: str, hi: str) -> dict:
    """Storage level columns ``<symbol>_<label>_<unit>``; an investable
    unit's level is bounded by rows ``lo``/``hi`` between its
    investment-raised floor and ceiling, any other's by its own."""
    col = tile_columns(fo, labels, [
        Col(symbol, s.id, lb=0.0 if s.id in x else s.w_min, ub=INF if s.id in x else s.w_max)
        for s in system.storage])
    tile_rows(fo, labels, [
        Row(prefix, s.id, [(col[symbol, s.id], 1.0), (x[s.id], -epr)], sense, rhs)
        for s in system.storage if s.id in x
        for prefix, epr, sense, rhs in ((lo, s.epr_min, GE, s.w_min), (hi, s.epr_max, LE, s.w_max))])
    return col


def add_final(fo: FormulationOutput, system: PowerSystem, prefix: str, last: list) -> None:
    """Rows ``<prefix>_<unit>``: the level column ``last[k]`` of unit k ends
    the horizon at or above the unit's requirement."""
    tile_rows(fo, system.storage_ids,
              [Row(prefix, None, [(last, 1.0)], GE, [s.w_fin for s in system.storage])])


def add_operating_core(fo: FormulationOutput, system: PowerSystem, labels: list[str],
                       demand: np.ndarray, vmax: np.ndarray,
                       weights: np.ndarray, x: dict) -> dict:
    """Add the per-period dispatch block for every label.

    ``demand`` and ``vmax`` are (T, n_nodes) in period order; ``weights`` is
    the number of real hours each period stands for and scales every running
    cost.  The columns have symbols ``q``, ``qhat``, ``u``, ``r`` (thermal),
    ``q``, ``b``, ``sp`` (storage), ``v``, ``pns`` (node) and ``pf``
    (circuit); returns their positions as ``tile_columns`` does.
    """
    cfg, net = system.config, system.network
    wt = weights.astype(np.float64)
    stencil = []
    for g in system.thermal:
        stencil += [Col("q", g.id, obj=wt * g.marginal_cost), Col("qhat", g.id),
                    Col("u", g.id, ub=1.0, obj=wt * g.commitment_cost, integer=True),
                    Col("r", g.id, ub=g.ramp_10min)]
    for s in system.storage:
        has_x = s.id in x
        stencil += [Col("q", s.id, ub=INF if has_x else s.q_max),
                    Col("b", s.id, ub=INF if has_x else s.b_max),
                    Col("sp", s.id, obj=wt * cfg.spill_penalty)]
    for j, n in enumerate(net.buses):
        stencil += [Col("v", n, ub=np.where(vmax[:, j] > 0.0, vmax[:, j], 0.0)),
                    Col("pns", n, obj=wt * cfg.pns_penalty)]
    stencil += [Col("pf", c.id, lb=-c.capacity, ub=c.capacity) for c in net.circuits]
    col = tile_columns(fo, labels, stencil)

    def injection(n: str) -> list:
        """The terms of what bus ``n`` injects into the network."""
        terms = [(col["q", g.id], 1.0) for g in system.thermal if g.bus == n]
        for s in system.storage:
            if s.bus == n:
                terms += [(col["q", s.id], 1.0), (col["b", s.id], -1.0)]
        return terms + [(col["v", n], 1.0), (col["pns", n], 1.0)]

    # nodal balance: generation - charging + flows in - flows out + pns = demand
    rows = []
    for j, n in enumerate(net.buses):
        flows = [(col["pf", c.id], sign) for c in net.circuits
                 for end, sign in ((c.to_bus, 1.0), (c.from_bus, -1.0)) if end == n]
        rows.append(Row("bal", n, injection(n) + flows, EQ, demand[:, j]))
    # circuit flows follow injections through the shift-factor matrix
    for ci, c in enumerate(net.circuits):
        terms, rhs = [(col["pf", c.id], 1.0)], np.zeros(len(labels))
        for jj, n in enumerate(net.nonslack):
            factor = float(net.isf[ci, jj])
            if factor != 0.0:
                terms += [(cols, -factor * sign) for cols, sign in injection(n)]
                rhs = rhs - factor * demand[:, net.buses.index(n)]
        rows.append(Row("flow", c.id, terms, EQ, rhs))
    for g in system.thermal:
        q, qhat, u, r = (col[sym, g.id] for sym in ("q", "qhat", "u", "r"))
        rows += [Row("psplit", g.id, [(q, 1.0), (u, -g.q_min), (qhat, -1.0)], EQ),
                 Row("pcap", g.id, [(qhat, 1.0), (u, -(g.q_max - g.q_min))], LE),
                 Row("rcap", g.id, [(r, 1.0), (q, 1.0), (u, -g.q_max)], LE)]
    if cfg.reserve_fraction > 0.0:
        rows.append(Row("rreq", None, [(col["r", g.id], 1.0) for g in system.thermal], GE,
                        cfg.reserve_fraction * demand.sum(axis=1)))
    for s in system.storage:
        if s.id in x:
            rows += [Row("dcap", s.id, [(col["q", s.id], 1.0), (x[s.id], -1.0)], LE, s.q_max),
                     Row("ccap", s.id, [(col["b", s.id], 1.0), (x[s.id], -s.efficiency)],
                         LE, s.b_max)]
    tile_rows(fo, labels, rows)
    return col


def add_hourly_levels(fo: FormulationOutput, system: PowerSystem, labels: list[str],
                      inflows: np.ndarray, x: dict, fresh: np.ndarray, col: dict) -> None:
    """Hourly storage levels ``w_<label>_<unit>``, added to ``col`` and
    chained over consecutive labels; a ``fresh`` label anchors at the unit's
    initial level instead, which is how representative days restart their
    own chronology."""
    col.update(add_levels(fo, system, labels, x, "w", "lvlo", "lvhi"))
    tile_rows(fo, labels, [
        Row("level", s.id, [(col["w", s.id], 1.0), (col["q", s.id], 1.0),
                            (col["sp", s.id], 1.0), (col["b", s.id], -s.efficiency),
                            (shifted(col["w", s.id], fresh), -1.0)],
            EQ, np.where(fresh, inflows[:, k] + s.w0, inflows[:, k]))
        for k, s in enumerate(system.storage)])


def add_hourly_startups(fo: FormulationOutput, system: PowerSystem, labels: list[str],
                        weights: np.ndarray, fresh: np.ndarray, col: dict) -> None:
    """Startup indicators ``y_<label>_<unit>``, added to ``col`` and chained
    over consecutive labels; at a ``fresh`` label the previous commitment is
    the unit's configured initial state.  The startup cost is weighted like
    the other running costs of its period."""
    wt = weights.astype(np.float64)
    col.update(tile_columns(fo, labels, [
        Col("y", g.id, ub=1.0, obj=wt * g.startup_cost, integer=True)
        for g in system.thermal]))
    tile_rows(fo, labels, [
        Row("start", g.id, [(col["u", g.id], 1.0), (col["y", g.id], -1.0),
                            (shifted(col["u", g.id], fresh), -1.0)],
            LE, np.where(fresh, float(system.initial_commitment(g.id)), 0.0))
        for g in system.thermal])


def hour_chain(kind: str, system: PowerSystem, data: TimeHorizonData, per: Periods,
               step: int, invest: bool) -> tuple[FormulationOutput, dict, dict]:
    """The model ``kind`` up to its own rows: the investment columns, the
    operating core over ``per.labels`` reading the series at ``per.hours``,
    and the startups and hourly storage levels chained over the labels, a
    fresh chronology starting every ``step`` labels.  Returns the model with
    its metadata, the investment map of ``add_investment`` and the column
    positions."""
    labels, hours, weights = per.labels, per.hours, per.weights
    fresh = np.arange(len(labels)) % step == 0
    fo = FormulationOutput(MilpModel(kind), ModelMeta(kind, invest))
    x = add_investment(fo, system, invest)
    col = add_operating_core(fo, system, labels, data.demand[hours],
                             data.renewable_avail[hours], weights, x)
    add_hourly_startups(fo, system, labels, weights, fresh, col)
    add_hourly_levels(fo, system, labels, data.inflows[hours], x, fresh, col)
    return fo, x, col
