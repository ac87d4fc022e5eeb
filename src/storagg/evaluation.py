"""Hour-by-hour evaluation of aggregated solutions against the benchmark.

An aggregated solution only carries values per modeled period.  Expansion
maps those values back onto every real hour of the horizon (each hour copies
its governing period), rebuilds storage levels, and exposes the series needed
for error metrics: production, commitment, renewable use and curtailment,
non-served power, storage levels, and prices.

Values are read a symbol at a time, as a (labels x ids) block, by the names
the builders give their columns (``formulations.common.names``, e.g.
``q_p17_gas``), over the period labels that
``formulations.common.periods`` derives from the kind and its clustering,
the layout the builder used; each real hour points at one label index.  The
startup counts are the positive steps of the expanded hourly commitment and
the investment values read ``x_<id>``.  A solution that is not usable, or
lacks a value any of them reads, is refused with ValueError rather than read
as zeros.

Two storage-level series are kept.  ``storage_level`` accumulates the real
hourly inflows with the expanded charge/discharge decisions, so it shows what
the physical system would experience and is the series screened for bound
violations.  ``storage_level_model`` follows each method's own accounting
(transition shifts for the states family, per-day or checkpoint-anchored
profiles for representative days); the gap between the two is reported.

Prices come from the solved model itself, solved again as an LP with its
integer columns fixed at their solved values (``ScipySolver.solve_lp``
given those values); the balance-row duals are divided by each period's
hour weight to yield per-hour values, which map back onto the hours
through the same period index.  A pricing LP without an
optimum is a ValueError, never a report without prices.
``compare`` turns the ``hm`` case and one aggregated case into an
``EvaluationReport``; callers key the reports by the aggregated kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .milp import Solution, ScipySolver, STATUS_OPTIMAL
from .system import PowerSystem
from .timeseries import TimeHorizonData
from .aggregation import StateClustering, RepPeriodClustering, TransitionMatrices
from .formulations.common import (FormulationOutput, Periods, periods, move_labels,
                                  checkpoint_labels, names)

VIOLATION_TOL = 1e-6  # GWh beyond a bound before it counts as a violation


@dataclass
class HourlyExpansion:
    hours: int
    periods: Periods                             # the model's hour -> period map
    thermal_production: dict[str, np.ndarray]
    commitment: dict[str, np.ndarray]
    storage_discharge: dict[str, np.ndarray]
    storage_charge: dict[str, np.ndarray]
    storage_spill: dict[str, np.ndarray]
    storage_level: dict[str, np.ndarray]         # real-inflow accumulation
    storage_level_model: dict[str, np.ndarray]   # method-consistent accounting
    renewable_use: dict[str, np.ndarray]
    renewable_available: dict[str, np.ndarray]   # availability seen by the model
    pns: dict[str, np.ndarray]
    demand_total: np.ndarray | None = None       # real system demand per hour
    prices: np.ndarray | None = None             # demand-weighted system price
    nodal_prices: dict[str, np.ndarray] | None = None

    @property
    def source_labels(self) -> list[str]:
        """The governing model period of every hour."""
        return [self.periods.labels[i] for i in self.periods.pos.tolist()]

    def curtailment(self) -> dict[str, np.ndarray]:
        return {n: self.renewable_available[n] - self.renewable_use[n]
                for n in self.renewable_use}

    def level_discrepancy(self) -> float:
        """Largest gap between physical and method-consistent level series."""
        worst = 0.0
        for uid, lvl in self.storage_level.items():
            worst = max(worst, float(np.abs(lvl - self.storage_level_model[uid]).max()))
        return worst


def _read(values: dict[str, float], symbol: str, labels: list[str], ids: list) -> np.ndarray:
    """The (len(labels), len(ids)) block of ``symbol``'s values, looked up by
    the names ``names`` gives them (a model re-read from its file carries no
    column layout; the names are the one key).  A name ``values`` does not
    carry is an error, never a zero."""
    try:
        block = [values[name] for name in names(labels, [(symbol, uid) for uid in ids])]
    except KeyError as exc:
        raise ValueError(f"solution has no value for {exc.args[0]!r}") from None
    return np.array(block, dtype=float).reshape(len(labels), len(ids))


def expand_solution(fo: FormulationOutput, solution: Solution, system: PowerSystem,
                    data: TimeHorizonData, states: StateClustering | None = None,
                    rp: RepPeriodClustering | None = None) -> HourlyExpansion:
    """Copy each model period's values onto the real hours it governs.

    ``periods`` gives the hour -> period index ``pos`` of the kind: the hour
    itself for ``hm``, the state assignment for the states family, and the
    same hour of the medoid day for representative days.  Each hourly series
    is then a per-label grid indexed by ``pos``.
    """
    kind = fo.kind
    p = data.horizon_hours
    per = periods(kind, p, states=states, rp=rp)
    labels, pos = per.labels, per.pos
    # states stand for composite hours; every other period is a real hour
    avail = (states.renewable_avail if per.hours is None
             else data.renewable_avail[per.hours])

    def hourly(symbol: str, ids: list[str]) -> dict[str, np.ndarray]:
        grid = _read(solution.values, symbol, labels, ids)[pos]
        return {uid: grid[:, j] for j, uid in enumerate(ids)}

    thermal = [g.id for g in system.thermal]
    storage = system.storage_ids
    exp = HourlyExpansion(
        hours=p, periods=per,
        thermal_production=hourly("q", thermal),
        commitment={g: np.round(u) for g, u in hourly("u", thermal).items()},
        storage_discharge=hourly("q", storage), storage_charge=hourly("b", storage),
        storage_spill=hourly("sp", storage), storage_level={}, storage_level_model={},
        renewable_use=hourly("v", system.nodes),
        renewable_available={n: avail[pos, j] for j, n in enumerate(system.nodes)},
        pns=hourly("pns", system.nodes), demand_total=data.demand.sum(axis=1))

    for k, s in enumerate(system.storage):
        exp.storage_level[s.id] = s.w0 + np.cumsum(
            data.inflows[:, k] + s.efficiency * exp.storage_charge[s.id]
            - exp.storage_discharge[s.id] - exp.storage_spill[s.id])
    # method-consistent levels: solved hourly levels, the shift chain of the
    # states family, or mapped injections anchored at each checkpoint
    if kind == "rp_tmci":
        checkpoints = fo.meta.checkpoints
        wchk = _read(solution.values, "wchk", checkpoint_labels(checkpoints), storage)
        mapped_inflows = data.inflows[per.hours][pos]
        for j, s in enumerate(system.storage):
            net = (mapped_inflows[:, j] + s.efficiency * exp.storage_charge[s.id]
                   - exp.storage_discharge[s.id] - exp.storage_spill[s.id])
            level = np.empty(p)
            prev_value, prev_hour = s.w0, 0
            for i, k in enumerate(checkpoints):
                level[prev_hour:k] = prev_value + np.cumsum(net[prev_hour:k])
                prev_value, prev_hour = wchk[i, j], k
            exp.storage_level_model[s.id] = level
    elif kind in ("ss", "ss_rfm"):
        steps = np.vstack([np.zeros((1, len(storage))),
                           _read(solution.values, "dw", move_labels(pos[:-1], pos[1:]), storage)])
        for j, s in enumerate(system.storage):
            exp.storage_level_model[s.id] = s.w0 + np.cumsum(steps[:, j])
    else:
        exp.storage_level_model = hourly("w", storage)
    return exp


# ---------------------------------------------------------------------------
# violations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViolationRecord:
    unit: str
    hour: int
    amount: float    # GWh beyond the effective bound
    side: str        # "above" or "below"


def detect_violations(expansion: HourlyExpansion, system: PowerSystem,
                      investment: dict[str, float] | None = None,
                      tol: float = VIOLATION_TOL) -> list[ViolationRecord]:
    """Screen the physical level series against the effective bounds.

    Bounds include any invested capacity: floor w_min + epr_min * x, ceiling
    w_max + epr_max * x.  Both bounds are closed; only excursions beyond
    ``tol`` GWh are reported.
    """
    investment = investment or {}
    records: list[ViolationRecord] = []
    for s in system.storage:
        x = float(investment.get(s.id, 0.0))
        lo = s.w_min + s.epr_min * x
        hi = s.w_max + s.epr_max * x
        level = expansion.storage_level[s.id]
        over = level - hi
        under = lo - level
        for t in np.flatnonzero(over > tol):
            records.append(ViolationRecord(s.id, int(t), float(over[t]), "above"))
        for t in np.flatnonzero(under > tol):
            records.append(ViolationRecord(s.id, int(t), float(under[t]), "below"))
    return records


# ---------------------------------------------------------------------------
# prices
# ---------------------------------------------------------------------------

def compute_prices(fo: FormulationOutput, solution: Solution, system: PowerSystem,
                   per: Periods, check_degeneracy: bool = False) -> tuple[np.ndarray, bool | None]:
    """Solve ``fo.model`` as an LP with its integers fixed at their values in
    ``solution``, and read balance duals as per-hour prices.

    Returns (prices, degenerate), prices being the (periods, nodes) grid of
    the ``bal`` row duals over ``per``, the model's period layout, each
    divided by its period's hour weight, so a composite period standing for
    many hours still yields a per-hour price.
    ``degenerate`` is None unless ``check_degeneracy`` is set; then the LP is
    re-solved by an interior-point method and ``degenerate`` says whether
    the two price grids disagree (the prices are not unique).  Raises
    ValueError, naming the kind and the status, if an LP has no optimum, or
    naming the row if a balance row has no dual.
    """
    grids = []
    for method in ("highs", "highs-ipm") if check_degeneracy else ("highs",):
        lp = ScipySolver().solve_lp(fo.model, method=method, fixed=solution.values)
        if lp.status != STATUS_OPTIMAL or lp.duals is None:
            raise ValueError(f"pricing LP of {fo.kind!r} ({method}) ended with status "
                             f"{lp.status!r}: {lp.message}")
        grids.append(_read(lp.duals, "bal", per.labels, system.nodes) / per.weights[:, None])
    prices, *alt = grids
    degenerate = None
    if alt:
        degenerate = bool((np.abs(alt[0] - prices)
                           > 1e-4 * np.maximum(1.0, np.abs(prices))).any())
    return prices, degenerate


def attach_prices(expansion: HourlyExpansion, system: PowerSystem,
                  data: TimeHorizonData, period_prices: np.ndarray) -> None:
    """Map the (periods, nodes) grid ``compute_prices`` returns onto hours
    through the period index.

    The system price per hour weights nodes by their real demand (equal
    weights when the hour has no demand at all).
    """
    grid = period_prices[expansion.periods.pos]
    system_price = grid.mean(axis=1)
    total = data.demand.sum(axis=1)
    np.divide((grid * data.demand).sum(axis=1), total, out=system_price, where=total > 0)
    expansion.nodal_prices = {n: grid[:, j] for j, n in enumerate(system.nodes)}
    expansion.prices = system_price


# ---------------------------------------------------------------------------
# startups and case assembly
# ---------------------------------------------------------------------------

def count_startups(expansion: HourlyExpansion, system: PowerSystem) -> dict[str, float]:
    """Horizon startup totals per thermal unit: the positive steps of the
    expanded hourly commitment, the step into hour 0 taken from the unit's
    initial commitment.

    One definition serves every kind.  The startup indicators ``y`` are not
    read: they are free wherever a unit's startup cost is 0, so a solver may
    leave them at 1 with no start behind them.  For the states family the
    total is the sum over moves a -> b of N[a, b] * max(0, u_b - u_a), plus
    the step into hour 0.  The commitment is rounded, so the totals are exact.
    """
    totals = {}
    for g in system.thermal:
        steps = np.diff(expansion.commitment[g.id],
                        prepend=system.initial_commitment(g.id))
        # + 0.0 turns the -0.0 a rounded tiny negative commitment gives into 0.0
        totals[g.id] = float(np.maximum(steps, 0.0).sum()) + 0.0
    return totals


def investment_values(fo: FormulationOutput, solution: Solution,
                      system: PowerSystem) -> dict[str, float]:
    """Built capacity ``x_<id>`` per investable storage unit of an invest model."""
    if not fo.meta.invest:
        return {}
    ids = [s.id for s in system.storage if s.investable]
    return dict(zip(ids, _read(solution.values, "x", ids, [None])[:, 0].tolist()))


@dataclass
class CaseResult:
    """Everything one solved formulation contributes to a comparison."""

    kind: str
    objective: float
    wall_seconds: float
    expansion: HourlyExpansion
    startups: dict[str, float]
    investment: dict[str, float]
    violations: list[ViolationRecord] = field(default_factory=list)
    prices_degenerate: bool | None = None    # None unless checked
    dual_bound: float | None = None          # the solve's, None for an LP
    nodes: int | None = None

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    @property
    def violation_max(self) -> float:
        return max((v.amount for v in self.violations), default=0.0)


def build_case_result(fo: FormulationOutput, solution: Solution, system: PowerSystem,
                      data: TimeHorizonData, states: StateClustering | None = None,
                      rp: RepPeriodClustering | None = None,
                      matrices: TransitionMatrices | None = None,
                      with_prices: bool = True,
                      check_degeneracy: bool = False) -> CaseResult:
    """Expand, price, and screen one solved formulation.

    Raises ValueError for a solution without a usable point (any status but
    optimal, gap- or time-limited), one missing a value the expansion reads,
    or a pricing LP without an optimum.  ``matrices`` is accepted for the
    callers that still pass it; no step reads it since the startups are
    counted from the expansion.
    """
    if not solution.ok:
        raise ValueError(f"{fo.kind!r} solution has status {solution.status!r}, "
                         "no usable point to evaluate")
    expansion = expand_solution(fo, solution, system, data, states=states, rp=rp)
    investment = investment_values(fo, solution, system)
    degenerate = None
    if with_prices:
        period_prices, degenerate = compute_prices(fo, solution, system, expansion.periods,
                                                   check_degeneracy=check_degeneracy)
        attach_prices(expansion, system, data, period_prices)
    return CaseResult(
        kind=fo.kind,
        objective=float(solution.objective),
        wall_seconds=solution.wall_seconds,
        expansion=expansion,
        startups=count_startups(expansion, system),
        investment=investment,
        violations=detect_violations(expansion, system, investment),
        prices_degenerate=degenerate, dual_bound=solution.dual_bound, nodes=solution.nodes)


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------

@dataclass
class EvaluationReport:
    """One aggregated case against the benchmark case, metric by metric."""

    objective_error_pct: float
    production_error_pct: dict[str, float]
    startup_error_pct: dict[str, float]
    price_avg_error_pct: float | None
    price_max_error_pct: float | None
    price_min_error_pct: float | None
    price_avg_load_weighted_error_pct: float | None
    curtailment_error_pct: float
    investment_error_pct: dict[str, float]
    violation_count: int
    violation_max_gwh: float
    time_ratio: float
    level_discrepancy_gwh: float
    absolute_metrics: list[str]

    def rows(self) -> list[tuple[str, float]]:
        """Flat (metric, value) pairs for tabular output, in field order: one
        ``name[key]`` pair per key of a dict field, none for a field that is
        None; ``absolute_metrics`` lists names, not values."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                out += [(f"{f.name}[{k}]", v) for k, v in value.items()]
            elif value is not None and f.name != "absolute_metrics":
                out.append((f.name, float(value)))
        return out


def _error_pct(bench: float, cand: float, metric: str, absolute: list[str]) -> float:
    """Signed error with the benchmark in the denominator.

    Positive means the candidate underestimates the benchmark.  A zero
    benchmark switches the cell to a plain difference and flags the metric.
    """
    if bench == 0.0:
        absolute.append(metric)
        return bench - cand
    return 100.0 * (bench - cand) / bench


def _by_tech(units, totals: dict[str, float]) -> dict[str, float]:
    """Per-unit ``totals`` summed per technology, in unit order."""
    out: dict[str, float] = {}
    for unit in units:
        out[unit.technology] = out.get(unit.technology, 0.0) + totals[unit.id]
    return out


def _production(exp: HourlyExpansion, system: PowerSystem) -> dict[str, float]:
    """Horizon output per technology, all renewable use under ``renewable``."""
    series = {**exp.thermal_production, **exp.storage_discharge}
    out = _by_tech([*system.thermal, *system.storage],
                   {uid: float(q.sum()) for uid, q in series.items()})
    return dict(out, renewable=float(sum(arr.sum() for arr in exp.renewable_use.values())))


def _errors_pct(bench: dict[str, float], cand: dict[str, float], metric: str,
                absolute: list[str]) -> dict[str, float]:
    """``_error_pct`` of each key of ``bench``; a key ``cand`` lacks is 0."""
    return {key: _error_pct(bench[key], cand.get(key, 0.0), f"{metric}[{key}]", absolute)
            for key in bench}


def compare(benchmark: CaseResult, candidate: CaseResult,
            system: PowerSystem) -> EvaluationReport:
    absolute: list[str] = []
    production = _errors_pct(_production(benchmark.expansion, system),
                             _production(candidate.expansion, system), "production", absolute)
    startups = _errors_pct(_by_tech(system.thermal, benchmark.startups),
                           _by_tech(system.thermal, candidate.startups), "startups", absolute)
    price_avg = price_max = price_min = price_lw = None
    if benchmark.expansion.prices is not None and candidate.expansion.prices is not None:
        bp, cp = benchmark.expansion.prices, candidate.expansion.prices
        price_avg = _error_pct(float(bp.mean()), float(cp.mean()), "price_avg", absolute)
        price_max = _error_pct(float(bp.max()), float(cp.max()), "price_max", absolute)
        price_min = _error_pct(float(bp.min()), float(cp.min()), "price_min", absolute)
        load = benchmark.expansion.demand_total
        if load is not None and load.sum() > 0:
            price_lw = _error_pct(float((bp * load).sum() / load.sum()),
                                  float((cp * load).sum() / load.sum()),
                                  "price_avg_load_weighted", absolute)
    bench_curt = float(sum(arr.sum() for arr in benchmark.expansion.curtailment().values()))
    cand_curt = float(sum(arr.sum() for arr in candidate.expansion.curtailment().values()))
    curtailment = _error_pct(bench_curt, cand_curt, "curtailment", absolute)
    units = sorted(set(benchmark.investment) | set(candidate.investment))
    investment = _errors_pct({uid: benchmark.investment.get(uid, 0.0) for uid in units},
                             candidate.investment, "investment", absolute)
    return EvaluationReport(
        objective_error_pct=_error_pct(benchmark.objective, candidate.objective,
                                       "objective", absolute),
        production_error_pct=production,
        startup_error_pct=startups,
        price_avg_error_pct=price_avg,
        price_max_error_pct=price_max,
        price_min_error_pct=price_min,
        price_avg_load_weighted_error_pct=price_lw,
        curtailment_error_pct=curtailment,
        investment_error_pct=investment,
        violation_count=candidate.violation_count,
        violation_max_gwh=candidate.violation_max,
        time_ratio=(candidate.wall_seconds / benchmark.wall_seconds
                    if benchmark.wall_seconds > 0 else 0.0),
        level_discrepancy_gwh=candidate.expansion.level_discrepancy(),
        absolute_metrics=absolute)
