"""Whole-library checks, one per externally meaningful guarantee.

Covered here: counting identities of the chronology matrices on random
inputs, hourly-model optimality against a brute-force commitment benchmark,
exactness of the state and representative-day models on degenerate inputs
(identical days, or one representative per day without storage),
reproduction of the windowed-bound failure mode, an analytically computed
investment threshold, error ordering and speed of the enhanced
representative-day model on a quarter-long two-storage scenario, bit-level
reproducibility of the pipeline artifacts, and an exhaustive residual audit
of every constraint row of every model solved for the quarter-long
scenario.
"""

import itertools
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from storagg import (ThermalUnit, StorageUnit, Network, OperatingConfig,
                     PowerSystem, TimeHorizonData, SHORT_TERM, LONG_TERM,
                     StateClustering, default_checkpoints, aggregate, build_hm, build_ss, build_ss_rfm, build_rp,
                     build_rp_tmci, solve, audit_constraints, constraint_families,
                     expand_solution, detect_violations, investment_values,
                     count_startups, build_case_result, compare,
                     load_scenario, emit_scenario_template,
                     stage_ingest, stage_cluster, stage_build)

from conftest import manual_matrices

ARTIFACT_DIR = Path(__file__).parent / "_artifacts"


def one_bus(thermal, storage, initial=None):
    return PowerSystem(
        thermal=thermal, storage=storage,
        network=Network(buses=["hub"], slack_bus="hub", circuits=[], isf=None),
        config=OperatingConfig(reserve_fraction=0.0, pns_penalty=1000.0,
                               spill_penalty=0.0,
                               initial_commitment=initial or {}))


def hub_data(demand, renew=None, storage_ids=(), inflows=None):
    p = len(demand)
    n_s = len(storage_ids)
    return TimeHorizonData(
        nodes=["hub"], storage_ids=list(storage_ids),
        demand=np.asarray(demand, dtype=float)[:, None],
        renewable_avail=(np.zeros((p, 1)) if renew is None
                         else np.asarray(renew, dtype=float)[:, None]),
        inflows=np.zeros((p, n_s)) if inflows is None else inflows)


# ---------------------------------------------------------------------------
# chronology matrices: counting identities on random assignments
# ---------------------------------------------------------------------------

def test_transition_matrix_counting_identities():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(200):
        days = int(rng.integers(2, 42))        # up to 984 hours
        p = 24 * days
        s = int(rng.integers(2, 11))
        assignment = rng.integers(0, s, size=p)
        window = 24 * int(rng.integers(1, 8))
        r = int(rng.integers(1, min(days, 8) + 1))
        day_assignment = rng.integers(0, r, size=days)
        m = manual_matrices(assignment, window, day_assignment)
        assert np.array_equal(m.checkpoints, default_checkpoints(p, window))

        n = m.transitions
        assert n.sum() == p - 1
        # each running count against a plain count of the pairs before it
        for k, f in zip(m.checkpoints, m.frequency):
            plain = np.zeros_like(n)
            np.add.at(plain, (assignment[:k - 1], assignment[1:k]), 1)
            assert np.array_equal(f, plain)
        assert np.array_equal(m.frequency[-1], n)

        rfm = m.reduced_frequency
        assert (rfm >= 0).all()
        assert np.array_equal(rfm.sum(axis=0), n)

        assert m.rp_transitions.sum() == days - 1
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# hourly model against exhaustive commitment enumeration
# ---------------------------------------------------------------------------

UNITS = [  # (alpha, beta, gamma, q_min, q_max)
    ("slow", 20.0, 5.0, 30.0, 0.4, 1.2),
    ("fast", 50.0, 2.0, 15.0, 0.3, 0.8),
]
UC_DEMAND = [0.5, 1.5, 2.5, 0.3]   # hour 2 exceeds total capacity -> pns
PNS = 1000.0


def brute_force_commitment(demand):
    """Try all on/off patterns; dispatch each hour by merit order.

    Returns the least cost and its pattern (hours x units, 0/1); every unit
    starts off."""
    units = [(a, b, g, qmin, qmax) for _, a, b, g, qmin, qmax in UNITS]
    order = sorted(range(len(units)), key=lambda i: units[i][0])
    best, best_u = np.inf, None
    t_hours = len(demand)
    for pattern in itertools.product((0, 1), repeat=len(units) * t_hours):
        u = np.array(pattern).reshape(t_hours, len(units))
        cost = 0.0
        prev = np.zeros(len(units))
        ok = True
        for t in range(t_hours):
            floor = sum(units[i][3] * u[t, i] for i in range(len(units)))
            if floor > demand[t] + 1e-12:      # balance is an equality
                ok = False
                break
            need = demand[t] - floor
            for i in range(len(units)):
                a, b, g, qmin, _ = units[i]
                cost += a * qmin * u[t, i] + b * u[t, i] + g * max(0, u[t, i] - prev[i])
            for i in order:                     # cheap energy first
                take = min(need, (units[i][4] - units[i][3]) * u[t, i])
                cost += units[i][0] * take
                need -= take
            cost += PNS * need
            prev = u[t]
        if ok and cost < best:
            best, best_u = cost, u
    return best, best_u


def test_hourly_model_matches_brute_force_commitment():
    t0 = time.perf_counter()
    thermal = [ThermalUnit(id=n, bus="hub", fuel_cost=1.0, alpha=a, beta=b,
                           gamma=g, om_cost=0.0, q_max=qmax, q_min=qmin,
                           ramp_10min=qmax, technology="thermal")
               for n, a, b, g, qmin, qmax in UNITS]
    system = one_bus(thermal, [])
    data = hub_data(UC_DEMAND)

    expected, pattern = brute_force_commitment(UC_DEMAND)
    fo = build_hm(system, data)
    sol = solve(fo.model, gap=1e-9)
    assert sol.ok
    assert sol.objective == pytest.approx(expected, rel=1e-6)
    # startups counted by hand from the optimal pattern: an off -> on step,
    # hour 0 measured from the initial commitment (every unit off)
    by_hand = {}
    for i, (name, *_) in enumerate(UNITS):
        prev, starts = 0, 0
        for on in pattern[:, i]:
            starts += int(on > prev)
            prev = on
        by_hand[name] = float(starts)
    assert by_hand == {"slow": 1.0, "fast": 1.0}
    # the optimum is unique (the next pattern costs 706), so hm finds it
    exp = expand_solution(fo, sol, system, data)
    assert np.array_equal(np.column_stack([exp.commitment[name] for name, *_ in UNITS]),
                          pattern)
    assert count_startups(exp, system) == by_hand
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# state model is exact when the horizon is perfectly periodic
# ---------------------------------------------------------------------------

def test_state_model_exact_on_periodic_week():
    t0 = time.perf_counter()
    h = np.arange(24)
    day = 1.0 + 0.8 * np.sin(2 * np.pi * h / 24) + 0.013 * h
    assert len(np.unique(day)) == 24
    demand = np.tile(day, 7)

    thermal = [
        ThermalUnit(id="steady", bus="hub", fuel_cost=1.0, alpha=10.0,
                    beta=0.0, gamma=0.0, om_cost=0.0, q_max=1.5, q_min=0.0,
                    ramp_10min=1.5, technology="coal"),
        ThermalUnit(id="cycler", bus="hub", fuel_cost=1.0, alpha=30.0,
                    beta=1.0, gamma=12.0, om_cost=0.0, q_max=1.0, q_min=0.2,
                    ramp_10min=1.0, technology="gas"),
    ]
    system = one_bus(thermal, [], initial={"steady": 1, "cycler": 0})
    data = hub_data(demand)

    art = aggregate(data, num_states=24, num_rp=1, seed=0)
    assert art.states.num_states == 24
    assert (np.bincount(art.states.assignment, minlength=24) == 7).all()
    # every hour-of-day collapses onto a single state
    by_slot = art.states.assignment.reshape(7, 24)
    assert (by_slot == by_slot[0]).all()

    fo_hm = build_hm(system, data)
    sol_hm = solve(fo_hm.model, gap=1e-9)
    fo_ss = build_ss(system, art.states, art.matrices)
    sol_ss = solve(fo_ss.model, gap=1e-9)
    assert sol_hm.ok and sol_ss.ok
    rel = abs(sol_ss.objective - sol_hm.objective) / abs(sol_hm.objective)
    assert rel <= 1e-6
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# representative-day model is exact when every day is the same day
# ---------------------------------------------------------------------------

def test_rep_day_model_exact_on_identical_days():
    t0 = time.perf_counter()
    h = np.arange(24)
    day = 2.0 + 1.2 * np.sin(2 * np.pi * (h - 9) / 24)
    demand = np.tile(day, 3)

    thermal = [
        ThermalUnit(id="cheap", bus="hub", fuel_cost=1.0, alpha=10.0,
                    beta=0.0, gamma=0.0, om_cost=0.0, q_max=2.0, q_min=0.0,
                    ramp_10min=2.0, technology="coal"),
        ThermalUnit(id="dear", bus="hub", fuel_cost=1.0, alpha=50.0,
                    beta=0.0, gamma=0.0, om_cost=0.0, q_max=4.0, q_min=0.0,
                    ramp_10min=4.0, technology="gas"),
    ]
    # w0 sits at the cycle's natural rest level: the battery is empty across
    # midnight (evening discharge ends before the cheap early-morning window)
    batt = StorageUnit(id="batt", bus="hub", kind=SHORT_TERM, w0=0.0,
                       w_min=0.0, w_max=4.0, w_fin=0.0, efficiency=0.9,
                       q_max=1.0, b_max=1.0, technology="battery")
    system = one_bus(thermal, [batt])
    data = hub_data(demand, storage_ids=["batt"])

    art = aggregate(data, num_states=4, num_rp=1, seed=0)
    assert art.rp.num_rp == 1 and art.rp.num_days == 3

    fo_hm = build_hm(system, data)
    sol_hm = solve(fo_hm.model, gap=1e-9)
    fo_rp = build_rp(system, data, art.rp)
    sol_rp = solve(fo_rp.model, gap=1e-9)
    assert sol_hm.ok and sol_rp.ok
    # the battery must actually cycle, otherwise the check is vacuous
    exp = expand_solution(fo_hm, sol_hm, system, data)
    assert exp.storage_discharge["batt"].sum() > 0.1
    rel = abs(sol_rp.objective - sol_hm.objective) / abs(sol_hm.objective)
    assert rel <= 1e-4
    assert time.perf_counter() - t0 < 30.0


def test_rep_day_model_exact_with_every_day_representative():
    """Limit case: with one representative per day, no storage and free
    startups, the plain day model is the hourly model cut at midnight, and
    the cut costs nothing."""
    h = np.arange(24)
    demand = np.concatenate([(1.0 + 0.3 * d) * (1.5 + np.sin(2 * np.pi * (h - 9) / 24))
                             for d in range(4)])
    thermal = [
        ThermalUnit(id="base", bus="hub", fuel_cost=1.0, alpha=10.0,
                    beta=1.0, gamma=0.0, om_cost=0.0, q_max=2.0, q_min=0.5,
                    ramp_10min=2.0, technology="coal"),
        ThermalUnit(id="peak", bus="hub", fuel_cost=1.0, alpha=40.0,
                    beta=3.0, gamma=0.0, om_cost=0.0, q_max=3.0, q_min=0.3,
                    ramp_10min=3.0, technology="gas"),
    ]
    system = one_bus(thermal, [])
    data = hub_data(demand)

    art = aggregate(data, num_states=4, num_rp=4, seed=0)
    assert sorted(art.rp.medoid_days.tolist()) == [0, 1, 2, 3]
    assert (np.bincount(art.rp.day_assignment, minlength=4) == 1).all()

    fo_hm = build_hm(system, data)
    sol_hm = solve(fo_hm.model)
    fo_rp = build_rp(system, data, art.rp)
    sol_rp = solve(fo_rp.model)
    assert sol_hm.ok and sol_rp.ok
    # the base unit runs through midnight, so every cut day restarts it from
    # the initial (off) state: only a free startup makes that harmless
    base = expand_solution(fo_hm, sol_hm, system, data).commitment["base"]
    assert base[23] == base[24] == 1
    assert sol_rp.objective == pytest.approx(sol_hm.objective, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# windowed level bounds can hide a real excursion; the hourly model cannot
# ---------------------------------------------------------------------------

def test_windowed_bounds_miss_real_level_excursion():
    gen = ThermalUnit(id="gen", bus="hub", fuel_cost=1.0, alpha=10.0,
                      beta=0.0, gamma=0.0, om_cost=0.0, q_max=4.0, q_min=0.0,
                      ramp_10min=4.0, technology="thermal")
    batt = StorageUnit(id="batt", bus="hub", kind=SHORT_TERM, w0=3.0,
                       w_min=0.0, w_max=10.0, w_fin=3.0, efficiency=1.0,
                       q_max=2.0, b_max=2.0, technology="battery")
    system = one_bus([gen], [batt])

    # 48 surplus hours feed the battery, 24 deficit hours drain it
    demand = np.concatenate([np.full(48, 1.0), np.full(24, 3.0)])
    renew = np.concatenate([np.full(48, 2.0), np.zeros(24)])
    data = hub_data(demand, renew=renew, storage_ids=["batt"])

    assignment = np.array([0] * 48 + [1] * 24)
    states = StateClustering(
        num_states=2, assignment=assignment,
        demand=np.array([[1.0], [3.0]]),
        renewable_avail=np.array([[2.0], [0.0]]),
        inflows=np.zeros((2, 1)))
    matrices = manual_matrices(assignment, window=24, day_assignment=[0, 0, 0])

    fo = build_ss_rfm(system, states, matrices)
    sol = solve(fo.model)
    assert sol.ok and sol.status == "optimal"

    exp = expand_solution(fo, sol, system, data, states=states)
    records = detect_violations(exp, system)
    above = [r for r in records if r.unit == "batt" and r.side == "above"]
    assert len(above) >= 1
    assert exp.storage_level["batt"].max() > batt.w_max + 1.0

    fo_hm = build_hm(system, data)
    sol_hm = solve(fo_hm.model)
    assert sol_hm.ok
    exp_hm = expand_solution(fo_hm, sol_hm, system, data)
    assert detect_violations(exp_hm, system) == []


# ---------------------------------------------------------------------------
# investment switches off at the analytic break-even cost
# ---------------------------------------------------------------------------

def test_investment_stops_at_analytic_threshold():
    cheap, dear, eta, epr = 10.0, 60.0, 0.9, 4.0
    threshold = epr * (dear - cheap / eta)   # one cycle's arbitrage margin
    demand = np.concatenate([np.full(8, 0.5), np.full(8, 4.0), np.full(8, 0.5)])

    invested = {}
    for step in range(-5, 6):                # 0.75..1.25 of threshold
        frac = 1.0 + 0.05 * step
        thermal = [
            ThermalUnit(id="cheap", bus="hub", fuel_cost=1.0, alpha=cheap,
                        beta=0.0, gamma=0.0, om_cost=0.0, q_max=2.0,
                        q_min=0.0, ramp_10min=2.0, technology="coal"),
            ThermalUnit(id="dear", bus="hub", fuel_cost=1.0, alpha=dear,
                        beta=0.0, gamma=0.0, om_cost=0.0, q_max=4.0,
                        q_min=0.0, ramp_10min=4.0, technology="gas"),
        ]
        cand = StorageUnit(id="cand", bus="hub", kind=SHORT_TERM, w0=0.0,
                           w_min=0.0, w_max=0.0, w_fin=0.0, efficiency=eta,
                           q_max=0.0, b_max=0.0, investable=True,
                           inv_cost=frac * threshold, epr_max=epr,
                           epr_min=0.0, technology="battery")
        system = one_bus(thermal, [cand])
        data = hub_data(demand, storage_ids=["cand"])
        fo = build_hm(system, data, invest=True)
        sol = solve(fo.model)
        assert sol.ok
        invested[round(frac, 2)] = investment_values(fo, sol, system)["cand"]

    # investing must pay below the threshold and not above it; the flip
    # happens within one 5% grid step of the analytic value
    assert invested[0.75] > 0.5
    assert invested[0.95] > 1e-6
    assert invested[1.05] <= 1e-6
    assert invested[1.25] <= 1e-6


# ---------------------------------------------------------------------------
# quarter-long scenario: the enhanced rep-day model must beat the plain one
# ---------------------------------------------------------------------------

TREND_HOURS = 2184       # 13 weeks
TREND_SEEDS = (0, 1, 2)
TREND_INV_COST = 3000.0


def _trend_system():
    thermal = [
        ThermalUnit(id="base", bus="b1", fuel_cost=1.0, alpha=12.0, beta=0.0,
                    gamma=0.0, om_cost=0.0, q_max=5.0, q_min=0.0,
                    ramp_10min=5.0, technology="coal"),
        ThermalUnit(id="peak", bus="b1", fuel_cost=1.0, alpha=45.0, beta=0.0,
                    gamma=0.0, om_cost=0.0, q_max=5.0, q_min=0.0,
                    ramp_10min=5.0, technology="gas"),
    ]
    storage = [
        StorageUnit(id="hydro", bus="b1", kind=LONG_TERM, w0=300.0,
                    w_min=50.0, w_max=600.0, w_fin=300.0, efficiency=1.0,
                    q_max=0.8, b_max=0.0, technology="hydro"),
        StorageUnit(id="bess", bus="b1", kind=SHORT_TERM, w0=0.0, w_min=0.0,
                    w_max=0.0, w_fin=0.0, efficiency=0.9, q_max=0.0,
                    b_max=0.0, investable=True, inv_cost=TREND_INV_COST,
                    epr_max=4.0, epr_min=0.0, technology="battery"),
    ]
    net = Network(buses=["b1"], slack_bus="b1", circuits=[], isf=None)
    cfg = OperatingConfig(reserve_fraction=0.0, pns_penalty=1000.0,
                          spill_penalty=0.0, initial_commitment={"base": 1})
    return PowerSystem(thermal=thermal, storage=storage, network=net, config=cfg)


def _trend_data():
    """Alternating windy/calm days over a hydro season.

    The wind parity gives the battery a real day-to-day arbitrage job, and
    the seasonal inflow peak exceeds what the hydro unit can discharge in a
    single day, so energy must be carried across days to avoid losing it.
    """
    rng = np.random.default_rng(42)
    t = np.arange(TREND_HOURS)
    h = t % 24
    d = t // 24
    demand = (7.0 + 1.0 * np.sin(2 * np.pi * (h - 9) / 24)
              - 0.4 * (d % 7 >= 5) + 0.6 * np.cos(2 * np.pi * d / 91)
              + rng.normal(0.0, 0.05, TREND_HOURS))
    solar = 1.0 * np.clip(np.sin(np.pi * (h - 6) / 12), 0, None) ** 1.5 \
        * (1.0 - 0.3 * np.cos(2 * np.pi * d / 91))
    wind = np.clip(np.where(d % 2 == 0, 4.5, 0.3)
                   + rng.normal(0.0, 0.15, TREND_HOURS), 0.0, None)
    inflow = 0.55 + 0.5 * np.cos(2 * np.pi * d / 91 + 0.7)
    inflows = np.stack([inflow, np.zeros(TREND_HOURS)], axis=1)
    return TimeHorizonData(nodes=["b1"], storage_ids=["hydro", "bess"],
                           demand=demand[:, None],
                           renewable_avail=(solar + wind)[:, None],
                           inflows=inflows)


def _timed_solve(fo, system, data, **kw):
    t0 = time.perf_counter()
    sol = solve(fo.model, gap=1e-4)
    wall = time.perf_counter() - t0
    assert sol.ok, (fo.kind, sol.status)
    case = build_case_result(fo, sol, system, data, with_prices=False, **kw)
    return sol, case, wall


@pytest.fixture(scope="module")
def trend():
    system = _trend_system()
    data = _trend_data()

    fo = build_hm(system, data, invest=True)
    hm_sol, hm_case, hm_wall = _timed_solve(fo, system, data)
    solved = {"hm": (fo, hm_sol)}
    runs = {}
    for seed in TREND_SEEDS:
        art = aggregate(data, num_states=32, num_rp=6, seed=seed)
        for kind in ("ss", "ss_rfm", "rp", "rp_tmci"):
            if kind == "ss":
                fo = build_ss(system, art.states, art.matrices, invest=True)
                kw = {"states": art.states, "matrices": art.matrices}
            elif kind == "ss_rfm":
                fo = build_ss_rfm(system, art.states, art.matrices, invest=True)
                kw = {"states": art.states, "matrices": art.matrices}
            elif kind == "rp":
                fo = build_rp(system, data, art.rp, invest=True)
                kw = {"rp": art.rp}
            else:
                fo = build_rp_tmci(system, data, art.rp, art.matrices,
                                   window=168, invest=True)
                kw = {"rp": art.rp, "matrices": art.matrices}
            sol, case, wall = _timed_solve(fo, system, data, **kw)
            runs[seed, kind] = SimpleNamespace(
                case=case, wall=wall, report=compare(hm_case, case, system))
            solved[f"{kind}_seed{seed}"] = (fo, sol)
    return SimpleNamespace(system=system, data=data, hm_case=hm_case,
                           hm_wall=hm_wall, runs=runs, solved=solved)


def test_enhanced_rep_day_model_closer_on_trend_scenario(trend):
    assert trend.hm_case.investment["bess"] > 0.5   # benchmark does invest

    lines = ["seed  model    hydro_err%   bess_inv_err%   wall_s"]
    hydro_wins, invest_wins = [], []
    for seed in TREND_SEEDS:
        rp = trend.runs[seed, "rp"].report
        tm = trend.runs[seed, "rp_tmci"].report
        for kind in ("ss", "ss_rfm", "rp", "rp_tmci"):
            r = trend.runs[seed, kind]
            lines.append(f"{seed:4d}  {kind:8s} {r.report.production_error_pct['hydro']:+9.3f}"
                         f" {r.report.investment_error_pct['bess']:+14.3f}"
                         f" {r.wall:8.3f}")
        hydro_wins.append(abs(tm.production_error_pct["hydro"])
                          < abs(rp.production_error_pct["hydro"]))
        invest_wins.append(abs(tm.investment_error_pct["bess"])
                           < abs(rp.investment_error_pct["bess"]))

    table = "\n".join(lines)
    print("\n" + table)
    ARTIFACT_DIR.mkdir(exist_ok=True)
    (ARTIFACT_DIR / "trend_report.json").write_text(json.dumps({
        "hm_objective": trend.hm_case.objective,
        "hm_investment_gw": trend.hm_case.investment["bess"],
        "hm_wall_s": trend.hm_wall,
        "per_seed": {
            f"seed{seed}": {
                kind: {"rows": trend.runs[seed, kind].report.rows(),
                       "wall_s": trend.runs[seed, kind].wall}
                for kind in ("ss", "ss_rfm", "rp", "rp_tmci")}
            for seed in TREND_SEEDS},
        "hydro_wins": hydro_wins, "invest_wins": invest_wins,
        "table": table}, indent=2))

    # the enhanced model must win on both metrics for most seeds
    assert sum(hydro_wins) >= 2, (hydro_wins, table)
    assert sum(invest_wins) >= 2, (invest_wins, table)


def test_aggregated_models_much_faster_than_hourly(trend):
    for (seed, kind), run in trend.runs.items():
        assert run.wall < 0.5 * trend.hm_wall, (seed, kind, run.wall, trend.hm_wall)


# ---------------------------------------------------------------------------
# the pipeline writes the same bytes when run twice with the same seed
# ---------------------------------------------------------------------------

def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_pipeline_artifacts_bit_reproducible(tmp_path):
    scen_path = emit_scenario_template(tmp_path / "scen", days=3, seed=11)
    outs = []
    for tag in ("first", "second"):
        config = load_scenario(scen_path)
        outdir = tmp_path / tag
        system, data = stage_ingest(config)
        artifacts = stage_cluster(system, data, config, outdir)
        stage_build(system, data, artifacts, config, outdir)
        outs.append(_tree_bytes(outdir))
    first, second = outs
    assert set(first) == set(second)
    for rel in first:
        assert first[rel] == second[rel], f"{rel} differs between runs"


# ---------------------------------------------------------------------------
# every solved model satisfies every constraint row
# ---------------------------------------------------------------------------

def test_solved_models_pass_constraint_audit(trend):
    for name, (fo, sol) in trend.solved.items():
        families = audit_constraints(fo.model, sol.x)
        assert "bal" in families, name
        for family, positions in constraint_families(fo.model).items():
            info = families[family]
            assert info["checked"] == len(positions), (name, family)
            assert info["max_residual"] <= 1e-6, (name, family, info)
