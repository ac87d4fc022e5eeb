import numpy as np
import pytest

from storagg import (build_hm, build_ss, build_rp, build_rp_tmci, solve,
                     expand_solution, detect_violations, compute_prices,
                     attach_prices, count_startups, build_case_result,
                     compare, aggregate, periods, ScipySolver)
from storagg.evaluation import HourlyExpansion, investment_values

from conftest import (make_thermal, make_battery, make_system, make_data,
                      manual_states, manual_matrices, manual_rp, make_solution,
                      layout_blocks, without_block)


def solved(fo):
    sol = solve(fo.model)
    assert sol.ok
    return sol


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_expand_hm_is_identity(battery_system, sin_data):
    fo = build_hm(battery_system, sin_data)
    sol = solved(fo)
    exp = expand_solution(fo, sol, battery_system, sin_data)
    assert exp.hours == 48
    assert exp.source_labels[5] == "p5"
    for t in range(48):
        assert exp.thermal_production["gen"][t] == pytest.approx(
            sol.values[f"q_p{t}_gen"])
    # the solved level profile and the rebuilt one coincide hour by hour
    assert np.allclose(exp.storage_level["batt"], exp.storage_level_model["batt"],
                       atol=1e-7)
    assert exp.level_discrepancy() < 1e-7


def test_expand_hm_balances_real_demand(battery_system, sin_data):
    fo = build_hm(battery_system, sin_data)
    sol = solved(fo)
    exp = expand_solution(fo, sol, battery_system, sin_data)
    supply = (exp.thermal_production["gen"] + exp.storage_discharge["batt"]
              - exp.storage_charge["batt"] + exp.renewable_use["b1"]
              + exp.pns["b1"])
    assert np.allclose(supply, sin_data.demand[:, 0], atol=1e-7)


def test_expand_ss_copies_state_values(battery_system):
    chain = [0, 0, 1, 1, 0]
    states = manual_states(chain, [0.4, 1.6], renew_per_state=[0.2, 0.1])
    matrices = manual_matrices(chain, window=24)
    data = make_data([0.4, 0.4, 1.6, 1.6, 0.4], [0.2, 0.2, 0.1, 0.1, 0.2],
                     storage_ids=["batt"])
    fo = build_ss(battery_system, states, matrices)
    sol = solved(fo)
    exp = expand_solution(fo, sol, battery_system, data, states=states)
    assert exp.source_labels == ["s0", "s0", "s1", "s1", "s0"]
    for t, s in enumerate(chain):
        assert exp.thermal_production["gen"][t] == pytest.approx(
            sol.values[f"q_s{s}_gen"])
        # availability comes from the state's composite hour, so model
        # curtailment keeps its sign
        assert exp.renewable_available["b1"][t] == pytest.approx(
            states.renewable_avail[s, 0])
    assert (exp.curtailment()["b1"] >= -1e-9).all()


def test_expand_ss_model_level_follows_shift_chain(battery_system):
    chain = [0, 0, 1, 1, 0]
    states = manual_states(chain, [0.4, 1.6])
    matrices = manual_matrices(chain, window=24)
    data = make_data([0.4, 0.4, 1.6, 1.6, 0.4], storage_ids=["batt"])
    fo = build_ss(battery_system, states, matrices)
    sol = solved(fo)
    exp = expand_solution(fo, sol, battery_system, data, states=states)
    w0 = battery_system.storage[0].w0
    level = w0
    assert exp.storage_level_model["batt"][0] == pytest.approx(level)
    for t in range(1, 5):
        level += sol.values[f"dw_s{chain[t - 1]}_s{chain[t]}_batt"]
        assert exp.storage_level_model["batt"][t] == pytest.approx(level)


def test_expand_rp_repeats_representative_day(two_unit_system):
    day = 0.5 + 0.4 * np.sin(2 * np.pi * (np.arange(24) - 8) / 24) ** 2
    data3 = make_data(np.tile(day, 3))
    rp = manual_rp([0, 0, 0], [0])
    fo = build_rp(two_unit_system, data3, rp)
    sol = solved(fo)
    exp = expand_solution(fo, sol, two_unit_system, data3, rp=rp)
    q = exp.thermal_production["cheap"]
    assert np.allclose(q[:24], q[24:48])
    assert np.allclose(q[:24], q[48:])
    assert exp.source_labels[25] == "p1"    # repeated day maps to hour 1


def test_expand_rp_tmci_checkpoint_series(battery_system):
    demand = np.concatenate([np.full(24, 0.5), np.full(24, 1.4)])
    data = make_data(demand, storage_ids=["batt"])
    rp = manual_rp([0, 1], [0, 1])
    matrices = manual_matrices([0] * 48, window=24, day_assignment=[0, 1])
    fo = build_rp_tmci(battery_system, data, rp, matrices, window=24)
    sol = solved(fo)
    exp = expand_solution(fo, sol, battery_system, data, rp=rp)
    # the model-consistent series ends at the final checkpoint value
    assert exp.storage_level_model["batt"][-1] == pytest.approx(
        sol.values["wchk_k48_batt"], abs=1e-7)
    # identity day mapping makes physical and model series agree
    assert exp.level_discrepancy() < 1e-6


def test_expand_requires_matching_artifacts(battery_system, sin_data):
    fo = build_ss(battery_system, manual_states([0, 0], [1.0]),
                  manual_matrices([0, 0], window=24))
    sol = solved(fo)
    with pytest.raises(ValueError, match="state clustering"):
        expand_solution(fo, sol, battery_system, sin_data)


# ---------------------------------------------------------------------------
# violations
# ---------------------------------------------------------------------------

def blank_expansion(levels):
    p = len(next(iter(levels.values())))
    return HourlyExpansion(
        hours=p, periods=periods("hm", p),
        thermal_production={}, commitment={},
        storage_discharge={}, storage_charge={}, storage_spill={},
        storage_level=levels, storage_level_model=levels,
        renewable_use={}, renewable_available={}, pns={})


def test_detect_violations_both_sides():
    batt = make_battery(w0=2.0, w_max=4.0)
    system = make_system([make_thermal()], [batt])
    levels = {"batt": np.array([2.0, 4.5, 3.0, -0.25])}
    records = detect_violations(blank_expansion(levels), system)
    assert len(records) == 2
    above = next(r for r in records if r.side == "above")
    below = next(r for r in records if r.side == "below")
    assert above.hour == 1 and above.amount == pytest.approx(0.5)
    assert below.hour == 3 and below.amount == pytest.approx(0.25)


def test_detect_violations_tolerance():
    system = make_system([make_thermal()], [make_battery(w_max=4.0)])
    levels = {"batt": np.array([4.0 + 5e-7])}
    assert detect_violations(blank_expansion(levels), system) == []


def test_investment_extends_bounds():
    batt = make_battery(w_max=4.0, investable=True, inv_cost=1.0, epr_max=4.0)
    system = make_system([make_thermal()], [batt])
    levels = {"batt": np.array([6.0])}
    assert len(detect_violations(blank_expansion(levels), system)) == 1
    # 1 GW invested at 4 h energy/power ratio lifts the cap to 8 GWh
    assert detect_violations(blank_expansion(levels), system,
                             investment={"batt": 1.0}) == []


# ---------------------------------------------------------------------------
# prices
# ---------------------------------------------------------------------------

def test_hm_prices_follow_marginal_unit(two_unit_system):
    demand = np.concatenate([np.full(12, 0.8), np.full(12, 1.8)])
    data = make_data(demand)
    fo = build_hm(two_unit_system, data)
    sol = solved(fo)
    prices, degenerate = compute_prices(fo, sol, two_unit_system, periods("hm", 24))
    assert degenerate is None          # not checked unless asked
    # cheap unit marginal in low hours, dear unit in high hours
    assert prices.shape == (24, 1)     # periods p0..p23 x node b1
    assert prices[0, 0] == pytest.approx(10.0)
    assert prices[12, 0] == pytest.approx(40.0)


def test_ss_prices_divided_by_duration():
    system = make_system([make_thermal("g", marginal=25.0, commit=0.0,
                                       start=0.0, q_max=3.0, q_min=0.0)])
    chain = [0, 0, 0, 1, 1]
    states = manual_states(chain, [1.0, 2.0], num_storage=0)
    matrices = manual_matrices(chain, window=24)
    fo = build_ss(system, states, matrices)
    sol = solved(fo)
    prices, _ = compute_prices(fo, sol, system, periods("ss", 5, states=states))
    # the balance dual scales with the state duration; per-hour prices don't
    assert prices.shape == (2, 1)      # states s0, s1 x node b1
    assert prices[0, 0] == pytest.approx(25.0)
    assert prices[1, 0] == pytest.approx(25.0)


def test_attach_prices_maps_to_hours(two_unit_system):
    demand = np.concatenate([np.full(12, 0.8), np.full(12, 1.8)])
    data = make_data(demand)
    fo = build_hm(two_unit_system, data)
    sol = solved(fo)
    exp = expand_solution(fo, sol, two_unit_system, data)
    prices, _ = compute_prices(fo, sol, two_unit_system, exp.periods)
    attach_prices(exp, two_unit_system, data, prices)
    assert exp.prices[0] == pytest.approx(10.0)
    assert exp.prices[23] == pytest.approx(40.0)
    assert exp.nodal_prices["b1"][0] == pytest.approx(10.0)


def test_prices_refuse_missing_balance_dual(two_unit_system):
    """Balance rows the model's layout does not record over the periods are
    an error naming the block: a missing price is an error, not 0.0."""
    demand = np.concatenate([np.full(12, 0.8), np.full(12, 1.8)])
    data = make_data(demand)
    fo = build_hm(two_unit_system, data)
    sol = solved(fo)
    exp = expand_solution(fo, sol, two_unit_system, data)
    assert layout_blocks(fo.meta.rows)["bal_b1"].size == 24
    with pytest.raises(ValueError, match="block 'bal_b1' of the model holds 24 entries, "
                                         "expected 23"):
        compute_prices(fo, sol, two_unit_system, periods("hm", 23))
    fo.meta.rows = without_block(fo.meta.rows, "bal_b1")
    with pytest.raises(ValueError, match="block 'bal_b1' of the model holds no entries"):
        attach_prices(exp, two_unit_system, data,
                      compute_prices(fo, sol, two_unit_system, exp.periods)[0])
    assert exp.prices is None


def test_degeneracy_probe_runs(two_unit_system):
    data = make_data(np.full(24, 0.5))
    fo = build_hm(two_unit_system, data)
    sol = solved(fo)
    prices, degenerate = compute_prices(fo, sol, two_unit_system, periods("hm", 24),
                                        check_degeneracy=True)
    assert degenerate in (True, False)
    assert prices[0, 0] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# startups and case results
# ---------------------------------------------------------------------------

def test_count_startups_hm(two_unit_system):
    demand = np.concatenate([np.full(8, 0.5), np.full(8, 2.0), np.full(8, 0.5)])
    data = make_data(demand)
    fo = build_hm(two_unit_system, data)
    exp = expand_solution(fo, solved(fo), two_unit_system, data)
    totals = count_startups(exp, two_unit_system)
    assert totals["cheap"] == pytest.approx(1.0)
    assert totals["dear"] == pytest.approx(1.0)


def test_count_startups_rp_weighted(two_unit_system):
    # one representative day standing for three: its single startup counts
    # three times over the horizon
    day = np.concatenate([np.full(8, 0.5), np.full(8, 2.0), np.full(8, 0.5)])
    data = make_data(np.tile(day, 3))
    rp = manual_rp([0, 0, 0], [0])
    fo = build_rp(two_unit_system, data, rp)
    exp = expand_solution(fo, solved(fo), two_unit_system, data, rp=rp)
    totals = count_startups(exp, two_unit_system)
    assert totals["dear"] == pytest.approx(3.0)


def test_count_startups_ss_transition_weighted():
    system = make_system([
        make_thermal("base", marginal=10.0, commit=0.0, start=0.0, q_min=0.0),
        make_thermal("peak", marginal=30.0, commit=0.0, start=7.0,
                     q_max=1.0, q_min=0.4),
    ])
    chain = [0, 1, 0, 1, 0, 1, 0]
    states = manual_states(chain, [0.5, 1.5], num_storage=0)
    matrices = manual_matrices(chain, window=24)
    data = make_data([0.5, 1.5] * 3 + [0.5])
    fo = build_ss(system, states, matrices)
    exp = expand_solution(fo, solved(fo), system, data, states=states)
    totals = count_startups(exp, system)
    assert totals["peak"] == pytest.approx(3.0)    # N[0,1] = 3


def test_count_startups_ignores_free_indicators():
    """A zero-cost startup indicator left at 1 under a constant commitment
    is no start: the count reads the commitment, not ``y``."""
    system = make_system([make_thermal("g1", start=0.0)], initial_commitment={"g1": 1})
    data = make_data(np.full(6, 0.5))
    fo = build_hm(system, data)
    values = dict.fromkeys(fo.model.var_names, 0.0)
    for label in periods("hm", 6).labels:
        values[f"u_{label}_g1"] = values[f"y_{label}_g1"] = 1.0
        values[f"q_{label}_g1"] = 0.5
    sol = make_solution("optimal", 0.0, values)
    case = build_case_result(fo, sol, system, data, with_prices=False)
    assert case.startups == {"g1": 0.0}
    # off at the start, the same constant commitment is one start at hour 0
    system.config.initial_commitment["g1"] = 0
    assert count_startups(case.expansion, system) == {"g1": 1.0}


def test_build_case_result_bundles(battery_system, sin_data):
    art = aggregate(sin_data, 6, 2, seed=0)
    fo = build_ss(battery_system, art.states, art.matrices)
    sol = solved(fo)
    case = build_case_result(fo, sol, battery_system, sin_data,
                             states=art.states, matrices=art.matrices)
    assert case.kind == "ss"
    assert case.objective == pytest.approx(sol.objective)
    assert case.expansion.hours == 48
    assert case.violation_count == len(case.violations)
    assert case.expansion.prices is not None
    assert case.prices_degenerate is None
    checked = build_case_result(fo, sol, battery_system, sin_data,
                                states=art.states, check_degeneracy=True)
    assert checked.prices_degenerate in (True, False)


def test_case_result_refuses_unusable_solution(battery_system, sin_data):
    fo = build_hm(battery_system, sin_data)
    # a stopped solve without an incumbent must not evaluate as all zeros
    with pytest.raises(ValueError, match="'error'"):
        build_case_result(fo, make_solution("error"), battery_system, sin_data)
    sol = solved(fo)
    sol.x = sol.x[:-1]
    with pytest.raises(ValueError, match=f"holds {fo.model.num_vars - 1} values for "
                                         f"{fo.model.num_vars} variables"):
        build_case_result(fo, sol, battery_system, sin_data)


def test_case_result_refuses_unsolved_pricing_lp(battery_system, sin_data, monkeypatch):
    """A pricing LP that ends without an optimum is an error naming the kind
    and the status, not a report that silently lacks the price metrics."""
    fo = build_hm(battery_system, sin_data)
    sol = solved(fo)
    real = ScipySolver.solve_lp

    def simplex_only(self, model, method="highs", fixed=None):
        if method == "highs":
            return real(self, model, fixed=fixed)
        return make_solution("error", message="stub")

    monkeypatch.setattr(ScipySolver, "solve_lp", simplex_only)
    per = periods("hm", 48)
    assert compute_prices(fo, sol, battery_system, per)[1] is None
    with pytest.raises(ValueError, match="'hm' \\(highs-ipm\\).*'error'"):
        compute_prices(fo, sol, battery_system, per, check_degeneracy=True)
    monkeypatch.setattr(ScipySolver, "solve_lp", lambda self, model, method="highs", fixed=None:
                        make_solution("infeasible", message="stub"))
    with pytest.raises(ValueError, match="'hm' \\(highs\\).*'infeasible'"):
        build_case_result(fo, sol, battery_system, sin_data)
    case = build_case_result(fo, sol, battery_system, sin_data, with_prices=False)
    assert case.expansion.prices is None and case.prices_degenerate is None


def test_case_result_refuses_missing_startups_and_investment(battery_system, sin_data):
    # g1 must be off in each zero-demand block, so it starts three times
    system = make_system([make_thermal("g1")])
    data = make_data(np.tile(np.concatenate([np.zeros(8), np.ones(8)]), 3))
    fo = build_hm(system, data)
    sol = solved(fo)
    on = [f"u_{label}_g1" for label in periods("hm", 48).labels
          if round(sol.values[f"u_{label}_g1"]) == 1]
    assert len(on) == 24
    case = build_case_result(fo, sol, system, data, with_prices=False)
    assert case.startups == {"g1": pytest.approx(3.0)}
    fo.meta.columns = without_block(fo.meta.columns, "u_g1")
    with pytest.raises(ValueError, match="block 'u_g1' of the model holds no entries"):
        build_case_result(fo, sol, system, data, with_prices=False)

    batt = make_battery(investable=True, inv_cost=100.0, epr_max=4.0)
    system = make_system(battery_system.thermal, [batt])
    fo = build_hm(system, sin_data, invest=True)
    sol = solved(fo)
    assert investment_values(fo, sol, system) == {"batt": sol.values["x_batt"]}
    fo.meta.columns = without_block(fo.meta.columns, "x")
    with pytest.raises(ValueError, match="block 'x' of the model holds no entries"):
        investment_values(fo, sol, system)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_compare_sign_convention(battery_system, sin_data):
    fo = build_hm(battery_system, sin_data)
    sol = solved(fo)
    bench = build_case_result(fo, sol, battery_system, sin_data,
                              with_prices=False)
    import dataclasses
    cand = dataclasses.replace(bench, objective=bench.objective * 0.9,
                               wall_seconds=max(bench.wall_seconds, 1e-3) * 0.5)
    rep = compare(bench, cand, battery_system)
    # candidate below benchmark -> positive error (underestimation)
    assert rep.objective_error_pct == pytest.approx(10.0)
    assert rep.time_ratio == pytest.approx(0.5)


def test_compare_zero_benchmark_switches_to_absolute(battery_system, sin_data):
    fo = build_hm(battery_system, sin_data)
    sol = solved(fo)
    bench = build_case_result(fo, sol, battery_system, sin_data,
                              with_prices=False)
    import dataclasses
    cand = dataclasses.replace(bench, startups=dict(bench.startups))
    # no startups happen for the benchmark's thermal tech in this scenario?
    # force it: zero out the benchmark startups
    bench.startups["gen"] = 0.0
    cand.startups["gen"] = 2.0
    rep = compare(bench, cand, battery_system)
    assert "startups[thermal]" in rep.absolute_metrics
    assert rep.startup_error_pct["thermal"] == pytest.approx(-2.0)


def test_compare_same_case_is_zero_error(battery_system, sin_data):
    art = aggregate(sin_data, 6, 2, seed=0)
    fo = build_hm(battery_system, sin_data)
    sol = solved(fo)
    case = build_case_result(fo, sol, battery_system, sin_data,
                             with_prices=False)
    rep = compare(case, case, battery_system)
    assert rep.objective_error_pct == pytest.approx(0.0)
    for v in rep.production_error_pct.values():
        assert v == pytest.approx(0.0)
    assert rep.time_ratio == pytest.approx(1.0)


def test_report_rows_flatten(battery_system, sin_data):
    fo = build_hm(battery_system, sin_data)
    sol = solved(fo)
    case = build_case_result(fo, sol, battery_system, sin_data,
                             with_prices=False)
    rep = compare(case, case, battery_system)
    rows = dict(rep.rows())
    assert "objective_error_pct" in rows
    assert "violation_count" in rows
    assert any(k.startswith("production_error_pct[") for k in rows)
