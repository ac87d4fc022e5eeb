import dataclasses

import numpy as np
import pytest

from storagg import (build_hm, build_ss, build_ss_rfm, build_rp, build_rp_tmci,
                     solve, constraint_families, audit_constraints, periods,
                     aggregate, emit_scenario_template, load_scenario, BUILDER_KINDS,
                     Circuit, Network, StorageUnit, LONG_TERM, compute_isf_from_reactances,
                     validate_system, ModelMeta)
from storagg.pipeline import stage_ingest, build_formulation

from conftest import (make_thermal, make_battery, make_system, make_data,
                      manual_states, manual_matrices, manual_rp)


# ---------------------------------------------------------------------------
# hourly benchmark
# ---------------------------------------------------------------------------

def test_hm_variable_count_tiny(battery_system):
    # 2 hours, 1 thermal, 1 storage, 1 bus: per hour q/qhat/u/r/y for the
    # unit, q/b/sp/w for the storage, v/pns for the node -> 11 per hour
    data = make_data([1.0, 1.2], storage_ids=["batt"])
    fo = build_hm(battery_system, data)
    assert fo.model.num_vars == 22


def test_hm_constraint_families_tiny(battery_system):
    data = make_data([1.0, 1.2], storage_ids=["batt"])
    fo = build_hm(battery_system, data)
    fams = {k: len(v) for k, v in constraint_families(fo.model).items()}
    assert fams == {"bal": 2, "psplit": 2, "pcap": 2, "rcap": 2,
                    "start": 2, "level": 2, "fin": 1}


def test_hm_merit_order_objective(two_unit_system):
    """Flat 0.5 GW day: the cheap unit alone serves it.

    24 h x (0.5 GW x 10 + commitment 1) + one startup at 30.
    """
    data = make_data(np.full(24, 0.5))
    fo = build_hm(two_unit_system, data)
    sol = solve(fo.model)
    assert sol.ok
    assert sol.objective == pytest.approx(174.0)
    assert all(round(sol.values[f"u_p{t}_cheap"]) == 1 for t in range(24))
    assert all(round(sol.values[f"u_p{t}_dear"]) == 0 for t in range(24))
    assert sum(round(sol.values[f"y_p{t}_cheap"]) for t in range(24)) == 1


def test_hm_initial_commitment_skips_startup():
    system = make_system([make_thermal("g", marginal=10.0, commit=1.0,
                                       start=500.0)],
                         initial_commitment={"g": 1})
    data = make_data(np.full(4, 0.5))
    fo = build_hm(system, data)
    sol = solve(fo.model)
    # the unit was already on, so the large startup cost is never paid
    assert sol.objective == pytest.approx(4 * (5.0 + 1.0))


def test_hm_pns_when_capacity_short():
    system = make_system([make_thermal("g", q_max=1.0, q_min=0.0)],
                         pns_penalty=100.0)
    data = make_data([2.0, 0.5])
    fo = build_hm(system, data)
    sol = solve(fo.model)
    assert sol.values["pns_p0_b1"] == pytest.approx(1.0)
    assert sol.values["pns_p1_b1"] == pytest.approx(0.0, abs=1e-9)


def test_hm_storage_must_hit_final_level(battery_system):
    # battery alone cannot end below w_fin, so it must charge back what the
    # cheap hours allow; final level >= 2.0
    data = make_data([0.3, 2.5, 0.3, 0.3], storage_ids=["batt"])
    fo = build_hm(battery_system, data)
    sol = solve(fo.model)
    assert sol.ok
    assert sol.values["w_p3_batt"] >= 2.0 - 1e-8


def test_hm_investment_variables_only_when_asked():
    batt = make_battery(investable=True, inv_cost=100.0, epr_max=4.0)
    system = make_system([make_thermal()], [batt])
    data = make_data(np.full(4, 0.5), storage_ids=["batt"])
    plain = build_hm(system, data)
    assert "x_batt" not in plain.model.var_names
    invest = build_hm(system, data, invest=True)
    assert "x_batt" in invest.model.var_names
    fams = constraint_families(invest.model)
    # investment couples the power, charge and level limits
    assert {"dcap", "ccap", "lvlo", "lvhi"} <= set(fams)


def test_hm_network_flow_rows():
    from storagg import Circuit, compute_isf_from_reactances, Network
    circuits = [Circuit(id="l1", from_bus="a", to_bus="b", capacity=0.4,
                        reactance=0.1)]
    net = Network(buses=["a", "b"], slack_bus="a", circuits=circuits, isf=None)
    isf = compute_isf_from_reactances(net)
    system = make_system([make_thermal("g", bus="a", q_max=3.0, q_min=0.0)],
                         buses=("a", "b"), slack="a",
                         circuits=circuits, isf=isf, pns_penalty=100.0)
    data = make_data(np.column_stack([np.zeros(2), [1.0, 0.3]]),
                     nodes=("a", "b"))
    fo = build_hm(system, data)
    sol = solve(fo.model)
    # all of b's demand crosses the line, capped at 0.4: the rest is unserved
    assert sol.values["pf_p0_l1"] == pytest.approx(0.4)
    assert sol.values["pns_p0_b"] == pytest.approx(0.6)
    assert sol.values["pns_p1_b"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# system-states family
# ---------------------------------------------------------------------------

def ss_fixture(battery_system):
    states = manual_states([0, 0, 1, 1, 0], [0.4, 1.6])
    matrices = manual_matrices([0, 0, 1, 1, 0], window=24)
    return states, matrices


def test_ss_startup_pairs_off_diagonal_only(battery_system):
    states, matrices = ss_fixture(battery_system)
    fo = build_ss(battery_system, states, matrices)
    g = battery_system.thermal[0].id
    s = battery_system.storage[0].id
    pairs = [(a, b) for a in range(states.num_states) for b in range(states.num_states)]
    names = set(fo.model.var_names)
    y_pairs = {(a, b) for a, b in pairs if f"y_s{a}_s{b}_{g}" in names}
    dw_pairs = {(a, b) for a, b in pairs if f"dw_s{a}_s{b}_{s}" in names}
    assert y_pairs == {(0, 1), (1, 0)}                     # no self pairs
    assert dw_pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}    # all observed pairs


def test_ss_chain_identity(battery_system):
    """The transition-weighted level shifts reproduce the boundary walk.

    Walking the state chain hour by hour and averaging adjacent state level
    changes must give exactly sum(N * dw): the matrix counts each boundary
    once.
    """
    states, matrices = ss_fixture(battery_system)
    fo = build_ss(battery_system, states, matrices)
    sol = solve(fo.model)
    assert sol.ok
    s = states.num_states
    delta = np.empty(s)
    eff = battery_system.storage[0].efficiency
    for j in range(s):
        delta[j] = (states.inflows[j, 0]
                    + eff * sol.values[f"b_s{j}_batt"]
                    - sol.values[f"q_s{j}_batt"]
                    - sol.values[f"sp_s{j}_batt"])
    matrix_total = sum(matrices.transitions[a, b] * sol.values[f"dw_s{a}_s{b}_batt"]
                       for a in range(s) for b in range(s)
                       if matrices.transitions[a, b])
    chain = states.assignment
    walk = sum(0.5 * (delta[chain[t - 1]] + delta[chain[t]])
               for t in range(1, len(chain)))
    assert matrix_total == pytest.approx(walk, abs=1e-9)


def test_ss_startup_cost_counts_transitions():
    """Two states, the expensive unit only needed in the high state: each of
    the N[low, high] transitions pays one startup.

    The peaker's minimum output makes keeping it committed through the low
    state dearer than restarting it, so the optimum cycles it and the
    startup term must be weighted by the transition count.
    """
    system = make_system([
        make_thermal("base", marginal=10.0, commit=0.0, start=0.0,
                     q_max=1.0, q_min=0.0),
        make_thermal("peak", marginal=30.0, commit=0.0, start=7.0,
                     q_max=1.0, q_min=0.4),
    ])
    chain = [0, 1, 0, 1, 0, 1, 0]          # three low->high transitions
    states = manual_states(chain, [0.5, 1.5], num_storage=0)
    matrices = manual_matrices(chain, window=24)
    fo = build_ss(system, states, matrices)
    sol = solve(fo.model)
    base_cost = 0.5 * 10 * 4 + 1.0 * 10 * 3          # durations 4 and 3
    peak_cost = 0.5 * 30 * 3
    n_up = matrices.transitions[0, 1]
    assert n_up == 3
    assert sol.objective == pytest.approx(base_cost + peak_cost + 7.0 * n_up)
    assert round(sol.values["y_s0_s1_peak"]) == 1
    assert round(sol.values["y_s1_s0_peak"]) == 0


def test_ss_rfm_uses_window_rows_for_short_term(battery_system):
    states, matrices = ss_fixture(battery_system)
    plain = build_ss(battery_system, states, matrices)
    rfm = build_ss_rfm(battery_system, states, matrices)
    plain_fams = set(constraint_families(plain.model))
    rfm_fams = set(constraint_families(rfm.model))
    assert {"chklo", "chkhi"} <= plain_fams
    # the battery is short-term, so the enhanced variant swaps its
    # checkpoint rows for per-window ones
    assert {"winlo", "winhi"} <= rfm_fams
    assert "chklo" not in rfm_fams


def test_ss_rfm_keeps_checkpoint_rows_for_long_term():
    from storagg import StorageUnit, LONG_TERM
    res = StorageUnit(id="res", bus="b1", kind=LONG_TERM, w0=10.0, w_min=0.0,
                      w_max=20.0, w_fin=10.0, efficiency=1.0, q_max=2.0,
                      b_max=0.0, technology="hydro")
    system = make_system([make_thermal()], [res])
    states = manual_states([0, 0, 1, 1, 0], [0.4, 1.6],
                           inflow_per_state=[0.3, 0.1])
    matrices = manual_matrices([0, 0, 1, 1, 0], window=2)
    fo = build_ss_rfm(system, states, matrices)
    fams = set(constraint_families(fo.model))
    assert {"chklo", "chkhi"} <= fams
    assert "winlo" not in fams


def test_ss_end_of_horizon_band(battery_system):
    states, matrices = ss_fixture(battery_system)
    fo = build_ss(battery_system, states, matrices)
    fams = constraint_families(fo.model)
    assert len(fams["endlo"]) == 1 and len(fams["endhi"]) == 1
    sol = solve(fo.model)
    # the chain-end level implied by the shifts stays within the band
    total = sum(matrices.transitions[a, b] * sol.values[f"dw_s{a}_s{b}_batt"]
                for a in range(2) for b in range(2))
    batt = battery_system.storage[0]
    assert batt.w_fin - batt.w0 - 1e-8 <= total <= batt.w_max - batt.w0 + 1e-8


# ---------------------------------------------------------------------------
# representative-days family
# ---------------------------------------------------------------------------

def test_rp_weighted_repetition_equals_separate_days(two_unit_system):
    """Three identical days, one representative: the objective is exactly
    three times the single-day benchmark when nothing couples days."""
    day = 0.5 + 0.4 * np.sin(2 * np.pi * (np.arange(24) - 8) / 24) ** 2
    data3 = make_data(np.tile(day, 3))
    rp = manual_rp([0, 0, 0], [0])
    fo_rp = build_rp(two_unit_system, data3, rp)
    fo_hm = build_hm(two_unit_system, make_data(day))
    sol_rp = solve(fo_rp.model)
    sol_hm = solve(fo_hm.model)
    assert sol_rp.objective == pytest.approx(3 * sol_hm.objective, rel=1e-9)


def test_rp_cyclic_rows_per_cluster(battery_system):
    data = make_data(np.concatenate([np.full(24, 0.5), np.full(24, 1.4)]),
                     storage_ids=["batt"])
    rp = manual_rp([0, 1], [0, 1])
    fo = build_rp(battery_system, data, rp)
    fams = constraint_families(fo.model)
    assert len(fams["cyc"]) == 2 * len(battery_system.storage)
    # levels inside each day restart from w0, no cross-day chaining
    assert len(fams["level"]) == 48


def test_rp_day_cycle_blocks_net_discharge(battery_system):
    """With one expensive day, the battery may shift within the day but the
    cyclic rule stops it from draining across the horizon."""
    data = make_data(np.concatenate([np.full(24, 0.5), np.full(24, 1.4)]),
                     storage_ids=["batt"])
    rp = manual_rp([0, 1], [0, 1])
    fo = build_rp(battery_system, data, rp)
    sol = solve(fo.model)
    assert sol.ok
    w0 = battery_system.storage[0].w0
    for first_day in (0, 1):
        last = 24 * first_day + 23
        assert sol.values[f"w_p{last}_batt"] >= w0 - 1e-8


def linked_pairs(fo) -> list[tuple[int, int]]:
    """The day-cluster pairs (a, b) that ``ulink_r<a>_r<b>_<unit>`` rows tie."""
    names = [fo.model.constraints[i].name
             for i in constraint_families(fo.model).get("ulink", [])]
    return sorted({(int(a[1:]), int(b[1:]))
                   for a, b in (name.split("_")[1:3] for name in names)})


def test_rp_tmci_linking_rows(two_unit_system):
    data = make_data(np.concatenate([np.full(24, 0.5), np.full(24, 1.4),
                                     np.full(24, 0.6)]))
    rp = manual_rp([0, 1, 0], [0, 1])
    matrices = manual_matrices([0] * 72, window=24, day_assignment=[0, 1, 0])
    fo = build_rp_tmci(two_unit_system, data, rp, matrices, window=24,
                       theta=1.0)
    fams = constraint_families(fo.model)
    # observed day transitions 0->1 and 1->0, two thermal units each
    assert len(fams["ulink"]) == 2 * 2
    assert linked_pairs(fo) == [(0, 1), (1, 0)]


def test_rp_tmci_theta_disables_linking(two_unit_system):
    data = make_data(np.concatenate([np.full(24, 0.5), np.full(24, 1.4),
                                     np.full(24, 0.6)]))
    rp = manual_rp([0, 1, 0], [0, 1])
    matrices = manual_matrices([0] * 72, window=24, day_assignment=[0, 1, 0])
    fo = build_rp_tmci(two_unit_system, data, rp, matrices, window=24,
                       theta=float("inf"))
    assert "ulink" not in constraint_families(fo.model)
    assert linked_pairs(fo) == []


@pytest.mark.parametrize("invest", [False, True], ids=["plain", "invest"])
def test_rp_tmci_with_every_day_extends_hm(tmp_path, invest):
    """With every day representative and no commitment links, ``rp_tmci``
    is the hour chain of ``hm`` plus its checkpoint block: its first
    ``hm.num_vars`` columns and the rows before ``hm``'s ``fin`` rows are
    ``hm``'s, bit for bit and name for name."""
    config = load_scenario(emit_scenario_template(tmp_path, days=7, seed=4))
    config.invest, config.rep_days, config.theta = invest, 7, float("inf")
    system, data = stage_ingest(config)
    art = aggregate(data, config.states, config.rep_days, config.seed,
                    window_hours=config.window_hours,
                    has_short_term_storage=bool(system.short_term_storage))
    hm, tmci = (build_formulation(kind, system, data, art, config).model
                for kind in ("hm", "rp_tmci"))
    n, k = hm.num_vars, constraint_families(hm)["fin"][0]
    assert k == hm.num_cons - len(system.storage) and tmci.num_vars > n
    assert "ulink" not in constraint_families(tmci)
    nnz = hm._indptr[k]
    for attr, stop in (("_lb", n), ("_ub", n), ("_obj", n), ("_int", n), ("_indptr", k + 1),
                       ("_cols", nnz), ("_coefs", nnz), ("_sense", k), ("_rhs", k)):
        assert bytes(getattr(tmci, attr)[:stop]) == bytes(getattr(hm, attr)[:stop]), attr
    assert tmci.var_names[:n] == hm.var_names
    assert tmci._con_names.tolist()[:k] == hm._con_names.tolist()[:k]


def test_rp_tmci_checkpoint_chain(battery_system):
    """Checkpoint variables must chain consistently: each equals the mapped
    accumulation since the previous one."""
    demand = np.concatenate([np.full(24, 0.5), np.full(24, 1.4)])
    data = make_data(demand, storage_ids=["batt"])
    rp = manual_rp([0, 1], [0, 1])
    matrices = manual_matrices([0] * 48, window=24, day_assignment=[0, 1])
    fo = build_rp_tmci(battery_system, data, rp, matrices, window=24)
    sol = solve(fo.model)
    assert sol.ok
    batt = battery_system.storage[0]
    per = periods("rp_tmci", 48, rp=rp)
    hour_map = per.hours[per.pos]
    level = batt.w0
    for k in fo.meta.checkpoints:
        prev = k - 24
        for p in range(prev, k):
            h = hour_map[p]
            level += (batt.efficiency * sol.values[f"b_p{h}_batt"]
                      - sol.values[f"q_p{h}_batt"]
                      - sol.values[f"sp_p{h}_batt"])
        assert sol.values[f"wchk_k{k}_batt"] == pytest.approx(level, abs=1e-7)
    assert sol.values[f"wchk_k48_batt"] >= batt.w_fin - 1e-8


def test_rp_tmci_window_must_be_day_multiple(battery_system, sin_data):
    rp = manual_rp([0, 1], [0, 1])
    matrices = manual_matrices([0] * 48, window=24, day_assignment=[0, 1])
    with pytest.raises(ValueError, match="multiple"):
        build_rp_tmci(battery_system, sin_data, rp, matrices, window=30)


def test_rp_day_start_anchored_at_initial_commitment():
    system = make_system([make_thermal("g", marginal=10.0, commit=0.5,
                                       start=100.0)],
                         initial_commitment={"g": 1})
    data = make_data(np.full(48, 0.5))
    rp = manual_rp([0, 1], [0, 1])
    fo = build_rp(system, data, rp)
    sol = solve(fo.model)
    # both modeled days anchor at the pre-horizon commitment: no startups
    assert sol.objective == pytest.approx(48 * (5.0 + 0.5))


# ---------------------------------------------------------------------------
# cross-cutting
# ---------------------------------------------------------------------------

def test_all_builders_pass_audit(battery_system, sin_data):
    from storagg import aggregate
    art = aggregate(sin_data, 6, 2, seed=0)
    outputs = [
        build_hm(battery_system, sin_data),
        build_ss(battery_system, art.states, art.matrices),
        build_ss_rfm(battery_system, art.states, art.matrices),
        build_rp(battery_system, sin_data, art.rp),
        build_rp_tmci(battery_system, sin_data, art.rp, art.matrices, window=24),
    ]
    for fo in outputs:
        sol = solve(fo.model)
        assert sol.ok, fo.kind
        report = audit_constraints(fo.model, sol.values)
        for fam, stats in report.items():
            assert stats["max_residual"] <= 1e-6, (fo.kind, fam, stats)


def test_meta_carries_time_structure(battery_system, sin_data):
    """The sidecar metadata holds the kind and the invest flag; the time
    structure comes from ``periods``: 48 hourly labels of weight 1, the
    end-of-horizon requirement on the last one."""
    fo = build_hm(battery_system, sin_data)
    assert fo.meta == ModelMeta("hm", False)
    per = periods("hm", 48)
    assert per.labels[0] == "p0" and per.hours.tolist() == per.pos.tolist()
    assert per.weights.tolist() == [1] * 48
    fin = fo.model.constraints[constraint_families(fo.model)["fin"][0]]
    assert [fo.model.var_names[j] for j in fin.idx] == [f"w_{per.labels[-1]}_batt"]


def check_period_layout(fo, system, horizon, states=None, rp=None):
    """``periods`` against the built model: the weights cover the horizon,
    each label's weight is the objective coefficient of its ``pns`` variable
    over the penalty, and representative days map every real hour to the
    same hour of day in its cluster's medoid day."""
    per = periods(fo.kind, horizon, states=states, rp=rp)
    weights = per.weights
    assert weights.sum() == horizon, fo.kind
    c = fo.model.to_arrays()[0]
    col = {name: j for j, name in enumerate(fo.model.var_names)}
    pns = [f"pns_{label}_{n}" for label in per.labels for n in system.nodes]
    assert sorted(pns) == sorted(name for name in col if name.startswith("pns_"))
    penalty = system.config.pns_penalty
    for label, w in zip(per.labels, weights.tolist()):
        for n in system.nodes:
            assert c[col[f"pns_{label}_{n}"]] / penalty == pytest.approx(w, rel=1e-12, abs=0)
    if fo.kind in ("rp", "rp_tmci"):
        t = np.arange(horizon)
        medoid_hour = rp.medoid_days[rp.day_assignment[t // 24]] * 24 + t % 24
        assert [per.labels[i] for i in per.pos] == [f"p{h}" for h in medoid_hour]
        assert per.hours[per.pos].tolist() == medoid_hour.tolist()


def test_period_layout_oracle_on_template(tmp_path):
    config = load_scenario(emit_scenario_template(tmp_path, days=14, seed=4))
    system, data = stage_ingest(config)
    art = aggregate(data, config.states, config.rep_days, config.seed)
    for kind in ("hm", "ss", "ss_rfm", "rp", "rp_tmci"):
        fo = build_formulation(kind, system, data, art, config)
        check_period_layout(fo, system, data.horizon_hours, states=art.states, rp=art.rp)


def test_period_layout_oracle_on_hand_made_clusterings(battery_system):
    """Medoid days out of calendar order (clusters 1, 0, 2 by day) and a
    state chain that revisits its states."""
    chain = [0, 2, 2, 1, 0, 0, 1, 2, 2, 2, 0]
    states = manual_states(chain, [0.4, 1.6, 1.0])
    matrices = manual_matrices(chain, window=24)
    for build in (build_ss, build_ss_rfm):
        fo = build(battery_system, states, matrices)
        check_period_layout(fo, battery_system, len(chain), states=states)

    days = [1, 0, 0, 2]
    rp = manual_rp(days, [2, 0, 3])
    data = make_data(1.0 + 0.3 * np.sin(np.arange(96) / 5.0), storage_ids=["batt"])
    check_period_layout(build_rp(battery_system, data, rp), battery_system, 96, rp=rp)
    fo = build_rp_tmci(battery_system, data, rp,
                       manual_matrices([0] * 96, window=24, day_assignment=days), window=24)
    check_period_layout(fo, battery_system, 96, rp=rp)
    assert periods("rp", 96, rp=rp).labels[::24] == ["p0", "p48", "p72"]


def underscore_network():
    """Three buses on a triangle of lines whose bus, unit and circuit ids
    hold underscores, with reserve, an investable battery and a long-term
    store, over three distinct days."""
    buses = ("n_1", "n_2", "n_3")
    circuits = [Circuit("c_1", "n_1", "n_2", 0.8, 0.1), Circuit("c_2", "n_2", "n_3", 0.5, 0.2),
                Circuit("c_3", "n_3", "n_1", 0.6, 0.15)]
    isf = compute_isf_from_reactances(Network(list(buses), "n_1", circuits, None))
    thermal = [make_thermal("gas_1", bus="n_1", marginal=8.0, q_max=2.0, q_min=0.5),
               make_thermal("gas_2", bus="n_2", marginal=30.0, q_max=1.0, q_min=0.1)]
    storage = [make_battery("bess_1", bus="n_3", investable=True, inv_cost=40.0,
                            epr_min=1.0, epr_max=4.0),
               StorageUnit(id="hydro_1", bus="n_1", kind=LONG_TERM, w0=30.0, w_min=2.0,
                           w_max=60.0, w_fin=25.0, efficiency=1.0, q_max=0.6,
                           b_max=0.0, technology="hydro")]
    system = make_system(thermal, storage, reserve=0.1, buses=buses, slack="n_1",
                         circuits=circuits, isf=isf, initial_commitment={"gas_1": 1})
    assert validate_system(system) == []
    t = np.arange(72)
    base = 1.0 + 0.4 * np.sin(2 * np.pi * (t - 6) / 24) + 0.2 * (t // 24)
    data = make_data(np.column_stack([0.3 * base, 0.5 * base, 0.4 * base]),
                     inflows=np.column_stack([np.zeros(72), 0.05 + 0.01 * (t % 5)]),
                     nodes=buses, storage_ids=("bess_1", "hydro_1"))
    return system, data


@pytest.mark.parametrize("invest", [False, True], ids=["plain", "invest"])
def test_builder_names_distinct(tmp_path, invest):
    """Every kind's variable names are distinct, and so are its row names,
    on the template and on a network whose ids hold underscores.  No
    addition checks this: it is the guard for the builders' names."""
    config = load_scenario(emit_scenario_template(tmp_path, days=7, seed=4))
    config.invest = invest
    system, data = stage_ingest(config)
    art = aggregate(data, config.states, config.rep_days, config.seed,
                    has_short_term_storage=bool(system.short_term_storage))
    cases = [(system, data, art, config)]
    system, data = underscore_network()
    cases.append((system, data, aggregate(data, 5, 2, seed=1, window_hours=24),
                  dataclasses.replace(config, window_hours=24)))
    for system, data, art, config in cases:
        for kind in BUILDER_KINDS:
            m = build_formulation(kind, system, data, art, config).model
            for names in (m.var_names, [c.name for c in m.constraints]):
                assert len(set(names)) == len(names), kind
