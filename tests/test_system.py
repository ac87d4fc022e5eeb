import json

import numpy as np
import pytest

from storagg import (ThermalUnit, StorageUnit, Circuit, Network,
                     OperatingConfig, PowerSystem, SystemFormatError,
                     SHORT_TERM, LONG_TERM, compute_isf_from_reactances,
                     validate_system, load_system, save_system)

from conftest import make_thermal, make_battery, make_system, make_data


def test_cost_components():
    g = ThermalUnit(id="g", bus="b", fuel_cost=0.002, alpha=3000.0,
                    beta=1000.0, gamma=50000.0, om_cost=1.5,
                    q_max=1.0, q_min=0.2, ramp_10min=0.5, technology="t")
    assert g.marginal_cost == pytest.approx(0.002 * 3000 + 1.5)
    assert g.commitment_cost == pytest.approx(2.0)
    assert g.startup_cost == pytest.approx(100.0)


def test_two_bus_isf():
    """Single line between two buses: a 1 GW injection at the non-slack bus
    flows entirely over the line toward the slack."""
    net = Network(buses=["a", "b"], slack_bus="a",
                  circuits=[Circuit(id="l1", from_bus="a", to_bus="b",
                                    capacity=1.0, reactance=0.1)], isf=None)
    isf = compute_isf_from_reactances(net)
    assert isf.shape == (1, 1)
    # flow is oriented a->b, the injection at b returns toward a
    assert isf[0, 0] == pytest.approx(-1.0)


def test_triangle_isf():
    # equal reactances: injection at either non-slack bus splits 2/3 direct,
    # 1/3 around the long way (classic three-bus result, computed by hand)
    circuits = [Circuit(id="ab", from_bus="a", to_bus="b", capacity=1, reactance=0.1),
                Circuit(id="bc", from_bus="b", to_bus="c", capacity=1, reactance=0.1),
                Circuit(id="ca", from_bus="c", to_bus="a", capacity=1, reactance=0.1)]
    net = Network(buses=["a", "b", "c"], slack_bus="a", circuits=circuits, isf=None)
    isf = compute_isf_from_reactances(net)
    expected = np.array([
        [-2 / 3, -1 / 3],   # ab flow per injection at b, c
        [1 / 3, -1 / 3],
        [1 / 3, 2 / 3],
    ])
    assert np.allclose(isf, expected)
    # columns of a lossless ISF balance: line flows out of the slack sum to 1
    for col in range(2):
        flows_into_slack = -isf[0, col] + isf[2, col]
        assert flows_into_slack == pytest.approx(1.0)


def test_disconnected_network_rejected():
    net = Network(buses=["a", "b", "c"], slack_bus="a",
                  circuits=[Circuit(id="ab", from_bus="a", to_bus="b",
                                    capacity=1, reactance=0.1)], isf=None)
    with pytest.raises(SystemFormatError, match="disconnected"):
        compute_isf_from_reactances(net)


def test_validate_clean_system(battery_system):
    assert validate_system(battery_system) == []


def test_validate_catches_problems():
    g_dup = make_thermal("g1")
    sys_bad = make_system([g_dup, g_dup],
                          [make_battery(w0=5.0, w_max=4.0)])  # w0 above w_max
    problems = validate_system(sys_bad)
    assert any("duplicate" in p for p in problems)
    assert any("w0" in p for p in problems)


def test_validate_bad_efficiency():
    s = make_battery(eff=1.5)
    problems = validate_system(make_system([make_thermal()], [s]))
    assert any("efficiency" in p for p in problems)


def test_validate_unknown_bus():
    g = make_thermal(bus="nowhere")
    problems = validate_system(make_system([g]))
    assert any("nowhere" in p for p in problems)


def test_validate_bad_id():
    g = make_thermal(uid="1bad id")
    problems = validate_system(make_system([g]))
    assert any("identifier" in p for p in problems)


def test_validate_cross_checks_data():
    system = make_system([make_thermal()], [make_battery()])
    data = make_data(np.ones(24), storage_ids=["other"])
    problems = validate_system(system, data)
    assert any("other" in p or "batt" in p for p in problems)


def test_short_and_long_term_split():
    st = make_battery("st")
    lt = StorageUnit(id="lt", bus="b1", kind=LONG_TERM, w0=10, w_min=0,
                     w_max=100, w_fin=10, efficiency=1.0, q_max=5.0,
                     b_max=0.0, technology="hydro")
    system = make_system([make_thermal()], [st, lt])
    assert [s.id for s in system.short_term_storage] == ["st"]
    assert [s.id for s in system.long_term_storage] == ["lt"]


def test_initial_commitment_defaults_to_off():
    system = make_system([make_thermal("g1")], initial_commitment={"g1": 1})
    assert system.initial_commitment("g1") == 1
    assert system.initial_commitment("unknown") == 0


def test_save_load_round_trip(tmp_path, battery_system):
    path = tmp_path / "system.json"
    save_system(battery_system, path)
    back = load_system(path)
    assert [g.id for g in back.thermal] == [g.id for g in battery_system.thermal]
    assert back.storage[0].efficiency == battery_system.storage[0].efficiency
    assert back.config.pns_penalty == battery_system.config.pns_penalty
    assert back.network.slack_bus == "b1"


def test_load_derives_isf_from_reactances(tmp_path):
    doc = {
        "buses": ["a", "b"],
        "slack_bus": "a",
        "circuits": [{"id": "l1", "from_bus": "a", "to_bus": "b",
                      "capacity": 2.0, "reactance": 0.2}],
        "thermal": [{"id": "g", "bus": "a", "fuel_cost": 1.0, "alpha": 10.0,
                     "beta": 1.0, "gamma": 5.0, "om_cost": 0.0, "q_max": 1.0,
                     "q_min": 0.0, "ramp_10min": 1.0, "technology": "t"}],
        "storage": [],
        "config": {"pns_penalty": 500.0},
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    system = load_system(path)
    assert system.network.isf is not None
    assert system.network.isf[0, 0] == pytest.approx(-1.0)
    assert system.config.pns_penalty == 500.0


def test_load_rejects_invalid_system(tmp_path):
    doc = {"buses": ["a"], "slack_bus": "a", "circuits": [],
           "thermal": [{"id": "g", "bus": "a", "fuel_cost": 1.0, "alpha": 10.0,
                        "beta": 1.0, "gamma": 5.0, "om_cost": 0.0,
                        "q_max": -1.0, "q_min": 0.0, "ramp_10min": 1.0,
                        "technology": "t"}],
           "storage": [], "config": {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemFormatError):
        load_system(path)


@pytest.mark.parametrize("field, value, message", [
    ("q_max", "5", "thermal unit 'g': q_max must be a number, got '5'"),
    ("q_max", float("nan"), "thermal unit 'g': q_max must be a number, got nan"),
    ("bus", 3, "thermal unit 'g': bus must be a string, got 3"),
])
def test_load_rejects_wrongly_typed_field(tmp_path, field, value, message):
    """A field of the wrong JSON type, or NaN where a number belongs, is a
    located SystemFormatError before any range check compares it."""
    unit = {"id": "g", "bus": "a", "fuel_cost": 1.0, "alpha": 10.0, "beta": 1.0,
            "gamma": 5.0, "om_cost": 0.0, "q_max": 1.0, "q_min": 0.0,
            "ramp_10min": 1.0, "technology": "t"}
    doc = {"buses": ["a"], "slack_bus": "a", "circuits": [],
           "thermal": [dict(unit, **{field: value})], "storage": [], "config": {}}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemFormatError, match=f"{path.name}: {message}"):
        load_system(path)
