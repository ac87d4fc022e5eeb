import numpy as np
import pytest

from storagg import (ThermalUnit, StorageUnit, Network, OperatingConfig,
                     PowerSystem, TimeHorizonData, SHORT_TERM,
                     StateClustering, RepPeriodClustering, build_matrices, Solution)


def make_thermal(uid="g1", bus="b1", marginal=10.0, commit=2.0, start=50.0,
                 q_max=1.0, q_min=0.2, ramp=1.0, tech="thermal"):
    """Thermal unit with cost components given directly in k€ terms.

    fuel_cost is set to 1 so marginal/commitment/startup costs equal
    alpha + om, beta, gamma respectively.
    """
    return ThermalUnit(id=uid, bus=bus, fuel_cost=1.0, alpha=marginal,
                       beta=commit, gamma=start, om_cost=0.0,
                       q_max=q_max, q_min=q_min, ramp_10min=ramp,
                       technology=tech)


def make_battery(uid="batt", bus="b1", w0=2.0, w_max=4.0, w_fin=2.0,
                 eff=0.9, q_max=1.0, b_max=1.0, **kw):
    return StorageUnit(id=uid, bus=bus, kind=SHORT_TERM, w0=w0, w_min=0.0,
                       w_max=w_max, w_fin=w_fin, efficiency=eff,
                       q_max=q_max, b_max=b_max, technology="battery", **kw)


def make_system(thermal, storage=(), pns_penalty=1000.0, reserve=0.0,
                initial_commitment=None, buses=("b1",), slack="b1",
                circuits=(), isf=None):
    net = Network(buses=list(buses), slack_bus=slack,
                  circuits=list(circuits), isf=isf)
    cfg = OperatingConfig(reserve_fraction=reserve, pns_penalty=pns_penalty,
                          spill_penalty=0.0,
                          initial_commitment=dict(initial_commitment or {}))
    return PowerSystem(thermal=list(thermal), storage=list(storage),
                       network=net, config=cfg)


def make_data(demand, renew=None, inflows=None, nodes=("b1",), storage_ids=()):
    demand = np.atleast_2d(np.asarray(demand, dtype=float).T).T
    p = demand.shape[0]
    if renew is None:
        renew = np.zeros((p, len(nodes)))
    else:
        renew = np.atleast_2d(np.asarray(renew, dtype=float).T).T
    if inflows is None:
        inflows = np.zeros((p, len(storage_ids)))
    else:
        inflows = np.atleast_2d(np.asarray(inflows, dtype=float).T).T
    return TimeHorizonData(nodes=list(nodes), storage_ids=list(storage_ids),
                           demand=demand, renewable_avail=renew, inflows=inflows)


def manual_states(assignment, demand_per_state, renew_per_state=None,
                  inflow_per_state=None, num_nodes=1, num_storage=1):
    """State clustering with prescribed assignment and composite hours."""
    assignment = np.asarray(assignment, dtype=int)
    s = int(assignment.max()) + 1
    demand = np.asarray(demand_per_state, dtype=float).reshape(s, num_nodes)
    renew = (np.zeros((s, num_nodes)) if renew_per_state is None
             else np.asarray(renew_per_state, dtype=float).reshape(s, num_nodes))
    inflow = (np.zeros((s, num_storage)) if inflow_per_state is None
              else np.asarray(inflow_per_state, dtype=float).reshape(s, num_storage))
    return StateClustering(
        num_states=s, assignment=assignment, demand=demand,
        renewable_avail=renew, inflows=inflow)


def manual_matrices(assignment, window, day_assignment=(0,)):
    """The chronology matrices of an hour chain and a day chain; they read
    neither composite hours nor medoid days, so those are left zero."""
    s, r = int(np.max(assignment)) + 1, int(np.max(day_assignment)) + 1
    return build_matrices(manual_states(assignment, np.zeros(s)),
                          manual_rp(day_assignment, np.zeros(r)), window)


def make_solution(status, objective=None, values=None, **header):
    """A Solution with ``values``; header fields not named are empty."""
    sol = Solution(status, objective, **{"gap": 0.0, "wall_seconds": 0.0, "message": "",
                                         "audit": {}, **header})
    sol.values = dict(values or {})
    return sol


def manual_rp(day_assignment, medoid_days):
    return RepPeriodClustering(num_rp=len(medoid_days),
                               day_assignment=np.asarray(day_assignment, dtype=int),
                               medoid_days=np.asarray(medoid_days, dtype=int))


@pytest.fixture
def two_unit_system():
    """Cheap baseload plus an expensive peaker, no storage."""
    return make_system([
        make_thermal("cheap", marginal=10.0, commit=1.0, start=30.0,
                     q_max=1.0, q_min=0.2, tech="coal"),
        make_thermal("dear", marginal=40.0, commit=0.5, start=10.0,
                     q_max=1.5, q_min=0.1, tech="gas"),
    ])


@pytest.fixture
def battery_system():
    """One mid-cost unit and one battery on a single bus."""
    return make_system([make_thermal("gen", marginal=20.0, commit=1.0,
                                     start=10.0, q_max=2.0, q_min=0.2)],
                       [make_battery()])


@pytest.fixture
def sin_data():
    """Two days of sinusoidal demand with a midday renewable bump.

    A slow 48-hour component keeps the two days distinct so day clustering
    with k=2 always has two distinct points to work with.
    """
    p = 48
    t = np.arange(p)
    demand = (1.0 + 0.6 * np.sin(2 * np.pi * (t - 6) / 24)
              + 0.1 * np.sin(2 * np.pi * t / 48))
    renew = 0.4 * np.maximum(0.0, np.sin(np.pi * (t % 24 - 6) / 12))
    return make_data(demand, renew, np.zeros(p), storage_ids=["batt"])
