"""Battery investment flips on at an analytically known cost threshold.

One day, two price levels: a cheap unit (10 k euro/GWh) with headroom
off-peak and an expensive unit (60 k euro/GWh) at the margin during the peak
block.  A candidate battery with 4 h of energy per GW and 0.9 charging
efficiency earns 4 * (60 - 10/0.9) = 195.56 k euro per GW invested and per
cycle, so the hourly model should invest iff the investment cost is below
that number.

Run:  python demos/04_investment_threshold.py
"""

import numpy as np

from storagg import (ThermalUnit, StorageUnit, Network, OperatingConfig,
                     PowerSystem, TimeHorizonData, SHORT_TERM,
                     build_hm, solve, investment_values)

CHEAP, DEAR, ETA, EPR = 10.0, 60.0, 0.9, 4.0
THRESHOLD = EPR * (DEAR - CHEAP / ETA)

demand = np.concatenate([np.full(8, 0.5), np.full(8, 4.0), np.full(8, 0.5)])
data = TimeHorizonData(nodes=["hub"], storage_ids=["cand"],
                       demand=demand[:, None],
                       renewable_avail=np.zeros((24, 1)),
                       inflows=np.zeros((24, 1)))


def system_with(inv_cost: float) -> PowerSystem:
    thermal = [
        ThermalUnit(id="cheap", bus="hub", fuel_cost=1.0, alpha=CHEAP,
                    beta=0.0, gamma=0.0, om_cost=0.0, q_max=2.0, q_min=0.0,
                    ramp_10min=2.0, technology="coal"),
        ThermalUnit(id="dear", bus="hub", fuel_cost=1.0, alpha=DEAR,
                    beta=0.0, gamma=0.0, om_cost=0.0, q_max=4.0, q_min=0.0,
                    ramp_10min=4.0, technology="gas"),
    ]
    cand = StorageUnit(id="cand", bus="hub", kind=SHORT_TERM, w0=0.0,
                       w_min=0.0, w_max=0.0, w_fin=0.0, efficiency=ETA,
                       q_max=0.0, b_max=0.0, investable=True,
                       inv_cost=inv_cost, epr_max=EPR, epr_min=0.0,
                       technology="battery")
    return PowerSystem(
        thermal=thermal, storage=[cand],
        network=Network(buses=["hub"], slack_bus="hub", circuits=[], isf=None),
        config=OperatingConfig(reserve_fraction=0.0, pns_penalty=1000.0,
                               spill_penalty=0.0, initial_commitment={}))


print(f"analytic threshold: {THRESHOLD:.3f} k euro/GW\n")
print("cost/threshold   invested GW")
for frac in np.arange(0.75, 1.30, 0.05):
    system = system_with(frac * THRESHOLD)
    fo = build_hm(system, data, invest=True)
    sol = solve(fo.model)
    x = investment_values(fo, sol, system)["cand"]
    marker = "<-- crossing" if abs(frac - 1.0) < 0.026 else ""
    print(f"{frac:13.2f} {x:12.4f}   {'#' * int(round(x * 10))} {marker}")
