"""Why windowed storage bounds can be fooled: a 72-hour case where the
aggregated model is feasible and optimal, yet the hour-by-hour reconstruction
drives the battery above its energy capacity.

The windowed variant bounds the NET level change inside each 24-hour window.
Two consecutive surplus windows each look fine on their own, but the real
chain accumulates both and bursts through the ceiling — the hourly benchmark
on the same data stays within bounds everywhere.

Run:  python demos/03_storage_violation_reconstruction.py
"""

import numpy as np

from storagg import (ThermalUnit, StorageUnit, Network, OperatingConfig,
                     PowerSystem, TimeHorizonData, SHORT_TERM,
                     StateClustering, RepPeriodClustering, build_matrices,
                     build_hm, build_ss_rfm, solve, expand_solution,
                     detect_violations)

# ------------------------------------------------------------------- system
gen = ThermalUnit(id="gen", bus="hub", fuel_cost=1.0, alpha=10.0, beta=0.0,
                  gamma=0.0, om_cost=0.0, q_max=4.0, q_min=0.0,
                  ramp_10min=4.0, technology="thermal")
batt = StorageUnit(id="batt", bus="hub", kind=SHORT_TERM, w0=3.0, w_min=0.0,
                   w_max=10.0, w_fin=3.0, efficiency=1.0, q_max=2.0,
                   b_max=2.0, technology="battery")
system = PowerSystem(
    thermal=[gen], storage=[batt],
    network=Network(buses=["hub"], slack_bus="hub", circuits=[], isf=None),
    config=OperatingConfig(reserve_fraction=0.0, pns_penalty=1000.0,
                           spill_penalty=0.0, initial_commitment={}))

# 48 surplus hours (renewables above demand) then 24 deficit hours
demand = np.concatenate([np.full(48, 1.0), np.full(24, 3.0)])
renew = np.concatenate([np.full(48, 2.0), np.zeros(24)])
data = TimeHorizonData(nodes=["hub"], storage_ids=["batt"],
                       demand=demand[:, None], renewable_avail=renew[:, None],
                       inflows=np.zeros((72, 1)))

# two hand-made states: the surplus hour and the deficit hour
assignment = np.array([0] * 48 + [1] * 24)
states = StateClustering(
    num_states=2, assignment=assignment,
    demand=np.array([[1.0], [3.0]]),
    renewable_avail=np.array([[2.0], [0.0]]),
    inflows=np.zeros((2, 1)))
# the windowed model reads no day clustering; one cluster of all three days
days = RepPeriodClustering(num_rp=1, day_assignment=np.zeros(3, dtype=int),
                           medoid_days=np.array([0]))
matrices = build_matrices(states, days, window_hours=24)

# ------------------------------------------------------------ solve + expand
fo = build_ss_rfm(system, states, matrices)
sol = solve(fo.model)
print(f"windowed model: {sol.status}, objective {sol.objective:.2f}")

exp = expand_solution(fo, sol, system, data, states=states)
records = detect_violations(exp, system)
peak = exp.storage_level["batt"].max()
print(f"reconstructed level peaks at {peak:.2f} GWh "
      f"(capacity {batt.w_max:.0f} GWh)")
print(f"bound violations: {len(records)}, worst "
      f"{max(r.amount for r in records):.2f} GWh above the ceiling")
assert len(records) > 0

# the hourly model on the same data keeps the level honest
fo_hm = build_hm(system, data)
sol_hm = solve(fo_hm.model)
exp_hm = expand_solution(fo_hm, sol_hm, system, data)
print(f"\nhourly model: {sol_hm.status}, objective {sol_hm.objective:.2f}, "
      f"violations {len(detect_violations(exp_hm, system))}")
print(f"hourly level peak {exp_hm.storage_level['batt'].max():.2f} GWh")

# a compact picture of the two trajectories, one row per 6 hours
print("\nhour   windowed   hourly")
for i in range(0, 72, 6):
    w = exp.storage_level["batt"][i]
    v = exp_hm.storage_level["batt"][i]
    bar = "#" * int(round(w)) if w <= 10 else "#" * 10 + "!" * int(round(w - 10))
    print(f"{i:4d} {w:9.2f} {v:8.2f}   {bar}")
