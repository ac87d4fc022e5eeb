"""Hour and day clustering on a synthetic year, and the count matrices
that carry chronology into the aggregated models.

Run:  python demos/01_aggregation_basics.py
"""

import numpy as np

from storagg import TimeHorizonData, aggregate

# ---------------------------------------------------------------- build data
# 8 weeks of hourly series on one node: a daily demand wave, a solar bell,
# and a seasonal hydro inflow.
DAYS = 56
P = DAYS * 24
rng = np.random.default_rng(7)
t = np.arange(P)
h, d = t % 24, t // 24

demand = 5.0 + 1.8 * np.sin(2 * np.pi * (h - 9) / 24) - 0.5 * (d % 7 >= 5) \
    + rng.normal(0.0, 0.05, P)
solar = 2.0 * np.clip(np.sin(np.pi * (h - 6) / 12), 0.0, None) ** 1.5
inflow = 0.8 + 0.5 * np.cos(2 * np.pi * d / DAYS)

data = TimeHorizonData(nodes=["hub"], storage_ids=["res"],
                       demand=demand[:, None],
                       renewable_avail=solar[:, None],
                       inflows=inflow[:, None])

# ------------------------------------------------------------------ cluster
art = aggregate(data, num_states=12, num_rp=4, seed=0)

print(f"{P} hours -> {art.states.num_states} states, "
      f"{DAYS} days -> {art.rp.num_rp} representative days")
# a state's duration is the number of hours assigned to it, a representative
# day's weight the number of days in its cluster
durations = np.bincount(art.states.assignment, minlength=art.states.num_states)
weights = np.bincount(art.rp.day_assignment, minlength=art.rp.num_rp)
print("state durations:", durations.tolist())
print("rep day weights:", weights.tolist(),
      "medoid days:", art.rp.medoid_days.tolist())

# every hour belongs to exactly one state; durations add back to the horizon
assert durations.sum() == P

# ---------------------------------------------------- chronology as counts
N = art.matrices.transitions
print(f"\ntransition matrix N: shape {N.shape}, total transitions {N.sum()} "
      f"(= P-1 = {P - 1})")

# the frequency matrices accumulate transitions up to each checkpoint hour;
# the last one is the full count matrix again
F = art.matrices.frequency
ks = art.matrices.checkpoints
print(f"checkpoints every {art.matrices.window_hours} h: {len(ks)} of them, "
      f"last at hour {ks[-1]}")
assert (F[-1] == N).all()

# reduced (per-window) matrices are consecutive differences and also
# partition the transition counts
RFM = art.matrices.reduced_frequency
assert (RFM.sum(axis=0) == N).all()
print("per-window transition totals:", RFM.sum(axis=(1, 2))[:8].tolist(), "...")

# day-level transition counts do the same for the representative-day models
NRPP = art.matrices.rp_transitions
print(f"\nday transition matrix NRPP total {NRPP.sum()} (= days-1 = {DAYS - 1})")
print(NRPP)

# ------------------------------------------------------------- determinism
art2 = aggregate(data, num_states=12, num_rp=4, seed=0)
assert (art2.states.assignment == art.states.assignment).all()
assert (art2.rp.day_assignment == art.rp.day_assignment).all()
print("\nsame seed, same clustering: OK")
