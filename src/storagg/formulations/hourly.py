"""Full-chronology hourly model: the benchmark every reduction is judged by.

Every hour of the horizon is modeled with commitment, startup, reserve,
network, and hourly-chained storage levels, plus an end-of-horizon storage
requirement.  Objective: fuel (fixed-while-committed, startup, and per-GWh
terms), variable O&M, penalty terms for non-served power and spillage, and
the annualized cost of any storage capacity built.
"""

from __future__ import annotations

import numpy as np

from ..milp import MilpModel
from ..system import PowerSystem
from ..timeseries import TimeHorizonData
from .common import (FormulationOutput, periods, add_investment, add_operating_core,
                     add_hourly_levels, add_hourly_startups, add_final)


def build_hm(system: PowerSystem, data: TimeHorizonData,
             invest: bool = False) -> FormulationOutput:
    m = MilpModel("hm")
    per = periods("hm", data.horizon_hours)
    labels, weights = per.labels, per.weights
    fresh = np.arange(len(labels)) == 0
    x = add_investment(m, system, invest)
    col = add_operating_core(m, system, labels, data.demand, data.renewable_avail, weights, x)
    add_hourly_startups(m, system, labels, weights, fresh, col)
    add_hourly_levels(m, system, labels, data.inflows, x, fresh, col)
    add_final(m, system, "fin", [col["w", s.id][-1] for s in system.storage])
    return FormulationOutput(model=m, kind="hm", meta={"kind": "hm", "invest": invest})
