"""Full-chronology hourly model: the benchmark every reduction is judged by.

Every hour of the horizon is modeled with commitment, startup, reserve,
network, and hourly-chained storage levels, plus an end-of-horizon storage
requirement.  Objective: fuel (fixed-while-committed, startup, and per-GWh
terms), variable O&M, penalty terms for non-served power and spillage, and
the annualized cost of any storage capacity built.
"""

from __future__ import annotations

from ..milp import MilpModel, GE
from ..system import PowerSystem
from ..timeseries import TimeHorizonData
from .common import (FormulationOutput, periods, var_name, add_investment,
                     add_operating_core, add_hourly_levels, add_hourly_startups)


def build_hm(system: PowerSystem, data: TimeHorizonData,
             invest: bool = False) -> FormulationOutput:
    m = MilpModel("hm")
    per = periods("hm", data.horizon_hours)
    labels, weights = per.labels, per.weights
    x = add_investment(m, system, invest)
    add_operating_core(m, system, labels, data.demand, data.renewable_avail, weights, x)
    add_hourly_startups(m, system, labels, weights)
    add_hourly_levels(m, system, labels, data.inflows, x)
    for s in system.storage:
        m.add_con(f"fin_{s.id}", [(var_name("w", labels[-1], s.id), 1.0)], GE, s.w_fin)
    return FormulationOutput(model=m, kind="hm", meta={"kind": "hm", "invest": invest})
