"""Full-chronology hourly model: the benchmark every reduction is judged by.

Every hour of the horizon is modeled, as one chronology of the ``hour_chain``
that the representative-day kinds share, with commitment, startup, reserve,
network, and hourly-chained storage levels, plus its own end-of-horizon
storage requirement (``fin``).  Objective: fuel (fixed-while-committed,
startup, and per-GWh terms), variable O&M, penalty terms for non-served
power and spillage, and the annualized cost of any storage capacity built.
"""

from __future__ import annotations

from ..system import PowerSystem
from ..timeseries import TimeHorizonData
from .common import FormulationOutput, periods, hour_chain, add_final


def build_hm(system: PowerSystem, data: TimeHorizonData,
             invest: bool = False) -> FormulationOutput:
    per = periods("hm", data.horizon_hours)
    fo, _, col = hour_chain("hm", system, data, per, len(per.labels), invest)
    add_final(fo, system, "fin", [col["w", s.id][-1] for s in system.storage])
    return fo
