"""Time-aggregated unit-commitment models with storage chronology.

The package builds a full hourly benchmark plus four aggregated MILP
formulations of the same power system (system states, representative days,
and their chronology-enhanced variants), solves them, expands the aggregated
solutions back to hours, and reports accuracy against the benchmark.
"""

from .timeseries import (TimeHorizonData, NormalizedFeatures, DataFormatError,
                         load_horizon, save_horizon, normalize_series)
from .system import (ThermalUnit, StorageUnit, Circuit, Network,
                     OperatingConfig, PowerSystem, SystemFormatError,
                     SHORT_TERM, LONG_TERM, compute_isf_from_reactances,
                     validate_system, load_system, save_system)
from .aggregation import (StateClustering, RepPeriodClustering,
                          TransitionMatrices, AggregationArtifacts,
                          AggregationError, kmeans, kmedoids,
                          cluster_states, cluster_days,
                          window_counts, build_matrices,
                          default_checkpoints, aggregate,
                          save_artifacts, load_artifacts)
from .milp import (MilpModel, Variable, Constraint, Solution, ModelError,
                   ScipySolver, solve, fix_and_relax, save_model, load_model,
                   save_solution, load_solution, write_mps, parse_mps,
                   write_registry, load_registry, audit_constraints,
                   constraint_families)
from .formulations import (FormulationOutput, Periods, periods, build_hm,
                           build_ss, build_rp, build_ss_rfm, build_rp_tmci,
                           BUILDER_KINDS)
from .evaluation import (HourlyExpansion, ViolationRecord, CaseResult,
                         EvaluationReport, expand_solution, detect_violations,
                         compute_prices, attach_prices, count_startups,
                         investment_values, build_case_result, compare)
from .pipeline import (ScenarioConfig, RunResult, PipelineError, ConfigError,
                       SolveError, InfeasibleError, load_scenario,
                       save_scenario, run_pipeline, emit_scenario_template,
                       stage_ingest, stage_cluster, stage_build, stage_solve,
                       stage_evaluate, stage_report, load_built_model,
                       VISION_CAPACITY_GW)

__version__ = "0.1.0"
