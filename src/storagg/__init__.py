"""Time-aggregated unit-commitment models with storage chronology.

The package builds a full hourly benchmark plus four aggregated MILP
formulations of the same power system (system states, representative days,
and their chronology-enhanced variants), solves them, expands the aggregated
solutions back to hours, and reports accuracy against the benchmark.

``import storagg`` loads ``timeseries``, ``system`` and ``pipeline``: what
writing a scenario template and ingesting it run.  The clustering, model,
solver and evaluation modules load on first use: a public name below, or a
submodule, is looked up on first access (PEP 562), and the stages load the
modules they need when they first run.  scipy loads later still, at a
process's first matrix build or solve (see ``milp``).
"""

from importlib import import_module

from . import timeseries, system, pipeline  # noqa: F401  (what set-up runs)

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("TimeHorizonData", "NormalizedFeatures", "DataFormatError",
                     "load_horizon", "save_horizon", "normalize_series"), "timeseries"),
    **dict.fromkeys(("ThermalUnit", "StorageUnit", "Circuit", "Network",
                     "OperatingConfig", "PowerSystem", "SystemFormatError",
                     "SHORT_TERM", "LONG_TERM", "compute_isf_from_reactances",
                     "validate_system", "load_system", "save_system"), "system"),
    **dict.fromkeys(("StateClustering", "RepPeriodClustering", "TransitionMatrices",
                     "AggregationArtifacts", "AggregationError", "kmeans", "kmedoids",
                     "cluster_states", "cluster_days", "window_counts", "build_matrices",
                     "default_checkpoints", "aggregate", "save_artifacts",
                     "load_artifacts"), "aggregation"),
    **dict.fromkeys(("MilpModel", "Variable", "Constraint", "Solution", "ModelError",
                     "ScipySolver", "solve", "save_model", "load_model",
                     "save_solution", "load_solution", "write_mps", "parse_mps",
                     "write_registry", "load_registry", "audit_constraints",
                     "constraint_families"), "milp"),
    **dict.fromkeys(("FormulationOutput", "ModelMeta", "Periods", "periods", "build_hm",
                     "build_ss", "build_rp", "build_ss_rfm", "build_rp_tmci"), "formulations"),
    **dict.fromkeys(("HourlyExpansion", "ViolationRecord", "CaseResult",
                     "EvaluationReport", "expand_solution", "detect_violations",
                     "compute_prices", "attach_prices", "count_startups",
                     "investment_values", "build_case_result", "compare"), "evaluation"),
    **dict.fromkeys(("ScenarioConfig", "RunResult", "PipelineError", "ConfigError",
                     "SolveError", "InfeasibleError", "load_scenario", "save_scenario",
                     "run_pipeline", "emit_scenario_template", "stage_ingest",
                     "stage_cluster", "stage_build", "stage_solve", "stage_evaluate",
                     "stage_report", "load_built_model", "VISION_CAPACITY_GW",
                     "BUILDER_KINDS"), "pipeline"),
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _MODULES)
