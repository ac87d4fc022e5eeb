"""End-to-end run orchestration and on-disk artifact layout.

A run reads a scenario config (paths plus clustering/solve settings), then
walks the stages::

    ingest -> cluster -> build -> solve -> evaluate -> report

writing everything under one output directory::

    agg/artifacts.json            clusterings + checkpoint window
    models/<kind>.npz             model arrays + names (milp.save_model)
    models/<kind>.registry.json   model name + kind, invest, block layout (+ checkpoints)
    solutions/<kind>.json         status, objective, gap, wall time, message, audit
    solutions/<kind>.npz          values + SHA-256 of the names (milp.save_solution)
    report/summary.json|csv       benchmark comparison table
    report/hourly_<kind>.csv.gz   expanded hourly series, gzip-compressed CSV

The solve stage re-reads each model through ``load_built_model`` instead of
reusing the in-memory models, so every run exercises the interchange path.
Evaluation reads a solution by position, at the blocks the sidecar records,
and derives the map from real hours to model periods from
``agg/artifacts.json``.  A file in an earlier layout, or a damaged one, is
an input error (ConfigError) naming the file.  No file outlives its inputs:
building a kind removes its solution files, clustering every kind's model
and solution files and the report, and a report every hourly series.

Set-up (``emit_scenario_template``, ``load_scenario``, ``stage_ingest``)
runs on ``timeseries`` and ``system`` alone.  The names the later stages
take from ``aggregation``, ``milp``, ``formulations`` and ``evaluation``
are listed in ``_DEFERRED``; a stage that uses one first binds them all
here (``_bind_deferred``), importing those modules on the first call, and
``__getattr__`` serves them to callers outside.  The stages look them up
in this namespace at every call, so a wrapper set here, as
bench/tracing.py sets them, is what they call.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field, asdict
from importlib import import_module
from pathlib import Path

import numpy as np

from .timeseries import (TimeHorizonData, HOURS_PER_DAY, WEEK_HOURS, load_horizon,
                         save_horizon, DataFormatError)
from .system import (PowerSystem, ThermalUnit, StorageUnit, Network,
                     OperatingConfig, load_system, save_system,
                     validate_system, SystemFormatError, SHORT_TERM, LONG_TERM,
                     _check_types, from_json, read_json, to_json, write_json)

# Names the stages take from the modules that load on first use: name -> module.
# ``_bind_deferred`` imports them into this namespace, where the stages look
# them up, and ``__getattr__`` serves them to callers outside.
_DEFERRED = {
    **dict.fromkeys(("aggregate", "save_artifacts", "AggregationArtifacts",
                     "AggregationError"), "aggregation"),
    **dict.fromkeys(("save_model", "load_model", "write_registry", "load_registry",
                     "save_solution", "load_solution", "Solution", "ScipySolver", "checked_values",
                     "ModelError", "audit_constraints", "STATUS_INFEASIBLE", "trim_heap",
                     # not called here: bench/tracing.py wraps these two by name
                     "write_mps", "parse_mps"), "milp"),
    **dict.fromkeys(("FormulationOutput", "ModelMeta", "build_hm", "build_ss", "build_rp",
                     "build_ss_rfm", "build_rp_tmci"), "formulations"),
    **dict.fromkeys(("CaseResult", "EvaluationReport", "HourlyExpansion",
                     "build_case_result", "compare"), "evaluation"),
}


def _bind_deferred() -> None:
    """Bind every name of ``_DEFERRED`` here, importing its module on the
    first call.  A name already bound is kept: bench/tracing.py replaces
    some of them with wrappers, and the stages must call those."""
    names = globals()
    for name, module in _DEFERRED.items():
        if name not in names:
            names[name] = getattr(import_module(f"{__package__}.{module}"), name)


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_deferred()
    return globals()[name]


class PipelineError(Exception):
    """A stage failed; ``exit_code`` follows the CLI convention."""

    exit_code = 1


class ConfigError(PipelineError):
    exit_code = 2


class SolveError(PipelineError):
    exit_code = 3


class InfeasibleError(PipelineError):
    exit_code = 4


# a count's range, tested once its type is (``_check_types``)
_POSITIVE = {"range": (lambda v: v >= 1, "a positive integer")}


@dataclass
class ScenarioConfig:
    """Inputs and knobs for one run; paths are relative to the config file.
    Each way of making one (a file, ``replace``, the template) checks it."""

    demand: str
    renewables: str
    inflows: str
    system: str
    states: int = field(default=32, metadata=_POSITIVE)
    rep_days: int = field(default=6, metadata=_POSITIVE)
    seed: int = field(default=0, metadata={"range": (lambda v: v >= 0, "an integer >= 0")})
    kinds: list[str] = field(default_factory=lambda: list(BUILDER_KINDS))
    # checkpoint spacing.  None means 24 h for ss/ss_rfm with short-term
    # storage, else 168 h, and 168 h for rp_tmci whatever the storage; one
    # default would trade rp_tmci's speed, not its accuracy (ROADMAP item 1c)
    window_hours: int | None = field(default=None, metadata=_POSITIVE)
    theta: float = field(default=1.0,     # commitment-link threshold (rp_tmci)
                         metadata={"range": (lambda v: v >= 0, "a number >= 0")})
    invest: bool = False
    gap: float = field(default=0.0, metadata={"range": (
        lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")})
    time_limit: float | None = field(default=None, metadata={"range": (
        lambda v: v > 0, "a positive number")})
    check_degeneracy: bool = False
    base_dir: str = "."

    def __post_init__(self) -> None:
        _check_types(ScenarioConfig, vars(self), "scenario", ConfigError)
        kinds, window = self.kinds, self.window_hours
        bad = [k for k in kinds if k not in BUILDER_KINDS]
        if bad:
            raise ConfigError(f"unknown model kinds {bad}; pick from {list(BUILDER_KINDS)}")
        repeated = sorted({k for k in kinds if kinds.count(k) > 1})
        if repeated:
            raise ConfigError(f"model kinds {repeated} are listed more than once")
        if window is not None and "rp_tmci" in kinds and window % HOURS_PER_DAY != 0:
            raise ConfigError(f"window_hours {window} must be a multiple of "
                              f"{HOURS_PER_DAY} for rp_tmci")
        self.selected_kinds(None)       # refuses an empty kinds list

    def path(self, name: str) -> Path:
        return (Path(self.base_dir) / name).resolve()

    def selected_kinds(self, only: list[str] | None) -> list[str]:
        """The configured kinds, restricted to ``only`` when it is given.

        Raises ConfigError if ``only`` names a kind not configured, or if
        none is left: a run of no model would report success.
        """
        kinds = [k for k in self.kinds if only is None or k in only]
        unlisted = [k for k in only or () if k not in self.kinds]
        if unlisted or not kinds:
            requested = "all" if only is None else list(only)
            what = f"kinds {unlisted} not configured" if unlisted else "no model kind selected"
            raise ConfigError(f"{what}: requested {requested}, configured {list(self.kinds)}")
        return kinds


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    raw = read_json(path, "scenario file", ConfigError)
    raw.setdefault("base_dir", str(path.parent))
    return from_json(ScenarioConfig, raw, f"{path}: scenario", ConfigError)


def save_scenario(config: ScenarioConfig, path) -> None:
    doc = asdict(config)
    doc.pop("base_dir")
    write_json(path, doc)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_ingest(config: ScenarioConfig) -> tuple[PowerSystem, TimeHorizonData]:
    """Load and validate the system and the hourly series."""
    try:
        system = load_system(config.path(config.system))
    except SystemFormatError as exc:
        raise ConfigError(str(exc)) from None
    try:
        data = load_horizon(config.path(config.demand),
                            config.path(config.renewables),
                            config.path(config.inflows),
                            nodes=system.nodes,
                            storage_ids=system.storage_ids)
    except DataFormatError as exc:
        raise ConfigError(f"time series: {exc}")
    return system, data


def stage_cluster(system: PowerSystem, data: TimeHorizonData,
                  config: ScenarioConfig, outdir: Path) -> AggregationArtifacts:
    """Cluster and save ``agg/artifacts.json``, removing every kind's model
    and solution files and the report first; counts the series cannot
    support (e.g. more representative days than days) are a ConfigError."""
    _bind_deferred()
    try:
        artifacts = aggregate(
            data, num_states=config.states, num_rp=config.rep_days, seed=config.seed,
            window_hours=config.window_hours,
            has_short_term_storage=bool(system.short_term_storage))
    except AggregationError as exc:
        raise ConfigError(f"clustering: {exc}") from None
    for where in _KIND_FILES:
        _drop_kind_files(outdir, where, BUILDER_KINDS)
    agg_dir = outdir / "agg"
    agg_dir.mkdir(parents=True, exist_ok=True)
    save_artifacts(artifacts, agg_dir / "artifacts.json")
    return artifacts


# the model kinds, in a run's default order
BUILDER_KINDS = ("hm", "ss", "rp", "ss_rfm", "rp_tmci")


def build_formulation(kind: str, system: PowerSystem, data: TimeHorizonData,
                      artifacts: AggregationArtifacts, config: ScenarioConfig) -> FormulationOutput:
    """Build one kind's model: its builder tiles one period's stencil over
    the kind's period labels, one bulk call per stencil (see
    ``formulations.common``).  The model keeps no name index: its names are
    distinct by construction and checked where they become keys (see
    ``milp``).  The build's freed heap pages are handed back
    (``trim_heap``) before the model is saved or solved."""
    _bind_deferred()
    if kind == "hm":
        fo = build_hm(system, data, invest=config.invest)
    elif kind == "ss":
        fo = build_ss(system, artifacts.states, artifacts.matrices, invest=config.invest)
    elif kind == "ss_rfm":
        fo = build_ss_rfm(system, artifacts.states, artifacts.matrices, invest=config.invest)
    elif kind == "rp":
        fo = build_rp(system, data, artifacts.rp, invest=config.invest)
    elif kind == "rp_tmci":
        fo = build_rp_tmci(system, data, artifacts.rp, artifacts.matrices,
                           window=config.window_hours or WEEK_HOURS,
                           theta=config.theta, invest=config.invest)
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    trim_heap()
    return fo


# each kind's files under a run directory's subdirectories (a plain hourly
# .csv is an older run's); the report is dropped whole, its summary with it
_KIND_FILES = {"models": ("{}.npz", "{}.registry.json"), "solutions": ("{}.json", "{}.npz"),
               "report": ("hourly_{}.csv", "hourly_{}.csv.gz", "summary.json", "summary.csv")}


def _drop_kind_files(outdir: Path, where: str, kinds) -> None:
    """Remove ``kinds``' files under ``outdir/where``: none outlives its inputs."""
    names = {pattern.format(kind) for kind in kinds for pattern in _KIND_FILES[where]}
    try:
        for name in names:
            (Path(outdir) / where / name).unlink(missing_ok=True)
    except OSError as exc:                         # e.g. a directory
        raise ConfigError(f"{exc.filename}: cannot remove: {exc.strerror}") from None


def stage_build(system: PowerSystem, data: TimeHorizonData,
                artifacts: AggregationArtifacts, config: ScenarioConfig,
                outdir: Path, only: list[str] | None = None) -> dict[str, FormulationOutput]:
    _bind_deferred()
    kinds = config.selected_kinds(only)
    models_dir = outdir / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, FormulationOutput] = {}
    for kind in kinds:
        fo = build_formulation(kind, system, data, artifacts, config)
        _drop_kind_files(outdir, "solutions", [kind])
        save_model(fo.model, models_dir / f"{kind}.npz")
        write_registry(fo.model, models_dir / f"{kind}.registry.json", meta=fo.meta)
        outputs[kind] = fo
    return outputs


def load_built_model(outdir: Path, kind: str, hours: int | None = None) -> FormulationOutput:
    """Reassemble a formulation from its ``.npz`` file and metadata sidecar.

    Raises ConfigError, naming the file, if either is missing or damaged,
    the sidecar lacks a key evaluation reads, holds one of the wrong type,
    names another kind, has no block layout within the model or, ``hours``
    given, has ``rp_tmci`` checkpoints that do not rise strictly to it.
    """
    _bind_deferred()
    models_dir = Path(outdir) / "models"
    path = models_dir / f"{kind}.npz"
    side = models_dir / f"{kind}.registry.json"
    missing = [p.name for p in (path, side) if not p.exists()]
    if missing:
        raise ConfigError(f"model files for {kind!r} not found under {models_dir}: {missing}")
    try:
        model = load_model(path)
        meta = load_registry(side)
    except ModelError as exc:
        raise ConfigError(str(exc)) from None
    where = f"{side}: not a model sidecar: meta"
    meta = from_json(ModelMeta, meta, where, ConfigError)
    if meta.kind != kind:
        raise ConfigError(f"{where}: kind must be {kind!r}, got {meta.kind!r}")
    for what, layout, size in (("columns", meta.columns, model.num_vars),
                               ("rows", meta.rows, model.num_cons)):
        if not layout or any(first + n * len(keys) > size for first, n, *keys in layout):
            raise ConfigError(f"{where}: no block layout of the {what} within the model's "
                              f"{size}; run 'storagg build' again")
    marks = [0] + (meta.checkpoints or [])
    if kind == "rp_tmci" and (meta.checkpoints is None or hours is not None and (
            marks[-1] != hours or marks != sorted(set(marks)))):
        raise ConfigError(f"{where}: checkpoints must rise strictly to "
                          f"{hours or 'the last hour'}, got {meta.checkpoints}")
    return FormulationOutput(model=model, meta=meta)


def save_solutions(outdir: Path, solutions: dict[str, Solution]) -> None:
    """Write each solution as ``solutions/<kind>.json``, its record
    (``to_json``: the init fields, the audit among them), and, if it has
    values, ``solutions/<kind>.npz`` (``milp.save_solution``), removing an
    earlier one otherwise.  A header ``load_solutions`` would refuse, an ok
    solution without values or a value that is not finite is a SolveError,
    before any write."""
    _bind_deferred()
    headers = {kind: to_json(sol) for kind, sol in solutions.items()}
    for kind, sol in solutions.items():
        from_json(Solution, headers[kind], f"solution header of {kind!r}", SolveError)
        if sol.x is not None:
            checked_values(sol.x, sol.var_names, f"solution of {kind!r}", SolveError)
        elif sol.ok:
            raise SolveError(f"solution of {kind!r}: {sol.status} without values")
    sol_dir = Path(outdir) / "solutions"
    sol_dir.mkdir(parents=True, exist_ok=True)
    for kind, sol in solutions.items():
        values = sol_dir / f"{kind}.npz"
        if sol.x is not None:
            save_solution(sol, values)
        else:
            values.unlink(missing_ok=True)
        write_json(sol_dir / f"{kind}.json", headers[kind])


def stage_solve(config: ScenarioConfig, outdir: Path,
                only: list[str] | None = None, workers: int = 1) -> dict[str, Solution]:
    """Solve every built model, re-reading it from the interchange files.
    Each selected kind's solution files go first, so a failed stage leaves
    none of an earlier solve to be evaluated as if current."""
    _bind_deferred()
    kinds = config.selected_kinds(only)
    _drop_kind_files(outdir, "solutions", kinds)

    def run(kind: str) -> Solution:
        fo = load_built_model(outdir, kind)
        sol = ScipySolver().solve(fo.model, gap=config.gap, time_limit=config.time_limit)
        if sol.ok:
            sol.audit = audit_constraints(fo.model, sol.x)
        return sol

    if workers > 1 and len(kinds) > 1:
        from concurrent.futures import ThreadPoolExecutor   # solve-time only, as in milp
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solutions = dict(zip(kinds, pool.map(run, kinds)))
    else:
        solutions = {kind: run(kind) for kind in kinds}
    save_solutions(outdir, solutions)
    infeasible = [k for k, s in solutions.items() if s.status == STATUS_INFEASIBLE]
    if infeasible:
        raise InfeasibleError(f"infeasible models: {infeasible}")
    failed = [k for k, s in solutions.items() if not s.ok]
    if failed:
        details = "; ".join(f"{k}: {solutions[k].status} {solutions[k].message}"
                            for k in failed)
        raise SolveError(f"solver failed on {details}")
    return solutions


def load_solutions(outdir: Path, models: dict[str, MilpModel]) -> dict[str, Solution]:
    """Rebuild each kind's Solution from the files ``save_solutions``
    wrote, its values read against the kind's model in ``models``.

    Each Solution carries its header's fields, the audit among them.
    Raises ConfigError, naming the file, if a header is missing, is not
    JSON (``read_json``) or is no ``milp.Solution`` under the rules of its
    fields (``from_json``; a header that holds its values inline has an
    unknown key), or if the values file of an ok solution is missing or
    refused by ``milp.load_solution`` (written for another model, among
    others)."""
    _bind_deferred()
    out = {}
    sol_dir = Path(outdir) / "solutions"
    for kind, model in models.items():
        path = sol_dir / f"{kind}.json"
        if not path.exists():
            raise ConfigError(f"no solution on disk for {kind!r} (expected {path})")
        sol = from_json(Solution, read_json(path, "solution header", ConfigError),
                        f"solution header {path}", ConfigError)
        values = sol_dir / f"{kind}.npz"
        if values.exists():
            try:
                sol.set_values(model, load_solution(values, model))
            except ModelError as exc:
                raise ConfigError(str(exc)) from None
        elif sol.ok:
            raise ConfigError(f"{sol.status} solution for {kind!r} has no values "
                              f"file (expected {values})")
        out[kind] = sol
    return out


def stage_evaluate(system: PowerSystem, data: TimeHorizonData,
                   artifacts: AggregationArtifacts, config: ScenarioConfig,
                   outputs: dict[str, FormulationOutput],
                   solutions: dict[str, Solution],
                   with_prices: bool = True) -> tuple[dict[str, CaseResult],
                                                      dict[str, EvaluationReport]]:
    """Expand, price and compare every kind against ``hm``.

    Raises SolveError if a kind's solution is not ok or its pricing LP has
    no optimum (``build_case_result`` refuses both with a ValueError).
    """
    _bind_deferred()
    cases: dict[str, CaseResult] = {}
    for kind, fo in outputs.items():
        try:
            cases[kind] = build_case_result(
                fo, solutions[kind], system, data,
                states=artifacts.states, rp=artifacts.rp,
                with_prices=with_prices, check_degeneracy=config.check_degeneracy)
        except ValueError as exc:
            raise SolveError(f"cannot evaluate {kind!r}: {exc}") from None
    reports: dict[str, EvaluationReport] = {}
    if "hm" in cases:
        bench = cases["hm"]
        for kind, case in cases.items():
            if kind != "hm":
                reports[kind] = compare(bench, case, system)
    return cases, reports


def _hourly_csv(exp: HourlyExpansion) -> str:
    """The expansion as CSV text: one row per hour, numbers as ``.6g``."""
    def fmt(arr: np.ndarray) -> list[str]:
        return [f"{v:.6g}" for v in arr.tolist()]

    header = ["hour", "source"]
    columns: list[list] = [list(range(exp.hours)), exp.source_labels]
    for g, q in exp.thermal_production.items():
        header.append(f"q_{g}")
        columns.append(fmt(q))
    for g, u in exp.commitment.items():
        header.append(f"u_{g}")
        columns.append([int(v) for v in u.tolist()])
    for uid in exp.storage_level:
        header += [f"discharge_{uid}", f"charge_{uid}", f"level_{uid}", f"level_model_{uid}"]
        columns += [fmt(exp.storage_discharge[uid]), fmt(exp.storage_charge[uid]),
                    fmt(exp.storage_level[uid]), fmt(exp.storage_level_model[uid])]
    for n, v in exp.renewable_use.items():
        header.append(f"res_use_{n}")
        columns.append(fmt(v))
    for n, v in exp.pns.items():
        header.append(f"pns_{n}")
        columns.append(fmt(v))
    if exp.prices is not None:
        header.append("price")
        columns.append(fmt(exp.prices))
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return text.getvalue()


@dataclass
class SummaryBlock:
    """One kind's block of ``report/summary.json``, written and read back."""

    objective: float
    wall_seconds: float
    violations: int
    violation_max_gwh: float
    investment: dict[str, float]
    startups: dict[str, float]
    prices_degenerate: bool | None
    dual_bound: float | None = None      # absent from files written before it was kept
    nodes: int | None = None


@dataclass
class Comparison:
    """One kind's ``EvaluationReport.rows`` in the summary, beside ``absolute_metrics``."""

    absolute_metrics: list[str]
    metrics: dict[str, float] = field(metadata={"other_keys": True})


@dataclass
class Summary:
    """``report/summary.json``: a block per kind beside the comparisons."""

    blocks: dict[str, SummaryBlock] = field(metadata={"other_keys": True})
    comparisons: dict[str, Comparison] = field(default_factory=dict)


def stage_report(system: PowerSystem, cases: dict[str, CaseResult],
                 reports: dict[str, EvaluationReport], outdir: Path) -> Path:
    rep_dir = Path(outdir) / "report"
    rep_dir.mkdir(parents=True, exist_ok=True)
    _drop_kind_files(outdir, "report", BUILDER_KINDS)

    summary = {
        kind: asdict(SummaryBlock(
            objective=case.objective, wall_seconds=case.wall_seconds,
            violations=case.violation_count, violation_max_gwh=case.violation_max,
            investment=case.investment, startups=case.startups,
            prices_degenerate=case.prices_degenerate, dual_bound=case.dual_bound,
            nodes=case.nodes)) for kind, case in cases.items()
    }
    rows = {kind: dict(rep.rows()) for kind, rep in reports.items()}
    summary["comparisons"] = {
        kind: dict(rows[kind], absolute_metrics=rep.absolute_metrics)
        for kind, rep in reports.items()
    }
    write_json(rep_dir / "summary.json", summary)

    with open(rep_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric"] + list(reports))
        # every metric any report has, in order of first appearance
        for name in dict.fromkeys(metric for values in rows.values() for metric in values):
            writer.writerow([name] + [f"{values[name]:.6g}" if name in values else ""
                                      for values in rows.values()])

    import gzip    # here, not at module level: `import storagg` does not load it

    for kind, case in cases.items():
        path = rep_dir / f"hourly_{kind}.csv.gz"
        # mtime=0 and an empty name keep the run's time and path out of the
        # gzip header; GzipFile (unlike gzip.compress) writes OS byte 255
        # on every platform, so the bytes do not depend on where they ran.
        # Level 6 is within 3% of level 9's size at about a third of its time
        with open(path, "wb") as fh, gzip.GzipFile(filename="", mode="wb", fileobj=fh,
                                                   mtime=0, compresslevel=6) as gz:
            gz.write(_hourly_csv(case.expansion).encode())
    return rep_dir


@dataclass
class RunResult:
    system: PowerSystem
    data: TimeHorizonData
    artifacts: AggregationArtifacts
    outputs: dict[str, FormulationOutput]
    solutions: dict[str, Solution]
    cases: dict[str, CaseResult]
    reports: dict[str, EvaluationReport]
    outdir: Path
    elapsed_seconds: float


def run_pipeline(config: ScenarioConfig, outdir, only: list[str] | None = None,
                 workers: int = 1, with_prices: bool = True) -> RunResult:
    """All stages in sequence under ``outdir``; see the module docstring."""
    started = time.perf_counter()
    config.selected_kinds(only)       # refuse an empty selection before writing
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    system, data = stage_ingest(config)
    artifacts = stage_cluster(system, data, config, outdir)
    outputs = stage_build(system, data, artifacts, config, outdir, only=only)
    solutions = stage_solve(config, outdir, only=only, workers=workers)
    # evaluation prices the built models, already in memory; the copies the
    # solve stage re-read from disk hold the same arrays
    cases, reports = stage_evaluate(system, data, artifacts, config,
                                    outputs, solutions, with_prices=with_prices)
    stage_report(system, cases, reports, outdir)
    return RunResult(system=system, data=data, artifacts=artifacts,
                     outputs=outputs, solutions=solutions, cases=cases,
                     reports=reports, outdir=outdir,
                     elapsed_seconds=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# scenario template
# ---------------------------------------------------------------------------

# Installed capacity per technology (GW) for the four bundled visions.
VISION_CAPACITY_GW = {
    1: {"gas": 24.948, "hard_coal": 5.900, "hydro": 23.450, "nuclear": 7.120,
        "others_non_res": 10.480, "others_res": 2.400, "solar": 16.800,
        "wind": 35.750},
    2: {"gas": 21.572, "hard_coal": 5.900, "hydro": 23.450, "nuclear": 7.120,
        "others_non_res": 10.480, "others_res": 2.400, "solar": 33.150,
        "wind": 27.650},
    3: {"gas": 29.208, "hard_coal": 4.160, "hydro": 25.050, "nuclear": 7.120,
        "others_non_res": 12.210, "others_res": 5.100, "solar": 25.000,
        "wind": 39.300},
    4: {"gas": 29.208, "hard_coal": 4.160, "hydro": 25.635, "nuclear": 7.120,
        "others_non_res": 12.210, "others_res": 5.100, "solar": 54.130,
        "wind": 40.604},
}

# (fuel k€/MJ, alpha MJ/GWh, beta MJ/h, gamma MJ/start, om k€/GWh, qmin frac)
_THERMAL_PARAMS = {
    "nuclear":        (0.002, 3000.0, 1000.0, 100000.0, 1.5, 0.9),
    "hard_coal":      (0.003, 8000.0, 2000.0, 50000.0, 3.0, 0.4),
    "gas":            (0.010, 7000.0, 1000.0, 20000.0, 4.0, 0.3),
    "others_non_res": (0.005, 8000.0, 800.0, 10000.0, 2.0, 0.3),
}


def _template_profiles(days: int, caps: dict[str, float], seed: int):
    """Deterministic synthetic demand and renewable availability (GWh/h)."""
    rng = np.random.default_rng(seed)
    p = days * HOURS_PER_DAY
    t = np.arange(p)
    hour = t % HOURS_PER_DAY
    day = t // HOURS_PER_DAY
    year_angle = 2 * np.pi * day / 364.0

    thermal_cap = sum(caps[k] for k in _THERMAL_PARAMS) + caps["hydro"]
    base = 0.62 * thermal_cap
    daily = 0.20 * np.sin(2 * np.pi * (hour - 9) / 24.0)
    seasonal = 0.15 * np.cos(year_angle)
    weekend = np.where(day % 7 >= 5, -0.10, 0.0)
    noise = rng.normal(0.0, 0.01, p)
    demand = base * (1.0 + daily + seasonal + weekend + noise)
    demand = np.maximum(demand, 0.2 * base)

    sun = np.maximum(0.0, np.sin(np.pi * (hour - 6) / 12.0))  # 06:00-18:00 bell
    solar = caps["solar"] * sun ** 1.5 * (0.9 + 0.25 * np.cos(year_angle + np.pi)) \
        * (0.85 + 0.15 * rng.random(p))
    steps = rng.normal(0.0, 0.08, p)
    walk = np.clip(0.35 + np.cumsum(steps) * 0.05 +
                   0.15 * np.sin(2 * np.pi * t / 96.0), 0.05, 0.95)
    wind = caps["wind"] * walk
    others = caps["others_res"] * 0.5
    renewable = np.maximum(solar + wind + others, 0.0)

    inflow_mean = 0.30 * caps["hydro"]
    inflows = inflow_mean * (1.0 + 0.6 * np.cos(year_angle) +
                             0.1 * rng.random(p))
    inflows = np.maximum(inflows, 0.0)
    return demand, renewable, inflows


def emit_scenario_template(outdir, vision: int = 1, days: int = 28,
                           seed: int = 0) -> Path:
    """Write a ready-to-run scenario (CSV series + system + config).

    ``vision`` selects one of four bundled capacity mixes; the hourly series
    are synthetic but deterministic for a given seed.  Returns the path of
    the scenario config file.
    """
    if vision not in VISION_CAPACITY_GW:
        raise ConfigError(f"vision must be one of {sorted(VISION_CAPACITY_GW)}")
    if days < 1:
        raise ConfigError("days must be positive")
    outdir = Path(outdir)
    # built first: a seed it refuses leaves no directory behind
    scenario = ScenarioConfig(
        demand="demand.csv", renewables="renewables.csv", inflows="inflows.csv",
        system="system.json", rep_days=min(ScenarioConfig.rep_days, days), seed=seed,
        base_dir=str(outdir))
    outdir.mkdir(parents=True, exist_ok=True)
    caps = VISION_CAPACITY_GW[vision]
    demand, renewable, inflows = _template_profiles(days, caps, seed)

    thermal = []
    for tech, (fuel, alpha, beta, gamma, om, qmin_frac) in _THERMAL_PARAMS.items():
        cap = caps[tech]
        thermal.append(ThermalUnit(
            id=tech, bus="hub", fuel_cost=fuel, alpha=alpha, beta=beta,
            gamma=gamma, om_cost=om, q_max=cap, q_min=qmin_frac * cap,
            ramp_10min=0.25 * cap, technology=tech))
    hydro_cap = caps["hydro"]
    reservoir = 120.0 * hydro_cap        # about five days of full output
    storage = [
        StorageUnit(id="hydro", bus="hub", kind=LONG_TERM,
                    w0=0.6 * reservoir, w_min=0.1 * reservoir, w_max=reservoir,
                    w_fin=0.6 * reservoir, efficiency=1.0,
                    q_max=hydro_cap, b_max=0.0, technology="hydro"),
        StorageUnit(id="bess", bus="hub", kind=SHORT_TERM,
                    w0=5.0, w_min=0.0, w_max=10.0, w_fin=5.0, efficiency=0.9,
                    q_max=1.0, b_max=1.0, investable=True,
                    inv_cost=20000.0, epr_max=4.0, epr_min=0.0,
                    technology="battery"),
    ]
    network = Network(buses=["hub"], slack_bus="hub", circuits=[], isf=None)
    config = OperatingConfig(reserve_fraction=0.03, pns_penalty=1000.0,
                             spill_penalty=0.0,
                             initial_commitment={"nuclear": 1})
    system = PowerSystem(thermal=thermal, storage=storage, network=network,
                         config=config)
    problems = validate_system(system)
    if problems:
        raise ConfigError(f"template produced an invalid system: {problems}")

    data = TimeHorizonData(
        nodes=["hub"], storage_ids=["hydro", "bess"],
        demand=demand.reshape(-1, 1),
        renewable_avail=renewable.reshape(-1, 1),
        inflows=np.column_stack([inflows, np.zeros_like(inflows)]))
    data.validate()

    save_system(system, outdir / "system.json")
    save_horizon(data, outdir)
    save_scenario(scenario, outdir / "scenario.json")
    return outdir / "scenario.json"
