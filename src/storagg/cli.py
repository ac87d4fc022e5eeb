"""Command-line front end over the pipeline stages.

Every stage subcommand takes a scenario config and an output directory and
leaves its artifacts on disk, so stages can be run one at a time or all at
once with ``run``.  Exit codes: 0 success, 2 bad configuration or input
data, 3 a solve that does not end in an ok status, 4 model infeasible.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .pipeline import (PipelineError, ConfigError, ScenarioConfig, Summary,
                       load_scenario, load_built_model,
                       load_solutions, stage_ingest, stage_cluster, stage_build,
                       stage_solve, stage_evaluate, stage_report, run_pipeline,
                       emit_scenario_template, BUILDER_KINDS)
from .system import from_json, read_json


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="scenario config JSON")
    parser.add_argument("-o", "--outdir", required=True, help="run output directory")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    """Only the stages that cluster take a seed: the others read the saved
    clustering."""
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")


def _add_solve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gap", type=float, default=None,
                        help="relative MIP gap override")
    parser.add_argument("--workers", type=int, default=1,
                        help="models solved concurrently")


def _add_only(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--only", action="append", choices=BUILDER_KINDS,
                        metavar="KIND", default=None,
                        help="restrict to one model kind (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storagg",
        description="Aggregated unit-commitment models with storage, "
                    "benchmarked against the full hourly model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate scenario inputs")
    p.add_argument("scenario")

    p = sub.add_parser("cluster", help="cluster hours and days, save artifacts")
    _add_common(p)
    _add_seed(p)

    p = sub.add_parser("build", help="write model array + metadata files")
    _add_common(p)
    _add_only(p)

    p = sub.add_parser("solve", help="solve the built models from disk")
    _add_common(p)
    _add_only(p)
    _add_solve_flags(p)

    p = sub.add_parser("evaluate", help="expand solutions and write the report")
    _add_common(p)
    _add_only(p)
    p.add_argument("--no-prices", action="store_true",
                   help="skip the pricing pass")

    p = sub.add_parser("report", help="print the comparison summary from disk")
    p.add_argument("outdir", help="run output directory")

    # a flag left out takes emit_scenario_template's default
    p = sub.add_parser("template", help="write a ready-to-run synthetic scenario")
    p.add_argument("-o", "--outdir", required=True)
    p.add_argument("--vision", type=int, help="bundled capacity mix")
    p.add_argument("--days", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("run", help="all stages in sequence")
    _add_common(p)
    _add_seed(p)
    _add_only(p)
    _add_solve_flags(p)
    p.add_argument("--no-prices", action="store_true",
                   help="skip the pricing pass")
    return parser


def _load(args) -> ScenarioConfig:
    config = load_scenario(args.scenario)
    overrides = {key: getattr(args, key, None) for key in ("seed", "gap")}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    if getattr(args, "workers", 1) < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {args.workers!r}")
    return config


def _artifacts(outdir: Path, hours: int):
    """The clusterings saved under ``outdir``, checked against the ``hours``
    of the series they are used with."""
    path = Path(outdir) / "agg" / "artifacts.json"
    if not path.exists():
        raise ConfigError(f"no clustering artifacts at {path}; run 'cluster' first")
    # here, so template, ingest and report load no clustering code
    from .aggregation import load_artifacts, AggregationError
    try:
        artifacts = load_artifacts(path)
    except AggregationError as exc:
        raise ConfigError(str(exc)) from None
    covered = {artifacts.states.horizon_hours, artifacts.rp.horizon_hours}
    if covered != {hours}:
        raise ConfigError(f"{path} clusters {sorted(covered)} hours, the series has "
                          f"{hours}; run 'cluster' again")
    return artifacts


def cmd_ingest(args) -> int:
    config = load_scenario(args.scenario)
    system, data = stage_ingest(config)
    print(f"system: {len(system.thermal)} thermal, {len(system.storage)} storage, "
          f"{len(system.network.buses)} buses, {len(system.network.circuits)} circuits")
    print(f"series: {data.horizon_hours} hours ({data.num_days} days), "
          f"total demand {data.total_demand().sum():.1f} GWh")
    return 0


def cmd_cluster(args) -> int:
    config = _load(args)
    system, data = stage_ingest(config)
    artifacts = stage_cluster(system, data, config, Path(args.outdir))
    print(f"clustered {data.horizon_hours} hours into {artifacts.states.num_states} states "
          f"and {data.num_days} days into {artifacts.rp.num_rp} representatives "
          f"(seed {artifacts.seed})")
    print(f"artifacts -> {Path(args.outdir) / 'agg' / 'artifacts.json'}")
    return 0


def cmd_build(args) -> int:
    config = _load(args)
    system, data = stage_ingest(config)
    artifacts = _artifacts(args.outdir, data.horizon_hours)
    outputs = stage_build(system, data, artifacts, config, Path(args.outdir),
                          only=args.only)
    for kind, fo in outputs.items():
        print(f"{kind}: {fo.model.num_vars} variables, {fo.model.num_cons} constraints "
              f"-> models/{kind}.npz")
    return 0


def cmd_solve(args) -> int:
    config = _load(args)
    solutions = stage_solve(config, Path(args.outdir), only=args.only, workers=args.workers)
    for kind, sol in solutions.items():
        print(f"{kind}: {sol.status}, objective {sol.objective:.4f}, "
              f"{sol.wall_seconds:.2f}s")
    return 0


def cmd_evaluate(args) -> int:
    config = _load(args)
    system, data = stage_ingest(config)
    artifacts = _artifacts(args.outdir, data.horizon_hours)
    kinds = config.selected_kinds(args.only)
    outputs = {k: load_built_model(Path(args.outdir), k, data.horizon_hours) for k in kinds}
    solutions = load_solutions(Path(args.outdir), {k: fo.model for k, fo in outputs.items()})
    cases, reports = stage_evaluate(system, data, artifacts, config,
                                    outputs, solutions,
                                    with_prices=not args.no_prices)
    rep_dir = stage_report(system, cases, reports, Path(args.outdir))
    for kind, case in cases.items():
        print(f"{kind}: objective {case.objective:.4f}, "
              f"{case.violation_count} storage violations")
    print(f"report -> {rep_dir}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.outdir) / "report" / "summary.json"
    if not path.exists():
        raise ConfigError(f"no summary at {path}; run 'evaluate' first")
    summary = from_json(Summary, read_json(path, "report summary", ConfigError),
                        f"{path}: not a report summary", ConfigError)
    for kind, block in summary.blocks.items():
        print(f"{kind}: objective {block.objective:.4f}, "
              f"solve {block.wall_seconds:.2f}s, "
              f"violations {block.violations}")
    metrics = sorted({m for c in summary.comparisons.values() for m in c.metrics})
    if metrics:
        width = max(len(m) for m in metrics) + 2
        print("\n" + "metric".ljust(width) + "".join(k.rjust(12) for k in summary.comparisons))
        for m in metrics:
            cells = []
            for c in summary.comparisons.values():
                v = c.metrics.get(m)
                cells.append(("" if v is None else f"{v:.3f}").rjust(12))
            print(m.ljust(width) + "".join(cells))
    return 0


def cmd_template(args) -> int:
    given = {key: getattr(args, key) for key in ("vision", "days", "seed")}
    scenario = emit_scenario_template(args.outdir, **{k: v for k, v in given.items()
                                                      if v is not None})
    print(f"scenario -> {scenario}")
    return 0


def cmd_run(args) -> int:
    config = _load(args)
    result = run_pipeline(config, Path(args.outdir), only=args.only, workers=args.workers,
                          with_prices=not args.no_prices)
    for kind, sol in result.solutions.items():
        print(f"{kind}: {sol.status}, objective {sol.objective:.4f}, "
              f"{sol.wall_seconds:.2f}s")
    for kind, rep in result.reports.items():
        print(f"{kind} vs hm: objective error {rep.objective_error_pct:+.3f}%, "
              f"violations {rep.violation_count}, time x{rep.time_ratio:.2f}")
    print(f"artifacts -> {result.outdir} ({result.elapsed_seconds:.1f}s)")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "cluster": cmd_cluster,
    "build": cmd_build,
    "solve": cmd_solve,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
    "template": cmd_template,
    "run": cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
