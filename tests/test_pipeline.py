import csv
import dataclasses
import gzip
import importlib.util
import inspect
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import storagg
from storagg import (emit_scenario_template, load_scenario, save_scenario,
                     run_pipeline, load_system, load_horizon, validate_system,
                     ConfigError, SolveError, ScenarioConfig, ModelMeta, Solution, write_mps,
                     write_registry, load_model, save_model)
from storagg.cli import main as cli_main, build_parser
from storagg.pipeline import stage_ingest, stage_cluster, stage_build, \
    stage_solve, stage_report, load_built_model, save_solutions, load_solutions

from conftest import make_solution, names_model, layout_blocks
from test_milp import _parent_layout
from storagg.milp import _pack_names


@pytest.fixture(scope="module")
def template_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("scen")
    emit_scenario_template(outdir, vision=1, days=2, seed=3)
    return outdir


def test_template_emits_valid_scenario(template_dir):
    for name in ("scenario.json", "system.json", "demand.csv",
                 "renewables.csv", "inflows.csv"):
        assert (template_dir / name).exists()
    system = load_system(template_dir / "system.json")
    validate_system(system)
    config = load_scenario(template_dir / "scenario.json")
    system, data = stage_ingest(config)
    assert data.horizon_hours == 48
    # vision 1 gas fleet, scaled from MW to GW
    gas = next(u for u in system.thermal if u.id == "gas")
    assert gas.q_max == pytest.approx(24.948)


def test_template_demand_fits_fleet(template_dir):
    config = load_scenario(template_dir / "scenario.json")
    system, data = stage_ingest(config)
    cap = sum(u.q_max for u in system.thermal) + \
        sum(s.q_max for s in system.storage)
    assert (data.total_demand() < cap).all()
    assert (data.total_demand() > 0).all()


def test_load_scenario_missing_key(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps({"demand": "d.csv"}))
    with pytest.raises(ConfigError, match="missing"):
        load_scenario(tmp_path / "scenario.json")


def test_load_scenario_unknown_key(template_dir, tmp_path):
    doc = json.loads((template_dir / "scenario.json").read_text())
    doc["tpyo"] = 1
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="tpyo"):
        load_scenario(tmp_path / "scenario.json")


def test_load_scenario_bad_kind(template_dir, tmp_path):
    doc = json.loads((template_dir / "scenario.json").read_text())
    doc["kinds"] = ["hm", "warp"]
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="warp"):
        load_scenario(tmp_path / "scenario.json")


@pytest.mark.parametrize("change, message", [
    (dict(states=0), "states must be a positive integer"),
    (dict(rep_days=-1), "rep_days must be a positive integer"),
    (dict(rep_days=2.5), "rep_days must be a positive integer"),
    (dict(window_hours=0), "window_hours must be a positive integer"),
    (dict(window_hours=36), "multiple of 24 for rp_tmci"),
    (dict(window_hours=36, kinds=["hm", "ss"]), None),
    (dict(window_hours=None), None),
    (dict(gap="abc"), "gap must be a finite number >= 0, got 'abc'"),
    (dict(gap=-1e-3), "gap must be a finite number"),
    (dict(gap=float("inf")), "gap must be a finite number"),
    (dict(gap=True), "gap must be a finite number"),
    (dict(time_limit=0), "time_limit must be a positive number or null"),
    (dict(time_limit="60"), "time_limit must be a positive number or null"),
    (dict(theta="x"), "theta must be a number >= 0"),
    (dict(theta=-0.5), "theta must be a number >= 0"),
    (dict(invest="yes"), "invest must be true or false"),
    (dict(check_degeneracy=1), "check_degeneracy must be true or false"),
    (dict(gap=0, time_limit=None, theta=float("inf"), invest=True), None),
    (dict(time_limit=30.5, theta=0.25, check_degeneracy=True), None),
    (dict(states=True), "states must be a positive integer"),
    (dict(rep_days=True), "rep_days must be a positive integer"),
    (dict(seed="x"), "seed must be an integer >= 0, got 'x'"),
    (dict(seed=1.5), "seed must be an integer >= 0"),
    (dict(seed=-1), "seed must be an integer >= 0"),
    (dict(seed=True), "seed must be an integer >= 0"),
    (dict(seed=7), None),
    (dict(kinds=["hm", "ss", "hm"]), r"model kinds \['hm'\] are listed more than once"),
    (dict(kinds=[]), r"no model kind selected: requested all, configured \[\]"),
], ids=[
    # fixed ids, the names these cases have always had, so that editing an
    # expected message above renames no test
    "change0-states must be a positive integer",
    "change1-rep_days must be a positive integer",
    "change2-rep_days must be a positive integer",
    "change3-window_hours must be a positive integer",
    "change4-multiple of 24 for rp_tmci",
    "change5-None",
    "change6-None",
    "change7-gap must be a finite number >= 0, got 'abc'",
    "change8-gap must be a finite number",
    "change9-gap must be a finite number",
    "change10-gap must be a finite number",
    "change11-time_limit must be a positive number or null",
    "change12-time_limit must be a positive number or null",
    "change13-theta must be a number >= 0",
    "change14-theta must be a number >= 0",
    "change15-invest must be true or false",
    "change16-check_degeneracy must be true or false",
    "change17-None",
    "change18-None",
    "change19-states must be a positive integer",
    "change20-rep_days must be a positive integer",
    "change21-seed must be an integer >= 0, got 'x'",
    "change22-seed must be an integer >= 0",
    "change23-seed must be an integer >= 0",
    "change24-seed must be an integer >= 0",
    "change25-None",
    r"change26-model kinds \['hm'\] are listed more than once",
    r"change27-no model kind selected: requested all, configured \[\]",
])
def test_load_scenario_checks_counts_and_window(template_dir, tmp_path, change, message):
    doc = json.loads((template_dir / "scenario.json").read_text())
    (tmp_path / "scenario.json").write_text(json.dumps(dict(doc, **change)))
    if message is None:
        config = load_scenario(tmp_path / "scenario.json")
        for key, value in change.items():
            assert getattr(config, key) == value
    else:
        with pytest.raises(ConfigError, match=message):
            load_scenario(tmp_path / "scenario.json")


def test_scenario_round_trip(template_dir, tmp_path):
    config = load_scenario(template_dir / "scenario.json")
    save_scenario(config, tmp_path / "copy.json")
    again = load_scenario(tmp_path / "copy.json")
    assert again.states == config.states
    assert again.kinds == config.kinds
    # base_dir follows the file, not the original
    assert str(again.base_dir) == str(tmp_path)


@pytest.fixture(scope="module")
def run_result(template_dir, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run")
    config = load_scenario(template_dir / "scenario.json")
    config.states = 8
    config.rep_days = 2
    config.gap = 1e-3
    result = run_pipeline(config, outdir, with_prices=False)
    return config, outdir, result


def documented_layout(kinds) -> set[str]:
    """The files the ``storagg.pipeline`` docstring lists for a run, with
    ``<kind>`` and ``a|b`` extensions spelled out."""
    doc = storagg.pipeline.__doc__
    block = doc.split("under one output directory::\n\n")[1].split("\n\n")[0]
    files = set()
    for line in block.splitlines():
        stem, _, exts = line.split()[0].rpartition(".")
        for ext in exts.split("|"):
            name = f"{stem}.{ext}"
            files |= {name.replace("<kind>", k) for k in kinds} if "<kind>" in name else {name}
    return files


def test_run_produces_artifact_tree(run_result):
    """A run writes exactly the files the pipeline docstring lists."""
    _, outdir, result = run_result
    written = {p.relative_to(outdir).as_posix() for p in outdir.rglob("*") if p.is_file()}
    assert written == documented_layout(result.cases)
    assert "solutions/hm.npz" in written and "models/hm.npz" in written


def test_loaded_solutions_equal_solved_ones(run_result):
    """Values re-read from disk, against the re-read models, equal the
    in-memory ones: bit-identical floats in column order, named alike; the
    whole Solution equals too, the audit ``stage_solve`` set on it among
    its fields."""
    _, outdir, result = run_result
    loaded = load_solutions(outdir, {k: load_built_model(outdir, k).model
                                     for k in result.solutions})
    for kind, sol in result.solutions.items():
        back = loaded[kind]
        assert list(back.values) == list(sol.values)
        assert back.x.tobytes() == sol.x.tobytes()
        assert back == sol and sol.audit


def test_run_solves_all_five_kinds(run_result):
    _, _, result = run_result
    assert set(result.cases) == {"hm", "ss", "rp", "ss_rfm", "rp_tmci"}
    for case in result.cases.values():
        assert case.objective is not None


def test_reports_keyed_by_aggregated_kind(run_result):
    _, _, result = run_result
    assert set(result.reports) == {"ss", "rp", "ss_rfm", "rp_tmci"}
    for rep in result.reports.values():
        assert rep.objective_error_pct is not None


def test_summary_records_price_degeneracy(run_result, template_dir, tmp_path):
    """``prices_degenerate`` is null per kind unless the check ran; with
    ``check_degeneracy`` on it holds the check's answer for every kind."""
    _, outdir, _ = run_result
    summary = json.loads((outdir / "report" / "summary.json").read_text())
    assert {summary[k]["prices_degenerate"] for k in storagg.BUILDER_KINDS} == {None}

    config = load_scenario(template_dir / "scenario.json")
    config.states, config.rep_days, config.gap = 8, 2, 1e-3
    config.kinds, config.check_degeneracy = ["hm", "ss"], True
    result = run_pipeline(config, tmp_path)
    summary = json.loads((tmp_path / "report" / "summary.json").read_text())
    for kind in ("hm", "ss"):
        assert summary[kind]["prices_degenerate"] in (True, False)
        assert summary[kind]["prices_degenerate"] == result.cases[kind].prices_degenerate


def test_summary_csv_has_metric_matrix(run_result):
    _, outdir, _ = run_result
    lines = (outdir / "report" / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "metric"
    assert "ss" in header and "rp_tmci" in header
    metrics = [ln.split(",")[0] for ln in lines[1:]]
    assert "objective_error_pct" in metrics


def test_hourly_csv_rows_cover_horizon(run_result):
    config, outdir, _ = run_result
    with gzip.open(outdir / "report" / "hourly_hm.csv.gz", "rt", newline="") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 49    # header + 48 hours
    assert lines[0].split(",")[0] == "hour"


def expected_hourly_rows(exp) -> list[list[str]]:
    """The hourly report of ``exp`` built hour by hour, as csv.reader reads it."""
    header = ["hour", "source"]
    header += [f"q_{g}" for g in exp.thermal_production]
    header += [f"u_{g}" for g in exp.commitment]
    for uid in exp.storage_level:
        header += [f"discharge_{uid}", f"charge_{uid}", f"level_{uid}", f"level_model_{uid}"]
    header += [f"res_use_{n}" for n in exp.renewable_use]
    header += [f"pns_{n}" for n in exp.pns]
    header += ["price"] if exp.prices is not None else []
    rows = [header]
    for t in range(exp.hours):
        row = [str(t), exp.periods.labels[exp.periods.pos[t]]]
        row += [f"{exp.thermal_production[g][t]:.6g}" for g in exp.thermal_production]
        row += [str(int(round(exp.commitment[g][t]))) for g in exp.commitment]
        for uid in exp.storage_level:
            row += [f"{series[uid][t]:.6g}" for series in (
                exp.storage_discharge, exp.storage_charge,
                exp.storage_level, exp.storage_level_model)]
        row += [f"{exp.renewable_use[n][t]:.6g}" for n in exp.renewable_use]
        row += [f"{exp.pns[n][t]:.6g}" for n in exp.pns]
        row += [f"{exp.prices[t]:.6g}"] if exp.prices is not None else []
        rows.append(row)
    return rows


def test_hourly_report_round_trips(run_result, tmp_path):
    """Every ``hourly_<kind>.csv.gz`` decompresses to one CRLF line per hour
    plus the header, and reads back cell for cell as the case's expansion:
    ``.6g`` numbers, period labels, rounded commitments and, when priced,
    the price."""
    _, _, result = run_result
    cases = dict(result.cases)
    # the fixture runs without prices; give one case a price series
    exp = cases["rp"].expansion
    cases["rp"] = dataclasses.replace(cases["rp"], expansion=dataclasses.replace(
        exp, prices=np.linspace(-1.5, 1e7 / 3, exp.hours)))
    stage_report(result.system, cases, result.reports, tmp_path)
    for kind, case in cases.items():
        text = gzip.decompress((tmp_path / "report" / f"hourly_{kind}.csv.gz").read_bytes())
        assert text.count(b"\r\n") == text.count(b"\n") == case.expansion.hours + 1
        rows = list(csv.reader(io.StringIO(text.decode(), newline="")))
        assert rows == expected_hourly_rows(case.expansion), kind


def test_hourly_report_bytes_are_deterministic(run_result, tmp_path):
    """The gzip header carries no time, name or platform: two reports of the
    same cases are byte-identical, mtime (bytes 4-7) is zero, no name flag is
    set and the OS byte is 255 (unknown)."""
    _, _, result = run_result
    first, second = tmp_path / "a", tmp_path / "b"
    stage_report(result.system, result.cases, result.reports, first)
    stage_report(result.system, result.cases, result.reports, second)
    for kind in result.cases:
        blob = (first / "report" / f"hourly_{kind}.csv.gz").read_bytes()
        assert blob == (second / "report" / f"hourly_{kind}.csv.gz").read_bytes()
        assert blob[:3] == b"\x1f\x8b\x08" and blob[3] == 0    # deflate, no flags
        assert blob[4:8] == bytes(4) and blob[9] == 0xff


def test_hourly_report_removes_stale_plain_csv(run_result, tmp_path):
    """A plain ``hourly_<kind>.csv`` an older run left in ``report/`` is
    removed when the compressed series is written, so no kind keeps two."""
    _, _, result = run_result
    (tmp_path / "report").mkdir()
    (tmp_path / "report" / "hourly_hm.csv").write_text("hour,source\r\n")
    stage_report(result.system, {"hm": result.cases["hm"]}, {}, tmp_path)
    assert sorted(p.name for p in (tmp_path / "report").glob("hourly_hm*")) == \
        ["hourly_hm.csv.gz"]


def test_report_keeps_only_the_series_it_writes(run_result, tmp_path):
    """A report removes every kind's hourly series before it writes its
    own, so a report of ``ss`` alone, after one of every kind, holds the
    ``ss`` series beside its summary and nothing else."""
    _, _, result = run_result
    stage_report(result.system, result.cases, result.reports, tmp_path)
    stage_report(result.system, {"ss": result.cases["ss"]}, {}, tmp_path)
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == \
        ["hourly_ss.csv.gz", "summary.csv", "summary.json"]


def test_built_model_reloads_from_disk(run_result):
    _, outdir, result = run_result
    fo = load_built_model(outdir, "ss")
    assert fo.kind == "ss"
    assert fo.meta == result.outputs["ss"].meta
    assert (fo.meta.kind, fo.meta.invest, fo.meta.checkpoints) == ("ss", False, None)
    assert fo.registry == result.outputs["ss"].registry
    sol = load_solutions(outdir, {"ss": fo.model})["ss"]
    assert sol.objective == pytest.approx(result.cases["ss"].objective,
                                          rel=1e-6)


def test_run_files_are_their_records(run_result, tmp_path):
    """Each solution header is its Solution's init fields and each sidecar's
    ``meta`` its ModelMeta: read through ``from_json`` and written back,
    every kind's file gives the same JSON, and the sidecar the same bytes.
    The duals are no header field, so a header holding them is refused."""
    _, outdir, _ = run_result
    from_json, to_json = storagg.system.from_json, storagg.system.to_json
    for kind in storagg.BUILDER_KINDS:
        header = json.loads((outdir / "solutions" / f"{kind}.json").read_text())
        assert to_json(from_json(Solution, header, kind, ConfigError)) == header
        with pytest.raises(ConfigError, match=f"^{kind}: unknown key 'duals'$"):
            from_json(Solution, header | {"duals": {}}, kind, ConfigError)
        side = outdir / "models" / f"{kind}.registry.json"
        meta = from_json(ModelMeta, json.loads(side.read_text())["meta"], kind, ConfigError)
        assert meta == load_built_model(outdir, kind).meta
        write_registry(load_model(outdir / "models" / f"{kind}.npz"), tmp_path / "m.json", meta)
        assert (tmp_path / "m.json").read_bytes() == side.read_bytes()


def test_an_ok_solution_needs_an_objective():
    """A Solution is made with every field its header file requires, and
    an ok one without an objective is refused when it is made."""
    with pytest.raises(TypeError):
        Solution("optimal")
    with pytest.raises(ValueError, match="objective must be a number for status 'optimal'"):
        Solution("optimal", None, 0.0, 0.0, "", {})


def test_rebuild_drops_the_old_solution(tmp_path):
    """Building a kind removes its solution files: an ``ss`` built again
    where one was solved, with no clustering in between, has no solution
    to be evaluated as its own."""
    out = tmp_path / "out"
    config = load_scenario(emit_scenario_template(tmp_path / "scen", days=14, seed=4))
    config.gap = 1e-3
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, out)
    stage_build(system, data, art, config, out, only=["ss"])
    stage_solve(config, out, only=["ss"])
    assert load_solutions(out, {"ss": load_built_model(out, "ss").model})["ss"].ok
    stage_build(system, data, art, config, out, only=["ss"])
    assert not list((out / "solutions").iterdir())
    with pytest.raises(ConfigError, match="no solution on disk for 'ss'"):
        load_solutions(out, {"ss": load_built_model(out, "ss").model})


def test_recluster_drops_every_kinds_model_and_solution(tmp_path, capsys):
    """Clustering removes every kind's model and solution files, which were
    built from the inputs clustered before: after an ``ss`` built and solved
    on a 14-day series, a 7-day series clustered into the same directory
    leaves ``evaluate`` no model to report as the new series' (exit 2)."""
    out = tmp_path / "out"
    for days in (14, 7):
        scenario = emit_scenario_template(tmp_path / f"scen{days}", days=days, seed=5)
        config = load_scenario(scenario)
        config.gap = 1e-3
        system, data = stage_ingest(config)
        art = stage_cluster(system, data, config, out)
        if days == 14:
            stage_build(system, data, art, config, out, only=["ss"])
            stage_solve(config, out, only=["ss"])
    assert not list((out / "models").iterdir()) and not list((out / "solutions").iterdir())
    assert cli_main(["evaluate", str(scenario), "-o", str(out), "--only", "ss",
                     "--no-prices"]) == 2
    assert "model files for 'ss' not found" in capsys.readouterr().err


def test_recluster_drops_the_report(tmp_path, capsys):
    """Clustering removes the report as well: the summary and every kind's
    hourly series a run before it left are gone, so ``storagg report`` then
    finds no summary (exit 2) instead of printing the old run's."""
    out, cfg = tmp_path / "out", str(emit_scenario_template(tmp_path / "scen", days=2))
    report = out / "report"
    report.mkdir(parents=True)
    (report / "summary.json").write_text(json.dumps({"comparisons": {}}))
    for name in ("summary.csv", "hourly_ss.csv.gz", "hourly_hm.csv"):
        (report / name).write_text("an earlier run's")
    assert cli_main(["report", str(out)]) == 0
    assert cli_main(["cluster", cfg, "-o", str(out)]) == 0
    assert list(report.iterdir()) == []
    capsys.readouterr()
    assert cli_main(["report", str(out)]) == 2
    assert "no summary" in capsys.readouterr().err


@pytest.fixture(scope="module")
def week_run(tmp_path_factory):
    """(scenario path, run directory, clusterings) of the 7-day template
    (seed 4), every kind built and solved at gap 1e-3."""
    root = tmp_path_factory.mktemp("week")
    scenario = emit_scenario_template(root / "scen", days=7, seed=4)
    config = load_scenario(scenario)
    config.gap = 1e-3
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, root / "out")
    stage_build(system, data, art, config, root / "out")
    stage_solve(config, root / "out")
    return scenario, root / "out", art


# the symbols of the columns and rows tiled over a kind's model periods
_PERIOD_BLOCKS = {"q", "u", "b", "sp", "v", "pns", "bal"}


@pytest.mark.parametrize("kind", storagg.BUILDER_KINDS)
def test_layout_reads_by_position_as_by_name(week_run, kind):
    """Each block the sidecar layout records reads, by position, the values
    (and the pricing LP's duals) that the names of its entries read through
    the Solution's views.  Each entry is named ``<symbol>_<label>_<id>``
    after its block's key, the blocks cover every column and row once, and
    the operating blocks run over the kind's period labels."""
    _, out, art = week_run
    fo = load_built_model(out, kind)
    sol = load_solutions(out, {kind: fo.model})[kind]
    lp = storagg.ScipySolver().solve_lp(fo.model, fixed=sol.x)
    labels = storagg.periods(kind, 7 * 24, states=art.states, rp=art.rp).labels
    model = fo.model
    for layout, array, view, names in (
            (fo.meta.columns, sol.x, sol.values, model.var_names.tolist()),
            (fo.meta.rows, lp.row_dual, lp.duals, model._con_names.tolist())):
        covered = np.zeros(len(names), dtype=int)
        for key, at in layout_blocks(layout).items():
            covered[at] += 1
            symbol, _, uid = key.partition("_")
            head, tail = f"{symbol}_", f"_{uid}" if uid else ""
            block = [names[j][len(head):len(names[j]) - len(tail)] for j in at]
            by_name = [view[head + label + tail] for label in block]
            assert [head + label + tail for label in block] == [names[j] for j in at], key
            assert np.array(by_name).tobytes() == array[at].tobytes(), key
            if symbol in _PERIOD_BLOCKS:
                assert block == labels, key
        assert covered.tolist() == [1] * len(names)


def test_layout_covers_each_column_and_row_once_with_investment(tmp_path):
    """With investment on, which adds the ``x`` columns and their capacity
    and level rows, the blocks the builders record still cover every column
    and row of every kind once, each entry named after its block's key: no
    two blocks share a key."""
    config = load_scenario(emit_scenario_template(tmp_path, days=7, seed=4))
    config.invest = True
    system, data = stage_ingest(config)
    art = storagg.aggregate(data, config.states, config.rep_days, config.seed,
                            has_short_term_storage=True)
    for kind in storagg.BUILDER_KINDS:
        fo = storagg.pipeline.build_formulation(kind, system, data, art, config)
        assert layout_blocks(fo.meta.columns)["x"].size == 1, kind   # the battery's capacity
        for layout, names in ((fo.meta.columns, fo.model.var_names.tolist()),
                              (fo.meta.rows, fo.model._con_names.tolist())):
            covered = np.zeros(len(names), dtype=int)
            for key, at in layout_blocks(layout).items():
                covered[at] += 1
                symbol, _, uid = key.partition("_")
                assert all(names[j].startswith(f"{symbol}_") and names[j].endswith(
                    f"_{uid}" if uid else "") for j in at), (kind, key)
            assert covered.tolist() == [1] * len(names), kind


def test_values_file_of_another_model_is_refused(week_run, tmp_path, capsys):
    """A values file is read only against the model it was solved over:
    ``ss``'s values against ``rp``'s model are refused naming both digests,
    and ``ss``'s values one short naming both counts, each an input error
    (exit 2) naming the file, at ``load_solutions`` and at ``evaluate``."""
    import hashlib
    scenario, out, _ = week_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    models = {kind: load_built_model(run, kind).model for kind in ("ss", "rp")}
    digest = {kind: hashlib.sha256(m.var_names.blob).hexdigest() for kind, m in models.items()}
    shutil.copy(run / "solutions" / "ss.npz", run / "solutions" / "rp.npz")
    with pytest.raises(ConfigError, match=rf"rp\.npz: values for variable names of SHA-256 "
                                          rf"{digest['ss']}, model 'rp' has {digest['rp']}$"):
        load_solutions(run, {"rp": models["rp"]})
    path = run / "solutions" / "ss.npz"
    with np.load(path) as npz:
        arrays = dict(npz)
    np.savez_compressed(path, **dict(arrays, x=arrays["x"][:-1]))
    n = models["ss"].num_vars
    with pytest.raises(ConfigError, match=rf"ss\.npz: {n - 1} values for the {n} variables"):
        load_solutions(run, {"ss": models["ss"]})
    capsys.readouterr()
    for kind in ("rp", "ss"):
        assert cli_main(["evaluate", str(scenario), "-o", str(run), "--only", kind,
                         "--no-prices"]) == 2
        assert f"solutions/{kind}.npz: " in capsys.readouterr().err


def test_solutions_describe_status(run_result):
    _, outdir, _ = run_result
    doc = json.loads((outdir / "solutions" / "hm.json").read_text())
    assert doc["status"] in ("optimal", "gap_limit")
    assert set(doc) == {"status", "objective", "gap", "wall_seconds", "message", "audit",
                        "dual_bound", "nodes"}
    # a MIP's bound and node count, as HiGHS reports them
    assert doc["dual_bound"] <= doc["objective"] and type(doc["nodes"]) is int and doc["nodes"] >= 0


def test_files_without_bound_and_nodes_still_load(run_result, tmp_path):
    """A solution header or summary written before the dual bound and the
    node count were kept lacks both keys; it loads, with both None."""
    _, outdir, _ = run_result
    (tmp_path / "solutions").mkdir()
    for suffix in (".json", ".npz"):
        shutil.copy(outdir / "solutions" / f"hm{suffix}", tmp_path / "solutions")
    header = json.loads((tmp_path / "solutions" / "hm.json").read_text())
    assert header["nodes"] >= 0
    del header["dual_bound"], header["nodes"]
    (tmp_path / "solutions" / "hm.json").write_text(json.dumps(header))
    sol = load_solutions(tmp_path, {"hm": load_built_model(outdir, "hm").model})["hm"]
    assert (sol.dual_bound, sol.nodes) == (None, None) and sol.ok
    doc = json.loads((outdir / "report" / "summary.json").read_text())
    assert all(type(doc[kind]["nodes"]) is int for kind in ("hm", "ss"))
    for kind in ("hm", "ss"):
        del doc[kind]["dual_bound"], doc[kind]["nodes"]
    summary = storagg.system.from_json(storagg.pipeline.Summary, doc, "summary", ConfigError)
    assert summary.blocks["hm"].dual_bound is None and summary.blocks["ss"].nodes is None


def test_failed_solve_leaves_no_values_file(tmp_path):
    """A solution without values writes no values file and removes one an
    earlier solve left, so the header's status is never paired with stale
    values."""
    save_solutions(tmp_path, {"ss": make_solution("optimal", 1.0, {"x": 1.0})})
    save_solutions(tmp_path, {"ss": make_solution("infeasible")})
    assert not (tmp_path / "solutions" / "ss.npz").exists()
    sol = load_solutions(tmp_path, {"ss": names_model(["x"])})["ss"]
    assert (sol.x, sol.values) == (None, {})


def test_save_solutions_refuses_ok_solution_without_values_before_any_write(tmp_path):
    """An ok solution without values, in the second of two kinds, is a
    SolveError naming that kind before either kind's files are written:
    ``load_solutions`` would refuse its header without a values file."""
    ok = make_solution("optimal", 1.0, {"x": 1.0})
    with pytest.raises(SolveError, match=r"solution of 'b': optimal without values"):
        save_solutions(tmp_path, {"a": ok, "b": make_solution("optimal", 1.0)})
    assert not list(tmp_path.rglob("*.*"))


def test_load_solutions_refusals(tmp_path):
    """A missing header key, a header that is not JSON or still holds its
    values (or any duals) inline, and a missing or damaged values file of an
    ok solution are input errors naming the file; there is no fallback
    reader."""
    sol_dir, models = tmp_path / "solutions", {"ss": names_model(["x"])}
    save_solutions(tmp_path, {"ss": make_solution("optimal", 1.0, {"x": 1.0})})
    header = json.loads((sol_dir / "ss.json").read_text())
    for key in ("status", "objective", "gap", "wall_seconds", "message"):
        (sol_dir / "ss.json").write_text(json.dumps({k: v for k, v in header.items() if k != key}))
        with pytest.raises(ConfigError, match=rf"ss\.json.*'{key}'"):
            load_solutions(tmp_path, models)
    (sol_dir / "ss.json").write_text("{")
    with pytest.raises(ConfigError, match=r"ss\.json: not a solution header: not valid JSON"):
        load_solutions(tmp_path, models)
    for key in ("values", "duals"):
        (sol_dir / "ss.json").write_text(json.dumps(dict(header, **{key: {"x": 1.0}})))
        with pytest.raises(ConfigError, match=rf"ss\.json: unknown key '{key}'") as err:
            load_solutions(tmp_path, models)
        assert err.value.exit_code == 2
    (sol_dir / "ss.json").write_text(json.dumps(header))
    (sol_dir / "ss.npz").write_bytes(b"damaged")
    with pytest.raises(ConfigError, match=r"ss\.npz: not a solution file"):
        load_solutions(tmp_path, models)
    (sol_dir / "ss.npz").unlink()
    with pytest.raises(ConfigError, match=r"ss\.npz"):
        load_solutions(tmp_path, models)


def test_load_solutions_refuses_mistyped_header(tmp_path):
    """A header value of the wrong type is an input error naming the file
    and the key, not a TypeError in a later stage."""
    sol_dir, models = tmp_path / "solutions", {"ss": names_model(["x"])}
    save_solutions(tmp_path, {"ss": make_solution("optimal", 1.0, {"x": 1.0})})
    header = json.loads((sol_dir / "ss.json").read_text())
    for key, bad in (("status", 1), ("objective", "abc"), ("gap", None),
                     ("wall_seconds", "slow"), ("wall_seconds", True), ("message", None)):
        (sol_dir / "ss.json").write_text(json.dumps(dict(header, **{key: bad})))
        with pytest.raises(ConfigError, match=rf"ss\.json: {key} must be") as err:
            load_solutions(tmp_path, models)
        assert err.value.exit_code == 2
    (sol_dir / "ss.json").write_text(json.dumps(dict(header, status="infeasible",
                                                     objective=None)))
    assert load_solutions(tmp_path, models)["ss"].objective is None


def test_pipeline_deterministic(template_dir, tmp_path):
    config = load_scenario(template_dir / "scenario.json")
    config.states = 6
    config.rep_days = 2
    config.kinds = ["ss", "rp"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        system, data = stage_ingest(config)
        art = stage_cluster(system, data, config, out)
        stage_build(system, data, art, config, out)
    assert (out1 / "agg" / "artifacts.json").read_bytes() == \
        (out2 / "agg" / "artifacts.json").read_bytes()
    for kind in config.kinds:
        assert (out1 / "models" / f"{kind}.npz").read_bytes() == \
            (out2 / "models" / f"{kind}.npz").read_bytes()


def test_mps_export_of_reloaded_model_is_unchanged(tmp_path):
    """The .npz round trip keeps every kind's MPS export byte for byte."""
    config = load_scenario(emit_scenario_template(tmp_path / "scen", days=3, seed=4))
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, tmp_path / "out")
    outputs = stage_build(system, data, art, config, tmp_path / "out")
    assert set(outputs) == {"hm", "ss", "ss_rfm", "rp", "rp_tmci"}
    for kind, fo in outputs.items():
        built, reloaded = tmp_path / f"{kind}_built.mps", tmp_path / f"{kind}_reloaded.mps"
        write_mps(fo.model, built)
        write_mps(load_built_model(tmp_path / "out", kind).model, reloaded)
        assert reloaded.read_bytes() == built.read_bytes(), kind


def test_old_mps_directory_is_refused(tmp_path):
    """A model directory from before the .npz format holds an .mps file and
    the sidecar; there is no fallback reader.  A damaged .npz is an input
    error too."""
    models = tmp_path / "models"
    models.mkdir()
    m = storagg.MilpModel("ss")
    m.add_vars(["x"])
    write_mps(m, models / "ss.mps")
    write_registry(m, models / "ss.registry.json", meta={"kind": "ss"})
    with pytest.raises(ConfigError, match=r"ss\.npz"):
        load_built_model(tmp_path, "ss")
    (models / "ss.npz").write_bytes((models / "ss.mps").read_bytes())
    with pytest.raises(ConfigError, match="not a model file"):
        load_built_model(tmp_path, "ss")


def test_solve_stage_reads_from_disk(template_dir, tmp_path):
    config = load_scenario(template_dir / "scenario.json")
    config.states = 6
    config.rep_days = 2
    config.kinds = ["ss"]
    config.gap = 1e-3
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, tmp_path)
    stage_build(system, data, art, config, tmp_path)
    solutions = stage_solve(config, tmp_path, workers=1)
    assert solutions["ss"].ok
    # a coefficient HiGHS refuses to load: a solver error (exit 3), not infeasible
    path = tmp_path / "models" / "ss.npz"
    model = load_model(path)
    model._coefs[0] = 1e16
    save_model(model, path)
    with pytest.raises(SolveError, match="ss: error Model error"):
        stage_solve(config, tmp_path, workers=1)


def test_parallel_solve_matches_serial(template_dir, tmp_path):
    config = load_scenario(template_dir / "scenario.json")
    config.states = 6
    config.rep_days = 2
    config.kinds = ["ss", "rp"]
    config.gap = 1e-3
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, tmp_path)
    stage_build(system, data, art, config, tmp_path)
    solutions = stage_solve(config, tmp_path, workers=2)
    assert solutions["ss"].ok and solutions["rp"].ok


def test_failed_solve_leaves_no_earlier_solution(template_dir, tmp_path, capsys):
    """A solve stage that fails keeps no earlier solve's files of the kinds
    it was given: ``evaluate`` then finds no solution (exit 2) instead of
    reporting the earlier one as if it were current."""
    cfg, out = str(template_dir / "scenario.json"), str(tmp_path)
    for args in (["cluster", cfg, "-o", out],
                 ["build", cfg, "-o", out, "--only", "ss", "--only", "rp"],
                 ["solve", cfg, "-o", out, "--only", "ss", "--gap", "1e-3"]):
        assert cli_main(args) == 0, args
    (tmp_path / "models" / "rp.npz").write_bytes(b"junk")
    capsys.readouterr()
    assert cli_main(["solve", cfg, "-o", out, "--only", "ss", "--only", "rp",
                     "--gap", "1e-2"]) == 2
    assert "rp.npz: not a model file" in capsys.readouterr().err
    assert cli_main(["evaluate", cfg, "-o", out, "--only", "ss", "--no-prices"]) == 2
    assert "no solution on disk for 'ss'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "storagg.cli", *args],
                          capture_output=True, text=True)


def test_cli_template_and_run(tmp_path):
    scen = tmp_path / "scen"
    proc = run_cli("template", "-o", str(scen), "--days", "2", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    run = tmp_path / "out"
    proc = run_cli("run", str(scen / "scenario.json"), "-o", str(run),
                   "--only", "hm", "--only", "ss", "--gap", "1e-3",
                   "--no-prices")
    assert proc.returncode == 0, proc.stderr
    assert (run / "report" / "summary.json").exists()
    proc = run_cli("report", str(run))
    assert proc.returncode == 0
    assert "objective" in proc.stdout


def test_cli_seed_only_where_clustering_happens(capsys):
    """``--seed`` picks the clustering, so only ``cluster`` and ``run`` take
    it; ``build``, ``solve`` and ``evaluate`` read the saved clustering and
    refuse the flag (exit 2) rather than accept and ignore it.  There is
    one solver, so no stage takes ``--solver``."""
    refused = [(command, "--seed", "3") for command in ("build", "solve", "evaluate")]
    refused += [(command, "--solver", "scipy") for command in ("solve", "run")]
    for command, flag, value in refused:
        with pytest.raises(SystemExit) as info:
            cli_main([command, "scenario.json", "-o", "out", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    for command in ("cluster", "run"):
        assert build_parser().parse_args([command, "s.json", "-o", "o", "--seed", "3"]).seed == 3


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_refuses_fewer_than_one_worker(template_dir, tmp_path, capsys, workers):
    """``--workers`` below 1 is refused (exit 2) before any stage runs, not
    taken to mean 1."""
    for command in ("solve", "run"):
        assert cli_main([command, str(template_dir / "scenario.json"), "-o",
                         str(tmp_path / "out"), "--workers", workers]) == 2
        assert f"workers must be an integer >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_bad_scenario_exits_2(tmp_path):
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps({"demand": "missing.csv"}))
    proc = run_cli("ingest", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_cli_config_errors_exit_2(tmp_path):
    """Counts the series cannot support, a checkpoint window rp_tmci cannot
    use, a knob of the wrong type or range (in the file, as ``--gap`` or
    ``--seed``, or as the template's ``--seed``), a damaged clustering
    artifacts file and one made from another series are configuration
    errors: exit 2, a message, no traceback, and no model file written.
    So are a system or scenario file of the wrong shape and a series header
    that names a column twice; their messages name the file."""
    scen = tmp_path / "scen"
    run_cli("template", "-o", str(scen), "--days", "2")
    doc = json.loads((scen / "scenario.json").read_text())
    out = tmp_path / "out"
    assert run_cli("cluster", str(scen / "scenario.json"), "-o", str(out)).returncode == 0
    artifacts = out / "agg" / "artifacts.json"
    artifacts.write_text(artifacts.read_text()[:200])
    for change, command, message in ((dict(rep_days=5), "cluster", "cannot form 5 clusters"),
                                     (dict(window_hours=36), "build", "multiple of 24"),
                                     (dict(gap="abc"), "cluster", "gap must be"),
                                     (dict(), "build", "artifacts.json: not a clustering")):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(dict(doc, base_dir=str(scen), **change)))
        proc = run_cli(command, str(cfg), "-o", str(out))
        assert proc.returncode == 2, (command, proc.stderr)
        assert message in proc.stderr and "Traceback" not in proc.stderr
    proc = run_cli("solve", str(scen / "scenario.json"), "-o", str(out), "--gap", "nan")
    assert proc.returncode == 2 and "gap must be a finite number" in proc.stderr
    proc = run_cli("cluster", str(scen / "scenario.json"), "-o", str(out), "--seed=-1")
    assert proc.returncode == 2 and "seed must be an integer >= 0" in proc.stderr
    proc = run_cli("template", "-o", str(tmp_path / "scen2"), "--seed=-1")
    assert proc.returncode == 2 and "seed must be an integer >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "scen2").exists()
    system = json.loads((scen / "system.json").read_text())
    thermal = [dict(system["thermal"][0], q_max="5")] + system["thermal"][1:]
    for name, text, message in (
            ("system.json", json.dumps([system]), "top level must be a JSON object, got list"),
            ("system.json", json.dumps(dict(system, isf=[[1.0], [1.0, 2.0]])),
             "isf must be a list of equal-length rows"),
            ("system.json", json.dumps(dict(system, thermal=thermal)),
             "thermal unit 'nuclear': q_max must be a number, got '5'"),
            ("scenario.json", "[{}]", "top level must be a JSON object, got list"),
            ("scenario.json", '"x"', "top level must be a JSON object, got str"),
            ("demand.csv", "hub,hub\r\n1.0,2.0\r\n", "column 'hub' appears more than once")):
        bad = tmp_path / "bad" / name
        shutil.copytree(scen, bad.parent, dirs_exist_ok=True)
        bad.write_text(text)
        proc = run_cli("ingest", str(bad.parent / "scenario.json"))
        assert proc.returncode == 2, (name, proc.stderr)
        assert message in proc.stderr and str(bad) in proc.stderr, (name, proc.stderr)
        assert "Traceback" not in proc.stderr
        shutil.rmtree(bad.parent)
    assert run_cli("cluster", str(scen / "scenario.json"), "-o", str(out)).returncode == 0
    run_cli("template", "-o", str(tmp_path / "scen3"), "--days", "3")
    proc = run_cli("build", str(tmp_path / "scen3" / "scenario.json"), "-o", str(out))
    assert proc.returncode == 2 and "clusters [48] hours, the series has 72" in proc.stderr
    assert not (out / "models").exists()


def test_directory_in_place_of_a_file_exits_2(tmp_path, capsys):
    """A directory where the scenario, the system file, a series or a model
    file should be is an input error naming its path: exit 2, no
    traceback.  So is one ``cluster`` cannot remove as an old model file."""
    scen = tmp_path / "scen"
    emit_scenario_template(scen, days=2)
    assert cli_main(["ingest", str(scen)]) == 2
    assert f"{scen}: not a scenario file: Is a directory" in capsys.readouterr().err
    for name, message in (("system.json", "not a system file: Is a directory"),
                          ("demand.csv", "Is a directory")):
        bad = tmp_path / "bad"
        shutil.copytree(scen, bad)
        (bad / name).unlink()
        (bad / name).mkdir()
        assert cli_main(["ingest", str(bad / "scenario.json")]) == 2, name
        assert f"{bad / name}: {message}" in capsys.readouterr().err
        shutil.rmtree(bad)
    with pytest.raises(storagg.ModelError) as info:
        load_model(tmp_path)
    assert str(info.value).startswith(f"{tmp_path}: not a model file: ")
    (tmp_path / "out" / "models" / "ss.npz").mkdir(parents=True)
    assert cli_main(["cluster", str(scen / "scenario.json"), "-o", str(tmp_path / "out")]) == 2
    assert f"{tmp_path / 'out' / 'models' / 'ss.npz'}: cannot remove: Is a directory" in \
        capsys.readouterr().err


def test_cli_oversized_csv_cell_exits_2(tmp_path):
    """A cell longer than the csv module's field limit (131,072 characters),
    in the header or in a data row, is a located data error: exit 2, the
    file and the row named, no traceback."""
    scen = tmp_path / "scen"
    run_cli("template", "-o", str(scen), "--days", "2")
    demand = scen / "demand.csv"
    lines = demand.read_text().splitlines()
    big = '"' + "x" * 200_000 + '"'
    for text, where in (("\r\n".join(lines[:3] + [big] + lines[4:]), "data row 3"),
                        ("\r\n".join([big] + lines[1:]), "header")):
        demand.write_text(text + "\r\n")
        proc = run_cli("ingest", str(scen / "scenario.json"))
        assert proc.returncode == 2, proc.stderr[-500:]
        assert str(demand) in proc.stderr and where in proc.stderr, proc.stderr[-500:]
        assert "field larger than field limit" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_circuit_id_not_an_identifier_exits_2(tmp_path):
    """A circuit id that is not an identifier is refused at ingest, as bus
    and unit ids are: exit 2, the system file named, no traceback.  Let
    through, ``c 1\\nx`` stopped the build with a traceback on the newline
    in its flow column's name, and an id of one space built a model whose
    MPS file splits that name in two."""
    scen = tmp_path / "scen"
    run_cli("template", "-o", str(scen), "--days", "2")
    for name in ("demand.csv", "renewables.csv"):
        lines = (scen / name).read_text().splitlines()
        rows = [lines[0] + ",far"] + [line + ",0.0" for line in lines[1:]]
        (scen / name).write_text("\r\n".join(rows) + "\r\n")
    doc = json.loads((scen / "system.json").read_text())
    doc["buses"].append("far")
    line = {"from_bus": "hub", "to_bus": "far", "capacity": 1.0, "reactance": 0.1}
    for cid in ("c 1\nx", " "):
        (scen / "system.json").write_text(json.dumps(dict(doc, circuits=[dict(line, id=cid)])))
        proc = run_cli("ingest", str(scen / "scenario.json"))
        assert proc.returncode == 2, proc.stderr[-500:]
        assert f"circuit id {cid!r} is not a valid identifier" in proc.stderr
        assert str(scen / "system.json") in proc.stderr and "Traceback" not in proc.stderr
    (scen / "system.json").write_text(json.dumps(dict(doc, circuits=[dict(line, id="c_1")])))
    assert run_cli("ingest", str(scen / "scenario.json")).returncode == 0


@pytest.fixture(scope="module")
def clustered_week(tmp_path_factory):
    """A 7-day template (6 representative days) and its clustering file's text."""
    scen = tmp_path_factory.mktemp("week")
    emit_scenario_template(scen, vision=1, days=7, seed=3)
    assert cli_main(["cluster", str(scen / "scenario.json"),
                     "-o", str(scen / "out")]) == 0
    return scen, (scen / "out" / "agg" / "artifacts.json").read_text()


@pytest.mark.parametrize("section, key, damage", [
    ("states", "assignment", lambda a: [-1] + a[1:]),
    ("states", "assignment", lambda a: a[:-1] + [99]),
    ("rp", "day_assignment", lambda a: a[:-1] + [-1]),
    ("rp", "medoid_days", lambda a: [50] + a[1:]),
    ("rp", "medoid_days", lambda a: [-1] + a[1:]),
    ("rp", "medoid_days", lambda a: a[:-1]),
    ("rp", "medoid_days", lambda a: a[:1] + a[:-1]),
    ("rp", "medoid_days", lambda a: a[1:2] + a[:1] + a[2:]),
    ("states", "demand", lambda a: a[:-1]),
    ("states", "inflows", lambda a: a + a[:1]),
], ids=["state-1", "state99", "day-1", "medoid50", "medoid-1", "medoids-short",
        "medoid-repeated", "medoids-swapped", "demand-short", "inflows-long"])
def test_cli_refuses_damaged_artifacts(clustered_week, tmp_path, capsys,
                                       section, key, damage):
    """An index outside its clustering, a medoid day outside its own cluster
    or an array of the wrong length in ``agg/artifacts.json`` is an input
    error naming the file (exit 2), and no model is built from it."""
    scen, text = clustered_week
    doc = json.loads(text)
    doc[section][key] = damage(doc[section][key])
    path = tmp_path / "agg" / "artifacts.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_main(["build", str(scen / "scenario.json"), "-o", str(tmp_path),
                     "--only", "ss", "--only", "rp_tmci"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not a clustering artifacts file")
    assert not (tmp_path / "models").exists()


def test_cli_stagewise_matches_run(tmp_path):
    scen = tmp_path / "scen"
    run_cli("template", "-o", str(scen), "--days", "2")
    out = str(tmp_path / "out")
    cfg = str(scen / "scenario.json")
    for cmd in (("ingest", cfg),
                ("cluster", cfg, "-o", out),
                ("build", cfg, "-o", out, "--only", "ss"),
                ("solve", cfg, "-o", out, "--only", "ss", "--gap", "1e-3"),
                ("evaluate", cfg, "-o", out, "--only", "ss", "--no-prices"),
                ("report", out)):
        proc = run_cli(*cmd)
        assert proc.returncode == 0, (cmd, proc.stderr)
    assert (tmp_path / "out" / "solutions" / "ss.json").exists()


def test_cli_evaluate_of_failed_solution_exits_3(tmp_path):
    """A solution header whose status is not ok is a solver error at
    ``evaluate`` (exit 3), not a traceback (exit 1)."""
    scen = tmp_path / "scen"
    run_cli("template", "-o", str(scen), "--days", "2")
    out, cfg = tmp_path / "out", str(scen / "scenario.json")
    for cmd in (("cluster", cfg, "-o", str(out)),
                ("build", cfg, "-o", str(out), "--only", "ss")):
        assert run_cli(*cmd).returncode == 0, cmd
    save_solutions(out, {"ss": make_solution("error", message="Time limit reached")})
    proc = run_cli("evaluate", cfg, "-o", str(out), "--only", "ss", "--no-prices")
    assert proc.returncode == 3, proc.stderr
    assert "status 'error'" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_cli_evaluate_refuses_non_finite_solution_value(tmp_path, capsys, bad):
    """A values file holding a commitment value that is not finite is an
    input error at ``evaluate`` (exit 2) naming the file and the variable,
    not a traceback or a solver error that names neither."""
    out, cfg = tmp_path / "out", str(emit_scenario_template(tmp_path / "scen", days=2))
    assert cli_main(["cluster", cfg, "-o", str(out)]) == 0
    for cmd in ("build", "solve"):
        assert cli_main([cmd, cfg, "-o", str(out), "--only", "ss"]) == 0
    path = out / "solutions" / "ss.npz"
    with np.load(path) as npz:
        arrays = dict(npz)
    names = load_built_model(out, "ss").model.var_names.tolist()
    k = next(i for i, name in enumerate(names) if name.startswith("u_"))
    arrays["x"][k] = bad
    np.savez_compressed(path, **arrays)
    capsys.readouterr()
    assert cli_main(["evaluate", cfg, "-o", str(out), "--only", "ss"]) == 2
    assert f"ss.npz: variable {names[k]!r} has value {bad}" in capsys.readouterr().err


def test_cli_refuses_files_in_the_parent_layout(tmp_path):
    """A model or solution file written before names were split into digit
    runs is refused as an input error (exit 2): there is no reader for it.
    So is a model sidecar that is not JSON, lacks a key or names another
    kind than its file name.  Each message starts with the file's path,
    with no prefix of the stage's own."""
    scen = tmp_path / "scen"
    run_cli("template", "-o", str(scen), "--days", "2")
    out, cfg = tmp_path / "out", str(scen / "scenario.json")
    for cmd in (("cluster", cfg, "-o", str(out)),
                ("build", cfg, "-o", str(out), "--only", "ss"),
                ("solve", cfg, "-o", str(out), "--only", "ss", "--gap", "1e-3")):
        assert run_cli(*cmd).returncode == 0, cmd
    values = out / "solutions" / "ss.npz"
    names = load_built_model(out, "ss").model.var_names
    for layout in ({"names": np.frombuffer(names.blob, dtype=np.uint8)},
                   _pack_names(names.blob, "names")):    # names in digit runs, beside values
        np.savez_compressed(values, **layout, values=np.zeros(len(names)))
        proc = run_cli("evaluate", cfg, "-o", str(out), "--only", "ss", "--no-prices")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {values}: not a solution file"), proc.stderr
    model = out / "models" / "ss.npz"
    np.savez_compressed(model, **_parent_layout(load_built_model(out, "ss").model))
    proc = run_cli("solve", cfg, "-o", str(out), "--only", "ss")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {model}: not a model file"), proc.stderr
    run_cli("build", cfg, "-o", str(out), "--only", "ss")
    side = out / "models" / "ss.registry.json"
    for damaged, message in (('{"meta": {"kind"', "ss.registry.json: not a model sidecar"),
                             ('{"meta": {"kind": "ss"}}',
                              "ss.registry.json: not a model sidecar: meta: missing key 'invest'"),
                             ('{"meta": {"kind": "rp", "invest": false}}',
                              "ss.registry.json: not a model sidecar: meta: "
                              "kind must be 'ss', got 'rp'"),
                             ('{"meta": {"kind": "ss", "invest": false}}',     # no layout
                              "ss.registry.json: not a model sidecar: meta: no block "
                              "layout of the columns within the model's")):
        side.write_text(damaged)
        proc = run_cli("solve", cfg, "-o", str(out), "--only", "ss")
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def evaluated_ss(tmp_path_factory):
    """A 2-day template under ``scen`` and its ``ss`` run, through
    ``evaluate``, under ``out``: one of every JSON file a run reads."""
    root = tmp_path_factory.mktemp("evaluated")
    cfg, out = str(root / "scen" / "scenario.json"), str(root / "out")
    for argv in (["template", "-o", str(root / "scen"), "--days", "2"],
                 ["cluster", cfg, "-o", out],
                 ["build", cfg, "-o", out, "--only", "ss"],
                 ["solve", cfg, "-o", out, "--only", "ss", "--gap", "1e-3"],
                 ["evaluate", cfg, "-o", out, "--only", "ss", "--no-prices"]):
        assert cli_main(argv) == 0, argv
    return root


# each JSON file a run reads, with the command that reads it
_JSON_READERS = [("scen/scenario.json", "ingest"), ("scen/system.json", "ingest"),
                 ("out/agg/artifacts.json", "build"),
                 ("out/models/ss.registry.json", "solve"),
                 ("out/models/ss.registry.json", "evaluate"),
                 ("out/solutions/ss.json", "evaluate"), ("out/report/summary.json", "report")]
# damage -> (the file's new bytes, what the message says of them); "meta"
# damages the sidecar only
_JSON_DAMAGE = {"not-utf8": (b'{"a": "\xff"}', "not valid JSON"),
                "not-json": (b'{"a": ', "not valid JSON"),
                "list": (b"[]", "the top level must be a JSON object, got list"),
                "number": (b"5", "the top level must be a JSON object, got int"),
                "null": (b"null", "the top level must be a JSON object, got NoneType"),
                "meta": (b'{"meta": 5, "model": "ss"}', "meta: must be an object, got 5")}


@pytest.mark.parametrize("name, command, damage", [
    (name, command, damage) for name, command in _JSON_READERS for damage in _JSON_DAMAGE
    if damage != "meta" or name.endswith(".registry.json")])
def test_cli_refuses_damaged_json(evaluated_ss, tmp_path, capsys, name, command, damage):
    """Every JSON file a run reads is refused the same way when it is not
    UTF-8, not JSON, or holds no object at the top level, and a sidecar
    when its ``meta`` is no object: exit 2 and ``<path>: not a <what>:
    <reason>``.  The command runs in-process, so an exception escaping it
    (what a traceback would show) fails the test."""
    shutil.copytree(evaluated_ss, tmp_path, dirs_exist_ok=True)
    text, reason = _JSON_DAMAGE[damage]
    (tmp_path / name).write_bytes(text)
    cfg, out = str(tmp_path / "scen" / "scenario.json"), str(tmp_path / "out")
    argv = {"ingest": ["ingest", cfg], "report": ["report", out],
            "build": ["build", cfg, "-o", out, "--only", "ss"],
            "solve": ["solve", cfg, "-o", out, "--only", "ss"],
            "evaluate": ["evaluate", cfg, "-o", out, "--only", "ss", "--no-prices"]}[command]
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: not a ") and reason in err, err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def evaluated_ss_tmci(tmp_path_factory):
    """A 2-day template whose checkpoints are 24 h apart (so an ``rp_tmci``
    sidecar holds ``[24, 48]``) and its ``ss`` and ``rp_tmci`` run, through
    ``evaluate``."""
    root = tmp_path_factory.mktemp("evaluated_tmci")
    cfg, out = str(root / "scen" / "scenario.json"), str(root / "out")
    assert cli_main(["template", "-o", str(root / "scen"), "--days", "2"]) == 0
    doc = json.loads(Path(cfg).read_text())
    Path(cfg).write_text(json.dumps(dict(doc, window_hours=24)))
    only = ["--only", "ss", "--only", "rp_tmci"]
    for argv in (["cluster", cfg, "-o", out], ["build", cfg, "-o", out, *only],
                 ["solve", cfg, "-o", out, *only, "--gap", "1e-3"],
                 ["evaluate", cfg, "-o", out, *only, "--no-prices"]):
        assert cli_main(argv) == 0, argv
    assert json.loads((root / "out/models/rp_tmci.registry.json").read_text())[
        "meta"]["checkpoints"] == [24, 48]
    return root


def _set(section, key, value):
    """A change to a JSON document: ``doc[section][key] = value``, or
    ``doc[key] = value`` with no section."""
    def change(doc):
        (doc[section] if section else doc)[key] = value
        return doc
    return change


def _put(*path):
    """A change to a JSON document: the item that the keys and list indices
    ``path[:-1]`` lead to, in turn, set to ``path[-1]``."""
    *steps, last, value = path

    def change(doc):
        node = doc
        for step in steps:
            node = node[step]
        node[last] = value
        return doc
    return change


def _drop_q_max(doc):
    """A system file whose first thermal unit lacks ``q_max``."""
    del doc["thermal"][0]["q_max"]
    return doc


def _disconnect(doc):
    """A system file whose slack bus no circuit reaches."""
    line = {"id": "c1", "from_bus": "a", "to_bus": "b", "capacity": 1.0, "reactance": 0.1}
    return dict(doc, buses=doc["buses"] + ["a", "b"], circuits=[line])


# file, command, change to its JSON (or the whole new document), message
_WRONG_VALUES = {
    "sidecar-invest": ("out/models/ss.registry.json", "evaluate", _set("meta", "invest", "yes"),
                       "invest must be true or false, got 'yes'"),
    "sidecar-checkpoints": ("out/models/rp_tmci.registry.json", "evaluate",
                            _set("meta", "checkpoints", 5),
                            "checkpoints must be a list of integers or null, got 5"),
    "checkpoints-short": ("out/models/rp_tmci.registry.json", "evaluate",
                          _set("meta", "checkpoints", [24]),
                          "not a model sidecar: meta: checkpoints must rise strictly to 48, "
                          "got [24]"),
    "checkpoints-unsorted": ("out/models/rp_tmci.registry.json", "evaluate",
                             _set("meta", "checkpoints", [48, 24]),
                             "not a model sidecar: meta: checkpoints must rise strictly "
                             "to 48, got [48, 24]"),
    "artifacts-seed": ("out/agg/artifacts.json", "build", _set(None, "seed", "x"),
                       "seed must be an integer, got 'x'"),
    "artifacts-window": ("out/agg/artifacts.json", "build", _set(None, "window_hours", True),
                         "window_hours must be an integer, got True"),
    "artifacts-states": ("out/agg/artifacts.json", "build", _set("states", "num_states", "2"),
                         "num_states must be an integer, got '2'"),
    "summary-block": ("out/report/summary.json", "report", {"ss": 5},
                      "not a report summary: "),
    "summary-empty-block": ("out/report/summary.json", "report", {"ss": {}},
                            "not a report summary: "),
    "summary-comparisons": ("out/report/summary.json", "report", {"comparisons": 5},
                            "not a report summary: "),
    "artifacts-assignment-float": ("out/agg/artifacts.json", "build",
                                   _put("states", "assignment", 0, 2.7),
                                   "states: assignment must be a list of integers, got [2.7, "),
    "artifacts-assignment-bool": ("out/agg/artifacts.json", "build",
                                  _put("states", "assignment", 0, True),
                                  "states: assignment must be a list of integers, got [True, "),
    "artifacts-demand-string": ("out/agg/artifacts.json", "build",
                                _put("states", "demand", 0, 0, "1.5"),
                                "states: demand must be a list of equal-length rows of finite "
                                "numbers >= 0, got [['1.5'], "),
    "artifacts-demand-nan": ("out/agg/artifacts.json", "build",
                             _put("states", "demand", 0, 0, float("nan")),
                             "states: demand must be a list of equal-length rows of finite "
                             "numbers >= 0, got [[nan], "),
    "artifacts-unknown-key": ("out/agg/artifacts.json", "build", _set(None, "extra", 1),
                              "not a clustering artifacts file: unknown key 'extra'"),
    "system-unknown-key": ("scen/system.json", "ingest", _set(None, "extra", 1),
                           "system.json: network: unknown key 'extra'"),
    "system-unit-lacks-q_max": ("scen/system.json", "ingest", _drop_q_max,
                                "system.json: thermal unit 'nuclear': missing key 'q_max'"),
    "system-disconnected": ("scen/system.json", "ingest", _disconnect,
                            "system.json: network is disconnected"),
    "system-commitment-bool": ("scen/system.json", "ingest",
                               _put("config", "initial_commitment", "nuclear", True),
                               "config: initial_commitment must be an object of integers, "
                               "got {'nuclear': True}"),
    "header-objective-null": ("out/solutions/ss.json", "evaluate", _set(None, "objective", None),
                              "objective must be a number for status "),
    "header-status": ("out/solutions/ss.json", "evaluate", _set(None, "status", "bogus"),
                      "status must be one of ['optimal', 'gap_limit', 'time_limit', "
                      "'infeasible', 'unbounded', 'error'], got 'bogus'"),
    "header-gap": ("out/solutions/ss.json", "evaluate", _set(None, "gap", -1),
                   "gap must be a number >= 0, got -1"),
    "header-wall-seconds": ("out/solutions/ss.json", "evaluate", _set(None, "wall_seconds", -5),
                            "wall_seconds must be a number >= 0, got -5"),
}


@pytest.mark.parametrize("case", list(_WRONG_VALUES))
def test_cli_refuses_wrongly_typed_values(evaluated_ss_tmci, tmp_path, capsys, case):
    """A sidecar, clustering, system, solution header or summary value of
    the wrong type, a key missing or unknown, a report block or comparison
    that is no object, ``rp_tmci`` checkpoints that do not rise strictly to
    the horizon's end and a header that breaks the solution rules are input
    errors: exit 2 and the file named.  Let through, a sidecar's
    ``"invest": "yes"`` ended in exit 3, a ``window_hours`` of true gave
    1-hour checkpoints, checkpoints cut short left the later hours' levels
    unset (exit 0), the summary shapes crashed ``storagg report``, float
    assignments were truncated, a NaN composite hour was reported as an
    infeasible model, an initial commitment of true counted as 1 and an ok
    header without an objective crashed ``evaluate``; a network that does
    not connect was refused without naming its file.  The command runs
    in-process, so an exception escaping it fails the test."""
    name, command, change, message = _WRONG_VALUES[case]
    shutil.copytree(evaluated_ss_tmci, tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    doc = change(json.loads(path.read_text())) if callable(change) else change
    path.write_text(json.dumps(doc))
    cfg, out = str(tmp_path / "scen" / "scenario.json"), str(tmp_path / "out")
    kind = "rp_tmci" if "rp_tmci" in name else "ss"
    argv = {"report": ["report", out], "ingest": ["ingest", cfg],
            "build": ["build", cfg, "-o", out, "--only", kind],
            "evaluate": ["evaluate", cfg, "-o", out, "--only", kind, "--no-prices"]}[command]
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err, err


def test_report_prints_a_summary_without_metrics(evaluated_ss_tmci, tmp_path, capsys):
    """A comparison that holds no metric is a summary ``storagg report``
    prints; it was a ``max()`` of nothing."""
    shutil.copytree(evaluated_ss_tmci, tmp_path, dirs_exist_ok=True)
    path = tmp_path / "out" / "report" / "summary.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(doc, comparisons={"ss": {"absolute_metrics": []}})))
    assert cli_main(["report", str(tmp_path / "out")]) == 0
    assert "rp_tmci: objective" in capsys.readouterr().out


def test_template_flags_default_to_the_function(tmp_path, capsys):
    """``storagg template`` has no defaults of its own: a flag left out
    takes ``emit_scenario_template``'s, and a vision it does not bundle is
    that function's ConfigError, before any file is written."""
    args = build_parser().parse_args(["template", "-o", str(tmp_path)])
    assert (args.vision, args.days, args.seed) == (None, None, None)
    assert cli_main(["template", "-o", str(tmp_path / "x"), "--vision", "5"]) == 2
    assert "vision must be one of [1, 2, 3, 4]" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def lazy_modules_after(code: str) -> list[str]:
    """The ``scipy``, ``gzip``, ``subprocess`` and ``concurrent`` modules a
    fresh interpreter holds after running ``code``."""
    probe = (f"import json, sys\n{code}\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] in "
             "('scipy', 'gzip', 'subprocess', 'concurrent'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_stages_that_never_solve_leave_scipy_unloaded(tmp_path):
    """scipy, subprocess and the thread pool are solve-time dependencies and
    gzip a report-time one: the package, the CLI and every stage that
    neither solves nor writes the hourly report, each in a fresh
    interpreter, load none of them, and the solve and evaluate stages still
    find what they need.  A solve, and an evaluation that prices, load the
    HiGHS bindings but not the ``scipy.optimize`` package."""
    def cli(*argv):
        return lazy_modules_after("from storagg.cli import main\n"
                                  f"if main({list(argv)!r}):\n    sys.exit('stage failed')")

    scen, out = tmp_path / "scen", str(tmp_path / "out")
    cfg = str(scen / "scenario.json")
    assert lazy_modules_after("import storagg") == []
    assert lazy_modules_after("import storagg.cli") == []
    for argv in (("template", "-o", str(scen), "--days", "2"),
                 ("ingest", cfg),
                 ("cluster", cfg, "-o", out),
                 ("build", cfg, "-o", out, "--only", "ss")):
        assert cli(*argv) == [], argv
    solve = cli("solve", cfg, "-o", out, "--only", "ss")
    assert "scipy.optimize._highspy._core" in solve and "concurrent.futures" in solve
    assert "scipy.optimize" not in solve and "gzip" not in solve
    assert load_solutions(Path(out), {"ss": load_built_model(Path(out), "ss").model})["ss"].ok
    priced = cli("evaluate", cfg, "-o", out, "--only", "ss")
    assert "scipy.optimize._highspy._core" in priced and "scipy.optimize" not in priced
    assert "gzip" in cli("evaluate", cfg, "-o", out, "--only", "ss", "--no-prices")
    assert (Path(out) / "report" / "hourly_ss.csv.gz").exists()
    assert cli("report", out) == []


def test_empty_selection_is_refused(template_dir, tmp_path, capsys):
    """``--only`` naming no kind the scenario lists selects nothing, and
    one naming a kind it does not list would drop that kind unreported:
    both are configuration errors (exit 2) naming both lists, before any
    file is written, not a run reported as a success."""
    doc = json.loads((template_dir / "scenario.json").read_text())
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(dict(doc, kinds=["ss"], base_dir=str(template_dir))))
    out = tmp_path / "out"
    for command in ("run", "solve"):
        assert cli_main([command, str(cfg), "-o", str(out), "--only", "hm"]) == 2
        assert "requested ['hm'], configured ['ss']" in capsys.readouterr().err
        assert cli_main([command, str(cfg), "-o", str(out), "--only", "hm", "--only", "ss"]) == 2
        assert ("kinds ['hm'] not configured: requested ['hm', 'ss'], configured ['ss']"
                in capsys.readouterr().err)
    assert not out.exists()


# A fresh interpreter sets up as the benchmark does, records which of the
# modules that load on first use it holds, then runs every stage from there,
# evaluating from the files on disk as ``storagg evaluate`` does.
_SET_UP_THEN_RUN = """
import json, sys
from pathlib import Path
import storagg
out = Path(sys.argv[1])
pipeline = storagg.pipeline
config = pipeline.load_scenario(pipeline.emit_scenario_template(
    out / "scen", vision=1, days=2, seed=3))
system, data = pipeline.stage_ingest(config)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m in (
    "storagg.aggregation", "storagg.milp", "storagg.formulations.common",
    "storagg.evaluation"))
config.states, config.rep_days, config.gap = 8, 2, 1e-3
run = out / "run"
artifacts = pipeline.stage_cluster(system, data, config, run)
pipeline.stage_build(system, data, artifacts, config, run)
pipeline.stage_solve(config, run)
outputs = {k: pipeline.load_built_model(run, k) for k in config.kinds}
solutions = pipeline.load_solutions(run, {k: fo.model for k, fo in outputs.items()})
cases, reports = pipeline.stage_evaluate(system, data, artifacts, config, outputs,
                                         solutions, with_prices=False)
pipeline.stage_report(system, cases, reports, run)
print(json.dumps(loaded))
"""


def _summary_without_times(path: Path) -> dict:
    summary = json.loads(path.read_text())
    for block in summary.values():
        block.pop("wall_seconds", None)
    for block in summary["comparisons"].values():
        block.pop("time_ratio")
    return summary


def test_set_up_loads_only_what_template_and_ingest_run(run_result, tmp_path):
    """After ``import storagg``, the template and ingest, a fresh interpreter
    holds no clustering, model, solver or evaluation module and no scipy;
    the stages then load what they need on first use, and the run reports
    what an in-process run reports."""
    proc = subprocess.run([sys.executable, "-c", _SET_UP_THEN_RUN, str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    _, outdir, _ = run_result
    assert _summary_without_times(tmp_path / "run" / "report" / "summary.json") == \
        _summary_without_times(outdir / "report" / "summary.json")


def test_lazy_names_are_the_submodules_objects():
    """Each name the package exports (PEP 562) is its submodule's object,
    ``dir()`` and ``import *`` cover them, and an unknown name is an
    AttributeError naming it; ``pipeline`` serves the names it takes from
    modules loaded on first use the same way, and ``formulations`` imports
    its builders."""
    for name, module in storagg._EXPORTS.items():
        assert getattr(storagg, name) is getattr(importlib.import_module(f"storagg.{module}"),
                                                 name), name
    assert set(storagg.__all__) == set(storagg._EXPORTS)
    assert set(storagg.__all__) <= set(dir(storagg))
    assert {"milp", "evaluation", "aggregation", "formulations"} <= set(dir(storagg))
    star: dict = {}
    exec("from storagg import *", star)
    assert set(star) - {"__builtins__"} == set(storagg.__all__)
    formulations = storagg.formulations
    assert set(formulations.__all__) <= set(dir(formulations))
    assert formulations.build_rp_tmci is formulations.repdays.build_rp_tmci
    for name, module in storagg.pipeline._DEFERRED.items():
        assert getattr(storagg.pipeline, name) is getattr(getattr(storagg, module), name)
    for owner in (storagg, storagg.pipeline, formulations):
        with pytest.raises(AttributeError, match=f"{owner.__name__}' has no attribute "
                                                 "'no_such_name'"):
            owner.no_such_name


def test_bench_tracer_installs_and_unwinds(tmp_path, monkeypatch):
    """bench/tracing.py wraps storagg functions by attribute name: every name
    must exist, a wrapped call must record its span, and ``unwrap_all`` must
    restore the originals."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    owners = (storagg.pipeline, storagg.evaluation, storagg.milp.MilpModel,
              storagg.milp.ScipySolver)
    storagg.pipeline.aggregate    # binds the stage-side names, as any stage's first run does
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer("test")
    tracing.install(tracer, storagg)
    try:
        assert storagg.pipeline.write_registry is not before[0]["write_registry"]
        side = tmp_path / "m.registry.json"
        storagg.pipeline.write_registry(storagg.MilpModel("m"), side, meta={"kind": "m"})
        assert storagg.pipeline.load_registry(side) == {"kind": "m"}
    finally:
        tracer.unwrap_all()
    assert [s.name for s in tracer.spans] == ["milp.write_registry", "milp.load_registry"]
    assert [dict(vars(owner)) for owner in owners] == before


def test_bench_checks_pass_on_a_round_trip_and_a_solve(tmp_path, monkeypatch):
    """bench/checks.py reads the models' arrays and names directly: on a
    7-day template its round-trip check of ``hm``, built and re-read, and its
    check of a solved ``ss`` find no problem, so a dtype or type change that
    the benchmark would count as a failed kind fails here first.  The
    round-trip check still tells two different models apart."""
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, checks)
    spec.loader.exec_module(checks)
    config = load_scenario(emit_scenario_template(tmp_path / "scen", days=7, seed=4))
    config.gap = 1e-3
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, tmp_path)
    built = stage_build(system, data, art, config, tmp_path, only=["hm", "ss"])
    reread = load_built_model(tmp_path, "hm")
    assert checks.check_round_trip(built["hm"], reread, reread.model.to_arrays()) == []
    assert checks.check_round_trip(built["ss"], reread, reread.model.to_arrays())
    sol = stage_solve(config, tmp_path, only=["ss"])["ss"]
    assert checks.check_solved(built["ss"], sol, config.gap,
                               tmp_path / "solutions" / "ss.json", None) == []


def test_bench_call_shapes_bind():
    """bench/run.py and bench/checks.py call these functions and read these
    fields directly; dropping one must fail here, not as a failed kind."""
    pipeline = storagg.pipeline
    a = object()
    calls = [
        (pipeline.emit_scenario_template, (a,), dict(vision=1, days=a, seed=a)),
        (pipeline.load_scenario, (a,), {}),
        (pipeline.stage_ingest, (a,), {}),
        (pipeline.stage_cluster, (a, a, a, a), {}),
        (pipeline.stage_build, (a, a, a, a, a), dict(only=[a])),
        (pipeline.stage_solve, (a, a), dict(only=[a], workers=1)),
        (pipeline.build_case_result, (a, a, a, a),
         dict(states=a, rp=a, matrices=a, with_prices=True, check_degeneracy=a)),
        (pipeline.load_built_model, (a, a), {}),
        (pipeline.compare, (a, a, a), {}),
        (pipeline.stage_report, (a, a, a, a), {}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
    config = ScenarioConfig(demand="d", renewables="r", inflows="i", system="s")
    assert (config.gap, config.check_degeneracy, set(config.kinds)) == \
        (0.0, False, {"hm", "ss", "ss_rfm", "rp", "rp_tmci"})

    m = storagg.MilpModel("m")
    x = m.add_vars(["x"], integer=True)
    m.add_rows(["c_0"], [0], x, [2.0], "<=", 1.0)
    fo = storagg.FormulationOutput(model=m, meta=storagg.ModelMeta("m", False))
    assert [(v.name, v.integer) for v in fo.model.variables] == [("x", True)]
    assert [(con.name, con.idx) for con in fo.model.constraints] == [("c_0", [0])]
    assert (m.num_vars, m.num_cons, len(m.to_arrays()), fo.registry) == (1, 1, 7, ("x",))
    sol = storagg.Solution("optimal", 1.0, 0.0, 0.0, "", {})
    assert (sol.status, sol.gap, sol.objective, sol.message, sol.values) == \
        ("optimal", 0.0, 1.0, "", {})
