"""Checks over the package sources and the demo scripts as a whole."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Parameters allowed to go unread, each with the reason it must stay.
UNREAD_ALLOWED = {
    # bench/run.py passes it, and test_bench_call_shapes_bind pins that call;
    # the startups are counted from the expansion, so nothing reads it
    ("evaluation.py", "build_case_result", "matrices"),
    # bench/run.py passes it positionally; the report needs no system data
    ("pipeline.py", "stage_report", "system"),
}


def unread_parameters(root: Path) -> set[tuple[str, str, str]]:
    """(file, function, parameter) for every parameter of a function or
    lambda under ``root`` that its body never reads (``self``/``cls``
    aside)."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found |= {(path.relative_to(root).as_posix(), name, p) for p in params
                      if p not in read and p not in ("self", "cls")}
    return found


def test_every_parameter_is_read():
    """No parameter is accepted and then ignored."""
    assert unread_parameters(SRC / "storagg") == UNREAD_ALLOWED


def test_unread_parameter_scan_sees_what_it_should(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b, *rest, c, **kw):\n"
        "    b = 1\n"
        "    def g(d=a):\n"
        "        return d\n"
        "    return g, kw\n"
        "class K:\n"
        "    def m(self, e):\n"
        "        return lambda f: e\n")
    assert unread_parameters(tmp_path) == {
        ("m.py", "f", "b"), ("m.py", "f", "rest"), ("m.py", "f", "c"),
        ("m.py", "<lambda>", "f")}


def sites(match, roots) -> set[tuple[str, str]]:
    """(file, enclosing function or ``<module>``) of every node for which
    ``match`` holds, in the Python files under ``roots``."""
    found = set()

    def visit(node, path, where):
        if match(node):
            found.add((path, where))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for root in roots:
        for path in sorted(root.rglob("*.py")):
            visit(ast.parse(path.read_text(), filename=str(path)),
                  path.relative_to(REPO).as_posix(), "<module>")
    return found


def call_sites(name: str, roots) -> set[tuple[str, str]]:
    """``sites`` of every call of ``name``, bare or as an attribute."""
    return sites(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)), roots)


def read_sites(name: str, roots) -> set[tuple[str, str]]:
    """``sites`` of every read of the bare ``name``."""
    return sites(lambda node: isinstance(node, ast.Name) and node.id == name
                 and isinstance(node.ctx, ast.Load), roots)


def test_one_builder_of_the_chronology_matrices():
    """The matrices are assembled in ``build_matrices`` only; code and tests
    that need them call it rather than copying it."""
    assert call_sites("TransitionMatrices", [SRC, REPO / "tests", REPO / "demos"]) == {
        ("src/storagg/aggregation.py", "build_matrices")}


@pytest.mark.parametrize("name", ["add_hourly_startups", "add_hourly_levels"])
def test_one_builder_of_the_hour_chain(name):
    """``hm``, ``rp`` and ``rp_tmci`` chain their hours through ``hour_chain``
    only; a builder that chains hours itself would be a second copy."""
    assert call_sites(name, [SRC, REPO / "tests", REPO / "demos"]) == {
        ("src/storagg/formulations/common.py", "hour_chain")}


@pytest.mark.parametrize("name", ["add_var", "add_con"])
def test_builders_add_in_bulk(name):
    """The builders tile each period's stencil through ``add_vars`` and
    ``add_rows``; none adds one column or row at a time."""
    assert call_sites(name, [SRC / "storagg" / "formulations"]) == set()


def test_one_composer_of_names():
    """Column and row names are composed by ``names`` only: where the
    builders tile a stencil and where evaluation reads a block of values
    back.  A name spelled anywhere else would be a second copy of the
    format."""
    assert call_sites("names", [SRC, REPO / "tests", REPO / "demos"]) == {
        ("src/storagg/formulations/common.py", "tile_columns"),
        ("src/storagg/formulations/common.py", "tile_rows"),
        ("src/storagg/evaluation.py", "_read")}


def test_call_site_scan_sees_builders():
    """The scan of the test above finds the bulk calls it stands beside."""
    assert ("src/storagg/formulations/common.py", "tile_rows") in \
        call_sites("add_rows", [SRC / "storagg" / "formulations"])


def test_one_home_per_rule():
    """Each of these rules is spelled in one place: HiGHS is reached only
    through the adapter's one session helper; ids are checked as identifiers in
    ``validate_system``'s one loop over buses, units and circuits; the
    solution header is read through the door the system file is read
    through; a repeated name is refused only by
    ``_keyed``, the one place names become keys."""
    roots = [SRC, REPO / "demos"]
    assert call_sites("_highs_call", roots) == {("src/storagg/milp.py", "_highs_solve")}
    assert read_sites("_ID_RE", roots) == {("src/storagg/system.py", "validate_system")}
    assert ("src/storagg/pipeline.py", "load_solutions") in call_sites("from_json", roots)

    def duplicate_error(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ModelError"
                and any(isinstance(part, ast.Constant) and "duplicate" in str(part.value)
                        for arg in node.args for part in ast.walk(arg)))

    assert sites(duplicate_error, roots) == {("src/storagg/milp.py", "_keyed")}


def imports_of(*modules: str):
    """A ``sites`` matcher of an import of any of ``modules`` or their
    submodules."""
    def match(node) -> bool:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            return False
        return any(name.split(".")[0] in modules for name in names)
    return match


def test_no_child_process_and_no_scratch_files():
    """The package starts no child process and keeps no temporary files: its
    one solver runs in-process, and what it writes goes under the run
    directory.  So no module imports ``subprocess`` or ``tempfile``."""
    assert sites(imports_of("subprocess", "tempfile"), [SRC]) == set()
    assert ("src/storagg/milp.py", "<module>") in sites(imports_of("zipfile"), [SRC])


def test_one_reader_and_writer_of_json_files():
    """Every JSON file goes through ``write_json`` and ``read_json``, so its
    sorted keys, its final newline and the refusal of a damaged file are
    spelled once: no other function calls the ``json`` module, no other
    module imports it, and the stages' six writers and six readers call
    the pair."""
    def json_call(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "json")

    assert sites(json_call, [SRC]) == {("src/storagg/system.py", "read_json"),
                                       ("src/storagg/system.py", "write_json")}
    assert sites(imports_of("json"), [SRC]) == {("src/storagg/system.py", "<module>")}
    assert call_sites("write_json", [SRC]) == {
        ("src/storagg/system.py", "save_system"),
        ("src/storagg/pipeline.py", "save_scenario"),
        ("src/storagg/aggregation.py", "save_artifacts"),
        ("src/storagg/milp.py", "write_registry"),
        ("src/storagg/pipeline.py", "save_solutions"),
        ("src/storagg/pipeline.py", "stage_report")}
    assert call_sites("read_json", [SRC]) == {
        ("src/storagg/system.py", "load_system"),
        ("src/storagg/pipeline.py", "load_scenario"),
        ("src/storagg/aggregation.py", "load_artifacts"),
        ("src/storagg/milp.py", "load_registry"),
        ("src/storagg/pipeline.py", "load_solutions"),
        ("src/storagg/cli.py", "cmd_report")}


def defines_or_reads(*names: str):
    """A ``sites`` matcher of a definition or a read of any of ``names``."""
    def match(node) -> bool:
        name = getattr(node, "id", None) or getattr(node, "name", None)
        return isinstance(node, (ast.Name, ast.FunctionDef, ast.ClassDef)) and name in names
    return match


def test_one_type_checker_of_json_values():
    """Every value read from a JSON file is type-checked by ``_check_types``
    against the annotations of the dataclass it fills: the scenario's own
    knob table and its helpers are gone, and the checker is called by the
    door from JSON to a record (``from_json``) and by
    ``ScenarioConfig.__post_init__``, for each other way a scenario is
    made."""
    gone = defines_or_reads("_KNOBS", "check_knobs", "_integer")
    assert sites(gone, [SRC, REPO / "tests", REPO / "demos"]) == set()
    assert call_sites("_check_types", [SRC]) == {
        ("src/storagg/system.py", "from_json"),
        ("src/storagg/pipeline.py", "__post_init__")}


def test_one_door_from_json_to_a_record():
    """The six readers fill their records through ``from_json`` alone, which
    fills the records nested in one (``_filled``) through itself, and the
    solution writer checks each header through it before writing: no other
    function builds a dataclass from ``**`` of a dict, and the artifacts'
    ``_Scalars`` are gone."""
    assert call_sites("from_json", [SRC]) == {
        ("src/storagg/system.py", "load_system"),
        ("src/storagg/system.py", "_filled"),
        ("src/storagg/pipeline.py", "load_scenario"),
        ("src/storagg/aggregation.py", "load_artifacts"),
        ("src/storagg/pipeline.py", "load_built_model"),
        ("src/storagg/pipeline.py", "load_solutions"),
        ("src/storagg/pipeline.py", "save_solutions"),
        ("src/storagg/cli.py", "cmd_report")}
    records = {node.name for path in SRC.rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and any(
                   "dataclass" in ast.unparse(d) for d in node.decorator_list)}

    def record_from_star(node) -> bool:
        callee = getattr(node, "func", None)
        return (isinstance(node, ast.Call) and any(k.arg is None for k in node.keywords)
                and (getattr(callee, "id", None) or getattr(callee, "attr", None))
                in records | {"cls"})

    assert sites(record_from_star, [SRC]) == {("src/storagg/system.py", "from_json")}
    assert sites(defines_or_reads("_Scalars"), [SRC, REPO / "tests"]) == set()


def test_records_carry_their_own_rules():
    """A value's range is a rule of the field it fills (its ``"range"``
    metadata), so the door from JSON takes no rule table, the scenario's and
    the solution header's tables are gone, and each run file has one record:
    a solution header is its ``Solution`` and a sidecar's ``meta`` its
    ``ModelMeta``, with no second description and no dict read by key."""
    from storagg.system import _check_types, from_json
    gone = defines_or_reads("_RANGES", "SOLUTION_RULES", "SolutionHeader", "SidecarMeta")
    assert sites(gone, [SRC, REPO / "tests"]) == set()
    for door in (from_json, _check_types):
        assert "ranges" not in inspect.signature(door).parameters, door.__name__

    def meta_by_key(node) -> bool:
        return isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "meta"

    assert sites(meta_by_key, [SRC]) == set()


def test_field_type_without_a_json_test_is_a_type_error():
    """A field whose type the checker has no test for stops the reader with
    a TypeError, present in the document or not: it is never skipped."""
    from dataclasses import dataclass
    from storagg.system import from_json

    @dataclass
    class Odd:          # string annotations, as ``from __future__ import annotations`` makes
        name: "str"
        value: "complex" = 0j

    with pytest.raises(TypeError, match=r"Odd\.value: no JSON test for 'complex'"):
        from_json(Odd, {"name": "x"}, "odd.json", ValueError)


def loads_on_first_use(node) -> bool:
    """A ``sites`` matcher of an import of scipy or of the clustering,
    model, builder, solver or evaluation code: ``aggregation``, ``milp``,
    ``formulations`` or ``evaluation``."""
    if imports_of("scipy")(node):
        return True
    if not (isinstance(node, ast.ImportFrom) and node.level):
        return False
    targets = [alias.name for alias in node.names] if node.module is None else [node.module]
    return any(t.split(".")[0] in ("aggregation", "milp", "formulations", "evaluation")
               for t in targets)


def test_set_up_modules_load_the_rest_on_first_use():
    """The modules template and ingest run import none of the clustering,
    model, solver or evaluation code, nor scipy, at module level; they load
    it where it is first used."""
    set_up = {f"src/storagg/{name}.py"
              for name in ("__init__", "pipeline", "timeseries", "system", "cli")}
    found = {site for site in sites(loads_on_first_use, [SRC]) if site[0] in set_up}
    assert {site for site in found if site[1] == "<module>"} == set()
    assert ("src/storagg/cli.py", "_artifacts") in found


def test_stages_bind_what_they_use_first():
    """A ``pipeline`` function that reads a name of a module loaded on first
    use may be the first such function a process runs, so it binds those
    names (``_bind_deferred``) before anything else."""
    from storagg.pipeline import _DEFERRED
    path = SRC / "storagg" / "pipeline.py"
    binding = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        reads = {n.id for stmt in node.body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if reads & _DEFERRED.keys():
            body = node.body[1:] if ast.get_docstring(node) else node.body
            assert ast.unparse(body[0]) == "_bind_deferred()", node.name
            binding.append(node.name)
    assert {"stage_cluster", "stage_solve", "load_solutions"} <= set(binding)


def test_one_solver():
    """HiGHS, run in-process, is the one solver: the file-based adapter and
    its names are gone, and no function takes a ``solver`` to pick another.
    Pricing solves the model itself, so the relaxed copy of it is gone too,
    and ``milp.py`` imports no ``copy``."""
    import storagg
    gone = ("ExternalSolver", "get_solver", "SolverError", "SOLVER_ENV_VAR", "fix_and_relax")
    assert [name for name in gone if hasattr(storagg, name) or hasattr(storagg.milp, name)] == []
    assert [where for path, where in sites(imports_of("copy"), [SRC])
            if path == "src/storagg/milp.py"] == []

    def takes_solver(node) -> bool:
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            arg.arg == "solver" for arg in node.args.args + node.args.kwonlyargs)

    assert sites(takes_solver, [SRC]) == set()


@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
