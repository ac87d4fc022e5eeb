"""Checks over the package sources and the demo scripts as a whole."""

import ast
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
    through the adapter's timed call; ids are checked as identifiers in
    ``validate_system``'s one loop over buses, units and circuits; the
    solution header's types come from the ``Solution`` annotations through
    the checker the system file uses; a repeated name is refused only by
    ``_keyed``, the one place names become keys."""
    roots = [SRC, REPO / "demos"]
    assert call_sites("_highs_call", roots) == {("src/storagg/milp.py", "_timed_highs_call")}
    assert read_sites("_ID_RE", roots) == {("src/storagg/system.py", "validate_system")}
    assert ("src/storagg/pipeline.py", "load_solutions") in call_sites("_check_types", roots)

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


def loads_on_first_use(node) -> bool:
    """A ``sites`` matcher of an import of scipy or of the clustering,
    model, solver or evaluation code: ``aggregation``, ``milp``,
    ``evaluation``, or of ``formulations`` more than ``BUILDER_KINDS``."""
    if imports_of("scipy")(node):
        return True
    if not (isinstance(node, ast.ImportFrom) and node.level):
        return False
    names = [alias.name for alias in node.names]
    if node.module == "formulations":
        return names != ["BUILDER_KINDS"]
    targets = names if node.module is None else [node.module]
    return any(t.split(".")[0] in ("aggregation", "milp", "evaluation")
               or t.startswith("formulations.") for t in targets)


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
    its names are gone, and no function takes a ``solver`` to pick another."""
    import storagg
    gone = ("ExternalSolver", "get_solver", "SolverError", "SOLVER_ENV_VAR")
    assert [name for name in gone if hasattr(storagg, name) or hasattr(storagg.milp, name)] == []

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
