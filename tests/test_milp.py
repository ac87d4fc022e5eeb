import gc
import re
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from storagg import (MilpModel, ModelError, Variable, ScipySolver, solve,
                     write_mps, parse_mps, write_registry,
                     save_model, load_model, load_registry,
                     audit_constraints, constraint_families, build_hm)
import storagg.milp as milp_module
from storagg.milp import INF, LE, GE, EQ, _PLAIN, _delta_planes, _pack_names
from storagg.pipeline import (emit_scenario_template, load_scenario, stage_ingest,
                              stage_cluster, stage_build, load_built_model)


def model_state(m):
    """Every buffer of ``m`` as bytes, with its names."""
    buffers = ("_lb", "_ub", "_obj", "_int", "_indptr", "_cols", "_coefs", "_sense", "_rhs")
    return ([bytes(memoryview(getattr(m, attr)).cast("B")) for attr in buffers],
            m.var_names, [c.name for c in m.constraints])


def assert_same_arrays(a, b):
    """Two ``to_arrays`` results hold the same numbers."""
    for x, y in zip(a, b, strict=True):
        if hasattr(x, "toarray"):
            assert x.shape == y.shape and (x != y).nnz == 0
        else:
            assert x.shape == y.shape and np.array_equal(x, y)


def toy_model():
    m = MilpModel("toy")
    x, y, z, w = m.add_vars(["x", "y", "z", "w"], lb=[0.0, -INF, 0.0, 2.0],
                            ub=[10.0, INF, 1.0, 2.0], obj=[5.0, 3.0, 7.0, 0.0],
                            integer=[False, False, True, False])
    m.add_rows(["c1", "c2", "c3"], [0, 0, 0, 1, 1, 2, 2], [x, y, z, x, y, z, w],
               [1.0, 2.0, 1.0, 1.0, -1.0, 1.0, 0.5], [GE, EQ, LE], [4.0, 1.0, 3.0])
    return m


GOLDEN_MPS = """NAME toy
ROWS
 N  OBJ
 G  c1
 E  c2
 L  c3
COLUMNS
    x  OBJ  5.0   c1  1.0
    x  c2  1.0
    y  OBJ  3.0   c1  2.0
    y  c2  -1.0
    MARKER                 'MARKER'                 'INTORG'
    z  OBJ  7.0   c1  1.0
    z  c3  1.0
    MARKER                 'MARKER'                 'INTEND'
    w  OBJ  0.0   c3  0.5
RHS
    RHS  c1  4.0
    RHS  c2  1.0
    RHS  c3  3.0
BOUNDS
 UP BND  x  10.0
 MI BND  y
 PL BND  y
 BV BND  z
 FX BND  w  2.0
ENDATA
"""


# ---------------------------------------------------------------------------
# model container
# ---------------------------------------------------------------------------

def test_duplicate_variable_rejected(tmp_path):
    """A model takes a repeated variable name in, and a solve reads it by
    position; where names become keys it is refused, naming it: a lookup in
    the values view of a MILP or LP solve, an MPS file."""
    m = toy_model()
    m.add_vars(["x"], ub=1.0)
    for call in (lambda: ScipySolver().solve(m).values["x"],
                 lambda: ScipySolver().solve_lp(m).values["y"],
                 lambda: write_mps(m, tmp_path / "m.mps")):
        with pytest.raises(ModelError, match="duplicate variable 'x'"):
            call()
    assert not (tmp_path / "m.mps").exists()


def test_duplicate_constraint_rejected(tmp_path):
    """A model takes a repeated row name in; where row names become keys it
    is refused, naming it: a lookup in the duals view of an LP solve, an
    MPS file."""
    m = toy_model()
    m.add_rows(["c1"], [0], [0], [1.0], LE, 9.0)
    for call in (lambda: ScipySolver().solve_lp(m).duals["c2"],
                 lambda: write_mps(m, tmp_path / "m.mps")):
        with pytest.raises(ModelError, match="duplicate constraint 'c1'"):
            call()
    assert not (tmp_path / "m.mps").exists()


def test_non_finite_numbers_refused():
    """A NaN coefficient, objective entry, rhs or bound, or an infinite
    coefficient, objective entry or rhs, is refused where it enters, naming
    the entry, and the model stays as it was.  With ``nan*x + y <= 2``, x in
    {0, 1} and objective -x + y, HiGHS took the model and ended optimal at
    x = 1, y = 0, where the row's left side is NaN."""
    nan = float("nan")
    m = MilpModel()
    m.add_vars(["x", "y"], ub=[1.0, INF], obj=[-1.0, 1.0], integer=[True, False])
    before = model_state(m)
    for call, message in (
            (lambda: m.add_rows(["c"], [0, 0], [0, 1], [nan, 1.0], LE, 2.0),
             "constraint 'c': coefficient nan of variable 'x'"),
            (lambda: m.add_rows(["c"], [0, 0], [1, 0], [1.0, -INF], LE, 2.0),
             "constraint 'c': coefficient -inf of variable 'x'"),
            (lambda: m.add_rows(["c"], [0, 0], [1, 1], [1e308, 1e308], LE, 2.0),
             "constraint 'c': coefficient inf of variable 'y'"),
            (lambda: m.add_rows(["c", "d"], [0], [0], [1.0], LE, [2.0, nan]),
             "constraint 'd': rhs nan"),
            (lambda: m.add_rows(["c"], [0], [0], [1.0], GE, -INF),
             "constraint 'c': rhs -inf"),
            (lambda: m.add_vars(["z"], obj=nan), "variable 'z': objective coefficient nan"),
            (lambda: m.add_vars(["z"], obj=INF), "variable 'z': objective coefficient inf"),
            (lambda: m.add_vars(["z", "w"], ub=[1.0, nan]),
             "variable 'w': lb 0.0 is not <= ub nan"),
            (lambda: m.add_vars(["z"], lb=nan), "variable 'z': lb nan is not <= ub inf")):
        with pytest.raises(ModelError, match=re.escape(message)):
            call()
        assert model_state(m) == before
    m.add_rows(["c"], [0, 0], [-1, 1], [nan, 1.0], LE, 2.0)     # a dropped entry is not read
    m.add_vars(["free"], lb=-INF, ub=INF)
    assert m.constraints[0].idx == [1] and m.variables[2] == Variable("free", -INF, INF)


def test_terms_merge_and_drop_zeros():
    m = MilpModel()
    x, y = m.add_vars(["x", "y"])
    m.add_rows(["c"], [0, 0, 0], [x, x, y], [1.0, 2.0, 0.0], LE, 5.0)
    con = m.constraints[0]
    assert len(con.idx) == 1           # y's zero coefficient dropped
    assert con.coef[0] == pytest.approx(3.0)


def test_built_model_memory_per_element(tmp_path):
    """The 28-day template hm holds under 95 bytes per variable, row and
    nonzero; a registry of index dicts per variable took it to about 122,
    and one object per variable and per row to about 200."""
    config = load_scenario(emit_scenario_template(tmp_path, days=28, seed=4))
    system, data = stage_ingest(config)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fo = build_hm(system, data)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    m = fo.model
    elements = m.num_vars + m.num_cons + m.to_arrays()[4].nnz
    assert live / elements < 95


# ---------------------------------------------------------------------------
# MPS interchange
# ---------------------------------------------------------------------------

def test_mps_golden_bytes(tmp_path):
    path = tmp_path / "toy.mps"
    write_mps(toy_model(), path)
    assert path.read_text() == GOLDEN_MPS


def test_mps_round_trip_exact(tmp_path):
    m = toy_model()
    path = tmp_path / "toy.mps"
    write_mps(m, path)
    back = parse_mps(path)
    assert_same_arrays(m.to_arrays(), back.to_arrays())
    # and the re-emission is byte-identical
    path2 = tmp_path / "again.mps"
    write_mps(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_mps_parser_tolerates_layout(tmp_path):
    # extra blank lines, comments, collapsed whitespace
    text = GOLDEN_MPS.replace("    x  OBJ  5.0   c1  1.0",
                              "  x OBJ 5.0 c1 1.0\n* a comment\n")
    path = tmp_path / "loose.mps"
    path.write_text(text)
    back = parse_mps(path)
    assert back.variables[back.var_names.index("x")].obj == 5.0
    assert back.num_cons == 3


def test_mps_rhs_vector_named_rhs_is_not_a_header(tmp_path):
    # regression: indented data lines starting with the token RHS must not
    # reset the section state
    path = tmp_path / "t.mps"
    write_mps(toy_model(), path)
    back = parse_mps(path)
    assert [c.rhs for c in back.constraints] == [4.0, 1.0, 3.0]


def test_mps_repeated_row_name_rejected(tmp_path):
    path = tmp_path / "r.mps"
    path.write_text(GOLDEN_MPS.replace(" L  c3\n", " L  c1\n"))
    with pytest.raises(ModelError, match="duplicate constraint 'c1' in ROWS") as info:
        parse_mps(path)
    assert str(path) in str(info.value)


def test_mps_ranges_rejected(tmp_path):
    path = tmp_path / "r.mps"
    path.write_text("NAME r\nROWS\n N  OBJ\nRANGES\nENDATA\n")
    with pytest.raises(ModelError, match="RANGES"):
        parse_mps(path)


@pytest.mark.parametrize("text", [
    "ROWS\n N  OBJ\nCOLUMNS\n    x  c9  1.0\n",
    "NAME bad\nROWS\n N  OBJ\n Q  c1\n",
    "ROWS\n N  OBJ\nBOUNDS\n UP BND\n",
    "ROWS\n N  OBJ\nCOLUMNS\n    x  OBJ  abc\n",
], ids=["undeclared-row", "unknown-tag", "short-bounds", "non-numeric"])
def test_mps_malformed_line_names_file_and_line(tmp_path, text):
    """A line the reader cannot take apart (here always the last one) is a
    ModelError naming the file, the line number and the line, not a bare
    KeyError, IndexError or ValueError from inside the reader."""
    path = tmp_path / "bad.mps"
    path.write_text(text)
    lines = text.splitlines()
    with pytest.raises(ModelError) as info:
        parse_mps(path)
    assert type(info.value) is ModelError
    assert f"{path}, line {len(lines)}: cannot read {lines[-1].strip()!r}" in str(info.value)


def test_mps_reader_errors_keep_their_message(tmp_path):
    """The reader's own refusals are not rewrapped as unreadable lines."""
    path = tmp_path / "bad.mps"
    for text, message in (("ROWS\n L  c1\n L  c1\n", "duplicate constraint 'c1' in ROWS"),
                          ("ROWS\n N  OBJ\nBOUNDS\n XX BND  x\n", "unsupported bound type 'XX'")):
        path.write_text(text)
        with pytest.raises(ModelError) as info:
            parse_mps(path)
        assert str(info.value) == f"{path}: {message}"


def test_mps_large_model_writes_in_one_pass(tmp_path):
    n = 100_000
    m = MilpModel("big")
    m.add_vars([f"v{i}" for i in range(n)], ub=1.0, obj=np.arange(n) % 7.0)
    first = np.arange(0, n - 1, 2)
    m.add_rows([f"c{i}" for i in first.tolist()], np.repeat(np.arange(len(first)), 2),
               np.column_stack((first, first + 1)).ravel(), np.tile([1.0, -1.0], len(first)),
               LE, 1.0)
    path = tmp_path / "big.mps"
    start = time.perf_counter()
    write_mps(m, path)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert parse_mps(path).num_vars == n
    # the record views of a re-read model read each name in constant time
    start = time.perf_counter()
    save_model(m, tmp_path / "big.npz")
    back = load_model(tmp_path / "big.npz")
    var_names = [v.name for v in back.variables]
    con_names = [c.name for c in back.constraints]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert var_names == [f"v{i}" for i in range(n)]
    assert con_names == [f"c{i}" for i in range(0, n - 1, 2)]


def test_registry_sidecar_round_trip(tmp_path):
    meta = {"kind": "toy", "invest": False, "checkpoints": [24, 48]}
    path = tmp_path / "toy.registry.json"
    write_registry(toy_model(), path, meta=meta)
    assert load_registry(path) == meta


# ---------------------------------------------------------------------------
# array model files
# ---------------------------------------------------------------------------

def test_model_file_round_trip_builds_no_name_index(tmp_path):
    path = tmp_path / "toy.npz"
    save_model(toy_model(), path)
    back = load_model(path)
    assert (back.name, back.var_names, [c.name for c in back.constraints]) == \
        ("toy", ("x", "y", "z", "w"), ["c1", "c2", "c3"])
    assert_same_arrays(toy_model().to_arrays(), back.to_arrays())
    sol = solve(back)
    audit_constraints(back, sol.x)
    assert back.variables[back.var_names.index("z")].integer
    back.add_rows(["c4"], [0], [0], [1.0], LE, 9.0)
    assert back.num_cons == 4


def test_reloaded_duplicate_name_raises_on_first_lookup(tmp_path):
    """A model file whose variable names repeat loads, its arrays read as
    stored and it solves, by position; the first lookup by name, in the
    solve's values view, refuses it."""
    path = tmp_path / "dup.npz"
    save_model(toy_model(), path)
    with np.load(path) as npz:
        arrays = dict(npz)
    arrays.update(_pack_names(b"x\ny\nx\nw", "var"))
    np.savez(path, **arrays)
    back = load_model(path)
    assert back.to_arrays()[0].tolist() == [5.0, 3.0, 7.0, 0.0]
    sol = solve(back)
    assert sol.ok and len(sol.x) == 4
    with pytest.raises(ModelError, match="duplicate variable 'x'"):
        sol.values["y"]


def _numbered_model():
    """A model whose variable names hold digit runs: ``v7``, ``v07`` and
    ``v10``."""
    m = MilpModel("numbered")
    v7, v07, v10 = m.add_vars(["v7", "v07", "v10"], ub=1.0)
    m.add_rows(["r1", "r2"], [0, 0, 1], [v7, v10, v07], [1.0, 1.0, 1.0], [LE, GE], [1.0, 0.0])
    return m


def _tampered(arrays):
    """(case, arrays) for damaged copies of ``_numbered_model``'s file."""
    indptr, cols = [0, 2, 3], [0, 2, 1]
    yield "truncated indptr", dict(arrays, indptr_delta=_delta_planes(indptr[:-1], "<i8"))
    yield "negative row length", dict(arrays, indptr_delta=_delta_planes([0, 4, 3], "<i8"))
    yield "indptr planes cut short", dict(arrays, indptr_delta=arrays["indptr_delta"][:-1])
    yield "out-of-range column", dict(arrays, cols_delta=_delta_planes([0, 3, 1], "<i4"))
    yield "negative column", dict(arrays, cols_delta=_delta_planes([-1, 2, 1], "<i4"))
    yield "one column short", dict(arrays, cols_delta=_delta_planes(cols[:2], "<i4"))
    yield "object array", dict(arrays, lb=arrays["lb"].astype(object))
    nan = float("nan")
    for key, value in (("lb", nan), ("ub", nan), ("obj", nan), ("obj", INF), ("coefs", nan),
                       ("coefs", -INF), ("rhs", nan), ("rhs", INF)):
        yield f"{key} {value}", dict(arrays, **{key: np.append(arrays[key][:-1], value)})
    yield "missing array", {k: v for k, v in arrays.items() if k != "rhs"}
    yield "missing numbers", {k: v for k, v in arrays.items() if k != "var_numbers"}
    yield "one name short", dict(arrays, **_pack_names(b"v7\nv07", "var"))
    yield "unknown sense", dict(arrays, sense=np.array([0, 7], dtype=np.uint8))
    yield "names not UTF-8", dict(arrays, **_pack_names(b"v7\nv07\n\xff", "var"))
    yield "number without a marker", dict(arrays, var_template=np.frombuffer(
        b"v0\nv0\nv", dtype=np.uint8))
    yield "marker without a number", dict(arrays, var_template=np.frombuffer(
        b"v0\nv0\nv0\n0", dtype=np.uint8))
    yield "width without a marker", dict(arrays, var_widths=np.array([1, 2, 2, 1], np.uint8))
    for width in (0, 19):
        yield f"width {width}", dict(arrays, var_widths=np.array([1, width, 2], np.uint8))
    yield "number of 2 digits in 1", dict(arrays, var_numbers=_delta_planes([17, 7, 10], "<i8"))
    yield "number of 3 digits in 2", dict(arrays, var_numbers=_delta_planes([7, 100, 10], "<i8"))
    yield "negative number", dict(arrays, var_numbers=_delta_planes([7, -7, 10], "<i8"))
    yield "numbers planes cut short", dict(arrays, var_numbers=arrays["var_numbers"][:-1])


def test_model_file_refusals(tmp_path):
    path = tmp_path / "numbered.npz"
    save_model(_numbered_model(), path)
    with np.load(path) as npz:
        arrays = dict(npz)
    np.savez(tmp_path / "same.npz", **arrays)
    assert load_model(tmp_path / "same.npz").var_names == ("v7", "v07", "v10")
    for case, bad in _tampered(arrays):
        np.savez(tmp_path / "bad.npz", **bad)
        with pytest.raises(ModelError, match="bad.npz"):
            load_model(tmp_path / "bad.npz")
            pytest.fail(f"{case} was accepted")
    # numpy reads a file that is not a zip as a pickle and advises unpickling it
    (tmp_path / "bad.npz").write_bytes(b"junk")
    with pytest.raises(ModelError,
                       match=r"bad\.npz: not a model file: not an \.npz archive$") as info:
        load_model(tmp_path / "bad.npz")
    assert "allow_pickle" not in str(info.value)


def test_model_file_refuses_crossed_bounds(tmp_path):
    """A column whose stored lower bound exceeds its upper one is refused on
    load, naming the entry, as ``add_vars`` refuses it; it is not left for
    the solve to report as infeasible."""
    m = MilpModel()
    m.add_vars(["x"], 0.0, 1.0, obj=1.0)
    path = tmp_path / "m.npz"
    save_model(m, path)
    with np.load(path) as npz:
        arrays = dict(npz)
    arrays["lb"] = np.array([2.0])
    np.savez_compressed(path, **arrays)
    with pytest.raises(ModelError, match=r"m\.npz: lb\[0\] 2\.0 is not <= ub\[0\] 1\.0$"):
        load_model(path)


def _parent_layout(m):
    """``m``'s arrays as model files stored them before names were split
    into digit runs and the CSR index arrays were delta-coded."""
    arrays = {"name": np.frombuffer(m.name.encode(), dtype=np.uint8),
              "var_names": np.frombuffer(m._var_names.blob, dtype=np.uint8),
              "con_names": np.frombuffer(m._con_names.blob, dtype=np.uint8),
              "indptr": np.array(m._indptr, dtype=np.int64),
              "cols": np.array(m._cols, dtype=np.intc)}
    for key, (attr, dtype) in _PLAIN.items():
        arrays[key] = np.frombuffer(getattr(m, attr), dtype=dtype)
    return arrays


def test_model_file_in_parent_layout_is_refused(tmp_path):
    """There is no reader for the layout before this one."""
    np.savez_compressed(tmp_path / "old.npz", **_parent_layout(_numbered_model()))
    with pytest.raises(ModelError, match="old.npz: not a model file"):
        load_model(tmp_path / "old.npz")


def test_model_file_refuses_newline_in_name(tmp_path):
    """A newline separates the names of a model file, so the model refuses
    it when the name is added and stays as it was."""
    m = MilpModel()
    m.add_vars(["x"])
    with pytest.raises(ModelError, match="newline"):
        m.add_vars(["bad\nname"])
    m = toy_model()
    with pytest.raises(ModelError, match="newline"):
        m.add_rows(["row\n2"], [0], [0], [1.0], LE, 1.0)
    save_model(m, tmp_path / "m.npz")
    back = load_model(tmp_path / "m.npz")
    assert back.var_names == ("x", "y", "z", "w") and back.num_cons == 3
    assert [c.name for c in back.constraints] == ["c1", "c2", "c3"]


def test_stage_build_model_memory_per_element(tmp_path):
    """The 28-day template hm that stage_build returns holds under 40 bytes
    per variable, row and nonzero (tracemalloc: 24): its names stay packed
    and no name index is kept.  With a str per name and the index dicts
    kept, the same model held 70.  Building and saving it peaks under 65
    bytes per element (59 measured with one bulk call per stencil); with a
    name -> position dict kept through the build the peak was 78."""
    config = load_scenario(emit_scenario_template(tmp_path / "scen", days=28, seed=4))
    config.kinds = ["hm"]
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, tmp_path / "out")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = stage_build(system, data, art, config, tmp_path / "out")["hm"].model
        gc.collect()
        live, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    elements = m.num_vars + m.num_cons + m.to_arrays()[4].nnz
    assert live / elements < 40
    assert peak / elements < 65


def test_stage_build_model_file_bytes_per_element(tmp_path):
    """The 28-day template hm file that stage_build writes stays under 1.0
    byte per variable, row and nonzero (0.44 measured).  Names stored whole
    and the CSR index arrays as they are took 2.5."""
    config = load_scenario(emit_scenario_template(tmp_path / "scen", days=28, seed=4))
    config.kinds = ["hm"]
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, tmp_path / "out")
    m = stage_build(system, data, art, config, tmp_path / "out")["hm"].model
    elements = m.num_vars + m.num_cons + m.to_arrays()[4].nnz
    size = (tmp_path / "out" / "models" / "hm.npz").stat().st_size
    assert size / elements < 1.0


def test_stage_build_sidecars_stay_small(tmp_path):
    """The five template sidecars that stage_build writes hold one entry per
    tiled stencil, not per period: 4,652 B together at 7 days, 4,680 B at
    28 and 4,735 B at 91 (measured), the difference the wider numbers.  The
    period layout is derived from the clusterings, not stored; with time
    labels, weights and hours in every sidecar they took 15,848 B at 28
    days."""
    sizes = []
    for days in (7, 28):
        out = tmp_path / f"out{days}"
        config = load_scenario(emit_scenario_template(tmp_path / f"scen{days}", days=days,
                                                      seed=4))
        system, data = stage_ingest(config)
        art = stage_cluster(system, data, config, out)
        stage_build(system, data, art, config, out)
        sides = sorted((out / "models").glob("*.registry.json"))
        assert len(sides) == 5
        sizes.append(sum(side.stat().st_size for side in sides))
    assert sizes[1] < 5120 and sizes[1] - sizes[0] < 200


def test_reloaded_model_memory_per_element(tmp_path):
    """Re-reading the 28-day template hm, converting it to arrays and
    auditing it peaks under 72 bytes per variable, row and nonzero
    (tracemalloc: 61).  With a str per name the same path peaked at 81, and
    re-read through parse_mps, which builds the name index dicts, at 108."""
    config = load_scenario(emit_scenario_template(tmp_path / "scen", days=28, seed=4))
    config.kinds = ["hm"]
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, tmp_path / "out")
    m = stage_build(system, data, art, config, tmp_path / "out")["hm"].model
    values = np.zeros(m.num_vars)
    elements = m.num_vars + m.num_cons + m.to_arrays()[4].nnz
    del m
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reloaded = load_built_model(tmp_path / "out", "hm").model
        reloaded.to_arrays()
        audit_constraints(reloaded, values)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / elements < 72


@pytest.fixture(scope="module")
def month_hm(tmp_path_factory):
    """The 28-day template hm as built, as re-read from its file, and the
    output directory that holds the file."""
    tmp = tmp_path_factory.mktemp("month_hm")
    config = load_scenario(emit_scenario_template(tmp / "scen", days=28, seed=4))
    config.kinds = ["hm"]
    system, data = stage_ingest(config)
    art = stage_cluster(system, data, config, tmp / "out")
    built = stage_build(system, data, art, config, tmp / "out")["hm"].model
    return built, load_built_model(tmp / "out", "hm").model, tmp / "out"


def _traced_peak(call):
    """(``call()``, its tracemalloc peak in bytes above what was held before)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_name_comparison_reads_the_blobs_in_place(month_hm):
    """Comparing the names of the 28-day hm with its re-read copy's compares
    the packed blobs: it allocates less than twice one blob (0.002 times
    measured).  Decoded into two tuples of str it took 10.4 times."""
    built, reread, _ = month_hm
    same, peak = _traced_peak(lambda: built.var_names == reread.var_names)
    assert same
    assert peak < 2 * len(reread._var_names.blob)


def test_to_arrays_allocates_little_beyond_what_it_returns(month_hm):
    """``to_arrays`` on the re-read 28-day hm peaks at most 1.1 times the
    bytes it returns (1.04 measured): the CSC is transposed from views of
    the model's buffers, with int32 indices, and integrality is uint8.
    Copying the CSR buffers and casting the indices to int64 peaked at 1.48
    times a larger result (int64 indices and integrality)."""
    _, reread, _ = month_hm
    reread.to_arrays()                   # scipy loads at the first call
    arrays, peak = _traced_peak(reread.to_arrays)
    a = arrays[4]
    assert a.indices.dtype == a.indptr.dtype == np.int32 and a.data.dtype == np.float64
    assert arrays[1].dtype == np.uint8
    assert all(x.dtype == np.float64 for x in arrays[:1] + arrays[2:4] + arrays[5:])
    parts = arrays[:4] + (a.data, a.indices, a.indptr) + arrays[5:]
    assert peak <= 1.1 * sum(x.nbytes for x in parts)


def test_arrays_and_audit_leave_the_model_unchanged_and_growable(month_hm):
    """Writing into every array ``to_arrays`` returns, then auditing, leaves
    the model's buffers and names as they were, and no view of them is left
    behind: an ``array`` that exports one cannot grow (BufferError)."""
    from test_model_pin import model_digest
    m = load_model(month_hm[2] / "models" / "hm.npz")
    digest = model_digest(m)
    c, integrality, lb, ub, a, cl, cu = m.to_arrays()
    for x in (c, integrality, lb, ub, a.data, a.indices, a.indptr, cl, cu):
        x[:] = 1
    assert audit_constraints(m, np.zeros(m.num_vars))
    assert model_digest(m) == digest
    j = m.add_vars(["fresh"], ub=1.0)
    m.add_rows(["fresh_row"], [0], j, [1.0], LE, 1.0)
    assert (m.num_vars, m.num_cons) == (month_hm[0].num_vars + 1, month_hm[0].num_cons + 1)


def test_var_names_is_a_packed_snapshot(tmp_path):
    """``var_names`` is a sequence over the packed blob: equal to a tuple of
    the same names, a slice is a tuple, ``in`` and ``index`` work, it is
    unhashable, and a later addition leaves it as it was."""
    m = toy_model()
    names = m.var_names
    assert names == ("x", "y", "z", "w") and ("x", "y", "z", "w") == names
    assert names != ("x", "y", "z") and names != ["x", "y", "z", "w"]
    assert names[1:3] == ("y", "z") and type(names[1:3]) is tuple
    assert (names[0], names[-1], list(names), len(names)) == ("x", "w", ["x", "y", "z", "w"], 4)
    assert "z" in names and "q" not in names and names.index("z") == 2
    with pytest.raises(IndexError):
        names[4]
    with pytest.raises(TypeError):
        hash(names)
    save_model(m, tmp_path / "toy.npz")
    assert load_model(tmp_path / "toy.npz").var_names == names
    m.add_vars(["v"])
    assert names == ("x", "y", "z", "w")
    assert m.var_names == ("x", "y", "z", "w", "v") != names
    one_empty, none = MilpModel(), MilpModel()
    one_empty.add_vars([""])
    assert one_empty.var_names != none.var_names and one_empty.var_names == ("",)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def test_solve_lp_optimum():
    # min 5x + 3y, x + 2y >= 4, x - y = 1 -> x = 2, y = 1
    m = MilpModel()
    x, y = m.add_vars(["x", "y"], obj=[5.0, 3.0])
    m.add_rows(["c1", "c2"], [0, 0, 1, 1], [x, y, x, y], [1.0, 2.0, 1.0, -1.0], [GE, EQ],
               [4.0, 1.0])
    sol = solve(m)
    assert sol.ok
    assert sol.objective == pytest.approx(13.0)
    assert sol.values["x"] == pytest.approx(2.0)


def test_solve_knapsack():
    # max 10a + 6b + 4c st 5a + 4b + 3c <= 9 -> a + b fits exactly, value 16
    m = MilpModel()
    j = m.add_vars(["a", "b", "c"], ub=1.0, obj=[-10.0, -6.0, -4.0], integer=True)
    m.add_rows(["cap"], [0, 0, 0], j, [5.0, 4.0, 3.0], LE, 9.0)
    sol = solve(m)
    assert sol.objective == pytest.approx(-16.0)
    assert round(sol.values["a"]) == 1 and round(sol.values["b"]) == 1


def test_solve_infeasible_status():
    m = MilpModel()
    x = m.add_vars(["x"], ub=1.0)
    m.add_rows(["c"], [0], x, [1.0], GE, 2.0)
    assert solve(m).status == "infeasible"


def test_solve_unbounded_status():
    m = MilpModel()
    m.add_vars(["x"], lb=-INF, ub=INF, obj=1.0)
    status = solve(m).status
    assert status in ("unbounded", "error")   # HiGHS may report either


def outcome(status, x=None, gap=0.0, objective=12.0):
    """A session outcome as ``milp._session`` hands it back."""
    info = {"objective_function_value": objective, "mip_gap": gap,
            "mip_dual_bound": 11.5, "mip_node_count": 3}
    return milp_module._Outcome(status, "text", info, x)


def test_status_table_maps_highs_statuses():
    """A time limit is ``time_limit`` with an incumbent and ``error``
    without one; an optimum above the optimality tolerance is ``gap_limit``;
    a solution with values keeps a non-finite gap as inf; infeasible and
    unbounded statuses map as scipy mapped them, ``kUnboundedOrInfeasible``
    among them, but a model HiGHS refuses is an ``error``, not infeasible.
    A MIP carries the dual bound and node count, an LP neither."""
    m = toy_model()
    x = np.array([1.0, 0.0, 1.0, 2.0])

    def wrap(status, x=None, gap=0.0, mip=True):
        return milp_module._solution(m, mip, outcome(status, x, gap), 0.5)

    timed_out = wrap("kTimeLimit", x, 0.02)
    assert (timed_out.status, timed_out.ok, timed_out.gap) == ("time_limit", True, 0.02)
    assert timed_out.values == {"x": 1.0, "y": 0.0, "z": 1.0, "w": 2.0}
    assert (timed_out.dual_bound, timed_out.nodes, timed_out.wall_seconds) == (11.5, 3, 0.5)
    unbounded_gap = wrap("kTimeLimit", x, INF)   # an incumbent, no proven bound
    assert (unbounded_gap.status, unbounded_gap.ok, unbounded_gap.gap) == \
        ("time_limit", True, INF)
    nan_gap = wrap("kOptimal", x, float("nan"))
    assert (nan_gap.status, nan_gap.gap) == ("gap_limit", INF)
    lp = wrap("kOptimal", x, INF, mip=False)     # an LP reports no gap, bound or nodes
    assert (lp.status, lp.gap, lp.dual_bound, lp.nodes) == ("optimal", 0.0, None, None)
    for status in ("kTimeLimit", "kIterationLimit"):
        empty = wrap(status, None, INF)
        assert (empty.status, empty.ok, empty.values, empty.objective, empty.gap) == \
            ("error", False, {}, None, 0.0)
    near = wrap("kOptimal", x, 5e-4)
    assert (near.status, near.ok, near.objective, near.message) == \
        ("gap_limit", True, 12.0, "text")
    assert wrap("kOptimal", x, 1e-9).status == "optimal"
    for status, ours in (("kInfeasible", "infeasible"), ("kModelError", "error"),
                         ("kUnbounded", "unbounded"), ("kUnboundedOrInfeasible", "error"),
                         ("kInterrupt", "error"), ("kNotset", "error")):
        sol = wrap(status)
        assert (sol.status, sol.values, sol.objective) == (ours, {}, None), status
    refused = milp_module._solution(m, True, milp_module._Outcome("kModelError", "text"), 0.5)
    assert (refused.status, refused.dual_bound, refused.nodes) == ("error", None, None)


def test_highs_calls_run_on_a_thread_of_their_own(monkeypatch):
    """Both adapter calls reach HiGHS from a short-lived thread, which has
    exited when the call returns; an error raised there reaches the caller."""
    import threading

    callers = []
    real = milp_module._session

    def recording(*args):
        callers.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(milp_module, "_session", recording)
    threads = threading.active_count()
    m = toy_model()
    sol = solve(m)
    assert sol.ok
    assert ScipySolver().solve_lp(m, fixed=sol.x).ok
    assert len(callers) == 2 and threading.get_ident() not in callers
    assert threading.active_count() == threads
    with pytest.raises(ZeroDivisionError):
        milp_module._highs_call(divmod, 1, 0)


# what the session reads of scipy's private HiGHS bindings, by owner
SESSION_NEEDS = {
    "_core": ("_Highs", "HighsLp", "MatrixFormat", "HighsVarType", "HighsStatus",
              "HighsModelStatus", "kHighsInf"),
    "_Highs": ("setOptionValue", "getOptionValue", "passModel", "run", "getModelStatus",
               "getInfo", "getSolution", "modelStatusToString"),
    "HighsLp": ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_",
                "row_lower_", "row_upper_", "a_matrix_", "integrality_"),
    "MatrixFormat": ("kRowwise",),
    "HighsVarType": ("kContinuous", "kInteger"),
    "HighsStatus": ("kOk", "kError"),
    "HighsModelStatus": ("kOptimal", "kTimeLimit", "kIterationLimit", "kModelError",
                         *milp_module._MODEL_STATUS),
    "HighsInfo": milp_module._INFO,
}


def test_highs_binding_has_what_the_session_calls():
    """The session uses scipy's private HiGHS bindings, as ``_bindings``
    loads them (pinned to one scipy series in pyproject.toml).  If a scipy
    release renames or drops a part of them, or HiGHS no longer knows an
    option the session sets, this test names what is missing."""
    _core = milp_module._bindings()
    owners = {"_core": _core, **{name: getattr(_core, name, None) for name in SESSION_NEEDS
                                 if name != "_core"}}
    missing = [f"{owner}.{attr}" for owner, attrs in SESSION_NEEDS.items()
               for attr in attrs if not hasattr(owners[owner], attr)]
    assert missing == [], f"scipy's HiGHS bindings lack {missing}"
    session = _core._Highs()
    options = {"output_flag": False, "solver": "ipm", "mip_rel_gap": 1e-3, "time_limit": 5.0,
               "mip_heuristic_run_root_reduced_cost": False}
    refused = [key for key, value in options.items()
               if session.setOptionValue(key, value) != _core.HighsStatus.kOk]
    assert refused == [], f"HiGHS refuses the options {refused}"


def in_fresh_interpreter(code: str) -> None:
    """Run ``code`` in a new interpreter; it fails the test by raising."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# counts the loads of the bindings from their file, each slowed so that two
# threads asking at once would both load them without the lock
_COUNT_LOADS = """
import importlib.util, sys, threading, time
import storagg.milp as milp
loads, real = [], importlib.util.module_from_spec
def counted(spec):
    loads.append(spec.name)
    time.sleep(0.05)
    return real(spec)
importlib.util.module_from_spec = counted
"""


def test_bindings_load_without_the_optimize_package():
    """``_bindings`` loads the extension alone; a later ``scipy.optimize``
    import reuses that module object, and its public ``milp`` still runs."""
    in_fresh_interpreter(_COUNT_LOADS + """
core = milp._bindings()
assert loads == [milp._BINDINGS] and "scipy.optimize" not in sys.modules
assert milp._bindings() is core and len(loads) == 1
from scipy.optimize._highspy import _core
import scipy.optimize._highspy._core as by_name
assert _core is core and by_name is core and sys.modules[milp._BINDINGS] is core
from scipy.optimize import milp as scipy_milp
assert scipy_milp([1.0], integrality=[1], bounds=(1, 2)).fun == 1.0
assert len(loads) == 1
""")


def test_bindings_reuse_an_imported_optimize_package():
    """After ``import scipy.optimize`` the bindings are not loaded again:
    ``_bindings`` returns the module scipy imported."""
    in_fresh_interpreter(_COUNT_LOADS + """
import scipy.optimize
from scipy.optimize._highspy import _core
assert milp._bindings() is _core and loads == []
""")


def test_bindings_load_once_for_threads_asking_at_once():
    """Four threads asking for the bindings at once get one module, loaded once."""
    in_fresh_interpreter(_COUNT_LOADS + """
got, start = [], threading.Barrier(4)
def ask():
    start.wait()
    got.append(milp._bindings())
threads = [threading.Thread(target=ask) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
assert len(got) == 4 and all(m is got[0] for m in got) and loads == [milp._BINDINGS]
""")


def test_bindings_fail_loudly(monkeypatch, tmp_path):
    """A missing extension is an ImportError naming the directory searched;
    a load that raises leaves no half-made module registered."""
    import importlib.machinery
    import scipy
    monkeypatch.delitem(sys.modules, milp_module._BINDINGS, raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "scipy" / "optimize"))):
            milp_module._bindings()

    def refuse(loader, module):
        raise RuntimeError("refused")

    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", refuse)
    with pytest.raises(RuntimeError, match="refused"):
        milp_module._bindings()
    assert milp_module._BINDINGS not in sys.modules


def test_mip_session_turns_the_root_reduced_cost_sub_mip_off(monkeypatch):
    """Read back from the session a MIP solve ran: the root reduced-cost
    sub-MIP is off, the output is off and the gap is the one asked for."""
    _core = milp_module._bindings()
    sessions, real = [], milp_module._session

    def keeping(highs, *args):
        def new_session():
            sessions.append(highs._Highs())
            return sessions[-1]

        bindings = SimpleNamespace(**{name: getattr(highs, name) for name in SESSION_NEEDS["_core"]})
        bindings._Highs = new_session
        return real(bindings, *args)

    monkeypatch.setattr(milp_module, "_session", keeping)
    assert solve(toy_model(), gap=0.25).ok
    [session] = sessions
    ok = _core.HighsStatus.kOk
    assert session.getOptionValue("mip_heuristic_run_root_reduced_cost") == (ok, False)
    assert session.getOptionValue("output_flag") == (ok, False)
    assert session.getOptionValue("mip_rel_gap") == (ok, 0.25)


def test_unknown_option_or_lp_method_is_an_error():
    """An option HiGHS does not know is refused, not ignored; so is an LP
    method ``solve_lp`` does not map to a HiGHS solver."""
    _core = milp_module._bindings()
    with pytest.raises(ModelError, match="HiGHS refuses option no_such_option"):
        milp_module._session(_core, toy_model(), True, False, None, {"no_such_option": 1})
    with pytest.raises(ValueError, match="unknown LP method 'highs-ds'"):
        ScipySolver().solve_lp(toy_model(), method="highs-ds")


TEMPLATE_GAP = 1e-3
KINDS = ("hm", "ss", "ss_rfm", "rp", "rp_tmci")


@pytest.fixture(scope="module")
def template_models(tmp_path_factory):
    """Each kind's model of the 7-day template (seed 4), beside its session
    solve at the benchmark's gap."""
    from storagg import aggregate
    from storagg.pipeline import build_formulation
    config = load_scenario(emit_scenario_template(tmp_path_factory.mktemp("t7"), days=7, seed=4))
    system, data = stage_ingest(config)
    art = aggregate(data, config.states, config.rep_days, config.seed,
                    window_hours=config.window_hours,
                    has_short_term_storage=bool(system.short_term_storage))
    models = {kind: build_formulation(kind, system, data, art, config).model for kind in KINDS}
    return {kind: (m, solve(m, gap=TEMPLATE_GAP)) for kind, m in models.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_session_agrees_with_scipy_milp(template_models, kind):
    """Oracle: scipy's public ``milp`` on the same arrays.  Both stop within
    the requested gap of the optimum, so their objectives lie within that
    gap of each other; the session's point satisfies every row to 1e-6, and
    its dual bound lies below its objective."""
    from scipy.optimize import milp, Bounds, LinearConstraint
    m, sol = template_models[kind]
    c, integrality, lb, ub, a, cl, cu = m.to_arrays()
    res = milp(c, integrality=integrality, bounds=Bounds(lb, ub),
               constraints=LinearConstraint(a, cl, cu), options={"mip_rel_gap": TEMPLATE_GAP})
    assert sol.status in ("optimal", "gap_limit") and res.status == 0
    assert abs(sol.objective - res.fun) <= TEMPLATE_GAP * max(abs(sol.objective), abs(res.fun))
    assert sol.gap <= TEMPLATE_GAP and sol.dual_bound <= sol.objective and sol.nodes >= 0
    audit = audit_constraints(m, sol.x)
    assert max(row["max_residual"] for row in audit.values()) <= 1e-6


@pytest.mark.parametrize("kind", KINDS)
def test_session_lp_duals_equal_linprog_marginals(template_models, kind):
    """Oracle: scipy's public ``linprog`` on the pricing LP, the model's
    arrays with each integer column's bounds pinned at its solved value,
    its ``>=`` rows negated into ``<=`` rows and its ``=`` rows passed
    apart, as its interface asks.  Mapped back to each row's declared
    orientation, its marginals equal the session's row duals within 1e-8."""
    from scipy.optimize import linprog
    m, sol = template_models[kind]
    assert set(m._sense) == {0, 1, 2}                 # <=, >= and = rows all occur
    lp = ScipySolver().solve_lp(m, fixed=sol.x)
    c, integrality, lb, ub, a, cl, cu = m.to_arrays()
    ints = np.flatnonzero(integrality)
    assert len(ints)
    lb[ints] = ub[ints] = np.round(sol.x[ints])
    eq, sign = cl == cu, np.where(np.isinf(cu), -1.0, 1.0)
    a = a.tocsr()
    a.data *= np.repeat(sign, np.diff(a.indptr))
    rhs = sign * np.where(np.isinf(cu), cl, cu)
    res = linprog(c, A_ub=a[~eq], b_ub=rhs[~eq], A_eq=a[eq], b_eq=rhs[eq],
                  bounds=np.column_stack((lb, ub)), method="highs")
    marginals = np.empty(m.num_cons)
    marginals[eq], marginals[~eq] = res.eqlin.marginals, sign[~eq] * res.ineqlin.marginals
    assert lp.status == "optimal" and res.status == 0
    assert lp.objective == pytest.approx(res.fun, rel=1e-9)
    assert list(lp.duals) == m._con_names.tolist()
    np.testing.assert_allclose(lp.row_dual, marginals, rtol=0, atol=1e-8)


def test_lp_duals_merit_order():
    """Two supply blocks, one demand row: the balance dual is the marginal
    block's cost, in objective-per-unit-of-rhs terms."""
    m = MilpModel()
    q = m.add_vars(["q1", "q2"], ub=[6.0, 10.0], obj=[5.0, 8.0])
    m.add_rows(["bal"], [0, 0], q, [1.0, 1.0], EQ, 10.0)
    sol = ScipySolver().solve_lp(m)
    assert sol.objective == pytest.approx(62.0)
    assert sol.duals["bal"] == pytest.approx(8.0)


def test_lp_duals_ge_row_sign():
    # min 5x st x >= 2: raising the rhs raises the objective by 5
    m = MilpModel()
    x = m.add_vars(["x"], obj=5.0)
    m.add_rows(["floor"], [0], x, [1.0], GE, 2.0)
    sol = ScipySolver().solve_lp(m)
    assert sol.duals["floor"] == pytest.approx(5.0)

    # <=, >= and = rows interleaved: each dual keeps its row's sign and name.
    # Optimum x=4, y=2, z=w=1 is nondegenerate, so the duals are unique.
    m = MilpModel()
    x, y, z, w = m.add_vars(["x", "y", "z", "w"], obj=[1.0, 2.0, 3.0, 1.0])
    m.add_rows(["cap", "need", "fix", "ycap", "floor", "link"],
               [0, 1, 1, 2, 3, 4, 4, 5, 5], [x, x, y, z, y, y, z, w, z],
               [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0],
               [LE, GE, EQ, LE, GE, EQ], [4.0, 6.0, 1.0, 10.0, 2.0, 0.0])
    sol = ScipySolver().solve_lp(m)
    assert sol.objective == pytest.approx(12.0)
    assert list(sol.duals) == ["cap", "need", "fix", "ycap", "floor", "link"]
    expected = [-1.0, 2.0, 4.0, 0.0, 0.0, 1.0]
    assert list(sol.duals.values()) == pytest.approx(expected)


def test_solve_lp_fixed_reprices():
    """Commitment forced on, dual of the balance equals the dispatch cost;
    the integer column is fixed in the LP, not in the model."""
    m = MilpModel()
    u, q = m.add_vars(["u", "q"], ub=[1.0, INF], obj=[3.0, 20.0], integer=[True, False])
    m.add_rows(["cap", "bal"], [0, 0, 1], [q, u, q], [1.0, -5.0, 1.0], [LE, EQ], [0.0, 2.0])
    milp_sol = solve(m)
    assert round(milp_sol.values["u"]) == 1
    lp = ScipySolver().solve_lp(m, fixed=np.where([True, False], 0.9999, milp_sol.x))
    assert lp.values["u"] == 1.0 and m.variables[0] == Variable("u", 0.0, 1.0, 3.0, True)
    assert lp.duals["bal"] == pytest.approx(20.0)


def test_to_arrays_belong_to_the_caller(tmp_path):
    m = toy_model()
    before = m.to_arrays()
    write_mps(m, tmp_path / "before.mps")
    c, integrality, lb, ub, a, cl, cu = m.to_arrays()
    for x in (c, integrality, lb, ub, a.data, cl, cu):
        x[:] = 7
    sol, state = solve(m), model_state(m)
    ScipySolver().solve_lp(m)
    ScipySolver().solve_lp(m, fixed=sol.x)
    assert model_state(m) == state
    assert_same_arrays(before, m.to_arrays())
    write_mps(m, tmp_path / "after.mps")
    assert (tmp_path / "after.mps").read_bytes() == (tmp_path / "before.mps").read_bytes()


def test_solve_lp_fixed_needs_values():
    """The values to fix at are one per column, in column order: another
    count is refused, naming both counts, and a non-finite value of an
    integer column names the column."""
    m = MilpModel()
    m.add_vars(["v", "u"], ub=1.0, integer=[False, True])
    for fixed in ([], [1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ModelError, match=f"holds {len(fixed)} values for 2 variables"):
            ScipySolver().solve_lp(m, fixed=fixed)
    with pytest.raises(ModelError, match="value nan for integer variable 'u'"):
        ScipySolver().solve_lp(m, fixed=[np.nan, np.nan])
    assert ScipySolver().solve_lp(m, fixed=[np.nan, 1.0]).ok    # v is not fixed


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_constraint_families_grouping():
    m = MilpModel()
    m.add_vars(["x"])
    m.add_rows(["bal_p0_n", "bal_p1_n", "pcap_p0_g"], [0, 1, 2], [0, 0, 0], [1.0] * 3,
               [EQ, EQ, LE], [1.0, 1.0, 2.0])
    fams = constraint_families(m)
    assert sorted(fams) == ["bal", "pcap"]
    assert len(fams["bal"]) == 2


def test_audit_constraints_on_solved_model():
    m = toy_model()
    sol = solve(m)
    report = audit_constraints(m, sol.x)
    assert set(report) == {"c1", "c2", "c3"}
    for fam, positions in constraint_families(m).items():
        assert report[fam]["checked"] == len(positions)
        assert report[fam]["max_residual"] <= 1e-6


def test_audit_residuals_by_sense():
    m = toy_model()                    # columns x, y, z, w
    report = audit_constraints(m, [2.0, 1.0, 0.0, 2.0])
    assert all(r["max_residual"] == 0.0 and r["worst"] == "" for r in report.values())
    # c1 (>=) lhs 3 < 4, c2 (=) lhs 1.5 != 1, c3 (<=) lhs 4.25 > 3
    report = audit_constraints(m, [2.0, 0.5, 0.0, 8.5])
    assert report["c1"]["max_residual"] == pytest.approx(1.0)
    assert report["c2"]["max_residual"] == pytest.approx(0.5)
    assert report["c3"]["max_residual"] == pytest.approx(1.25)
    assert [report[f]["worst"] for f in ("c1", "c2", "c3")] == ["c1", "c2", "c3"]
    # a missing value is an error, not 0.0
    with pytest.raises(ModelError, match="holds 3 values for 4 variables"):
        audit_constraints(m, [2.0, 0.5, 0.0])


def test_audit_flags_violations():
    m = MilpModel()
    m.add_vars(["x"])
    m.add_rows(["cap_0"], [0], [0], [1.0], LE, 1.0)
    report = audit_constraints(m, [3.0])
    assert report["cap"]["max_residual"] == pytest.approx(2.0)
    assert report["cap"]["worst"] == "cap_0"


def test_audit_checks_every_row():
    """One violated row among 300 is found wherever it sits; a sample of 100
    rows per family drawn with seed 0 skips row 4."""
    m = MilpModel()
    x = m.add_vars([f"x{i}" for i in range(300)])
    m.add_rows([f"cap_{i}" for i in range(300)], np.arange(300), x, np.ones(300), LE, 1.0)
    values = np.ones(300)
    values[4] = 1.5
    report = audit_constraints(m, values)
    assert report["cap"] == {"checked": 300, "max_residual": 0.5, "worst": "cap_4"}


def test_audit_sums_rows_in_column_order(tmp_path):
    """A row stored as c, a, b sums to 0 in that order (1e16 absorbs the 1)
    and to 1 in column order; the audit gives the column-order residual for
    the model as built, as loaded from .npz and as parsed from MPS."""
    m = MilpModel()
    a, b, c = m.add_vars(["a", "b", "c"], lb=-INF)
    m.add_rows(["row_0"], [0, 0, 0], [c, a, b], [1.0, 1e16, -1e16], EQ, 1.0)
    assert m.constraints[0].idx == [2, 0, 1]
    save_model(m, tmp_path / "m.npz")
    write_mps(m, tmp_path / "m.mps")
    values = np.ones(3)
    exact = {"row": {"checked": 1, "max_residual": 0.0, "worst": ""}}
    for model in (m, load_model(tmp_path / "m.npz"), parse_mps(tmp_path / "m.mps")):
        assert audit_constraints(model, values) == exact
