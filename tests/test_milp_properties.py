"""Round-trip and audit properties of the model container on random small
models, and round trips of solution files."""

import copy
import json
import re
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import storagg.milp as milp
from storagg import (MilpModel, ModelError, Solution, write_mps, parse_mps,
                     save_model, load_model, save_solution, load_solution,
                     audit_constraints)
from storagg.milp import INF, LE, GE, EQ, OK_STATUSES, _delta_planes, _pack_names
from storagg.pipeline import SolveError, save_solutions, load_solutions

from conftest import make_solution, names_model
from test_milp import assert_same_arrays, model_state

finite = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5, 1e-300, 1.5e300]) | \
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
values = finite | st.sampled_from([INF, -INF])


# names made of pieces that stress the digit-run split of the model files:
# ASCII digit runs with leading zeros and longer than 18 digits, digits of
# other scripts (not split), and any other text
digit_text = st.lists(st.text("0123456789", min_size=1, max_size=40)
                      | st.sampled_from(["0", "007", "\u0663", "\uff17", "\U0001d7d8"])
                      | st.text(st.characters(codec="utf-8", exclude_characters="\n"),
                                max_size=4),
                      max_size=4).map("".join)


@st.composite
def named_models(draw, unicode_names=False, text=None):
    """(model, variable names, row names): mixed senses, integer and
    continuous columns, free, fixed and infinite bounds, and duplicate and
    zero terms.  Names are ``x<j>`` and ``r<i>``; with ``unicode_names``
    they are distinct draws of ``text`` (default: any text without a
    newline, the empty text among them)."""
    n, rows = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    var_names, con_names = [f"x{j}" for j in range(n)], [f"r{i}" for i in range(rows)]
    name = "prop"
    if unicode_names:
        if text is None:
            text = st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=8)
        var_names = draw(st.lists(text, min_size=n, max_size=n, unique=True))
        con_names = draw(st.lists(text, min_size=rows, max_size=rows, unique=True))
        name = draw(st.text(st.characters(codec="utf-8"), max_size=8))
    columns = []                       # (lb, ub, obj, integer) per variable
    for _ in var_names:
        lb = draw(st.sampled_from([0.0, -INF]) | finite)
        ub = draw(st.sampled_from([1.0, INF, lb]) | finite)
        if ub < lb:
            lb, ub = ub, lb
        columns.append((lb, ub, draw(finite), draw(st.booleans())))
    row, col, val, senses, rhs = [], [], [], [], []
    for i in range(rows):
        terms = draw(st.lists(st.tuples(st.integers(0, n - 1), finite), max_size=6))
        row += [i] * len(terms)
        col += [j for j, _ in terms]
        val += [c for _, c in terms]
        senses.append(draw(st.sampled_from([LE, GE, EQ])))
        rhs.append(draw(finite))
    m = MilpModel(name)
    m.add_vars(var_names, *zip(*columns))
    m.add_rows(con_names, row, col, val, senses, rhs)
    return m, var_names, con_names


def models(unicode_names=False):
    """The models of ``named_models``."""
    return named_models(unicode_names).map(lambda drawn: drawn[0])


def loop_arrays(m):
    """``to_arrays`` by a plain loop over the record views."""
    variables, constraints = list(m.variables), list(m.constraints)
    rows, cols, vals, cl, cu = [], [], [], [], []
    for i, con in enumerate(constraints):
        rows += [i] * len(con.idx)
        cols += con.idx
        vals += con.coef
        cl.append(-INF if con.sense == LE else con.rhs)
        cu.append(INF if con.sense == GE else con.rhs)
    a = sp.csc_array((np.array(vals, dtype=float), (rows, cols)),
                     shape=(len(constraints), len(variables)))
    return (np.array([v.obj for v in variables]),
            np.array([int(v.integer) for v in variables]),
            np.array([v.lb for v in variables]), np.array([v.ub for v in variables]),
            a, np.array(cl, dtype=float), np.array(cu, dtype=float))


@settings(max_examples=200, deadline=None)
@given(models())
def test_write_parse_round_trip(m):
    assert_same_arrays(loop_arrays(m), m.to_arrays())
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.mps", Path(tmp) / "second.mps"
        write_mps(m, first)
        back = parse_mps(first)
        assert_same_arrays(m.to_arrays(), back.to_arrays())
        write_mps(back, second)
        assert second.read_bytes() == first.read_bytes()


def assert_identical_arrays(a, b):
    """Two ``to_arrays`` results agree bit for bit, dtypes included, so a
    -0.0 that reads back as 0.0 fails."""
    for x, y in zip(a, b, strict=True):
        parts = (x.indptr, x.indices, x.data) if hasattr(x, "toarray") else (x,)
        other = (y.indptr, y.indices, y.data) if hasattr(y, "toarray") else (y,)
        assert x.shape == y.shape
        for p, q in zip(parts, other, strict=True):
            assert p.dtype == q.dtype and p.tobytes() == q.tobytes()


def _negative_zero_objective():
    m = MilpModel("negzero")
    x, y = m.add_vars(["x", "y"], lb=[0.0, -0.0], ub=[INF, -0.0], obj=[-0.0, 1.0])
    m.add_rows(["c"], [0, 0], [x, y], [1.0, -2.0], GE, -0.0)
    return m


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda wide: models(unicode_names=wide)))
@example(MilpModel("empty"))
@example(_negative_zero_objective())
def test_save_load_round_trip(m):
    """save -> load -> ``to_arrays`` gives identical arrays, names and
    model name."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.npz"
        save_model(m, path)
        back = load_model(path)
    assert_identical_arrays(m.to_arrays(), back.to_arrays())
    assert back.var_names == m.var_names
    assert [c.name for c in back.constraints] == [c.name for c in m.constraints]
    assert back.name == m.name


def assert_names(m, var_names, con_names):
    """Every name reader of ``m`` agrees with the plain lists."""
    assert (m.num_vars, m.num_cons) == (len(var_names), len(con_names))
    assert m.var_names == tuple(var_names)
    assert [c.name for c in m.constraints] == con_names
    assert [m._variable(j).name for j in range(len(var_names))] == var_names


def _empty_names():
    m = MilpModel("")
    m.add_vars(["", "\r", "é"])
    m.add_rows([""], [0], [0], [1.0], LE, 1.0)
    return m, ["", "\r", "é"], [""]


@settings(max_examples=200, deadline=None)
@given(named_models(unicode_names=True))
@example((MilpModel("empty"), [], []))
@example(_empty_names())
def test_packed_names_read_back(drawn):
    """As built and after a save -> load round trip, the names read back as
    the lists they were added from, and the model can still be extended."""
    m, var_names, con_names = drawn
    assert_names(m, var_names, con_names)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.npz"
        save_model(m, path)
        back = load_model(path)
    assert_names(back, var_names, con_names)
    fresh = "+" * (max(map(len, var_names + con_names), default=0) + 1)
    for model in (m, back):
        j = model.add_vars([fresh])
        model.add_rows([fresh], [0], j, [1.0], LE, 1.0)
        assert_names(model, var_names + [fresh], con_names + [fresh])


def _digit_names():
    names = ["", "0", "007", "1" * 30, "9" * 18, "9" * 19, "\u0663\u0664", "q_p0_0x",
             "a\u0663007b00\U0001d7d8", "12\u00e934"]
    m = MilpModel("m0")
    m.add_vars(names)
    m.add_rows(names[:3], range(3), range(3), [1.0] * 3, LE, 1.0)
    return m, names, names[:3]


@settings(max_examples=200, deadline=None)
@given(named_models(unicode_names=True, text=digit_text), st.data())
@example(_digit_names(), None)
@example((MilpModel("empty"), [], []), None)
def test_digit_run_names_round_trip(drawn, data):
    """Model files split every name into a template and its ASCII digit
    runs; whatever the names, a model file gives back the name blobs byte
    for byte and the arrays bit for bit, and a values file saved over those
    names reads back against the re-read model, its values in order."""
    m, var_names, con_names = drawn
    for blob in (m._var_names.blob, m._con_names.blob):
        packed = _pack_names(blob, "s")
        template = bytes(packed["s_template"])
        assert not any(c in template for c in b"123456789")
        assert template.count(b"0") == len(packed["s_widths"])
        assert all(1 <= w <= 18 for w in packed["s_widths"])
    vals = {name: data.draw(finite) if data else float(j)
            for j, name in enumerate(var_names)}
    with tempfile.TemporaryDirectory() as tmp:
        save_model(m, Path(tmp) / "m.npz")
        back = load_model(Path(tmp) / "m.npz")
        save_solution(make_solution("optimal", 1.0, vals), Path(tmp) / "s.npz")
        stored = load_solution(Path(tmp) / "s.npz", back)
    assert back._var_names.blob == m._var_names.blob
    assert back._con_names.blob == m._con_names.blob
    assert back.var_names == tuple(var_names) and back.name == m.name
    assert [c.name for c in back.constraints] == con_names
    assert_identical_arrays(m.to_arrays(), back.to_arrays())
    assert stored.tobytes() == np.array(list(vals.values()), dtype=float).tobytes()


def loop_residual(con, values):
    """One row's violation by a plain loop over its record, in column order."""
    lhs = sum(c * values[f"x{j}"] for j, c in sorted(zip(con.idx, con.coef)))
    if con.sense == LE:
        return max(0.0, lhs - con.rhs)
    if con.sense == GE:
        return max(0.0, con.rhs - lhs)
    return abs(lhs - con.rhs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_audit_matches_row_loop(data):
    """Every row is its own family here (names hold no "_"), so the audit's
    maximum is that row's residual; both sum the row's terms in column
    order."""
    m = data.draw(models())
    values = {name: data.draw(st.floats(-10.0, 10.0)) for name in m.var_names}
    report = audit_constraints(m, list(values.values()))
    assert set(report) == {con.name for con in m.constraints}
    for con in m.constraints:
        expected = loop_residual(con, values)
        assert report[con.name] == {"checked": 1, "max_residual": expected,
                                    "worst": con.name if expected > 0 else ""}


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------

names = st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=8)
STATUSES = OK_STATUSES + ("infeasible", "unbounded", "error")


def bits(values) -> list[tuple[str, bytes]]:
    """Names in order with each value's exact float64 bytes, of a mapping
    or a Solution's values view."""
    return [(name, struct.pack("<d", v)) for name, v in values.items()]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(names, finite, max_size=8))
@example({})
@example({"x": -0.0, "y": 1.5e300, "z": -1e-300})
def test_solution_values_round_trip(vals):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.npz"
        save_solution(make_solution("optimal", 1.0, vals), path)
        stored = load_solution(path, names_model(vals))
    assert stored.tobytes() == np.array(list(vals.values()), dtype=float).tobytes()


@pytest.mark.parametrize("bad", [INF, -INF, float("nan")])
def test_non_finite_solution_values_refused(tmp_path, bad):
    """A value that is not finite is refused, naming the variable, where it
    would enter: by ``save_solution`` and ``save_solutions`` before any file
    is written, by ``load_solution`` in a file written by other means, and
    by ``solve_lp`` when it would fix an integer column."""
    sol = make_solution("optimal", 1.0, {"x": 1.0, "u_1": bad})
    path = tmp_path / "s.npz"
    with pytest.raises(ModelError, match=rf"s\.npz: variable 'u_1' has value {bad}$"):
        save_solution(sol, path)
    with pytest.raises(SolveError, match=rf"solution of 'k': variable 'u_1' has value {bad}$"):
        save_solutions(tmp_path, {"ok": make_solution("infeasible"), "k": sol})
    assert not path.exists() and not (tmp_path / "solutions").exists()
    save_solution(make_solution("optimal", 1.0, {"x": 1.0, "u_1": 1.0}), path)
    with np.load(path) as npz:
        arrays = dict(npz)
    arrays["x"][1] = bad
    np.savez_compressed(path, **arrays)
    with pytest.raises(ModelError, match=rf"s\.npz: variable 'u_1' has value {bad}$"):
        load_solution(path, names_model(["x", "u_1"]))
    m = MilpModel()
    m.add_vars(["x"], 0.0, 1.0)
    m.add_vars(["u_1"], 0.0, 1.0, obj=1.0, integer=True)
    with pytest.raises(ModelError, match=rf"provides value {bad} for integer variable 'u_1'"):
        milp.ScipySolver().solve_lp(m, fixed=sol.x)


@st.composite
def solutions(draw):
    """Any status; an ok one always has values (possibly none) and a number
    objective, another may; the gap is >= 0, as ``load_solutions`` asks,
    and the values are finite."""
    status = draw(st.sampled_from(STATUSES))
    vals = draw(st.dictionaries(names, finite, max_size=6))
    if status not in OK_STATUSES and draw(st.booleans()):
        vals = {}
    return make_solution(
        status, draw(values if status in OK_STATUSES else st.none() | values), vals,
        gap=draw(st.sampled_from([0.0, 1e-4, INF]) | finite.filter(lambda g: g >= 0)),
        wall_seconds=draw(st.floats(0.0, 1e4)),
        message=draw(st.text(max_size=12)),
        dual_bound=draw(st.none() | values),
        nodes=draw(st.none() | st.integers(0, 2**40)),
        audit=draw(st.dictionaries(names, st.fixed_dictionaries({
            "checked": st.integers(0, 10**6), "max_residual": finite,
            "worst": names}), max_size=3)))


@settings(max_examples=200, deadline=None)
@given(solutions())
@example(make_solution("time_limit", 3.0, {"x": 1.0}, gap=INF, dual_bound=-INF, nodes=0,
                       audit={"bal": {"checked": 2, "max_residual": 0.0, "worst": ""}}))
@example(make_solution("infeasible", message="no point"))
def test_solution_header_and_values_round_trip(sol):
    """``save_solutions`` -> ``load_solutions`` rebuilds the same Solution:
    header fields exact (-0.0, an inf gap and the audit included), values
    bit for bit and in order."""
    with tempfile.TemporaryDirectory() as tmp:
        save_solutions(Path(tmp), {"k": sol})
        back = load_solutions(Path(tmp), {"k": names_model(sol.values)})["k"]
    # JSON text with sorted keys tells -0.0 from 0.0 and 1 from 1.0, as repr
    # does, but not the key order of the audit, which the file sorts
    header = [f.name for f in fields(Solution) if f.init]
    assert "audit" in header and "values" not in header
    assert [json.dumps(getattr(back, key), sort_keys=True) for key in header] == \
        [json.dumps(getattr(sol, key), sort_keys=True) for key in header]
    assert bits(back.values) == bits(sol.values)


@st.composite
def any_solutions(draw):
    """Any Solution the type allows: an unknown status, a NaN objective or
    dual bound, a negative or NaN gap or wall time, a negative node count
    and a value that is not finite among them.  An ok one without an
    objective is refused at construction."""
    status = draw(st.sampled_from(STATUSES + ("bogus",)))
    objective = values | st.just(float("nan"))
    return make_solution(
        status, draw(objective if status in OK_STATUSES else st.none() | objective),
        draw(st.dictionaries(names, values | st.just(float("nan")), max_size=4)),
        gap=draw(st.floats() | st.sampled_from([0.0, INF])),
        wall_seconds=draw(st.floats() | st.just(0.0)),
        message=draw(st.text(max_size=8)),
        dual_bound=draw(st.none() | values | st.just(float("nan"))),
        nodes=draw(st.none() | st.integers(-2, 5)))


@settings(max_examples=300, deadline=None)
@given(any_solutions())
@example(make_solution("infeasible", gap=-1.0))
@example(make_solution("bogus"))
@example(make_solution("optimal", 1.0, nodes=-1))
@example(make_solution("optimal", 1.0))
@example(make_solution("optimal", 1.0, {"x": INF}))
def test_every_solution_round_trips_or_is_refused_at_write(sol):
    """``save_solutions`` either writes a Solution that ``load_solutions``
    gives back equal, its values bit for bit, or refuses it, naming the
    kind, before writing any file; it never writes a header the reader
    refuses."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            save_solutions(Path(tmp), {"k": sol})
        except SolveError as exc:
            assert "'k'" in str(exc)
            assert not list(Path(tmp).rglob("k.*"))
            return
        back = load_solutions(Path(tmp), {"k": names_model(sol.values)})["k"]
    assert back == sol and bits(back.values) == bits(sol.values)


def _tampered_solution(arrays):
    """(case, arrays) for damaged copies of the values file of ``a1``, ``b2``."""
    yield "one value short", dict(arrays, x=arrays["x"][:-1])
    yield "one value more", dict(arrays, x=np.append(arrays["x"], 1.0))
    yield "other names", dict(arrays, names_sha256=np.frombuffer(
        milp._digest(names_model(["a1"])._var_names), np.uint8))
    yield "short digest", dict(arrays, names_sha256=arrays["names_sha256"][:16])
    yield "object array", dict(arrays, x=arrays["x"].astype(object))
    yield "integer values", dict(arrays, x=arrays["x"].astype(np.int64))
    yield "2-D values", dict(arrays, x=arrays["x"].reshape(1, -1))
    yield "missing values", {"names_sha256": arrays["names_sha256"]}
    yield "missing digest", {"x": arrays["x"]}
    yield "parent layout", dict(_pack_names(b"a1\nb2", "names"), values=arrays["x"])


def test_solution_file_refusals(tmp_path):
    """A values file is read only against the model it was saved for: one
    damaged, in the parent layout, or saved for other names or another
    count of values is refused, naming the file (and both digests)."""
    path = tmp_path / "s.npz"
    model = names_model(["a1", "b2"])
    save_solution(make_solution("optimal", 1.0, {"a1": 1.0, "b2": -0.0}), path)
    with np.load(path) as npz:
        arrays = dict(npz)
    assert sorted(arrays) == ["names_sha256", "x"]
    for case, bad in _tampered_solution(arrays):
        np.savez(tmp_path / "bad.npz", **bad)
        with pytest.raises(ModelError, match="bad.npz"):
            load_solution(tmp_path / "bad.npz", model)
            pytest.fail(f"{case} was accepted")
    digest = arrays["names_sha256"].tobytes().hex()
    with pytest.raises(ModelError, match=rf"SHA-256 {digest}, model 'model' has [0-9a-f]{{64}}$"):
        load_solution(path, names_model(["a1", "b3"]))
    np.savez(tmp_path / "bad.npz", **dict(arrays, x=arrays["x"][:-1]))
    with pytest.raises(ModelError, match=r"bad\.npz: 1 values for the 2 variables"):
        load_solution(tmp_path / "bad.npz", model)
    (tmp_path / "bad.npz").write_bytes(b"not a zip")
    with pytest.raises(ModelError, match="not a solution file"):
        load_solution(tmp_path / "bad.npz", model)
    (tmp_path / "bad.npz").write_bytes(b"junk")
    with pytest.raises(ModelError, match=r"not a solution file: not an \.npz archive$") as info:
        load_solution(tmp_path / "bad.npz", model)
    assert "allow_pickle" not in str(info.value)


def merged_rows(num_rows, entries):
    """The CSR arrays ``add_rows`` builds from (row, column, value) entries,
    by a plain dict merge per row: zero values and negative columns are
    skipped, a repeated column adds its value to the running sum at its
    first place, and a sum of zero is dropped."""
    merged = [{} for _ in range(num_rows)]
    for i, j, v in entries:
        if v != 0.0 and j >= 0:
            merged[i][j] = merged[i].get(j, 0.0) + v
    indptr, cols, coefs = [0], [], []
    for row in merged:
        kept = [(j, v) for j, v in row.items() if v != 0.0]
        cols += [j for j, _ in kept]
        coefs += [v for _, v in kept]
        indptr.append(len(cols))
    return indptr, cols, coefs


# values that cancel, sum differently in another order (0.1 + 0.2 + 0.3),
# overflow to inf and turn nan on summing
entry_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, -0.6, 1e308, -1e308,
                                INF, -INF]) | finite


@st.composite
def row_batches(draw):
    """(model, row count, (row, column, value) entries, senses, rhs): a
    drawn model and a batch of rows for it whose entries repeat columns,
    hold zeros and negative columns, and come in any row order."""
    m = draw(named_models())[0]
    count = draw(st.integers(0, 4))
    cells = st.tuples(st.integers(0, max(count - 1, 0)), st.integers(-2, min(m.num_vars, 3) - 1))
    entries = draw(st.lists(st.tuples(cells, entry_values).map(lambda e: (*e[0], e[1])),
                            max_size=24 if count else 0))
    senses = draw(st.lists(st.sampled_from([LE, GE, EQ]), min_size=count, max_size=count))
    return m, count, entries, senses, draw(st.lists(finite, min_size=count, max_size=count))


def _two_columns():
    m = MilpModel("m")
    m.add_vars(["x", "y"])
    return m


@settings(max_examples=300, deadline=None)
@given(row_batches())
@example((_two_columns(), 2, [(1, 0, 0.1), (0, 1, 1.0), (1, 0, 0.2), (1, -1, 5.0),
                              (1, 0, 0.3), (0, 1, -1.0), (1, 1, 0.0), (0, 0, 2.0)],
          [LE, EQ], [1.0, 2.0]))
def test_add_rows_matches_dict_merge(batch):
    """Rows with repeated columns, zero values and negative columns, given
    in any order, after rows already held: ``add_rows`` appends bit for bit
    the CSR arrays of a plain per-row dict merge, or, if a merged value is
    not finite, refuses the batch and leaves the model as it was."""
    m, count, entries, senses, rhs = batch
    before, state = m.num_cons, model_state(m)
    indptr, cols, coefs = merged_rows(count, entries)

    def add():
        m.add_rows([f"new{i}" for i in range(count)], [e[0] for e in entries],
                   [e[1] for e in entries], [e[2] for e in entries], senses, rhs)

    if not np.isfinite(coefs).all():
        with pytest.raises(ModelError, match="coefficient"):
            add()
        assert model_state(m) == state
        return
    add()
    assert all(new.startswith(buf) for new, buf in zip(model_state(m)[0], state[0]))
    base = m._indptr[before]
    assert m._indptr[before:].tolist() == [base + k for k in indptr]
    assert m._cols[base:].tolist() == cols
    assert m._coefs[base:].tobytes() == np.array(coefs, dtype=np.float64).tobytes()
    assert m._sense[before:] == bytes([LE, GE, EQ].index(s) for s in senses)
    assert m._rhs[before:].tolist() == rhs
    assert m.num_cons == before + count


@settings(max_examples=100, deadline=None)
@given(named_models())
def test_failed_additions_leave_the_model_as_it_was(drawn):
    """Every refused ``add_vars``/``add_rows`` call adds nothing, leaves
    each name at its position, and the model takes the next valid
    addition.  A name that is taken or repeats is added, and refused,
    naming it, by the MPS writer and by the name views of a solve."""
    m, var_names, con_names = drawn
    n = m.num_vars
    before = model_state(m)
    taken_var, taken_row = var_names[0], (con_names or ["r0"])[0]
    if not con_names:
        m.add_rows(["r0"], [], [], [], LE, 0.0)
        before = model_state(m)
    refused = [
        lambda: m.add_vars(["a\nb"]),                              # newline
        lambda: m.add_vars(["lo", "hi"], lb=[0.0, 2.0], ub=1.0),   # lb > ub
        lambda: m.add_rows(["a\nb"], [0], [0], [1.0], LE, 0.0),
        lambda: m.add_rows(["fresh"], [0], [0], [1.0], "<", 0.0),     # sense
        lambda: m.add_rows(["fresh"], [0], [n], [1.0], LE, 0.0),      # column
        lambda: m.add_rows(["fresh"], [1], [0], [1.0], LE, 0.0),      # row
        lambda: m.add_rows(["fresh"], [0], [0], [INF], LE, 0.0),      # coefficient
        lambda: m.add_rows(["fresh"], [0], [0], [1.0], LE, np.nan),   # rhs
        lambda: m.add_vars(["fresh"], obj=-INF),                      # objective
        lambda: m.add_vars(["fresh"], ub=np.nan),                     # bound
    ]
    for call in refused:
        with pytest.raises(ModelError):
            call()
        assert model_state(m) == before
    repeats = [
        (lambda c: c.add_vars(["fresh", taken_var]), "variable", taken_var),
        (lambda c: c.add_vars(["twice", "twice"]), "variable", "twice"),
        (lambda c: c.add_rows(["fresh", taken_row], [0], [0], [1.0], LE, 0.0),
         "constraint", taken_row),
        (lambda c: c.add_rows(["twice", "twice"], [0], [0], [1.0], LE, 0.0),
         "constraint", "twice"),
    ]
    for add, what, name in repeats:
        repeated = copy.deepcopy(m)
        add(repeated)
        message = re.escape(f"duplicate {what} {name!r}")
        with tempfile.TemporaryDirectory() as tmp, pytest.raises(ModelError, match=message):
            write_mps(repeated, Path(tmp) / "m.mps")
        # an LP optimum's values and duals, as a session hands them back,
        # are read by position; a lookup in their views is refused
        out = milp._Outcome("kOptimal", "", dict.fromkeys(milp._INFO, 0.0),
                            np.zeros(repeated.num_vars), np.zeros(repeated.num_cons))
        sol = milp._solution(repeated, False, out, 0.0)
        with pytest.raises(ModelError, match=message):
            (sol.values if what == "variable" else sol.duals)["fresh"]
    assert model_state(m) == before
    m.add_vars(["fresh", "twice"], ub=[1.0, 2.0])
    m.add_rows(["fresh", "twice"], [1, 0], [n + 1, n], [3.0, 4.0], [GE, EQ], [1.0, 2.0])
    assert m.var_names[-2:] == ("fresh", "twice")
    assert [c.name for c in m.constraints][-2:] == ["fresh", "twice"]
    assert [m.constraints[-2].idx, m.constraints[-1].idx] == [[n], [n + 1]]
