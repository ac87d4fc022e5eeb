"""Mixed-integer linear model container and its HiGHS solve.

A model is a list of named variables (bounds, objective coefficient,
integrality) and named sparse constraints with a sense in {<=, =, >=}; the
objective is always minimized.  Models are stored between pipeline stages as
compressed array files (``save_model``/``load_model``), and so are the values
of their solutions (``save_solution``/``load_solution``).  Models are solved
in-process by HiGHS, one session per solve (``ScipySolver``, ``_highs_solve``)
through the bindings scipy ships: the columns and the CSR rows are passed as
stored, every option is set in that one helper, and the solution keeps
HiGHS's dual bound and node count.  A model can also be exported as an MPS
file (``write_mps``; ``parse_mps`` reads it back), a library function that
no pipeline stage calls.

Variables are stored as columns (packed names, ``array('d')`` bounds and
objective, a ``bytearray`` of integer flags) and constraints as CSR rows
(packed names, ``indptr``, column indices, coefficients, sense codes,
rhs).  ``variables`` and ``constraints`` are read-only views that build a
``Variable`` or ``Constraint`` tuple on access; ``to_arrays`` copies the
buffers out, transposing the matrix from read-only views of them (``_csr``).

Columns and rows enter a model only through ``add_vars`` and ``add_rows``,
a block at a time; ``add_var`` and ``add_con`` are their one-entry forms,
the latter addressing columns by name.  The variable names and the row
names are each kept packed: one newline-joined UTF-8 blob, the form
``save_model`` writes, so a name costs its bytes and a separator, not a
Python string.  One name is read through an offsets array built on first
positional access; bulk readers (solution values, duals, the audit, MPS
export) decode the whole blob once per call; ``var_names`` shares it, so
comparing two models' names compares bytes.  A model keeps no name ->
position mapping and an addition does not check that its names are new:
the builders' names are distinct by construction.  Names are checked to be
distinct where they become keys, by ``_keyed`` alone: a solve's values and
duals, an MPS file, a solution values file and ``add_con``'s lookup.  A
model file stores each name blob split into a template and its digit runs,
and the CSR index arrays as first differences (see "array files" below);
loading rebuilds the same blobs and buffers.  The sidecar written next to a
model file (``write_registry``) carries the model's name and its metadata
only, as compact JSON.

scipy loads at a process's first matrix build (``to_arrays``, the audit,
``write_mps``) or solve, not at import, so the stages that never solve do
not pay for it; a solve itself builds no scipy matrix.  A solve loads the
HiGHS bindings' extension file alone (``_bindings``: 3 modules, about
0.01 s and 3.6 MB of RSS), not the ``scipy.optimize`` package around it
(about 250 modules, 0.3 s and 27 MB), and ``scipy.sparse`` loads at the
audit after it.  The package keeps
the same rule one level up: ``import storagg`` loads only what writing a
template and ingesting it run, and this module, like the clustering,
builder and evaluation modules, loads when a stage or a caller first needs
it (see ``storagg/__init__.py``).
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
import time
import zipfile
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .system import read_json, to_json, write_json

INF = float("inf")

LE, GE, EQ = "<=", ">=", "="
_SENSES = (LE, GE, EQ)      # a row's sense code is its position here
_SENSE_CODE = {s: k for k, s in enumerate(_SENSES)}

STATUS_OPTIMAL = "optimal"
STATUS_GAP_LIMIT = "gap_limit"
STATUS_TIME_LIMIT = "time_limit"      # stopped by the time limit with an incumbent
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ERROR = "error"
OK_STATUSES = (STATUS_OPTIMAL, STATUS_GAP_LIMIT, STATUS_TIME_LIMIT)
STATUSES = OK_STATUSES + (STATUS_INFEASIBLE, STATUS_UNBOUNDED, STATUS_ERROR)


class ModelError(ValueError):
    pass


class Variable(NamedTuple):
    name: str
    lb: float = 0.0
    ub: float = INF
    obj: float = 0.0
    integer: bool = False


class Constraint(NamedTuple):
    name: str
    idx: list          # variable positions
    coef: list         # matching coefficients
    sense: str
    rhs: float


class _Records(Sequence):
    """Read-only sequence view that builds record ``i`` on access."""

    def __init__(self, size, record):
        self._size, self._record = size, record

    def __len__(self) -> int:
        return self._size()

    def __getitem__(self, i: int):
        return self._record(range(self._size())[i])

    def __iter__(self):
        return map(self._record, range(self._size()))


class _Names(Sequence):
    """Names packed as one newline-joined UTF-8 blob, read in place.

    ``names[j]`` decodes one name through offsets built on first use, a slice
    is a tuple, iterating or ``tolist`` decodes the whole blob.  Two compare
    as bytes, one equals a tuple of the same names; unhashable."""

    def __init__(self, what: str, blob: bytearray | None = None, count: int = 0):
        self.what = what
        self.blob = bytearray() if blob is None else blob
        self._count = count
        self._starts: array | None = None    # name j is blob[starts[j]:starts[j + 1] - 1]
        self._shared = False                 # another _Names reads this blob too

    def __len__(self) -> int:
        return self._count

    def _offsets(self) -> array:
        if self._starts is None:
            seps = np.flatnonzero(np.frombuffer(self.blob, dtype=np.uint8) == 10)
            ends = np.append(seps, len(self.blob)) if self._count else seps
            self._starts = array("q", [0])
            self._starts.frombytes((ends + 1).astype(np.int64).tobytes())
        return self._starts

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(self.tolist()[j])
        j = range(self._count)[j]
        starts = self._offsets()
        return self.blob[starts[j]:starts[j + 1] - 1].decode("utf-8")

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other):
        if isinstance(other, _Names):
            return self._count == other._count and self.blob == other.blob
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def tolist(self) -> list[str]:
        return self.blob.decode("utf-8").split("\n") if self._count else []

    def snapshot(self) -> _Names:
        """A copy sharing the blob; the next ``extend`` of either copies it first."""
        copy = _Names(self.what, self.blob, self._count)
        self._shared = copy._shared = True
        return copy

    def extend(self, names: list[str]) -> None:
        """Add ``names`` last.  Raises ModelError, adding none of them, if
        one holds a newline, the separator of the blob."""
        data = _joined(names, self.what)
        if self._shared:
            self.blob, self._shared = bytearray(self.blob), False
        if self._count and names:
            self.blob += b"\n"
        self.blob += data
        self._count += len(names)
        self._starts = None


class MilpModel:
    """Sparse minimize-objective MILP over named variables."""

    def __init__(self, name: str = "model"):
        self.name = name
        # columns
        self._var_names = _Names("variable")
        self._lb, self._ub, self._obj = array("d"), array("d"), array("d")
        self._int = bytearray()
        # CSR rows
        self._con_names = _Names("constraint")
        self._indptr, self._cols = array("q", [0]), array("i")
        self._coefs, self._rhs = array("d"), array("d")
        self._sense = bytearray()

    # -- construction -------------------------------------------------------

    def add_vars(self, names: list[str], lb=0.0, ub=INF, obj=0.0,
                 integer=False) -> np.ndarray:
        """Add one column per name, last, and return their positions.  The
        bounds, objective and integer flag are given per column or once for
        all.  Raises ModelError, adding nothing, if a name holds a newline, a
        bound is NaN, an objective coefficient is not finite or a lower bound
        exceeds its upper bound; new names are not checked."""
        n = len(names)
        lb, ub, obj = (_each(a, n, np.float64) for a in (lb, ub, obj))
        flags = _each(integer, n, np.uint8)
        bad = np.flatnonzero(~(lb <= ub))          # a NaN bound among them
        if len(bad):
            j = bad[0]
            raise ModelError(f"variable {names[j]!r}: lb {lb[j]} is not <= ub {ub[j]}")
        j = _first_bad(obj)
        if j is not None:
            raise ModelError(f"variable {names[j]!r}: objective coefficient {obj[j]}")
        start = self.num_vars
        self._var_names.extend(names)
        for buf, values in ((self._lb, lb), (self._ub, ub), (self._obj, obj)):
            buf.frombytes(values.tobytes())
        self._int += flags.tobytes()
        return np.arange(start, start + n, dtype=np.int32)

    def add_rows(self, names: list[str], row, col, val, sense, rhs) -> None:
        """Add one constraint row per name, last.  Entry k puts ``val[k]``
        at column ``col[k]`` of row ``row[k]``, a position in ``names``.
        Within a row the entries keep their order; a zero value or a negative
        column is dropped, and a repeated column gets the sum of its values,
        added in order, at its first place.  ``sense`` and ``rhs`` are given
        per row or once for all.  Raises ModelError, adding nothing, if a
        name holds a newline, a sense is unknown, a column or row lies beyond
        the last, or a rhs or a summed coefficient is not finite; new names
        are not checked."""
        n = len(names)
        try:
            code = bytes(_SENSE_CODE[s] for s in _each(sense, n).tolist())
        except KeyError as exc:
            raise ModelError(f"unknown sense {exc.args[0]!r}") from None
        rhs = _each(rhs, n, np.float64)
        i = _first_bad(rhs)
        if i is not None:
            raise ModelError(f"constraint {names[i]!r}: rhs {rhs[i]}")
        row, col, val = (np.asarray(a, dtype=t).ravel() for a, t in
                         ((row, np.int64), (col, np.int64), (val, np.float64)))
        keep = (val != 0.0) & (col >= 0)
        row, col, val = row[keep], col[keep], val[keep]
        bad = (col >= self.num_vars) | (row < 0) | (row >= n)
        if bad.any():
            k = int(bad.argmax())
            raise ModelError(f"constraint entry at row {row[k]}, column {col[k]} lies "
                             f"outside {n} rows and {self.num_vars} columns")
        order = np.argsort(row, kind="stable")
        row, col, val = row[order], col[order], val[order]
        key = row * max(self.num_vars, 1) + col
        sorted_key = np.sort(key)
        if (sorted_key[1:] == sorted_key[:-1]).any():   # a column repeats within a row
            _, first, group = np.unique(key, return_index=True, return_inverse=True)
            sums = np.zeros(len(first))
            with np.errstate(over="ignore", invalid="ignore"):   # to inf or nan, as floats do
                np.add.at(sums, group, val)     # each repeat added in entry order
            first.sort()
            first = first[sums[group[first]] != 0.0]
            row, col, val = row[first], col[first], sums[group[first]]
        k = _first_bad(val)
        if k is not None:
            raise ModelError(f"constraint {names[row[k]]!r}: coefficient {val[k]} "
                             f"of variable {self._var_names[col[k]]!r}")
        self._con_names.extend(names)
        self._cols.frombytes(col.astype(np.int32).tobytes())
        self._coefs.frombytes(val.tobytes())
        ends = np.searchsorted(row, np.arange(n), side="right") + self._indptr[-1]
        self._indptr.frombytes(ends.astype(np.int64).tobytes())
        self._sense += code
        self._rhs.frombytes(rhs.tobytes())

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0, integer: bool = False) -> str:
        self.add_vars([name], lb, ub, obj, integer)
        return name

    def add_con(self, name: str, terms, sense: str, rhs: float) -> str:
        """One row over named variables: ``terms`` maps or pairs names with
        coefficients, looked up through a dict built on each call.  Raises
        ModelError on a variable that is not in the model and has a non-zero
        coefficient, or if a variable name of the model repeats."""
        items = list(terms.items() if isinstance(terms, dict) else terms)
        names = self._var_names.tolist()
        index = _keyed(names, range(len(names)), "variable")
        for var, coef in items:
            if coef != 0.0 and var not in index:
                raise ModelError(f"constraint {name!r} references unknown variable {var!r}")
        self.add_rows([name], np.zeros(len(items)), [index.get(var, -1) for var, _ in items],
                      [coef for _, coef in items], sense, rhs)
        return name

    # -- introspection ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    @property
    def num_cons(self) -> int:
        return len(self._con_names)

    @property
    def var_names(self) -> Sequence[str]:
        """Variable names in declaration order: a packed copy (``_Names``)."""
        return self._var_names.snapshot()

    @property
    def variables(self) -> Sequence[Variable]:
        return _Records(self._var_names.__len__, self._variable)

    @property
    def constraints(self) -> Sequence[Constraint]:
        return _Records(self._con_names.__len__, self._constraint)

    def _variable(self, j: int) -> Variable:
        return Variable(self._var_names[j], self._lb[j], self._ub[j], self._obj[j],
                        bool(self._int[j]))

    def _constraint(self, i: int) -> Constraint:
        a, b = self._indptr[i], self._indptr[i + 1]
        return Constraint(self._con_names[i], self._cols[a:b].tolist(),
                          self._coefs[a:b].tolist(), _SENSES[self._sense[i]],
                          self._rhs[i])

    def _csr(self):
        """The rows as a ``csr_array`` over read-only views of the buffers but
        ``indptr``, an int32 copy, so scipy casts no index to int64.  A buffer
        exporting a view cannot grow: convert the matrix where it is made."""
        import scipy.sparse as sp
        parts = (np.frombuffer(self._coefs), np.frombuffer(self._cols, dtype=np.int32),
                 np.array(self._indptr, np.int32 if len(self._coefs) < 2**31 else np.int64))
        for part in parts:
            part.flags.writeable = False
        return sp.csr_array(parts, shape=(self.num_cons, self.num_vars))

    def _row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(con_lb, con_ub): each row's rhs, opened to -inf/inf on the side
        its sense leaves free."""
        sense = np.frombuffer(self._sense, dtype=np.uint8)
        rhs = np.frombuffer(self._rhs)
        return (np.where(sense == _SENSE_CODE[LE], -INF, rhs),
                np.where(sense == _SENSE_CODE[GE], INF, rhs))

    def to_arrays(self):
        """(c, integrality, lb, ub, A, con_lb, con_ub): float64 arrays but
        ``integrality``, uint8 as ``scipy.optimize.milp`` casts it, and ``A``,
        a CSC array of float64 with int32 indices (int64 past 2**31 nonzeros).

        Every array is a fresh copy: the caller may change it in place.
        """
        cl, cu = self._row_bounds()
        integrality = np.frombuffer(self._int, dtype=np.uint8).copy()
        return (np.array(self._obj), integrality, np.array(self._lb),
                np.array(self._ub), self._csr().tocsc(), cl, cu)


def _each(values, n: int, dtype=None) -> np.ndarray:
    """``values``, given once or one per entry, as an array of ``n``."""
    a = np.asarray(values, dtype)
    return a if a.shape == (n,) else np.full(n, a, dtype=a.dtype)


def _first_bad(values: np.ndarray, nan_only: bool = False) -> int | None:
    """The position of the first NaN in ``values`` or, unless ``nan_only``,
    of the first infinity; None if there is none.  One sum clears most
    arrays without a temporary one; a scan tells an overflow apart."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if np.isfinite(total) or (nan_only and not np.isnan(total)):
        return None
    bad = np.isnan(values) if nan_only else ~np.isfinite(values)
    return int(bad.argmax()) if bad.any() else None


def _keyed(names: list[str], values, what: str, where=None) -> dict:
    """``names`` mapped to ``values``; raises ModelError naming the first
    name that repeats, after ``where`` (a file) when it is given."""
    out = dict(zip(names, values))
    if len(out) != len(names):
        last = {name: i for i, name in enumerate(names)}
        dup = next(name for i, name in enumerate(names) if last[name] != i)
        prefix = "" if where is None else f"{where}: "
        raise ModelError(f"{prefix}duplicate {what} {dup!r}")
    return out


# ---------------------------------------------------------------------------
# array files
# ---------------------------------------------------------------------------

# Names and the sparse structure repeat period after period, which deflate
# alone barely exploits: ``q_p8735_nuclear`` differs from ``q_p8734_nuclear``
# only in its number, and each period's rows repeat the previous period's
# column pattern shifted by a constant.  So a file stores
#
# - each name blob as three arrays, under ``<side>_template``,
#   ``<side>_numbers`` and ``<side>_widths``: the blob with every run of
#   ASCII digits (split every ``_DIGIT_RUN`` digits) replaced by one ``0``
#   byte, the runs' values as int64 and their widths as uint8, so leading
#   zeros survive.  An ASCII digit byte never occurs inside a multi-byte
#   UTF-8 sequence, so any name round-trips exactly;
# - the integer arrays (``indptr``, ``cols`` and the run values) as their
#   first differences, little-endian, byte plane by byte plane: all lowest
#   bytes, then all second bytes, and so on;
# - the float and flag arrays as the model holds them.

_DIGIT_RUN = 18                       # 10**18 - 1 still fits an int64
_POW10 = 10 ** np.arange(_DIGIT_RUN + 1, dtype=np.int64)
_MARKER = ord("0")                    # a digit run in a template
# the arrays stored as the model holds them, with their attribute and dtype
_PLAIN = {"lb": ("_lb", np.float64), "ub": ("_ub", np.float64),
          "obj": ("_obj", np.float64), "integer": ("_int", np.uint8),
          "coefs": ("_coefs", np.float64), "sense": ("_sense", np.uint8),
          "rhs": ("_rhs", np.float64)}
# the CSR index arrays, stored as byte planes of first differences
_DELTA = {"indptr": ("_indptr", "<i8"), "cols": ("_cols", "<i4")}


def _name_spec(*sides: str) -> dict:
    """The arrays (all uint8) that store the name blobs of ``sides``."""
    return {f"{side}_{part}": np.uint8 for side in sides
            for part in ("template", "numbers", "widths")}


# every stored array and its dtype
_STORED = {"name": np.uint8, **_name_spec("var", "con"),
           **{key: dtype for key, (_, dtype) in _PLAIN.items()},
           **{f"{key}_delta": np.uint8 for key in _DELTA}}


def _delta_planes(values, dtype: str) -> np.ndarray:
    """First differences of an integer sequence, laid out byte plane by byte
    plane as uint8."""
    a = np.asarray(values).astype(dtype)
    a[1:] -= a[:-1]
    return a.view(np.uint8).reshape(-1, a.itemsize).T.ravel()


def _undelta(path, planes: np.ndarray, count: int, dtype: str, what: str) -> np.ndarray:
    """The ``count`` integers ``_delta_planes`` stored, as a native array."""
    size = np.dtype(dtype).itemsize
    if len(planes) != count * size:
        raise ModelError(f"{path}: {what} holds {len(planes)} bytes, "
                         f"expected {count} values of {size} bytes")
    deltas = planes.reshape(size, count).T.copy().view(dtype).ravel()
    return np.cumsum(deltas, dtype=np.dtype(dtype).newbyteorder("="))


def _split_runs(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digit runs cut into pieces of at most ``_DIGIT_RUN`` digits."""
    pieces = (ends - starts + _DIGIT_RUN - 1) // _DIGIT_RUN
    first = np.repeat(np.cumsum(pieces) - pieces, pieces)
    cut = np.repeat(starts, pieces) + _DIGIT_RUN * (np.arange(len(first)) - first)
    return cut, np.minimum(cut + _DIGIT_RUN, np.repeat(ends, pieces))


def _pack_names(blob, side: str) -> dict[str, np.ndarray]:
    """The template, numbers and widths arrays of a name blob."""
    text = np.frombuffer(blob, dtype=np.uint8)
    digit = (text >= ord("0")) & (text <= ord("9"))
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    widths = ends - starts
    if widths.max(initial=0) > _DIGIT_RUN:
        starts, ends = _split_runs(starts, ends)
        widths = ends - starts
    numbers = np.zeros(len(starts), dtype=np.int64)
    for e in range(int(widths.max(initial=0))):
        live = widths > e
        numbers[live] += (text[ends[live] - 1 - e] - ord("0")).astype(np.int64) * _POW10[e]
    keep = np.logical_not(digit, out=digit)
    keep[starts] = True
    template = text[keep]
    dropped = np.cumsum(widths - 1)            # digits dropped up to each run's end
    template[starts - dropped + widths - 1] = _MARKER
    return {f"{side}_template": template,
            f"{side}_numbers": _delta_planes(numbers, "<i8"),
            f"{side}_widths": widths.astype(np.uint8)}


def _unpack_names(path, read, side: str, count: int, what: str) -> _Names:
    """The name blob ``_pack_names`` stored, read through ``read`` (see
    ``_reading``) and checked to be UTF-8 holding ``count`` names."""
    template, widths = read(f"{side}_template"), read(f"{side}_widths")
    marks = np.flatnonzero(template == _MARKER)
    planes = read(f"{side}_numbers")
    if len(planes) != 8 * len(marks) or len(widths) != len(marks):
        raise ModelError(f"{path}: {len(marks)} digit-run markers in the {what} names "
                         f"for {len(planes) / 8:g} numbers and {len(widths)} widths")
    numbers = _undelta(path, planes, len(marks), "<i8", f"{what} name numbers")
    if len(marks) and (widths.min() < 1 or widths.max() > _DIGIT_RUN):
        raise ModelError(f"{path}: a {what} name digit run is not 1..{_DIGIT_RUN} wide")
    if np.any(numbers < 0) or np.any(numbers >= _POW10[widths]):
        raise ModelError(f"{path}: a {what} name number does not fit its width")
    # filled in place through a view, so the text is never copied
    blob = bytearray(len(template) + int(widths.sum(dtype=np.int64)) - len(widths))
    text = np.frombuffer(blob, dtype=np.uint8)
    last = np.cumsum(widths.astype(np.int64) - 1)
    last += marks                              # each run's last digit in the text
    del marks
    rest = np.ones(len(text), dtype=bool)      # where the template's other bytes go
    for e in range(int(widths.max(initial=0))):
        live = widths > e
        text[last[live] - e] = numbers[live] % 10 + ord("0")
        rest[last[live] - e] = False
        numbers //= 10
    del numbers, last
    text[rest] = template[template != _MARKER]
    del rest
    found = int(np.count_nonzero(text == 10)) + 1 if len(text) or count else 0
    del text                      # a bytearray cannot grow while a view of it lives
    _decode(path, blob, what)
    if found != count:
        raise ModelError(f"{path}: {found} {what} names for {count} {what}s")
    return _Names(what, blob, count)


def _joined(names: list[str], what: str) -> bytes:
    text = "\n".join(names)
    if text.count("\n") != max(len(names) - 1, 0):
        bad = next(name for name in names if "\n" in name)
        raise ModelError(f"{what} name {bad!r} contains a newline")
    return text.encode("utf-8")


def save_model(model: MilpModel, path) -> None:
    """Write the model to a compressed ``.npz`` file in the layout described
    above.  Equal models give equal bytes."""
    arrays = {"name": np.frombuffer(model.name.encode("utf-8"), dtype=np.uint8),
              **_pack_names(model._var_names.blob, "var"),
              **_pack_names(model._con_names.blob, "con"),
              **{key: np.frombuffer(getattr(model, attr), dtype=dtype)
                 for key, (attr, dtype) in _PLAIN.items()},
              **{f"{key}_delta": _delta_planes(getattr(model, attr), dtype)
                 for key, (attr, dtype) in _DELTA.items()}}
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def _decode(path, blob, what: str) -> str:
    try:
        return str(memoryview(blob), "utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: {what} names are not UTF-8: {exc}") from None


def _buffer(like, values: np.ndarray):
    """A fresh buffer of the same type as ``like`` holding ``values``."""
    if isinstance(like, bytearray):
        return bytearray(values)
    out = array(like.typecode)
    out.frombytes(memoryview(values).cast("B"))
    return out


@contextmanager
def _reading(path, spec: dict, what: str):
    """Open an ``.npz`` file and yield ``read(key)``, which reads one of the
    arrays ``spec`` names without unpickling and checks it is 1-D of its
    dtype.  Members are read one at a time, so a loader holds only what it
    has decoded so far.  A file that is not a zip archive, or lacks a
    member, is not a ``what`` file."""
    try:
        npz = np.load(path, allow_pickle=False)
        missing = [key for key in spec if key not in npz.files]
    except (AttributeError, ValueError, zipfile.BadZipFile):
        raise ModelError(f"{path}: not a {what} file: not an .npz archive") from None
    with npz:
        if missing:
            raise ModelError(f"{path}: not a {what} file: it lacks {', '.join(missing)}")

        def read(key: str) -> np.ndarray:
            try:
                a = npz[key]
            except ValueError:                 # an object array
                raise ModelError(f"{path}: not a {what} file: {key} holds objects") from None
            if a.dtype != spec[key] or a.ndim != 1:
                raise ModelError(f"{path}: {key} is {a.dtype} of shape {a.shape}, "
                                 f"expected 1-D {np.dtype(spec[key])}")
            return a

        yield read


def load_model(path) -> MilpModel:
    """Read a model written by ``save_model``; nothing is unpickled.

    Raises ModelError if an array is missing (a file in an earlier layout
    among them), is not a 1-D array of its dtype (an object array among
    them), the lengths disagree, a bound is NaN or a lower bound exceeds its
    upper one, an objective coefficient, coefficient or rhs is not finite,
    ``indptr`` does not rise from 0 to the number of nonzeros, a column
    index is out of range, a sense code or integer flag is unknown, or the
    names are damaged: digit-run markers and numbers that do not pair up, a
    width outside 1..18, a number that does not fit its width, text that is
    not UTF-8 or a name count that differs from the columns or rows.
    """
    model = MilpModel()
    with _reading(path, _STORED, "model") as read:
        model.name = _decode(path, read("name"), "model")
        for key, (attr, dtype) in _PLAIN.items():
            values = read(key)
            k = _first_bad(values, key in ("lb", "ub")) if dtype is np.float64 else None
            if k is not None:
                raise ModelError(f"{path}: {key}[{k}] is {values[k]}")
            setattr(model, attr, _buffer(getattr(model, attr), values))
        del values
        n, m, nnz = len(model._lb), len(model._sense), len(model._coefs)
        for key, size in (("ub", n), ("obj", n), ("integer", n), ("rhs", m)):
            found = len(getattr(model, _PLAIN[key][0]))
            if found != size:
                raise ModelError(f"{path}: {key} holds {found} entries, expected {size}")
        lb, ub = np.frombuffer(model._lb), np.frombuffer(model._ub)
        if not (lb <= ub).all():
            j = int((lb <= ub).argmin())        # the first crossed pair
            raise ModelError(f"{path}: lb[{j}] {lb[j]} is not <= ub[{j}] {ub[j]}")
        if (np.frombuffer(model._sense, dtype=np.uint8).max(initial=0) >= len(_SENSES)
                or np.frombuffer(model._int, dtype=np.uint8).max(initial=0) > 1):
            raise ModelError(f"{path}: unknown sense code or integer flag")
        indptr = _undelta(path, read("indptr_delta"), m + 1, _DELTA["indptr"][1], "indptr")
        if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
            raise ModelError(f"{path}: indptr does not rise from 0 to {nnz}")
        model._indptr = _buffer(model._indptr, indptr)
        cols = _undelta(path, read("cols_delta"), nnz, _DELTA["cols"][1], "cols")
        if nnz and (cols.min() < 0 or cols.max() >= n):
            raise ModelError(f"{path}: a column index lies outside 0..{n - 1}")
        model._cols = _buffer(model._cols, cols)
        del indptr, cols
        model._var_names = _unpack_names(path, read, "var", n, "variable")
        model._con_names = _unpack_names(path, read, "con", m, "constraint")
    return model


# the arrays of a solution's values file and their dtypes
_SOLUTION = {**_name_spec("names"), "values": np.float64}


def checked_values(values: dict[str, float], where, error: type[Exception] = ModelError):
    """A solution's ``values`` as a float64 array, in order; raises ``error``
    as ``<where>: variable name <name> contains a newline`` if a name does
    (a values file separates names by newlines), or as ``<where>: variable
    <name> has value <value>`` if a value is not finite."""
    bad = next((name for name in values if "\n" in name), None)
    if bad is not None:
        raise error(f"{where}: variable name {bad!r} contains a newline")
    array = np.fromiter(values.values(), dtype=np.float64, count=len(values))
    k = _first_bad(array)
    if k is not None:
        raise error(f"{where}: variable {list(values)[k]!r} has value {array[k]}")
    return array


def save_solution(sol: Solution, path) -> None:
    """Write a solution's values to a compressed ``.npz`` file.

    The file holds the variable names, packed as a model file packs them,
    and the values as a float64 array in the same order.  Equal values give
    equal bytes.  Raises ModelError, before anything is written, if a value
    is not finite or a name contains a newline.
    """
    values = checked_values(sol.values, path)
    arrays = {**_pack_names("\n".join(sol.values).encode("utf-8"), "names"), "values": values}
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def load_solution(path) -> dict[str, float]:
    """The values written by ``save_solution``, in their stored order;
    nothing is unpickled.

    Raises ModelError if an array is missing (a file in an earlier layout
    among them) or is not a 1-D array of its dtype, the names are damaged
    (as ``load_model`` checks them), the name and value counts disagree, a
    name repeats, or a value is not finite.
    """
    with _reading(path, _SOLUTION, "solution") as read:
        values = read("values")
        names = _unpack_names(path, read, "names", len(values), "variable").tolist()
    out = _keyed(names, values.tolist(), "variable", path)
    checked_values(out, path)
    return out


# ---------------------------------------------------------------------------
# MPS interchange
# ---------------------------------------------------------------------------

_OBJ_ROW = "OBJ"
_MARKER_ON = "    MARKER                 'MARKER'                 'INTORG'\n"
_MARKER_OFF = "    MARKER                 'MARKER'                 'INTEND'\n"
_MPS_TAGS = "LGE"           # indexed by sense code


def _num(x: float) -> str:
    return repr(float(x))


def write_mps(model: MilpModel, path) -> None:
    """Emit the model as an MPS file with deterministic bytes.

    Variables and rows appear in insertion order; every variable gets an
    explicit objective entry and explicit bounds, so a round trip through
    ``parse_mps`` reproduces the model exactly.  Each column's entries come
    from a CSC transpose of the rows, in row order, read in place through
    memoryviews rather than copied into whole-matrix Python lists.  Raises
    ModelError, writing nothing, if a variable or row name repeats.
    """
    var_names, con_names = model._var_names.tolist(), model._con_names.tolist()
    for names, what in ((var_names, "variable"), (con_names, "constraint")):
        _keyed(names, names, what)
    csc = model._csr().tocsc()
    colptr, rows, coefs = map(memoryview, (csc.indptr, csc.indices, csc.data))
    with open(path, "w") as fh:
        fh.write(f"NAME {model.name}\n")
        fh.write("ROWS\n")
        fh.write(f" N  {_OBJ_ROW}\n")
        for name, code in zip(con_names, model._sense):
            fh.write(f" {_MPS_TAGS[code]}  {name}\n")
        fh.write("COLUMNS\n")
        in_int = False
        for j, (name, obj, flag) in enumerate(zip(var_names, model._obj, model._int)):
            integer = bool(flag)
            if integer != in_int:
                fh.write(_MARKER_ON if integer else _MARKER_OFF)
                in_int = integer
            pairs = [(_OBJ_ROW, obj)] + [(con_names[rows[k]], coefs[k])
                                         for k in range(colptr[j], colptr[j + 1])]
            for k in range(0, len(pairs), 2):
                chunk = pairs[k:k + 2]
                cells = "   ".join(f"{row}  {_num(c)}" for row, c in chunk)
                fh.write(f"    {name}  {cells}\n")
        if in_int:
            fh.write(_MARKER_OFF)
        fh.write("RHS\n")
        for name, rhs in zip(con_names, model._rhs):
            fh.write(f"    RHS  {name}  {_num(rhs)}\n")
        fh.write("BOUNDS\n")
        for name, lb, ub, flag in zip(var_names, model._lb, model._ub, model._int):
            if flag and lb == 0.0 and ub == 1.0:
                fh.write(f" BV BND  {name}\n")
                continue
            if lb == ub:
                fh.write(f" FX BND  {name}  {_num(lb)}\n")
                continue
            if lb == -INF:
                fh.write(f" MI BND  {name}\n")
            elif lb != 0.0:
                fh.write(f" LO BND  {name}  {_num(lb)}\n")
            if ub == INF:
                fh.write(f" PL BND  {name}\n")
            else:
                fh.write(f" UP BND  {name}  {_num(ub)}\n")
        fh.write("ENDATA\n")


def parse_mps(path) -> MilpModel:
    """Read back the MPS subset produced by ``write_mps``.

    Accepts any whitespace-separated layout with ROWS / COLUMNS / RHS /
    BOUNDS sections and integer marker lines, which covers files from the
    usual solver toolchains as long as they avoid RANGES.  Rows, columns and
    (row, column, value) entries are collected and added in one
    ``add_vars`` and one ``add_rows`` call, which sum repeated entries and
    drop zeros.  A ROWS name given twice, or a line it cannot read, raises
    ModelError naming the file (and the line).
    """
    name, obj_row, section, in_int = "model", None, None, False
    row_names, senses, rhs, row_of = [], [], [], {}
    col_names, lb, ub, obj, integer, col_of = [], [], [], [], [], {}
    rows, cols, vals = array("i"), array("i"), array("d")

    def index_rows() -> dict[str, int]:
        try:
            return _keyed(row_names, range(len(row_names)), "constraint", path)
        except ModelError as exc:
            raise ModelError(f"{exc} in ROWS") from None

    def column(var: str) -> int:
        if var not in col_of:
            col_of[var] = len(col_names)
            col_names.append(var)
            for values, default in ((lb, 0.0), (ub, INF), (obj, 0.0), (integer, False)):
                values.append(default)
        return col_of[var]

    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens or tokens[0].startswith("*"):
                continue
            # section names start in column 1; data lines are indented, which
            # disambiguates e.g. an RHS vector itself named "RHS"
            if not line[0].isspace() and tokens[0] in (
                    "NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "OBJSENSE"):
                if section == "ROWS":       # the rows are looked up by name from here on
                    row_of = index_rows()
                section = tokens[0]
                if section == "NAME":
                    name = tokens[1] if len(tokens) > 1 else "model"
                if section == "RANGES":
                    raise ModelError(f"{path}: RANGES sections are not supported")
                continue
            try:
                if section == "ROWS":
                    tag, row = tokens[0], tokens[1]
                    if tag == "N":
                        if obj_row is None:
                            obj_row = row
                        continue
                    row_names.append(row)
                    senses.append(_SENSES[_MPS_TAGS.index(tag)])
                    rhs.append(0.0)
                elif section == "COLUMNS":
                    if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                        in_int = tokens[2] == "'INTORG'"
                        continue
                    j = column(tokens[0])
                    integer[j] = integer[j] or in_int
                    for k in range(1, len(tokens) - 1, 2):
                        row, val = tokens[k], float(tokens[k + 1])
                        if row == obj_row:
                            # assigned while still zero, so an objective of -0.0 keeps its sign
                            obj[j] = obj[j] + val if obj[j] else val
                        else:
                            rows.append(row_of[row])
                            cols.append(j)
                            vals.append(val)
                elif section == "RHS":
                    for k in range(1, len(tokens) - 1, 2):
                        i = row_of.get(tokens[k])
                        if i is not None:
                            rhs[i] = float(tokens[k + 1])
                elif section == "BOUNDS":
                    kind, j = tokens[0], column(tokens[2])
                    if kind == "BV":
                        integer[j], lb[j], ub[j] = True, 0.0, 1.0
                    elif kind == "FX":
                        lb[j] = ub[j] = float(tokens[3])
                    elif kind == "LO":
                        lb[j] = float(tokens[3])
                    elif kind == "UP":
                        ub[j] = float(tokens[3])
                    elif kind == "MI":
                        lb[j] = -INF
                    elif kind == "PL":
                        ub[j] = INF
                    else:
                        raise ModelError(f"{path}: unsupported bound type {kind!r}")
            except ModelError:
                raise
            except (KeyError, IndexError, ValueError) as exc:
                raise ModelError(f"{path}, line {number}: cannot read {line.strip()!r} "
                                 f"({type(exc).__name__}: {exc})") from None
    if section == "ROWS":
        index_rows()
    model = MilpModel(name)
    model.add_vars(col_names, lb, ub, obj, integer)
    model.add_rows(row_names, rows, cols, vals, senses, rhs)
    return model


def write_registry(model: MilpModel, path, meta=None) -> None:
    """Write the sidecar of a ``.npz`` model file: the model name and its
    metadata (a ``formulations.ModelMeta`` or a dict) without its None
    fields, as compact JSON with sorted keys."""
    meta = {key: value for key, value in to_json(meta or {}).items() if value is not None}
    write_json(path, {"model": model.name, "meta": meta}, compact=True)


def load_registry(path):
    """The metadata stored by ``write_registry``, unchecked (``load_built_model``
    checks it); raises ModelError, naming the file, if it is no such sidecar."""
    return read_json(path, "model sidecar", ModelError).get("meta")


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

# a number's range, tested once its type is (``system._check_types``)
_AT_LEAST_0 = {"range": (lambda v: v >= 0, "a number >= 0")}


@dataclass
class Solution:
    """A solve's outcome.  Its init fields are ``solutions/<kind>.json``,
    read and, before it is written, checked through ``system.from_json``;
    the values go to a file of their own (``save_solution``) and the duals
    of a pricing LP are never stored."""

    status: str = field(metadata={"range": (lambda v: v in STATUSES, f"one of {list(STATUSES)}")})
    objective: float | None
    gap: float = field(metadata=_AT_LEAST_0)
    wall_seconds: float = field(metadata=_AT_LEAST_0)
    message: str
    audit: dict                          # audit_constraints of an ok solve, else {}
    dual_bound: float | None = None      # a MIP's, from HiGHS; None for an LP or an older file
    nodes: int | None = field(default=None,     # branch-and-bound nodes of a MIP
                              metadata={"range": (lambda v: v >= 0, "an integer >= 0")})
    values: dict[str, float] = field(init=False, default_factory=dict)
    duals: dict[str, float] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.status in OK_STATUSES and self.objective is None:
            raise ValueError(f"objective must be a number for status {self.status!r}, got None")

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (OSError, AttributeError):   # not glibc: nothing to hand back
    _MALLOC_TRIM = None


def trim_heap() -> None:
    """Hand the free pages of every C heap arena back to the system (glibc's
    ``malloc_trim``; nothing elsewhere)."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


_BINDINGS = "scipy.optimize._highspy._core"
_BINDINGS_LOCK = threading.Lock()


def _bindings():
    """The HiGHS bindings scipy ships, the extension module ``_BINDINGS``.

    The first call loads it from its file in scipy's ``optimize/_highspy``
    directory and registers it under its full name, without running the
    ``scipy.optimize`` package ``__init__``: that import loads about 250
    modules a session never calls, about 24 MB that a solving process would
    carry through its largest solve.  A later ``import scipy.optimize``
    finds the registered module and uses the same object.  The load is
    under a lock, as two solve threads may ask at once.  Raises ImportError
    naming the directory if the extension is not there (see pyproject.toml).
    """
    with _BINDINGS_LOCK:
        module = sys.modules.get(_BINDINGS)
        if module is not None:
            return module
        import importlib.util
        from importlib.machinery import PathFinder

        import scipy
        where = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
        spec = PathFinder.find_spec(_BINDINGS, [where])
        if spec is None:
            raise ImportError(f"no HiGHS bindings {_BINDINGS} in {where}", name=_BINDINGS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_BINDINGS] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_BINDINGS]
            raise
        return module


def _highs_call(call, *args, **kwargs):
    """Run one HiGHS call on a short-lived thread, then trim the C heap.

    HiGHS frees its working memory when a solve ends, but on glibc the
    chunks the calling thread keeps cached pin that space in its heap, in
    holes the large buffers of the next model build never fit.  Solved on
    the main thread, the four 364-day aggregated models leave about 50 MB
    resident that the next 364-day ``hm`` build adds to its own peak.  On a
    thread of its own the solver allocates from a separate arena, the
    thread's cache is flushed when it exits, and ``malloc_trim`` then hands
    the free pages of every arena back (``trim_heap``).
    """
    from concurrent.futures import ThreadPoolExecutor   # solve-time only, as scipy is
    with ThreadPoolExecutor(max_workers=1) as pool:
        result = pool.submit(call, *args, **kwargs).result()
    trim_heap()
    return result


# HiGHS model status -> solution status.  An optimum above a gap of 1e-9 is
# ``gap_limit``; a limit is ``time_limit`` only with a feasible incumbent,
# else ``error``; a status not listed, among them ``kUnboundedOrInfeasible``
# and ``kModelError`` (a model HiGHS refuses to load), is ``error``.
_MODEL_STATUS = {"kOptimal": STATUS_OPTIMAL, "kTimeLimit": STATUS_TIME_LIMIT,
                 "kIterationLimit": STATUS_TIME_LIMIT, "kInfeasible": STATUS_INFEASIBLE,
                 "kUnbounded": STATUS_UNBOUNDED}
# the fields of HiGHS's ``getInfo`` a solution reads
_INFO = ("objective_function_value", "mip_gap", "mip_dual_bound", "mip_node_count")
# HiGHS's ``solver`` option for each LP method ``solve_lp`` takes, by scipy's ``linprog`` name
_LP_METHODS = {"highs": "choose", "highs-ipm": "ipm"}


class _Outcome(NamedTuple):
    """What a session hands back from its thread: the HiGHS model status
    name and its text, the ``_INFO`` fields of ``getInfo`` (None if the
    model was refused), the column values if there is a solution to read
    and, if asked for, the row duals of an LP optimum."""
    status: str
    message: str
    info: dict | None = None
    x: np.ndarray | None = None
    row_dual: np.ndarray | None = None


def _session(highs, model: MilpModel, mip: bool, duals: bool, fixed: dict | None,
             options: dict) -> _Outcome:
    """Pass ``model`` to one HiGHS session of the bindings module ``highs``,
    with its integrality if ``mip``, set ``options`` and run it.  The
    columns and the CSR rows go in as stored, from read-only views of the
    model's buffers (HiGHS copies them), but for the bounds given ``fixed``,
    a solution's values: copies, each integer column fixed at its value,
    rounded.  Raises ModelError if ``fixed`` lacks an integer column's
    value or holds one that is not finite, or if HiGHS refuses an option."""
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = model.num_vars, model.num_cons
    lower, upper = np.frombuffer(model._lb), np.frombuffer(model._ub)
    if fixed is not None:
        lower, upper = lower.copy(), upper.copy()
        names = model._var_names.tolist()
        for j in np.flatnonzero(model._int).tolist():
            value = fixed.get(names[j])
            if value is None or not abs(value) < INF:
                what = "no value" if value is None else f"value {value}"
                raise ModelError(f"solution provides {what} for integer variable {names[j]!r}")
            lower[j] = upper[j] = round(value)
        del names
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = np.frombuffer(model._obj), lower, upper
    del lower, upper                      # HiGHS holds its own copies
    lp.row_lower_, lp.row_upper_ = model._row_bounds()
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kRowwise
    matrix.num_col_, matrix.num_row_ = model.num_vars, model.num_cons
    matrix.start_ = np.array(model._indptr, np.int32)
    matrix.index_ = np.frombuffer(model._cols, dtype=np.int32)
    matrix.value_ = np.frombuffer(model._coefs)
    if mip:
        types = (highs.HighsVarType.kContinuous, highs.HighsVarType.kInteger)
        lp.integrality_ = [types[flag] for flag in model._int]
    session = highs._Highs()
    for key, value in options.items():
        if session.setOptionValue(key, value) != highs.HighsStatus.kOk:
            raise ModelError(f"HiGHS refuses option {key} = {value!r}")
    refused = session.passModel(lp) == highs.HighsStatus.kError
    del lp, matrix                        # the session holds its own copy
    if refused:
        status = highs.HighsModelStatus.kModelError
        return _Outcome(status.name, session.modelStatusToString(status))
    session.run()
    status, info = session.getModelStatus(), session.getInfo()
    out = _Outcome(status.name, session.modelStatusToString(status),
                   {key: getattr(info, key) for key in _INFO})
    limits = (highs.HighsModelStatus.kTimeLimit, highs.HighsModelStatus.kIterationLimit)
    if status == highs.HighsModelStatus.kOptimal or (
            mip and status in limits and info.objective_function_value < highs.kHighsInf):
        solution = session.getSolution()
        out = out._replace(x=np.array(solution.col_value),
                           row_dual=np.array(solution.row_dual) if duals else None)
    return out


def _highs_solve(model: MilpModel, relax: bool, gap: float = 0.0,
                 time_limit: float | None = None, algorithm: str = "choose",
                 fixed: dict | None = None) -> Solution:
    """Solve ``model`` in one HiGHS session (``_session``) on ``_highs_call``'s
    thread: as a MIP if it has an integer column, or, ``relax``, as an LP
    ignoring integrality (or fixing it at ``fixed``, see ``_session``) whose
    duals are dObjective/dRHS of each row in its declared orientation.

    The options are set here and nowhere else.  The root reduced-cost
    sub-MIP is off: on the 28- and 364-day template models it took memory
    and time and found no better solution (README, "Solving", has the
    figures and the one model where it helped).  A MIP solution carries
    HiGHS's dual bound and node count; an LP's are None.
    """
    options = {"output_flag": False, "solver": algorithm, "mip_rel_gap": float(gap),
               "mip_heuristic_run_root_reduced_cost": False}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    mip = not relax and 1 in model._int
    start = time.perf_counter()
    out = _highs_call(_session, _bindings(), model, mip, relax, fixed, options)
    return _solution(model, mip, out, time.perf_counter() - start)


def _solution(model: MilpModel, mip: bool, out: _Outcome, wall: float) -> Solution:
    """The Solution of a session's outcome, its status through ``_MODEL_STATUS``."""
    status = _MODEL_STATUS.get(out.status, STATUS_ERROR)
    objective, gap, bound, nodes = None, 0.0, None, None
    if out.x is None and status == STATUS_TIME_LIMIT:
        status = STATUS_ERROR
    if mip and out.info is not None:
        bound, nodes = float(out.info["mip_dual_bound"]), out.info["mip_node_count"]
    if out.x is not None:
        objective = float(out.info["objective_function_value"])
    if out.x is not None and mip:
        # an incumbent without a proven bound is not optimal: keep inf
        gap = float(out.info["mip_gap"]) if np.isfinite(out.info["mip_gap"]) else INF
        if status == STATUS_OPTIMAL and not gap <= 1e-9:
            status = STATUS_GAP_LIMIT
    sol = Solution(status, objective, gap, wall, out.message, audit={}, dual_bound=bound,
                   nodes=nodes)
    if out.x is not None:
        sol.values = _keyed(model._var_names.tolist(), out.x.tolist(), "variable")
    if out.row_dual is not None:
        sol.duals = _keyed(model._con_names.tolist(), out.row_dual.tolist(), "constraint")
    return sol


class ScipySolver:
    """In-process adapter over the HiGHS bindings scipy ships.

    Each solve is one HiGHS session on a thread of its own (``_highs_solve``),
    so repeated solves in one process keep a steady footprint.
    """

    def solve(self, model: MilpModel, gap: float = 0.0,
              time_limit: float | None = None) -> Solution:
        return _highs_solve(model, False, gap, time_limit)

    def solve_lp(self, model: MilpModel, method: str = "highs",
                 fixed: dict[str, float] | None = None) -> Solution:
        """Solve ignoring integrality and return duals as dObjective/dRHS
        of each constraint in its declared orientation.  ``method`` is
        ``"highs"`` (HiGHS's choice) or ``"highs-ipm"`` (interior point).
        Given ``fixed``, a solution's values, each integer column is fixed
        at its value, rounded, for this solve only: the pricing LP.  Raises
        ModelError if ``fixed`` lacks an integer column's value or holds
        one that is not finite."""
        if method not in _LP_METHODS:
            raise ValueError(f"unknown LP method {method!r}, expected one of {list(_LP_METHODS)}")
        return _highs_solve(model, True, algorithm=_LP_METHODS[method], fixed=fixed)


def solve(model: MilpModel, gap: float = 0.0, time_limit: float | None = None) -> Solution:
    return ScipySolver().solve(model, gap=gap, time_limit=time_limit)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def constraint_families(model: MilpModel) -> dict[str, list[int]]:
    """Group constraint positions by the name prefix before the first '_'."""
    fams: dict[str, list[int]] = {}
    for i, name in enumerate(model._con_names.tolist()):
        fams.setdefault(name.split("_", 1)[0], []).append(i)
    return fams


def audit_constraints(model: MilpModel, values: dict[str, float]) -> dict[str, dict]:
    """Evaluate every constraint row at a solution with one sparse product
    and report, per family, the rows checked and the worst residual (with
    the name of its row, or "" when every row holds exactly).  Each row is
    summed in column order, so a model gives the same residuals however its
    rows were stored: as built, loaded from ``.npz`` or parsed from MPS.

    Raises ModelError if ``values`` lacks a variable of the model.
    """
    try:
        x = np.array([values[name] for name in model._var_names.tolist()], dtype=float)
    except KeyError as exc:
        raise ModelError(f"no value for variable {exc.args[0]!r}") from None
    lhs = model._csr().sorted_indices() @ x
    cl, cu = model._row_bounds()
    residual = np.maximum(np.maximum(cl - lhs, lhs - cu), 0.0)
    report: dict[str, dict] = {}
    for fam, positions in constraint_families(model).items():
        i = positions[int(residual[positions].argmax())]
        worst = float(residual[i])
        report[fam] = {"checked": len(positions), "max_residual": worst,
                       "worst": model._con_names[i] if worst > 0 else ""}
    return report
