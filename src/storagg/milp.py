"""Solver-agnostic mixed-integer linear model container.

A model is a list of named variables (bounds, objective coefficient,
integrality) and named sparse constraints with a sense in {<=, =, >=}; the
objective is always minimized.  Models are stored between pipeline stages as
compressed array files (``save_model``/``load_model``), and so are the values
of their solutions (``save_solution``/``load_solution``).  Models are solved
in-process through scipy's HiGHS interface, or handed to an external solver
executable that communicates via an MPS file (``write_mps``; ``parse_mps``
reads it back) and a plain-text solution file.

Variables are stored as columns (packed names, ``array('d')`` bounds and
objective, a ``bytearray`` of integer flags) and constraints as CSR rows
(packed names, ``indptr``, column indices, coefficients, sense codes,
rhs).  ``variables`` and ``constraints`` are read-only views that build a
``Variable`` or ``Constraint`` tuple on access; ``to_arrays`` copies the
buffers out.

A variable's name is its only index: builders compose it from a symbol, a
period label and a unit id, and evaluation reads values back by that name.
The variable names and the row names are each kept packed: one
newline-joined UTF-8 blob, the form ``save_model`` writes, so a name costs
its bytes and a separator, not a Python string.  One name is read through
an offsets array built on first positional access; bulk readers (solution
values, duals, the audit, MPS export) decode the whole blob once per call.
The name-to-position dicts are a cache built on first use (``add_var``,
``add_con``, ``has_var``, ``var``) and dropped by ``release_index``, which
the pipeline calls once a model is built; a model loaded only to be solved
and audited never holds them.  The sidecar written next to a model file
(``write_registry``) carries the model's name and its metadata only.

scipy loads at a process's first matrix build (``to_arrays``, the audit,
``parse_mps``) or solve, not at import, so the stages that never solve do
not pay for it.
"""

from __future__ import annotations

import copy
import ctypes
import json
import os
import subprocess
import tempfile
import time
import zipfile
from array import array
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

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

SOLVER_ENV_VAR = "STORAGG_SOLVER_EXE"


class ModelError(ValueError):
    pass


class SolverError(RuntimeError):
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


class _Names:
    """Distinct names packed as one newline-joined UTF-8 blob.

    ``names[j]`` decodes one name through an offsets array, built on first
    positional access and extended by ``append``; ``tolist`` decodes the
    whole blob at once.  The name -> position dict is a cache built by
    ``index`` and dropped by ``release``.
    """

    def __init__(self, what: str, blob: bytearray | None = None, count: int = 0):
        self.what = what
        self.blob = bytearray() if blob is None else blob
        self._count = count
        self._starts: array | None = None    # name j is blob[starts[j]:starts[j + 1] - 1]
        self._index: dict[str, int] | None = None

    def __len__(self) -> int:
        return self._count

    def _offsets(self) -> array:
        if self._starts is None:
            seps = np.flatnonzero(np.frombuffer(self.blob, dtype=np.uint8) == 10)
            ends = np.append(seps, len(self.blob)) if self._count else seps
            self._starts = array("q", [0])
            self._starts.frombytes((ends + 1).astype(np.int64).tobytes())
        return self._starts

    def __getitem__(self, j: int) -> str:
        starts = self._offsets()
        return self.blob[starts[j]:starts[j + 1] - 1].decode("utf-8")

    def tolist(self) -> list[str]:
        return self.blob.decode("utf-8").split("\n") if self._count else []

    def index(self) -> dict[str, int]:
        if self._index is None:
            self._index = _index(self.tolist(), self.what)
        return self._index

    def release(self) -> None:
        self._index = None

    def append(self, name: str) -> None:
        """Add ``name`` last.  Raises ModelError if it is taken or holds a
        newline, the separator of the blob."""
        index = self.index()
        if name in index:
            raise ModelError(f"duplicate {self.what} {name!r}")
        if "\n" in name:
            raise ModelError(f"{self.what} name {name!r} contains a newline")
        data = name.encode("utf-8")
        if self._count:
            self.blob += b"\n"
        self.blob += data
        index[name] = self._count
        self._count += 1
        if self._starts is not None:
            self._starts.append(len(self.blob) + 1)


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

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0, integer: bool = False) -> str:
        if lb > ub:
            raise ModelError(f"variable {name!r}: lb {lb} > ub {ub}")
        self._var_names.append(name)
        self._lb.append(lb)
        self._ub.append(ub)
        self._obj.append(obj)
        self._int.append(1 if integer else 0)
        return name

    def add_con(self, name: str, terms, sense: str, rhs: float) -> str:
        if sense not in _SENSE_CODE:
            raise ModelError(f"unknown sense {sense!r}")
        var_index = self._var_names.index()
        merged: dict[int, float] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for var, coef in items:
            if coef == 0.0:
                continue
            try:
                j = var_index[var]
            except KeyError:
                raise ModelError(f"constraint {name!r} references unknown variable {var!r}") from None
            merged[j] = merged.get(j, 0.0) + float(coef)
        self._con_names.append(name)
        kept = [j for j, c in merged.items() if c != 0.0]
        self._cols.extend(kept)
        self._coefs.extend(merged[j] for j in kept)
        self._indptr.append(len(self._cols))
        self._sense.append(_SENSE_CODE[sense])
        self._rhs.append(rhs)
        return name

    def release_index(self) -> None:
        """Drop the name -> position dicts.  ``add_var``, ``add_con``,
        ``has_var`` and ``var`` build them again when next called."""
        self._var_names.release()
        self._con_names.release()

    # -- introspection ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    @property
    def num_cons(self) -> int:
        return len(self._con_names)

    @property
    def var_names(self) -> tuple[str, ...]:
        """Variable names in declaration order."""
        return tuple(self._var_names.tolist())

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

    def var(self, name: str) -> Variable:
        return self._variable(self._var_names.index()[name])

    def has_var(self, name: str) -> bool:
        return name in self._var_names.index()

    def _csr(self):
        """The constraint rows as a ``scipy.sparse.csr_array``."""
        import scipy.sparse as sp
        return sp.csr_array((np.array(self._coefs), np.array(self._cols),
                             np.array(self._indptr)),
                            shape=(self.num_cons, self.num_vars))

    def _row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(con_lb, con_ub): each row's rhs, opened to -inf/inf on the side
        its sense leaves free."""
        sense = np.frombuffer(self._sense, dtype=np.uint8)
        rhs = np.array(self._rhs)
        return (np.where(sense == _SENSE_CODE[LE], -INF, rhs),
                np.where(sense == _SENSE_CODE[GE], INF, rhs))

    def to_arrays(self):
        """(c, integrality, lb, ub, A, con_lb, con_ub) as scipy-ready arrays.

        Every array is a fresh copy: the caller may change it in place.
        """
        cl, cu = self._row_bounds()
        integrality = np.frombuffer(self._int, dtype=np.uint8).astype(np.int64)
        return (np.array(self._obj), integrality, np.array(self._lb),
                np.array(self._ub), self._csr().tocsc(), cl, cu)


def _index(names: list[str], what: str) -> dict[str, int]:
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):      # a repeated name keeps its last position
        dup = next(name for i, name in enumerate(names) if index[name] != i)
        raise ModelError(f"duplicate {what} {dup!r}")
    return index


# ---------------------------------------------------------------------------
# array files
# ---------------------------------------------------------------------------

# every stored array and its dtype; the texts are UTF-8 bytes
_STORED = {"name": np.uint8, "var_names": np.uint8, "con_names": np.uint8,
           "lb": np.float64, "ub": np.float64, "obj": np.float64,
           "integer": np.uint8, "indptr": np.int64, "cols": np.intc,
           "coefs": np.float64, "sense": np.uint8, "rhs": np.float64}
# the column and CSR buffers, stored as the model holds them
_BUFFERS = {"lb": "_lb", "ub": "_ub", "obj": "_obj", "integer": "_int",
            "indptr": "_indptr", "cols": "_cols", "coefs": "_coefs",
            "sense": "_sense", "rhs": "_rhs"}


def _joined(names: list[str], what: str) -> bytes:
    text = "\n".join(names)
    if text.count("\n") != max(len(names) - 1, 0):
        bad = next(name for name in names if "\n" in name)
        raise ModelError(f"{what} name {bad!r} contains a newline")
    return text.encode("utf-8")


def save_model(model: MilpModel, path) -> None:
    """Write the model to a compressed ``.npz`` file.

    The file holds the column and CSR buffers and the two name blobs as the
    model stores them, and the model name.  Equal models give equal bytes.
    """
    buffers = {"name": model.name.encode("utf-8"),
               "var_names": model._var_names.blob,
               "con_names": model._con_names.blob,
               **{key: getattr(model, attr) for key, attr in _BUFFERS.items()}}
    arrays = {key: np.frombuffer(buffers[key], dtype=dtype) for key, dtype in _STORED.items()}
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def _decode(path, blob: np.ndarray, what: str) -> str:
    try:
        return blob.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: {what} names are not UTF-8: {exc}") from None


def _stored_names(path, blob: np.ndarray, count: int, what: str) -> _Names:
    """A stored name blob, checked to be UTF-8 holding ``count`` names."""
    _decode(path, blob, what)
    found = int(np.count_nonzero(blob == 10)) + 1 if len(blob) or count else 0
    if found != count:
        raise ModelError(f"{path}: {found} {what} names for {count} {what}s")
    return _Names(what, bytearray(blob), count)


def _buffer(like, values: np.ndarray):
    """A fresh buffer of the same type as ``like`` holding ``values``."""
    if isinstance(like, bytearray):
        return bytearray(values)
    out = array(like.typecode)
    out.frombytes(memoryview(values).cast("B"))
    return out


def _load_arrays(path, spec: dict, what: str) -> dict[str, np.ndarray]:
    """The arrays ``spec`` names, read from an ``.npz`` file without
    unpickling, each checked to be 1-D of its dtype."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            stored = {key: npz[key] for key in spec}
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelError(f"{path}: not a {what} file: {exc}") from None
    for key, dtype in spec.items():
        a = stored[key]
        if a.dtype != dtype or a.ndim != 1:
            raise ModelError(f"{path}: {key} is {a.dtype} of shape {a.shape}, "
                             f"expected 1-D {np.dtype(dtype)}")
    return stored


def load_model(path) -> MilpModel:
    """Read a model written by ``save_model``; nothing is unpickled.

    Raises ModelError if an array is missing, is not a 1-D array of its
    dtype (an object array among them), the lengths disagree, ``indptr``
    does not rise from 0 to the number of nonzeros, a column index is out of
    range, or a sense code or integer flag is unknown.
    """
    stored = _load_arrays(path, _STORED, "model")
    n, m, nnz = len(stored["lb"]), len(stored["sense"]), len(stored["cols"])
    for key, size in (("ub", n), ("obj", n), ("integer", n), ("rhs", m),
                      ("indptr", m + 1), ("coefs", nnz)):
        if len(stored[key]) != size:
            raise ModelError(f"{path}: {key} holds {len(stored[key])} entries, expected {size}")
    indptr, cols = stored["indptr"], stored["cols"]
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise ModelError(f"{path}: indptr does not rise from 0 to {nnz}")
    if nnz and (cols.min() < 0 or cols.max() >= n):
        raise ModelError(f"{path}: a column index lies outside 0..{n - 1}")
    if np.any(stored["sense"] >= len(_SENSES)) or np.any(stored["integer"] > 1):
        raise ModelError(f"{path}: unknown sense code or integer flag")
    model = MilpModel(_decode(path, stored["name"], "model"))
    model._var_names = _stored_names(path, stored["var_names"], n, "variable")
    model._con_names = _stored_names(path, stored["con_names"], m, "constraint")
    for key, attr in _BUFFERS.items():
        setattr(model, attr, _buffer(getattr(model, attr), stored[key]))
    return model


# the arrays of a solution's values file and their dtypes
_SOLUTION = {"names": np.uint8, "values": np.float64}


def save_solution(sol: Solution, path) -> None:
    """Write a solution's values to a compressed ``.npz`` file.

    The file holds the variable names as one newline-joined UTF-8 blob and
    the values as a float64 array in the same order.  Equal values give
    equal bytes.  Raises ModelError if a name contains a newline.
    """
    names = list(sol.values)
    arrays = {"names": np.frombuffer(_joined(names, "variable"), dtype=np.uint8),
              "values": np.fromiter(sol.values.values(), dtype=np.float64,
                                    count=len(names))}
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def load_solution(path) -> dict[str, float]:
    """The values written by ``save_solution``, in their stored order;
    nothing is unpickled.

    Raises ModelError if an array is missing or is not a 1-D array of its
    dtype, the name and value counts disagree, or a name repeats.
    """
    stored = _load_arrays(path, _SOLUTION, "solution")
    values = stored["values"]
    names = _stored_names(path, stored["names"], len(values), "variable").tolist()
    out = dict(zip(names, values.tolist()))
    if len(out) != len(names):
        raise ModelError(f"{path}: a variable name repeats")
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
    memoryviews rather than copied into whole-matrix Python lists.
    """
    csc = model._csr().tocsc()
    colptr, rows, coefs = map(memoryview, (csc.indptr, csc.indices, csc.data))
    var_names, con_names = model._var_names.tolist(), model._con_names.tolist()
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
    usual solver toolchains as long as they avoid RANGES.  Coefficients are
    collected as (row, column, value) buffers and become CSR rows at the end;
    repeated entries are summed and zeros dropped.
    """
    model = MilpModel()
    row_of, col_of = model._con_names.index(), model._var_names.index()
    rows, cols, vals = array("i"), array("i"), array("d")
    obj_row = None
    section = None
    in_int = False
    with open(path) as fh:
        for line in fh:
            tokens = line.split()
            if not tokens or tokens[0].startswith("*"):
                continue
            # section names start in column 1; data lines are indented, which
            # disambiguates e.g. an RHS vector itself named "RHS"
            if not line[0].isspace() and tokens[0] in (
                    "NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA", "OBJSENSE"):
                section = tokens[0]
                if section == "NAME":
                    model.name = tokens[1] if len(tokens) > 1 else "model"
                if section == "RANGES":
                    raise ModelError(f"{path}: RANGES sections are not supported")
                continue
            if section == "ROWS":
                tag, row = tokens[0], tokens[1]
                if tag == "N":
                    if obj_row is None:
                        obj_row = row
                    continue
                model.add_con(row, (), _SENSES[_MPS_TAGS.index(tag)], 0.0)
            elif section == "COLUMNS":
                if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                    in_int = tokens[2] == "'INTORG'"
                    continue
                j = col_of.get(tokens[0])
                if j is None:
                    j = model.num_vars
                    model.add_var(tokens[0], integer=in_int)
                elif in_int:
                    model._int[j] = 1
                for k in range(1, len(tokens) - 1, 2):
                    row, val = tokens[k], float(tokens[k + 1])
                    if row == obj_row:
                        # assigned while still zero, so an objective of -0.0 keeps its sign
                        model._obj[j] = model._obj[j] + val if model._obj[j] else val
                    else:
                        rows.append(row_of[row])
                        cols.append(j)
                        vals.append(val)
            elif section == "RHS":
                for k in range(1, len(tokens) - 1, 2):
                    i = row_of.get(tokens[k])
                    if i is not None:
                        model._rhs[i] = float(tokens[k + 1])
            elif section == "BOUNDS":
                kind, var = tokens[0], tokens[2]
                j = col_of.get(var)
                if j is None:
                    j = model.num_vars
                    model.add_var(var)
                if kind == "BV":
                    model._int[j], model._lb[j], model._ub[j] = 1, 0.0, 1.0
                elif kind == "FX":
                    model._lb[j] = model._ub[j] = float(tokens[3])
                elif kind == "LO":
                    model._lb[j] = float(tokens[3])
                elif kind == "UP":
                    model._ub[j] = float(tokens[3])
                elif kind == "MI":
                    model._lb[j] = -INF
                elif kind == "PL":
                    model._ub[j] = INF
                else:
                    raise ModelError(f"{path}: unsupported bound type {kind!r}")
    import scipy.sparse as sp
    a = sp.coo_array((vals, (rows, cols)), shape=(model.num_cons, model.num_vars)).tocsr()
    a.eliminate_zeros()
    model._indptr = array("q", a.indptr.astype(np.int64).tobytes())
    model._cols = array("i", a.indices.astype(np.intc).tobytes())
    model._coefs = array("d", a.data.tobytes())
    return model


def write_registry(model: MilpModel, path, meta: dict | None = None) -> None:
    """Write the sidecar of a ``.npz`` model file: the model name and its
    metadata."""
    doc = {"model": model.name, "meta": meta or {}}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_registry(path) -> dict:
    """The metadata stored by ``write_registry``."""
    with open(path) as fh:
        return json.load(fh).get("meta", {})


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass
class Solution:
    status: str
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    gap: float = 0.0
    wall_seconds: float = 0.0
    duals: dict[str, float] | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES


def write_solution_file(sol: Solution, path) -> None:
    """Plain-text solution interchange: one ``key value`` pair per line."""
    with open(path, "w") as fh:
        fh.write(f"status {sol.status}\n")
        if sol.objective is not None:
            fh.write(f"objective {_num(sol.objective)}\n")
        fh.write(f"gap {_num(sol.gap)}\n")
        for name in sol.values:
            fh.write(f"var {name} {_num(sol.values[name])}\n")
        if sol.duals:
            for name in sol.duals:
                fh.write(f"dual {name} {_num(sol.duals[name])}\n")


def parse_solution_file(path) -> Solution:
    """Read a file in the ``write_solution_file`` format.

    Raises SolverError, naming the file and the line, if a solution with an
    ok status lacks its ``objective`` or ``gap`` line.
    """
    sol = Solution(status=STATUS_ERROR)
    seen = set()
    with open(path) as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0]
            seen.add(key)
            if key == "status":
                sol.status = tokens[1]
            elif key == "objective":
                sol.objective = float(tokens[1])
            elif key == "gap":
                sol.gap = float(tokens[1])
            elif key == "var":
                sol.values[tokens[1]] = float(tokens[2])
            elif key == "dual":
                if sol.duals is None:
                    sol.duals = {}
                sol.duals[tokens[1]] = float(tokens[2])
    missing = [key for key in ("objective", "gap") if key not in seen]
    if sol.ok and missing:
        raise SolverError(f"{path}: {sol.status} solution lacks its {' and '.join(missing)} line")
    return sol


# ---------------------------------------------------------------------------
# solve adapters
# ---------------------------------------------------------------------------

try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):   # not glibc: nothing to hand back
    _MALLOC_TRIM = None


def _highs_call(call, *args, **kwargs):
    """Run one HiGHS call on a short-lived thread, then trim the C heap.

    HiGHS frees its working memory when a solve ends, but on glibc the
    chunks the calling thread keeps cached pin that space in its heap, in
    holes the large buffers of the next model build never fit.  Solved on
    the main thread, the four 364-day aggregated models leave about 50 MB
    resident that the next 364-day ``hm`` build adds to its own peak.  On a
    thread of its own the solver allocates from a separate arena, the
    thread's cache is flushed when it exits, and ``malloc_trim`` then hands
    the free pages of every arena back.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        result = pool.submit(call, *args, **kwargs).result()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    return result


class ScipySolver:
    """In-process adapter over scipy's HiGHS bindings.

    Each solve runs through ``_highs_call``, so repeated solves in one
    process keep a steady footprint.
    """

    def solve(self, model: MilpModel, gap: float = 0.0,
              time_limit: float | None = None) -> Solution:
        from scipy.optimize import milp, Bounds, LinearConstraint
        c, integrality, lb, ub, a, cl, cu = model.to_arrays()
        options = {"mip_rel_gap": float(gap)}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        start = time.perf_counter()
        res = _highs_call(milp, c=c, integrality=integrality, bounds=Bounds(lb, ub),
                          constraints=LinearConstraint(a, cl, cu) if model.num_cons else None,
                          options=options)
        wall = time.perf_counter() - start
        return self._wrap(model, res, wall)

    @staticmethod
    def _wrap(model: MilpModel, res, wall: float) -> Solution:
        mip_gap = getattr(res, "mip_gap", None)
        if res.status == 0:
            status = STATUS_OPTIMAL if not mip_gap or mip_gap <= 1e-9 else STATUS_GAP_LIMIT
        elif res.status == 1:
            status = STATUS_TIME_LIMIT if res.x is not None else STATUS_ERROR
        elif res.status == 2:
            status = STATUS_INFEASIBLE
        elif res.status == 3:
            status = STATUS_UNBOUNDED
        else:
            status = STATUS_ERROR
        values, objective, gap = {}, None, 0.0
        if res.x is not None:
            values = dict(zip(model._var_names.tolist(), res.x.tolist()))
            objective = float(res.fun)
            # an incumbent without a proven bound is not optimal: keep inf
            if mip_gap is not None:
                gap = float(mip_gap) if np.isfinite(mip_gap) else INF
        return Solution(status=status, objective=objective, values=values,
                        gap=gap, wall_seconds=wall, message=str(res.message))

    def solve_lp(self, model: MilpModel, time_limit: float | None = None,
                 method: str = "highs") -> Solution:
        """Solve ignoring integrality and return duals as dObjective/dRHS
        of each constraint in its declared orientation."""
        from scipy.optimize import linprog
        c, _, lb, ub, a, cl, cu = model.to_arrays()
        eq = cl == cu
        # HiGHS takes inequalities as <=: negate each >= row in place so the
        # inequality rows keep their declared order
        sign = np.where(np.isinf(cu), -1.0, 1.0)
        a = a.tocsr()
        a.data *= np.repeat(sign, np.diff(a.indptr))
        rhs = sign * np.where(np.isinf(cu), cl, cu)
        options = {}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        start = time.perf_counter()
        res = _highs_call(linprog, c, A_ub=a[~eq], b_ub=rhs[~eq], A_eq=a[eq], b_eq=rhs[eq],
                          bounds=np.column_stack((lb, ub)), method=method, options=options)
        wall = time.perf_counter() - start
        status_map = {0: STATUS_OPTIMAL, 2: STATUS_INFEASIBLE, 3: STATUS_UNBOUNDED}
        status = status_map.get(res.status, STATUS_ERROR)
        values, objective, duals = {}, None, None
        if res.x is not None and status == STATUS_OPTIMAL:
            values = dict(zip(model._var_names.tolist(), res.x.tolist()))
            objective = float(res.fun)
            marginals = np.empty(model.num_cons)
            marginals[eq] = res.eqlin.marginals
            marginals[~eq] = sign[~eq] * res.ineqlin.marginals
            duals = dict(zip(model._con_names.tolist(), marginals.tolist()))
        return Solution(status=status, objective=objective, values=values,
                        gap=0.0, wall_seconds=wall, duals=duals, message=str(res.message))


class ExternalSolver:
    """Adapter around a solver executable exchanging MPS and solution files.

    The executable is invoked as ``exe model.mps solution.txt GAP TIME_LIMIT``
    and must write the documented ``key value`` solution format.  The path
    comes from the STORAGG_SOLVER_EXE environment variable unless given
    explicitly.
    """

    def __init__(self, exe: str | None = None):
        exe = exe or os.environ.get(SOLVER_ENV_VAR)
        if not exe:
            raise SolverError(
                f"external solver requested but {SOLVER_ENV_VAR} is not set")
        self.exe = exe

    def solve(self, model: MilpModel, gap: float = 0.0,
              time_limit: float | None = None) -> Solution:
        with tempfile.TemporaryDirectory(prefix="storagg_solve_") as tmp:
            mps = Path(tmp) / "model.mps"
            out = Path(tmp) / "solution.txt"
            write_mps(model, mps)
            cmd = [self.exe, str(mps), str(out), repr(float(gap)),
                   repr(float(time_limit)) if time_limit else "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0 or not out.exists():
                return Solution(status=STATUS_ERROR, wall_seconds=wall,
                                message=proc.stderr.strip() or
                                f"external solver exited with {proc.returncode}")
            sol = parse_solution_file(out)
            sol.wall_seconds = wall
            return sol


def get_solver(spec: str | None = None):
    """Map a solver spec to an adapter: None/"scipy" in-process, "external"
    (or "external:/path/to/exe") the file-based adapter."""
    if spec in (None, "", "scipy"):
        return ScipySolver()
    if spec == "external":
        return ExternalSolver()
    if spec.startswith("external:"):
        return ExternalSolver(spec.split(":", 1)[1])
    raise SolverError(f"unknown solver {spec!r}")


def solve(model: MilpModel, gap: float = 0.0, time_limit: float | None = None,
          solver=None) -> Solution:
    adapter = solver if solver is not None and not isinstance(solver, str) else get_solver(solver)
    return adapter.solve(model, gap=gap, time_limit=time_limit)


# ---------------------------------------------------------------------------
# pricing pass and audits
# ---------------------------------------------------------------------------

def fix_and_relax(model: MilpModel, solution: Solution) -> MilpModel:
    """Fix every integer variable at its solved value and drop integrality.

    The resulting LP has well-defined duals; solving it reprices the
    continuous quantities around the chosen commitment.  Raises ModelError if
    the solution lacks a value for some integer variable.  The relaxed model
    copies the column arrays and shares names and rows with
    ``model``: it is for solving, not for extending.
    """
    relaxed = copy.copy(model)
    relaxed.name = model.name + "_fixrelax"
    relaxed._lb, relaxed._ub = array("d", model._lb), array("d", model._ub)
    relaxed._obj, relaxed._int = array("d", model._obj), bytearray(len(model._int))
    names = model._var_names.tolist()
    for j in np.flatnonzero(model._int).tolist():
        name = names[j]
        if name not in solution.values:
            raise ModelError(f"solution provides no value for integer variable {name!r}")
        relaxed._lb[j] = relaxed._ub[j] = float(round(solution.values[name]))
    return relaxed


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
    a = model._csr()
    a.sort_indices()
    lhs = a @ x
    cl, cu = model._row_bounds()
    residual = np.maximum(np.maximum(cl - lhs, lhs - cu), 0.0)
    report: dict[str, dict] = {}
    for fam, positions in constraint_families(model).items():
        i = positions[int(residual[positions].argmax())]
        worst = float(residual[i])
        report[fam] = {"checked": len(positions), "max_residual": worst,
                       "worst": model._con_names[i] if worst > 0 else ""}
    return report
