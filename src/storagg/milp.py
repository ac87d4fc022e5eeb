"""Solver-agnostic mixed-integer linear model container.

A model is a list of named variables (bounds, objective coefficient,
integrality) and named sparse constraints with a sense in {<=, =, >=}; the
objective is always minimized.  Models can be written to and read from the
standard MPS interchange format, solved in-process through scipy's HiGHS
interface, or handed to an external solver executable that communicates via
an MPS file and a plain-text solution file.

Every variable owns a registry entry mapping its flat name back to a symbol
plus structured indices (hour, state, unit, ...), exported next to the MPS
file for external tools.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog, milp, Bounds, LinearConstraint

INF = float("inf")

LE, GE, EQ = "<=", ">=", "="
_SENSES = (LE, GE, EQ)

STATUS_OPTIMAL = "optimal"
STATUS_GAP_LIMIT = "gap_limit"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ERROR = "error"

SOLVER_ENV_VAR = "STORAGG_SOLVER_EXE"


class ModelError(ValueError):
    pass


class SolverError(RuntimeError):
    pass


@dataclass
class Variable:
    name: str
    lb: float = 0.0
    ub: float = INF
    obj: float = 0.0
    integer: bool = False


@dataclass
class Constraint:
    name: str
    idx: list          # variable positions
    coef: list         # matching coefficients
    sense: str
    rhs: float


class MilpModel:
    """Sparse minimize-objective MILP with a variable registry."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.registry: dict[str, dict] = {}
        self._var_index: dict[str, int] = {}
        self._con_names: set[str] = set()

    # -- construction -------------------------------------------------------

    def add_var(self, name: str, lb: float = 0.0, ub: float = INF,
                obj: float = 0.0, integer: bool = False,
                symbol: str | None = None, **indices) -> str:
        if name in self._var_index:
            raise ModelError(f"duplicate variable {name!r}")
        if lb > ub:
            raise ModelError(f"variable {name!r}: lb {lb} > ub {ub}")
        self._var_index[name] = len(self.variables)
        self.variables.append(Variable(name, float(lb), float(ub), float(obj), integer))
        entry = {"symbol": symbol or name}
        entry.update(indices)
        self.registry[name] = entry
        return name

    def add_obj(self, name: str, coef: float) -> None:
        self.variables[self._var_index[name]].obj += float(coef)

    def add_con(self, name: str, terms, sense: str, rhs: float) -> str:
        if sense not in _SENSES:
            raise ModelError(f"unknown sense {sense!r}")
        if name in self._con_names:
            raise ModelError(f"duplicate constraint {name!r}")
        merged: dict[int, float] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for var, coef in items:
            if coef == 0.0:
                continue
            try:
                j = self._var_index[var]
            except KeyError:
                raise ModelError(f"constraint {name!r} references unknown variable {var!r}") from None
            merged[j] = merged.get(j, 0.0) + float(coef)
        idx = [j for j, c in merged.items() if c != 0.0]
        coefs = [merged[j] for j in idx]
        self._con_names.add(name)
        self.constraints.append(Constraint(name, idx, coefs, sense, float(rhs)))
        return name

    # -- introspection ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_cons(self) -> int:
        return len(self.constraints)

    def var(self, name: str) -> Variable:
        return self.variables[self._var_index[name]]

    def has_var(self, name: str) -> bool:
        return name in self._var_index

    def constraint_residual(self, con: Constraint, values: dict[str, float]) -> float:
        """Violation magnitude of one constraint under a candidate point."""
        lhs = sum(c * values.get(self.variables[j].name, 0.0)
                  for j, c in zip(con.idx, con.coef))
        if con.sense == LE:
            return max(0.0, lhs - con.rhs)
        if con.sense == GE:
            return max(0.0, con.rhs - lhs)
        return abs(lhs - con.rhs)

    def to_arrays(self):
        """(c, integrality, lb, ub, A, con_lb, con_ub) as scipy-ready arrays."""
        n = self.num_vars
        c = np.array([v.obj for v in self.variables])
        integrality = np.array([1 if v.integer else 0 for v in self.variables])
        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])
        rows, cols, vals = [], [], []
        cl = np.empty(self.num_cons)
        cu = np.empty(self.num_cons)
        for i, con in enumerate(self.constraints):
            rows.extend([i] * len(con.idx))
            cols.extend(con.idx)
            vals.extend(con.coef)
            if con.sense == LE:
                cl[i], cu[i] = -INF, con.rhs
            elif con.sense == GE:
                cl[i], cu[i] = con.rhs, INF
            else:
                cl[i], cu[i] = con.rhs, con.rhs
        a = sp.csc_array((vals, (rows, cols)), shape=(self.num_cons, n))
        return c, integrality, lb, ub, a, cl, cu


# ---------------------------------------------------------------------------
# MPS interchange
# ---------------------------------------------------------------------------

_OBJ_ROW = "OBJ"
_MARKER_ON = "    MARKER                 'MARKER'                 'INTORG'\n"
_MARKER_OFF = "    MARKER                 'MARKER'                 'INTEND'\n"


def _num(x: float) -> str:
    return repr(float(x))


def write_mps(model: MilpModel, path) -> None:
    """Emit the model as an MPS file with deterministic bytes.

    Variables and rows appear in insertion order; every variable gets an
    explicit objective entry and explicit bounds, so a round trip through
    ``parse_mps`` reproduces the model exactly.  Emission is a single linear
    pass over the coefficient lists.
    """
    per_var_entries: list[list] = [[] for _ in model.variables]
    for con in model.constraints:
        for j, c in zip(con.idx, con.coef):
            per_var_entries[j].append((con.name, c))
    with open(path, "w") as fh:
        fh.write(f"NAME {model.name}\n")
        fh.write("ROWS\n")
        fh.write(f" N  {_OBJ_ROW}\n")
        for con in model.constraints:
            tag = {LE: "L", GE: "G", EQ: "E"}[con.sense]
            fh.write(f" {tag}  {con.name}\n")
        fh.write("COLUMNS\n")
        in_int = False
        for v, entries in zip(model.variables, per_var_entries):
            if v.integer != in_int:
                fh.write(_MARKER_ON if v.integer else _MARKER_OFF)
                in_int = v.integer
            pairs = [(_OBJ_ROW, v.obj)] + entries
            for k in range(0, len(pairs), 2):
                chunk = pairs[k:k + 2]
                cells = "   ".join(f"{row}  {_num(c)}" for row, c in chunk)
                fh.write(f"    {v.name}  {cells}\n")
        if in_int:
            fh.write(_MARKER_OFF)
        fh.write("RHS\n")
        for con in model.constraints:
            fh.write(f"    RHS  {con.name}  {_num(con.rhs)}\n")
        fh.write("BOUNDS\n")
        for v in model.variables:
            if v.integer and v.lb == 0.0 and v.ub == 1.0:
                fh.write(f" BV BND  {v.name}\n")
                continue
            if v.lb == v.ub:
                fh.write(f" FX BND  {v.name}  {_num(v.lb)}\n")
                continue
            if v.lb == -INF:
                fh.write(f" MI BND  {v.name}\n")
            elif v.lb != 0.0:
                fh.write(f" LO BND  {v.name}  {_num(v.lb)}\n")
            if v.ub == INF:
                fh.write(f" PL BND  {v.name}\n")
            else:
                fh.write(f" UP BND  {v.name}  {_num(v.ub)}\n")
        fh.write("ENDATA\n")


def parse_mps(path) -> MilpModel:
    """Read back the MPS subset produced by ``write_mps``.

    Accepts any whitespace-separated layout with ROWS / COLUMNS / RHS /
    BOUNDS sections and integer marker lines, which covers files from the
    usual solver toolchains as long as they avoid RANGES.
    """
    model = MilpModel()
    senses = {"L": LE, "G": GE, "E": EQ}
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    row_terms: dict[str, list] = {}
    row_rhs: dict[str, float] = {}
    obj_row = None
    section = None
    in_int = False
    with open(path) as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("*"):
                continue
            tokens = stripped.split()
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
                row_sense[row] = senses[tag]
                row_order.append(row)
                row_terms[row] = []
            elif section == "COLUMNS":
                if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                    in_int = tokens[2] == "'INTORG'"
                    continue
                var = tokens[0]
                if not model.has_var(var):
                    model.add_var(var, integer=in_int)
                elif in_int:
                    model.var(var).integer = True
                for k in range(1, len(tokens) - 1, 2):
                    row, val = tokens[k], float(tokens[k + 1])
                    if row == obj_row:
                        model.var(var).obj += val
                    else:
                        row_terms[row].append((var, val))
            elif section == "RHS":
                for k in range(1, len(tokens) - 1, 2):
                    row_rhs[tokens[k]] = float(tokens[k + 1])
            elif section == "BOUNDS":
                kind, var = tokens[0], tokens[2]
                if not model.has_var(var):
                    model.add_var(var)
                v = model.var(var)
                if kind == "BV":
                    v.integer, v.lb, v.ub = True, 0.0, 1.0
                elif kind == "FX":
                    v.lb = v.ub = float(tokens[3])
                elif kind == "LO":
                    v.lb = float(tokens[3])
                elif kind == "UP":
                    v.ub = float(tokens[3])
                elif kind == "MI":
                    v.lb = -INF
                elif kind == "PL":
                    v.ub = INF
                else:
                    raise ModelError(f"{path}: unsupported bound type {kind!r}")
    for row in row_order:
        model.add_con(row, row_terms[row], row_sense[row], row_rhs.get(row, 0.0))
    return model


def write_registry(model: MilpModel, path, meta: dict | None = None) -> None:
    doc = {"model": model.name, "meta": meta or {}, "variables": model.registry}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_registry(path) -> tuple[dict, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["variables"], doc.get("meta", {})


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
        return self.status in (STATUS_OPTIMAL, STATUS_GAP_LIMIT)


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
    sol = Solution(status=STATUS_ERROR)
    with open(path) as fh:
        for line in fh:
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0]
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
    return sol


# ---------------------------------------------------------------------------
# solve adapters
# ---------------------------------------------------------------------------

class ScipySolver:
    """In-process adapter over scipy's HiGHS bindings."""

    name = "scipy"

    def solve(self, model: MilpModel, gap: float = 0.0,
              time_limit: float | None = None) -> Solution:
        c, integrality, lb, ub, a, cl, cu = model.to_arrays()
        options = {"mip_rel_gap": float(gap)}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        start = time.perf_counter()
        res = milp(c=c, integrality=integrality, bounds=Bounds(lb, ub),
                   constraints=LinearConstraint(a, cl, cu) if model.num_cons else None,
                   options=options)
        wall = time.perf_counter() - start
        return self._wrap(model, res, gap, wall)

    @staticmethod
    def _wrap(model: MilpModel, res, requested_gap: float, wall: float) -> Solution:
        mip_gap = getattr(res, "mip_gap", None)
        if res.status == 0:
            status = STATUS_OPTIMAL if not mip_gap or mip_gap <= 1e-9 else STATUS_GAP_LIMIT
        elif res.status == 1:
            status = STATUS_GAP_LIMIT if res.x is not None else STATUS_ERROR
        elif res.status == 2:
            status = STATUS_INFEASIBLE
        elif res.status == 3:
            status = STATUS_UNBOUNDED
        else:
            status = STATUS_ERROR
        values = {}
        objective = None
        if res.x is not None:
            values = {v.name: float(x) for v, x in zip(model.variables, res.x)}
            objective = float(res.fun)
        return Solution(status=status, objective=objective, values=values,
                        gap=float(mip_gap) if mip_gap not in (None,) and np.isfinite(mip_gap) else 0.0,
                        wall_seconds=wall, message=str(res.message))

    def solve_lp(self, model: MilpModel, time_limit: float | None = None,
                 method: str = "highs") -> Solution:
        """Solve ignoring integrality and return duals as dObjective/dRHS
        of each constraint in its declared orientation."""
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
        res = linprog(c, A_ub=a[~eq], b_ub=rhs[~eq], A_eq=a[eq], b_eq=rhs[eq],
                      bounds=np.column_stack((lb, ub)), method=method, options=options)
        wall = time.perf_counter() - start
        status_map = {0: STATUS_OPTIMAL, 2: STATUS_INFEASIBLE, 3: STATUS_UNBOUNDED}
        status = status_map.get(res.status, STATUS_ERROR)
        values, objective, duals = {}, None, None
        if res.x is not None and status == STATUS_OPTIMAL:
            values = {v.name: float(x) for v, x in zip(model.variables, res.x)}
            objective = float(res.fun)
            marginals = np.empty(model.num_cons)
            marginals[eq] = res.eqlin.marginals
            marginals[~eq] = sign[~eq] * res.ineqlin.marginals
            duals = {con.name: float(m) for con, m in zip(model.constraints, marginals)}
        return Solution(status=status, objective=objective, values=values,
                        gap=0.0, wall_seconds=wall, duals=duals, message=str(res.message))


class ExternalSolver:
    """Adapter around a solver executable exchanging MPS and solution files.

    The executable is invoked as ``exe model.mps solution.txt GAP TIME_LIMIT``
    and must write the documented ``key value`` solution format.  The path
    comes from the STORAGG_SOLVER_EXE environment variable unless given
    explicitly.
    """

    name = "external"

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
    the solution lacks a value for some integer variable.
    """
    relaxed = MilpModel(model.name + "_fixrelax")
    for v in model.variables:
        if v.integer:
            if v.name not in solution.values:
                raise ModelError(f"solution provides no value for integer variable {v.name!r}")
            fixed = float(round(solution.values[v.name]))
            relaxed.add_var(v.name, fixed, fixed, v.obj, integer=False)
        else:
            relaxed.add_var(v.name, v.lb, v.ub, v.obj, integer=False)
    for con in model.constraints:
        relaxed.constraints.append(con)
        relaxed._con_names.add(con.name)
    relaxed.registry = dict(model.registry)
    return relaxed


def constraint_families(model: MilpModel) -> dict[str, list[int]]:
    """Group constraint positions by the name prefix before the first '_'."""
    fams: dict[str, list[int]] = {}
    for i, con in enumerate(model.constraints):
        fams.setdefault(con.name.split("_", 1)[0], []).append(i)
    return fams


def audit_constraints(model: MilpModel, values: dict[str, float],
                      sample_per_family: int = 100, seed: int = 0) -> dict[str, dict]:
    """Re-evaluate a random sample of constraints per family against a
    solution and report the worst residual found in each family."""
    rng = np.random.default_rng(seed)
    report: dict[str, dict] = {}
    for fam, positions in constraint_families(model).items():
        if len(positions) > sample_per_family:
            chosen = rng.choice(len(positions), size=sample_per_family, replace=False)
            positions = [positions[int(i)] for i in np.sort(chosen)]
        worst, worst_name = 0.0, ""
        for i in positions:
            con = model.constraints[i]
            r = model.constraint_residual(con, values)
            if r > worst:
                worst, worst_name = r, con.name
        report[fam] = {"checked": len(positions), "max_residual": worst, "worst": worst_name}
    return report
