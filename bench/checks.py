"""Correctness checks the benchmark applies to every kind it runs.

Each check returns a list of problems; an empty list means the kind passed.
A kind with any problem counts as failed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

OBJECTIVE_RTOL = 1e-9      # stated objective vs c.x recomputed from the arrays
AUDIT_TOL = 1e-6           # largest residual allowed in any constraint family
OK_STATUSES = ("optimal", "gap_limit")


def check_solved(fo, sol, gap: float, solution_file: Path,
                 reference: float | None) -> list[str]:
    """Status, achieved gap, completeness, objective and audit of one solve.

    ``fo`` is the model as built (not the re-read copy the solver saw), so
    the objective check also covers the interchange round trip.
    """
    problems = []
    if sol.status not in OK_STATUSES:
        return [f"status {sol.status}: {sol.message}"]
    if not sol.gap <= gap:
        problems.append(f"achieved gap {sol.gap} > requested {gap}")
    missing = [name for name in fo.registry if name not in sol.values]
    if missing:
        problems.append(f"{len(missing)} registry variables without a value, "
                        f"e.g. {missing[0]}")
        return problems
    c = fo.model.to_arrays()[0]
    x = np.array([sol.values[v.name] for v in fo.model.variables])
    recomputed = float(c @ x)
    if abs(recomputed - sol.objective) > OBJECTIVE_RTOL * max(1.0, abs(sol.objective)):
        problems.append(f"objective {sol.objective!r} != c.x {recomputed!r}")
    with open(solution_file) as fh:
        audit = json.load(fh)["audit"]
    if not audit:
        problems.append("solution file carries no constraint audit")
    for family, row in audit.items():
        if not row["max_residual"] <= AUDIT_TOL:
            problems.append(f"audit {family}: residual {row['max_residual']} "
                            f"at {row['worst']}")
    if reference is not None and \
            abs(sol.objective - reference) > gap * abs(reference):
        problems.append(f"objective {sol.objective!r} is not within gap {gap} "
                        f"of the reference {reference!r}")
    return problems


def check_round_trip(built, reread, reread_arrays) -> list[str]:
    """The re-read model's arrays and registry equal the built model's."""
    problems = []
    names = ("c", "integrality", "lb", "ub", "A", "con_lb", "con_ub")
    for name, a, b in zip(names, built.model.to_arrays(), reread_arrays):
        if name == "A":
            same = a.shape == b.shape and (a != b).nnz == 0
        else:
            same = a.shape == b.shape and np.array_equal(a, b)
        if not same:
            problems.append(f"re-read {name} differs from the built model's")
    if reread.registry != built.registry:
        problems.append("registry changed in the round trip")
    return problems
