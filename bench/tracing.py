"""In-memory spans around the calls one storagg module makes into another.

The traced run wraps public functions by attribute replacement on the module
(or class) the caller looks them up in, so the program runs the same code path
with and without tracing and nothing under ``src/`` changes.  Each span keeps
its name, start, end, parent and run id; the spans stay in memory until the
run ends.  A span's self time is its duration minus the part of it its child
spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, asdict


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    kind: str | None          # model kind the span worked for, None = shared

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``wrap`` installs a span around a callable attribute.

    A tracer made with ``enabled=False`` records nothing.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.kind: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._paused = not enabled

    @contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent,
                               self.run_id, self.kind))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    @contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks results."""
        before, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = before

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[tuple[Span, float]]:
        """Each span with its duration minus its direct children's durations."""
        child_total = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_total[s.parent] += s.duration
        return [(s, s.duration - child_total[s.id]) for s in self.spans]

    def to_doc(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def install(tracer: Tracer, storagg) -> None:
    """Wrap each cross-module call the staged pipeline makes.

    The names are looked up where the caller finds them: ``storagg.pipeline``
    imports the functions of the other modules into its own namespace, and
    ``storagg.evaluation`` calls ``compute_prices``/``expand_solution`` from
    its own.  Solver methods are wrapped on their class.
    """
    pipeline, milp, evaluation = storagg.pipeline, storagg.milp, storagg.evaluation
    wraps = [
        (pipeline, "load_system", "system.load_system"),
        (pipeline, "load_horizon", "timeseries.load_horizon"),
        (pipeline, "stage_cluster", "pipeline.stage_cluster"),
        (pipeline, "aggregate", "aggregation.aggregate"),
        (pipeline, "save_artifacts", "aggregation.save_artifacts"),
        (pipeline, "stage_build", "pipeline.stage_build"),
        (pipeline, "write_mps", "milp.write_mps"),
        (pipeline, "write_registry", "milp.write_registry"),
        (pipeline, "stage_solve", "pipeline.stage_solve"),
        (pipeline, "load_built_model", "pipeline.load_built_model"),
        (pipeline, "parse_mps", "milp.parse_mps"),
        (pipeline, "load_registry", "milp.load_registry"),
        (pipeline, "audit_constraints", "milp.audit"),
        (milp.ScipySolver, "solve", "milp.solve"),
        (milp.ScipySolver, "solve_lp", "milp.price_lp"),
        (milp.MilpModel, "to_arrays", "milp.to_arrays"),
        (pipeline, "build_case_result", "evaluation.case"),
        (evaluation, "expand_solution", "evaluation.expand"),
        (evaluation, "compute_prices", "evaluation.price"),
        (pipeline, "compare", "evaluation.compare"),
        (pipeline, "stage_report", "pipeline.stage_report"),
    ]
    for kind in storagg.BUILDER_KINDS:
        wraps.append((pipeline, f"build_{kind}", "formulations.build"))
    for owner, attr, name in wraps:
        tracer.wrap(owner, attr, name)
