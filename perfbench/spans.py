"""In-memory spans and counters recorded around calls into sagrs.

The tracer swaps a module or class attribute for a wrapper that records a
span (name, start, end, parent span, run id) each time a caller resolves the
name and calls it. Nothing in the package itself is edited: a wrapper is
installed with ``install`` and the original put back with ``uninstall``.

Spans stay in memory. Worker processes of the harness pool inherit the
installed wrappers through ``fork``; ``workloads.JobRecorder`` resets the
buffer at the start of each job and hands that job's spans to the parent
through a file.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from sagrs.linalg import SingularMatrixError


@dataclass(frozen=True)
class Target:
    owner: str  # "module" or "module:Class"
    attr: str
    span: str

    def resolve(self):
        module, _, cls = self.owner.partition(":")
        obj = importlib.import_module(module)
        return getattr(obj, cls) if cls else obj


# Each layer boundary, wrapped where its callers look the name up.
TARGETS = (
    Target("sagrs.surrogate", "solve", "linalg.solve"),
    Target("sagrs.surrogate", "fit_rbf", "surrogate.fit_rbf"),
    Target("sagrs.recommender", "fit_or_fallback", "surrogate.fit"),
    Target("sagrs.surrogate:LsmModel", "predict", "surrogate.predict"),
    Target("sagrs.surrogate:RbfModel", "predict", "surrogate.predict"),
    Target("sagrs.surrogate:MeanModel", "predict", "surrogate.predict"),
    Target("sagrs.surrogate:EvaluatedPool", "add", "surrogate.pool.add"),
    Target("sagrs.surrogate:EvaluatedPool", "min_distance", "surrogate.pool.min_distance"),
    Target("sagrs.surrogate:EvaluatedPool", "points", "surrogate.pool.points"),
    Target("sagrs.recommender", "step_generation", "evolution.step_generation"),
    Target("sagrs.baselines", "step_generation", "evolution.step_generation"),
    Target("sagrs.recommender", "select_suggestions", "recommender.select"),
    Target("sagrs.objectives:Objective", "evaluate", "objectives.evaluate"),
    Target("sagrs.recommender", "run_sagrs", "recommender.run"),
    Target("sagrs.baselines", "run_sagrs", "recommender.run"),
    Target("sagrs.harness", "run_sagrs", "recommender.run"),
    Target("sagrs.harness", "run_ga_baseline", "baselines.ga"),
    Target("sagrs.harness", "_run_jobs", "harness.batch"),
)


def _on_result(counts: Counter, span: str, result) -> None:
    """Counters that depend on what a call returned."""
    if span == "surrogate.fit" and not result[1]:
        counts["surrogate.fit.fallbacks"] += 1
    elif span == "surrogate.fit_rbf" and result.ridge > 0.0:
        counts["surrogate.fit_rbf.ridged"] += 1
    elif span == "surrogate.pool.add" and result is False:
        counts["surrogate.pool.add.rejected"] += 1
    elif span == "recommender.select":
        counts["recommender.select.suggestions"] += len(result)


class Tracer:
    """Span buffer plus the attribute swaps that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, run id)
        self.counts: Counter = Counter()
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, span: str, fn):
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SingularMatrixError:
                self.counts[f"{span}.singular"] += 1
                raise
            finally:
                spans[index] = (span, start, perf_counter(), parent, self.run_id)
                stack.pop()
            _on_result(self.counts, span, result)
            return result

        return traced

    def install(self) -> None:
        for target in TARGETS:
            owner = target.resolve()
            original = owner.__dict__[target.attr]
            self._originals.append((owner, target.attr, original))
            setattr(owner, target.attr, self.wrap(target.span, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(chunks: list[tuple[list[tuple], Counter]]) -> dict[str, float]:
    """Calls, ms and self ms per span name, plus the counters, over chunks.

    A chunk is one process's span list with its counters; parent indices
    are local to their chunk.
    """
    totals: Counter = Counter()
    for spans, counts in chunks:
        totals.update(counts)
        own = self_times(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.ms"] += (end - start) * 1e3
            totals[f"{name}.self_ms"] += own[i] * 1e3
            if name == "surrogate.pool.min_distance" and parent >= 0 and spans[parent][0] == "recommender.select":
                totals["recommender.select.checked"] += 1
    return dict(totals)
