"""Outside-in span recorder for the indexcode layers.

Every public function of the six library modules is wrapped in a span.
The wrapper is installed in every ``indexcode`` module namespace that
binds the function, because ``from .problem import conflicts`` gives
``structure`` its own binding that patching ``problem`` alone would miss.
Spans nest through a stack: a span's self time is its duration minus the
durations of its direct children.  Only aggregates are kept, so memory
stays flat however many spans a run opens.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("problem", "structure", "feasibility", "codec", "oracle", "linalg")

# Per-layer metrics reported by a traced run: (name, unit, better).  What
# each should move, and on which workload, is tabled in README.md.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("problem.conflicts.calls", "count", "lower"),
    ("problem.conflicts.self_ms", "ms", "lower"),
    ("problem.interfering_set.calls", "count", "lower"),
    ("problem.interfering_set.self_ms", "ms", "lower"),
    ("problem.restrict_problem.calls", "count", "lower"),
    ("problem.restrict_problem.self_ms", "ms", "lower"),
    ("problem.parse_problem.self_ms", "ms", "lower"),
    ("structure.triangles", "count", "lower"),
    ("structure.triangular_interfering_sets.self_ms", "ms", "lower"),
    ("structure.type2_alignment_sets.calls", "count", "lower"),
    ("structure.type2_alignment_sets.self_ms", "ms", "lower"),
    ("structure.type2_pairs", "count", "lower"),
    ("structure.find_acyclic_quadruple.self_ms", "ms", "lower"),
    ("structure.restricted_internal_conflicts.calls", "count", "lower"),
    ("structure.restricted_internal_conflicts.self_ms", "ms", "lower"),
    ("structure.alignment_graph.self_ms", "ms", "lower"),
    ("structure.alignment_sets.self_ms", "ms", "lower"),
    ("structure.classify_alignment_set.calls", "count", "lower"),
    ("structure.classify_alignment_set.self_ms", "ms", "lower"),
    ("structure.structure_report.calls", "count", "lower"),
    ("feasibility.analyze.self_ms", "ms", "lower"),
    ("feasibility.check_rate_half.calls", "count", "lower"),
    ("feasibility.report_to_dict.self_ms", "ms", "lower"),
    ("codec.verify.calls", "count", "lower"),
    ("codec.verify.self_ms", "ms", "lower"),
    ("codec.construct_rate_half.self_ms", "ms", "lower"),
    ("codec.construct_rate_third.self_ms", "ms", "lower"),
    ("codec.constructions", "count", "higher"),
    ("codec.attempts", "count", "lower"),
    ("codec.first_attempt_ratio", "ratio", "higher"),
    ("codec.encode.self_ms", "ms", "lower"),
    ("codec.decode_all.self_ms", "ms", "lower"),
    ("linalg.nullspace.self_ms", "ms", "lower"),
    ("oracle.exists_code.calls", "count", "lower"),
    ("oracle.exists_code.self_ms", "ms", "lower"),
    ("oracle.nodes", "count", "lower"),
    ("oracle.nodes_per_s", "1/s", "higher"),
    ("oracle.in_span_calls", "count", "lower"),
    ("linalg.is_prime.calls", "count", "lower"),
    ("linalg.is_prime.self_ms", "ms", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_ms", "ms", "lower"),
    ("linalg.in_span.calls", "count", "lower"),
    ("linalg.in_span.self_ms", "ms", "lower"),
    ("linalg.reduce_against.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

# Derived metrics and the function whose spans feed them; a metric is
# missing when its function is gone from the library.
_DERIVED_SOURCE = {
    "structure.triangles": "structure.triangular_interfering_sets",
    "structure.type2_pairs": "structure.type2_alignment_sets",
    "codec.constructions": "codec.construct_rate_half",
    "codec.attempts": "codec.construct_rate_half",
    "codec.first_attempt_ratio": "codec.construct_rate_half",
    "oracle.nodes": "oracle.exists_code",
    "oracle.nodes_per_s": "oracle.exists_code",
    "oracle.in_span_calls": "linalg.in_span",
}


def _count_triangles(rec: "SpanRecorder", result, parent: list | None) -> None:
    t = len(result)
    rec.counts["structure.triangles"] += t
    if parent is not None and parent[0] == "structure.type2_alignment_sets":
        # pairs the pairwise type-2 scan visits; computed, not observed
        rec.counts["structure.type2_pairs"] += t * (t - 1) // 2


def _count_nodes(rec: "SpanRecorder", result, parent: list | None) -> None:
    rec.counts["oracle.nodes"] += result[2]


def _count_attempts(rec: "SpanRecorder", result, parent: list | None) -> None:
    attempts = result[1].attempts_used
    rec.counts["codec.constructions"] += 1
    rec.counts["codec.attempts"] += attempts
    rec.counts["codec.first_attempt"] += attempts == 1


def _count_oracle_span_tests(rec: "SpanRecorder", result, parent: list | None) -> None:
    if rec.open_spans["oracle.exists_code"]:
        rec.counts["oracle.in_span_calls"] += 1


_RESULT_HOOKS: dict[str, Callable] = {
    "structure.triangular_interfering_sets": _count_triangles,
    "oracle.exists_code": _count_nodes,
    "codec.construct_rate_half": _count_attempts,
    "codec.construct_rate_third": _count_attempts,
    "linalg.in_span": _count_oracle_span_tests,
}


class SpanRecorder:
    """Aggregates span durations, self times and result-derived counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # open spans as [name, child seconds]
        self.open_spans: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.counts: Counter[str] = Counter()
        self.traced: set[str] = set()
        self.warnings: list[str] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = _RESULT_HOOKS.get(name)
        self.traced.add(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            self.open_spans[name] += 1
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self.stack.pop()
                self.open_spans[name] -= 1
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if parent is None:
                    self.top_level_s += elapsed
                else:
                    parent[1] += elapsed
            if hook is not None:
                self._run_hook(name, hook, result, parent)
            return result

        return span

    def _run_hook(self, name: str, hook: Callable, result, parent: list | None) -> None:
        try:
            hook(self, result, parent)
        except (TypeError, IndexError, AttributeError, KeyError) as exc:
            message = f"count derived from {name} skipped: {type(exc).__name__}: {exc}"
            if message not in self.warnings:
                self.warnings.append(message)

    def metric(self, name: str) -> float | None:
        """Value of a named per-layer metric; None when its function is gone."""
        if name in _DERIVED_SOURCE:
            if _DERIVED_SOURCE[name] not in self.traced:
                return None
            if name == "oracle.nodes_per_s":
                busy = self.total_s["oracle.exists_code"]
                return self.counts["oracle.nodes"] / busy if busy else 0.0
            if name == "codec.first_attempt_ratio":
                made = self.counts["codec.constructions"]
                return self.counts["codec.first_attempt"] / made if made else 0.0
            return self.counts[name]
        function, _, stat = name.rpartition(".")
        if function not in self.traced:
            return None
        if stat == "calls":
            return self.calls[function]
        if stat == "self_ms":
            return self.self_s[function] * 1000.0
        raise ValueError(f"unknown per-layer statistic in {name!r}")


def public_functions(module: types.ModuleType) -> dict[str, Callable]:
    """Public functions defined (not merely imported) in ``module``."""
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__
    }


@contextlib.contextmanager
def installed(recorder: SpanRecorder, package: str = "indexcode"):
    """Route every public layer function through ``recorder`` until exit."""
    wrappers: dict[Callable, Callable] = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, fn in public_functions(module).items():
            wrappers[fn] = recorder.wrap(f"{layer}.{attr}", fn)
    patched = []
    try:
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))
        yield recorder
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)
