"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

The program has no stage tracing of its own yet, so the traced run wraps each
layer boundary at the name the engine actually calls it by (module
attributes such as ``repro.engine.session.path_decomposition``, class
methods, and the fingerprint properties) and restores every original when it
is done.  A span records its layer, start and end, its parent span and the
request it belongs to; spans stay in memory until the run ends.

Only code running in this process is visible: worker-side time inside
``ParallelEngine`` pools is out of reach, so on the ``parallel`` workload the
trace covers the parent side only.
"""

from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass(slots=True)
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a request's top-level span
    request: int
    child_seconds: float = 0.0


@dataclass
class Tracer:
    """Collects spans; inactive tracers make every wrapper a plain call-through."""

    spans: list[Span] = field(default_factory=list)
    active: bool = False
    request: int = -1
    swept: list[Any] = field(default_factory=list)  # OBDDs swept, for node counts
    _stack: list[int] = field(default_factory=list)

    def call(self, layer: str, function: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        if not self.active or (stack and self.spans[stack[-1]].layer == layer):
            # A layer re-entering itself (a TID fingerprint hashing its
            # instance's fingerprint) is one span, not two.
            return function(*args, **kwargs)
        index = len(self.spans)
        span = Span(layer, 0.0, 0.0, stack[-1] if stack else -1, self.request)
        self.spans.append(span)
        stack.append(index)
        span.start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_seconds += span.end - span.start

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per layer."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + span.end - span.start
        return totals

    def self_seconds(self, layer: str) -> float:
        """Seconds of ``layer`` spans not covered by their child spans."""
        return sum(
            s.end - s.start - s.child_seconds for s in self.spans if s.layer == layer
        )

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                        }
                    )
                    + "\n"
                )


class LayerCounts:
    """Counters gathered after each traced request (outside its window)."""

    def __init__(self) -> None:
        self.requests = 0
        self.cache: dict[str, list[int]] = {}
        self.routes: dict[str, int] = {}
        self.failovers = 0
        self.rows = 0
        self.obdd_sizes: list[int] = []
        self.store_writes = 0
        self.store_bytes_grown = 0
        self.shards: list[int] = []
        self.worker_hits = 0
        self.worker_lookups = 0

    def add_stats(self, stats: dict, routes: dict[str, int]) -> None:
        for name, value in stats.items():
            entry = self.cache.setdefault(name, [0, 0, 0])
            entry[0] += value.hits
            entry[1] += value.misses
            entry[2] += value.quarantines
        for route, count in routes.items():
            self.routes[route] = self.routes.get(route, 0) + count

    def add_engine(self, engine: Any, before: tuple | None = None) -> None:
        stats = {name: value.copy() for name, value in engine.stats.items()}
        routes = engine.route_mix()
        if before is not None:
            old_stats, old_routes = before
            for name, value in stats.items():
                value.hits -= old_stats[name].hits
                value.misses -= old_stats[name].misses
                value.quarantines -= old_stats[name].quarantines
            routes = {r: c - old_routes.get(r, 0) for r, c in routes.items()}
        self.add_stats(stats, routes)
        decision = engine.last_decision
        if decision is not None:
            self.failovers += max(len(decision.attempts) - 1, 0)
        if engine.store is not None:
            self.store_writes += engine.store.counters.writes

    def hit_rate(self, cache: str) -> float:
        hits, misses, _ = self.cache.get(cache, (0, 0, 0))
        return hits / (hits + misses) if hits + misses else 0.0


def engine_snapshot(engine: Any) -> tuple:
    """Cache counters and route counts of a long-lived engine, before a request."""
    return {n: v.copy() for n, v in engine.stats.items()}, engine.route_mix()


def _wrap(tracer: Tracer, layer: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(layer, function, args, kwargs)

    return traced


def _sweep(tracer: Tracer, function: Callable) -> Callable:
    @functools.wraps(function)
    def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
        if tracer.active:
            tracer.swept.append(self)
        return tracer.call("booleans.sweep", function, (self, *args), kwargs)

    return traced


def _first_fingerprint(tracer: Tracer, original: property) -> property:
    getter = original.fget

    def fingerprint(self: Any) -> str:
        if self._fingerprint is not None:
            return self._fingerprint
        return tracer.call("data.fingerprint", getter, (self,), {})

    return property(fingerprint, doc=original.__doc__)


class Instrumentation:
    """Installs the boundary wrappers on entry and restores them on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner: object, name: str, replacement: object) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, replacement)

    def _function(self, owner: object, name: str, layer: str) -> None:
        self._replace(owner, name, _wrap(self.tracer, layer, getattr(owner, name)))

    def _method(self, cls: type, name: str, layer: str) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            replacement: object = classmethod(_wrap(self.tracer, layer, original.__func__))
        else:
            replacement = _wrap(self.tracer, layer, original)
        self._replace(cls, name, replacement)

    def __enter__(self) -> "Instrumentation":
        import repro.data.io as data_io
        import repro.engine.session as session
        from repro.booleans.columnar import ColumnarOBDD
        from repro.data.instance import Instance
        from repro.data.tid import ProbabilisticInstance
        from repro.engine import CompilationEngine, ParallelEngine
        from repro.engine.shm import SegmentPlane
        from repro.provenance.compile_obdd import CompiledOBDD
        from repro.store import ArtifactStore

        # ``repro.probability`` the attribute is the function, not the package.
        evaluation = importlib.import_module("repro.probability.evaluation")
        f, m = self._function, self._method
        f(data_io, "load_tid", "data.load")
        m(Instance, "__init__", "data.instance_build")
        m(ProbabilisticInstance, "__init__", "data.tid_build")
        for cls in (Instance, ProbabilisticInstance):
            self._replace(cls, "fingerprint", _first_fingerprint(self.tracer, cls.__dict__["fingerprint"]))
        f(session, "gaifman_graph", "data.gaifman")
        f(session, "best_heuristic_sweep", "structure.elimination_sweep")
        f(session, "decomposition_from_sweep", "structure.tree_decomposition")
        f(session, "path_decomposition", "structure.path_decomposition")
        for name in (
            "default_fact_order",
            "fact_order_from_path_decomposition",
            "fact_order_from_tree_decomposition",
        ):
            f(session, name, "provenance.fact_order")
        f(session, "lineage_of", "provenance.lineage")
        f(session, "compile_lineage_to_obdd", "provenance.obdd_build")
        m(CompiledOBDD, "to_columnar", "booleans.flatten")
        m(CompiledOBDD, "from_columnar", "booleans.rehydrate")
        for cls in (CompiledOBDD, ColumnarOBDD):
            self._replace(cls, "probability", _sweep(self.tracer, cls.__dict__["probability"]))
        f(evaluation, "_probability_of_read_once", "probability.read_once")
        f(session, "try_lifted_plan", "lifted.plan")
        f(session, "execute_plan", "lifted.execute")
        m(CompilationEngine, "probability", "engine.request")
        m(CompilationEngine, "choose_route", "engine.route")
        m(ArtifactStore, "get_columnar", "store.get")
        m(ArtifactStore, "get_object", "store.get")
        m(ArtifactStore, "put_columnar", "store.put")
        m(ArtifactStore, "put_object", "store.put")
        m(ParallelEngine, "map_probability", "parallel.batch")
        m(ParallelEngine, "reweight_many", "parallel.batch")
        m(SegmentPlane, "publish", "shm.publish")
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
