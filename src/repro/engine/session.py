"""The :class:`CompilationEngine` session object (see the package docstring).

The engine is deliberately a plain in-process object: it owns ordinary
dictionaries, keyed on content fingerprints for per-instance artifacts and
on the TID object for probability results, so a web worker, a benchmark, or
a CLI invocation can hold one engine per process (or one per tenant) and get
memoization without any global state.  A module-level :func:`default_engine`
is provided for the common single-session case.

Every evaluation route is one :class:`Route` record in :data:`ROUTES`, the
single table that ``probability(method=...)``, the dichotomy router, the
failover chain, the CLI ``--method`` choices, and the differential oracle
all read.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Sequence

from repro.booleans.columnar import ColumnarOBDD
from repro.booleans.dnnf import DNNF
from repro.data.gaifman import gaifman_graph
from repro.data.instance import Fact, Instance
from repro.data.tid import ProbabilisticInstance
from repro.engine.router import (
    DEGRADED_ROUTE,
    ProbabilityBounds,
    RouteAttempt,
    RouteDecision,
    degraded_probability_bounds,
)
from repro.errors import (
    CompilationError,
    DeadlineExceeded,
    ProbabilityError,
    ReproError,
    UnsafeQueryError,
)
from repro.probability.lifted import LiftedPlan, execute_plan, try_lifted_plan
from repro.provenance.compile_obdd import CompiledOBDD, compile_lineage_to_obdd
from repro.provenance.lineage import MonotoneDNFLineage, lineage_of
from repro.provenance.tree_encoding import TreeEncoding, fused_tree_encoding
from repro.provenance.variable_orders import (
    default_fact_order,
    fact_order_from_path_decomposition,
    fact_order_from_tree_decomposition,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.resilience import ResourceBudget, activate, active_budget
from repro.store import ArtifactStore, canonical_query_text, columnar_key
from repro.structure.elimination import EliminationSweep, best_heuristic_sweep
from repro.structure.graph import Graph
from repro.structure.path_decomposition import PathDecomposition, path_decomposition
from repro.structure.tree_decomposition import TreeDecomposition, decomposition_from_sweep

Query = UnionOfConjunctiveQueries | ConjunctiveQuery

_ORDER_KINDS = ("default", "path", "tree")


@dataclass
class CacheStats:
    """Hit/miss counters for one engine cache.

    ``quarantines`` is only ever non-zero on the ``"store"`` cache: it
    counts persistent-store entries that failed integrity verification and
    were moved aside during this engine's lookups (each such lookup also
    counts as a miss — the artifact was recompiled).
    """

    hits: int = 0
    misses: int = 0
    quarantines: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def record(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def __add__(self, other: "CacheStats") -> "CacheStats":
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            self.hits + other.hits,
            self.misses + other.misses,
            self.quarantines + other.quarantines,
        )

    def copy(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.quarantines)

    def __str__(self) -> str:
        text = f"{self.hits} hits / {self.misses} misses"
        if self.quarantines:
            text += f" / {self.quarantines} quarantined"
        return text


def merge_cache_stats(
    per_worker: Iterable[dict[str, CacheStats]],
) -> dict[str, CacheStats]:
    """Pointwise sum of several engines' ``stats`` dictionaries.

    Used by :class:`repro.engine.parallel.ParallelEngine` to aggregate the
    per-worker statistics into one report; the merged counters are exactly the
    sums of the worker counters, cache by cache.
    """
    merged: dict[str, CacheStats] = {}
    for stats in per_worker:
        for name, value in stats.items():
            if name in merged:
                merged[name] = merged[name] + value
            else:
                merged[name] = value.copy()
    return merged


@dataclass
class _InstanceArtifacts:
    """Everything the engine has derived from one instance (by fingerprint).

    The per-query maps are LRU-trimmed by the engine (``max_queries_per_instance``)
    so a long-lived session evaluating many distinct queries against one hot
    instance cannot accumulate lineages and OBDDs without bound.  ``facts``
    is the instance's fact count: content-equal instances have equal counts,
    so the router's artifact peeks skip the fingerprint of an instance whose
    count no slot holds.
    """

    facts: int
    graph: Graph | None = None
    sweep: EliminationSweep | None = None
    tree: TreeDecomposition | None = None
    path: PathDecomposition | None = None
    encoding: TreeEncoding | None = None
    orders: dict[str, tuple[Fact, ...]] = field(default_factory=dict)
    lineages: OrderedDict[UnionOfConjunctiveQueries, MonotoneDNFLineage] = field(
        default_factory=OrderedDict
    )
    compiled: OrderedDict[tuple[UnionOfConjunctiveQueries, bool], CompiledOBDD] = field(
        default_factory=OrderedDict
    )
    dnnfs: OrderedDict[UnionOfConjunctiveQueries, DNNF] = field(default_factory=OrderedDict)


class CompilationEngine:
    """A memoizing session for lineage compilation and probability evaluation.

    Parameters
    ----------
    max_instances:
        How many distinct instances (by fingerprint) to keep artifacts for;
        the least recently used instance is evicted beyond this bound.
    max_queries_per_instance:
        How many distinct (query, options) lineages/OBDDs to keep per
        instance; least recently used entries are evicted beyond this bound.
    max_probability_entries:
        Bound on the (query, TID object, method) -> probability cache, and
        separately on the query -> lifted plan cache.  A probability entry
        holds its TID through a weak reference: it serves that object only,
        and it leaves the cache once the TID is garbage-collected.  A
        content-equal TID built elsewhere recomputes its answer, but on the
        same instance's cached lineages, circuits and plans.
    circuit_fact_limit:
        Instance size (fact count) beyond which the dichotomy router
        (:meth:`choose_route`) treats the circuit-building routes as
        infeasible for ``method="auto"`` unless their artifact is already
        cached; the lifted plan route has no such limit.
    degradation:
        ``None`` (the default) keeps the engine strictly exact: when every
        route in the ``method="auto"`` failover chain fails, the last typed
        error is raised.  ``"karp_luby"`` opts into graceful degradation:
        the engine then returns a labelled
        :class:`~repro.engine.router.ProbabilityBounds` (guaranteed
        dissociation interval plus a seeded point estimate) instead of
        raising — never a bare float masquerading as exact, and never
        entered into the exact probability cache.
    store:
        A persistent tier below the in-memory LRU caches: an opened
        :class:`~repro.store.ArtifactStore`, or a directory path (string or
        ``Path``) to open one at.  Compiled OBDDs are then *read through*
        the store as columns on a memory miss (every lookup counted in
        ``stats["store"]``) and *written behind* on a fresh build, so they
        survive process restarts and are shared by every engine pointed at
        the same directory.  Lineages, lifted plans and tree encodings are
        rebuilt by each engine.  A store entry that fails integrity
        verification, or was written in another format version, is
        quarantined and recompiled (counted in
        ``stats["store"].quarantines``) — the store can never change an
        answer, only the time to produce it.
    """

    def __init__(
        self,
        max_instances: int = 256,
        max_queries_per_instance: int = 1024,
        max_probability_entries: int = 65536,
        circuit_fact_limit: int = 20000,
        degradation: str | None = None,
        store: "ArtifactStore | str | Path | None" = None,
    ) -> None:
        if max_instances < 1:
            raise CompilationError("max_instances must be at least 1")
        if max_queries_per_instance < 1:
            raise CompilationError("max_queries_per_instance must be at least 1")
        if max_probability_entries < 1:
            raise CompilationError("max_probability_entries must be at least 1")
        if circuit_fact_limit < 1:
            raise CompilationError("circuit_fact_limit must be at least 1")
        if degradation not in (None, DEGRADED_ROUTE):
            raise CompilationError(
                f"unknown degradation tier {degradation!r}; use None or {DEGRADED_ROUTE!r}"
            )
        self._max_instances = max_instances
        self._max_queries_per_instance = max_queries_per_instance
        self._max_probability_entries = max_probability_entries
        self.circuit_fact_limit = circuit_fact_limit
        self.degradation = degradation
        #: The most recent ``method="auto"`` decision, re-published after the
        #: evaluation with the failover ``attempts`` chain filled in (what
        #: the CLI's ``--explain`` reports).
        self.last_decision: RouteDecision | None = None
        self._artifacts: OrderedDict[str, _InstanceArtifacts] = OrderedDict()
        self._probabilities: OrderedDict[tuple, Fraction] = OrderedDict()
        # Keys of probability entries whose TID was collected, queued by a
        # weakref callback and dropped by the next probability() call.
        self._collected: list[tuple] = []
        # Safe plans are instance-independent, so the plan cache is keyed by
        # the (frozen, content-hashed) query alone; None records "unsafe" so
        # repeated routing of an unsafe query never re-runs minimization.
        self._lifted_plans: OrderedDict[UnionOfConjunctiveQueries, LiftedPlan | None] = (
            OrderedDict()
        )
        #: Failed ``method="auto"`` attempts per route, halved by successes
        #: (see :meth:`_evaluate_auto`); :meth:`choose_route` passes over a
        #: route with a recorded failure.
        self.route_failures: dict[str, int] = {}
        self.route_counts: dict[str, int] = {}
        if isinstance(store, (str, Path)):
            store = ArtifactStore(store)
        self.store: ArtifactStore | None = store
        self._store_quarantines_seen = store.counters.quarantines if store else 0
        self.stats: dict[str, CacheStats] = {
            "structure": CacheStats(),
            "lineage": CacheStats(),
            "obdd": CacheStats(),
            "dnnf": CacheStats(),
            "lifted_plan": CacheStats(),
            "probability": CacheStats(),
            "store": CacheStats(),
        }

    # -- cache plumbing -------------------------------------------------------

    def _slot(self, instance: Instance) -> _InstanceArtifacts:
        key = instance.fingerprint
        slot = self._artifacts.get(key)
        if slot is None:
            slot = _InstanceArtifacts(len(instance))
            self._artifacts[key] = slot
            while len(self._artifacts) > self._max_instances:
                self._artifacts.popitem(last=False)
        else:
            self._artifacts.move_to_end(key)
        return slot

    def clear(self) -> None:
        """Drop every cached artifact and reset the statistics and the
        recorded route failures, so the engine routes like a fresh one."""
        self._artifacts.clear()
        self._probabilities.clear()
        self._collected.clear()
        self._lifted_plans.clear()
        self.route_failures.clear()
        self.route_counts.clear()
        self.last_decision = None
        for stats in self.stats.values():
            stats.hits = stats.misses = stats.quarantines = 0
        if self.store is not None:
            self._store_quarantines_seen = self.store.counters.quarantines

    def cache_info(self) -> dict[str, CacheStats]:
        """The per-cache hit/miss statistics (live objects, not copies)."""
        return dict(self.stats)

    def route_mix(self) -> dict[str, int]:
        """How often each route served a ``method="auto"`` evaluation.

        Counts actual evaluations (probability-cache hits short-circuit
        before routing and are visible in the ``probability`` stats).
        """
        return dict(self.route_counts)

    # -- the persistent tier ---------------------------------------------------
    #
    # Read-through/write-behind around the same content-fingerprint keys the
    # in-memory caches use.  Every store lookup is counted in stats["store"];
    # quarantines the store performed during this engine's traffic are folded
    # into the same entry, so ``cache_info()`` surfaces disk damage without a
    # separate reporting channel.  All store traffic is best-effort by
    # construction: a miss (including a quarantined hit) falls through to
    # recompilation, a failed write leaves the in-memory artifact in charge.

    def _sync_store_quarantines(self) -> None:
        assert self.store is not None
        delta = self.store.counters.quarantines - self._store_quarantines_seen
        if delta > 0:
            self.stats["store"].quarantines += delta
            self._store_quarantines_seen = self.store.counters.quarantines

    def _store_columnar_meta(
        self, query: Query, instance: Instance, use_path: bool
    ) -> dict[str, object]:
        # The query's canonical text round-trips through parse_ucq, which is
        # what lets ``store verify --repair`` re-derive the artifact from
        # the entry's metadata plus the source instance alone.
        return {
            "kind": "columnar",
            "query": canonical_query_text(query),
            "use_path": bool(use_path),
            "instance": instance.fingerprint,
        }

    def _store_load_columnar(
        self, query: Query, instance: Instance, use_path: bool
    ) -> ColumnarOBDD | None:
        if self.store is None:
            return None
        key = columnar_key(instance.fingerprint, query, use_path)
        artifact = self.store.get_columnar(key, instance)
        self.stats["store"].record(artifact is not None)
        self._sync_store_quarantines()
        return artifact

    def _store_save_columnar(
        self, query: Query, instance: Instance, use_path: bool, compiled: CompiledOBDD
    ) -> None:
        if self.store is None:
            return
        key = columnar_key(instance.fingerprint, query, use_path)
        self.store.put_columnar(
            key,
            compiled.to_columnar(),
            instance,
            self._store_columnar_meta(query, instance, use_path),
        )
        self._sync_store_quarantines()

    # -- structural artifacts -------------------------------------------------

    # Each caller-facing accessor records one structure lookup; the
    # derivations they share (``_graph``, ``_sweep``, ...) read and fill the
    # slot without recording, so the counter measures reuse across calls,
    # not how the accessors call one another.

    def gaifman(self, instance: Instance) -> Graph:
        """The (cached) Gaifman graph of the instance."""
        slot = self._slot(instance)
        self.stats["structure"].record(slot.graph is not None)
        return self._graph(slot, instance)

    def tree_decomposition_of(self, instance: Instance) -> TreeDecomposition:
        """A (cached) tree decomposition of the instance's Gaifman graph."""
        slot = self._slot(instance)
        self.stats["structure"].record(slot.tree is not None)
        return self._tree(slot, instance)

    def path_decomposition_of(self, instance: Instance) -> PathDecomposition:
        """A (cached) path decomposition of the instance's Gaifman graph."""
        slot = self._slot(instance)
        self.stats["structure"].record(slot.path is not None)
        return self._path(slot, instance)

    def tree_encoding_of(self, instance: Instance) -> TreeEncoding:
        """A (cached) tree encoding of the instance, built by the fused
        single-sweep pipeline (:func:`repro.provenance.tree_encoding.
        fused_tree_encoding`), reusing the cached Gaifman graph."""
        slot = self._slot(instance)
        self.stats["structure"].record(slot.encoding is not None)
        if slot.encoding is None:
            slot.encoding = fused_tree_encoding(instance, sweep=self._sweep(slot, instance))
        return slot.encoding

    def fact_order(self, instance: Instance, kind: str = "default") -> tuple[Fact, ...]:
        """A (cached) fact order: ``"default"``, ``"path"``, or ``"tree"``.

        The default order gets the cached path decomposition and a way to
        reach the cached tree decomposition, which
        :func:`default_fact_order` takes only when its rule reads the tree.
        """
        if kind not in _ORDER_KINDS:
            raise CompilationError(f"unknown fact order kind {kind!r}; use one of {_ORDER_KINDS}")
        slot = self._slot(instance)
        self.stats["structure"].record(kind in slot.orders)
        if kind not in slot.orders:
            if kind == "path":
                order = fact_order_from_path_decomposition(instance, self._path(slot, instance))
            elif kind == "tree":
                order = fact_order_from_tree_decomposition(instance, self._tree(slot, instance))
            else:
                order = default_fact_order(
                    instance,
                    path=self._path(slot, instance),
                    tree=lambda: self._tree(slot, instance),
                )
            slot.orders[kind] = tuple(order)
        return slot.orders[kind]

    def _graph(self, slot: _InstanceArtifacts, instance: Instance) -> Graph:
        if slot.graph is None:
            slot.graph = gaifman_graph(instance)
        return slot.graph

    def _sweep(self, slot: _InstanceArtifacts, instance: Instance) -> EliminationSweep:
        """The best-heuristic elimination sweep: the one structural
        computation both the tree decomposition and the fused tree encoding
        derive from, so a session runs it at most once per instance."""
        if slot.sweep is None:
            slot.sweep = best_heuristic_sweep(self._graph(slot, instance))
        return slot.sweep

    def _tree(self, slot: _InstanceArtifacts, instance: Instance) -> TreeDecomposition:
        if slot.tree is None:
            slot.tree = decomposition_from_sweep(self._sweep(slot, instance))
        return slot.tree

    def _path(self, slot: _InstanceArtifacts, instance: Instance) -> PathDecomposition:
        if slot.path is None:
            slot.path = path_decomposition(self._graph(slot, instance))
        return slot.path

    # -- lineages and OBDDs ---------------------------------------------------

    def lineage(self, query: Query, instance: Instance) -> MonotoneDNFLineage:
        """The (cached) minimal-match DNF lineage of the query on the instance."""
        key = as_ucq(query)
        slot = self._slot(instance)
        hit = key in slot.lineages
        self.stats["lineage"].record(hit)
        if hit:
            slot.lineages.move_to_end(key)
        else:
            slot.lineages[key] = lineage_of(key, instance)
            while len(slot.lineages) > self._max_queries_per_instance:
                slot.lineages.popitem(last=False)
        return slot.lineages[key]

    def compile(
        self, query: Query, instance: Instance, use_path_decomposition: bool = False
    ) -> CompiledOBDD:
        """The (cached) OBDD compilation of the query's lineage on the instance.

        With a persistent :attr:`store`, a memory miss first tries the
        stored columns (:meth:`CompiledOBDD.from_columnar`: no lineage
        enumeration, no OBDD construction, no object rebuild); a fresh build
        is flattened and written behind once.
        """
        use_path = bool(use_path_decomposition)
        compiled = self._held_or_stored(query, instance, use_path)
        if compiled is None:
            compiled = self._build(query, instance, use_path)
        return compiled

    def _held_or_stored(
        self, query: Query, instance: Instance, use_path: bool
    ) -> CompiledOBDD | None:
        """The compiled OBDD from memory, else from the store (one lookup,
        kept in memory on a hit), else None."""
        key = (as_ucq(query), use_path)
        slot = self._slot(instance)
        compiled = slot.compiled.get(key)
        self.stats["obdd"].record(compiled is not None)
        if compiled is not None:
            slot.compiled.move_to_end(key)
            return compiled
        stored = self._store_load_columnar(query, instance, use_path)
        if stored is None:
            return None
        return self._keep_compiled(slot, key, CompiledOBDD.from_columnar(stored))

    def _build(self, query: Query, instance: Instance, use_path: bool) -> CompiledOBDD:
        """Compile the lineage afresh, write it behind and keep it in memory."""
        lineage = self.lineage(query, instance)
        order = self.fact_order(instance, "path" if use_path else "default")
        compiled = compile_lineage_to_obdd(lineage, order)
        self._store_save_columnar(query, instance, use_path, compiled)
        return self._keep_compiled(self._slot(instance), (as_ucq(query), use_path), compiled)

    def _keep_compiled(
        self,
        slot: _InstanceArtifacts,
        key: tuple[UnionOfConjunctiveQueries, bool],
        compiled: CompiledOBDD,
    ) -> CompiledOBDD:
        """Keep ``compiled`` in the instance's LRU map of compiled OBDDs."""
        slot.compiled[key] = compiled
        while len(slot.compiled) > self._max_queries_per_instance:
            slot.compiled.popitem(last=False)
        return compiled

    def compile_many(
        self,
        queries: Iterable[Query],
        instance: Instance,
        use_path_decomposition: bool = False,
    ) -> list[CompiledOBDD]:
        """Compile a batch of queries against one instance in one session.

        The structural artifacts (Gaifman graph, decompositions, fact order)
        are computed once and shared by the whole batch.
        """
        return [self.compile(q, instance, use_path_decomposition) for q in queries]

    def columnar(
        self, query: Query, instance: Instance, use_path_decomposition: bool = False
    ) -> ColumnarOBDD:
        """The columnar form of the (cached) compiled OBDD: what the parallel
        tier ships through shared memory and every evaluation reads."""
        return self.compile(query, instance, use_path_decomposition).to_columnar()

    def dnnf(self, query: Query, instance: Instance) -> DNNF:
        """A (cached) d-DNNF for the query's lineage, through the OBDD route."""
        key = as_ucq(query)
        slot = self._slot(instance)
        hit = key in slot.dnnfs
        self.stats["dnnf"].record(hit)
        if hit:
            slot.dnnfs.move_to_end(key)
        else:
            slot.dnnfs[key] = self.compile(query, instance).to_dnnf()
            while len(slot.dnnfs) > self._max_queries_per_instance:
                slot.dnnfs.popitem(last=False)
        return slot.dnnfs[key]

    # -- lifted plans and the dichotomy router --------------------------------

    def lifted_plan(self, query: Query) -> LiftedPlan | None:
        """The (cached) lifted plan of the query, or None when unsafe.

        Plans are instance-independent, so the cache is keyed by the query
        alone; the None verdict for unsafe queries is cached too, so routing
        an unsafe query repeatedly never re-runs minimization.
        """
        key = as_ucq(query)
        hit = key in self._lifted_plans
        self.stats["lifted_plan"].record(hit)
        if hit:
            self._lifted_plans.move_to_end(key)
        else:
            self._lifted_plans[key] = try_lifted_plan(key)
            while len(self._lifted_plans) > self._max_probability_entries:
                self._lifted_plans.popitem(last=False)
        return self._lifted_plans[key]

    def choose_route(self, query: Query, tid: ProbabilisticInstance) -> RouteDecision:
        """The dichotomy router: pick the ``method="auto"`` evaluation route.

        The candidates are the :data:`ROUTES` records with an ``auto``
        evaluator, in table order: ``safe_plan``, ``obdd``, ``automaton``.
        The query side of the dichotomy first: the safe-plan route is
        feasible when the query admits a lifted plan.  The instance side
        next: each circuit route is feasible unless the instance exceeds
        ``circuit_fact_limit`` and the route's artifact is not already
        cached.

        One rule picks the head of the failover chain: the first feasible
        route without a recorded failure (:attr:`route_failures`), else the
        first feasible route, else the OBDD route best-effort.  So a
        liftable query takes ``safe_plan``, an unsafe one ``obdd``, and
        ``automaton`` runs after an ``obdd`` failure or when only its
        artifact is cached past the limit.  No clock is read: equal inputs
        and failure counts give equal decisions on any engine.
        """
        plan = self.lifted_plan(query)
        facts = len(tid.instance)
        feasible: list[str] = []
        infeasible: list[str] = []
        for name in _AUTO:
            route = ROUTES[name]
            if (route.circuit and facts <= self.circuit_fact_limit) or route.cached(
                self, query, tid.instance
            ):
                feasible.append(name)
            elif route.circuit:
                infeasible.append(name)
        clean = [name for name in feasible if not self.route_failures.get(name)]
        if clean:
            method = clean[0]
            passed = feasible[: feasible.index(method)]
            if passed:
                reason = f"recorded failure on {', '.join(passed)}: {method} by rule"
            elif plan is not None:
                reason = "liftable query: safe_plan by rule"
            else:
                reason = f"unsafe query: {method} by rule"
        elif feasible:
            method = feasible[0]
            reason = f"every feasible route has a recorded failure: {method} by rule"
        else:
            # Nothing feasible (unsafe query on a huge instance): fall back to
            # the OBDD route best-effort rather than refusing to answer.
            method = "obdd"
            reason = "no feasible route; best-effort OBDD fallback"
        return RouteDecision(
            method=method,
            liftable=plan is not None,
            instance_facts=facts,
            feasible=tuple(feasible),
            infeasible=tuple(infeasible),
            reason=reason,
        )

    # -- probability evaluation -----------------------------------------------

    def probability(
        self,
        query: Query,
        tid: ProbabilisticInstance,
        method: str = "auto",
        budget: ResourceBudget | None = None,
    ) -> Fraction | float | ProbabilityBounds:
        """The (cached) probability of the query on a TID instance.

        ``method`` names a :data:`ROUTES` record: ``auto`` consults the
        dichotomy router (:meth:`choose_route`) and records the chosen route
        in :meth:`route_mix`; ``safe_plan`` executes the engine's cached
        lifted plan (:meth:`lifted_plan`); ``read_once``/``obdd``/``dnnf``
        run on the engine's cached lineages and circuits; ``automaton`` runs
        the state dynamic programming over the engine's cached fused tree
        encoding (:meth:`tree_encoding_of`).  ``obdd_float`` serves the OBDD
        kernel's float pass (a ``float``, cached under its own method key,
        never mixed with the exact entries).

        The answer is cached for this ``tid`` object, held weakly: the entry
        leaves the cache once the TID is garbage-collected, and a
        content-equal TID recomputes its answer on the cached artifacts.
        No content fingerprint is computed here; the circuit routes key
        their artifacts on the instance's.

        ``budget`` activates a :class:`~repro.resilience.ResourceBudget`
        around the evaluation: the kernels then checkpoint against its node
        and row caps and its wall-clock deadline, raising
        :class:`~repro.errors.BudgetExceeded` /
        :class:`~repro.errors.DeadlineExceeded` (``method="auto"`` fails
        over between routes on the former).  A cache hit answers without
        consulting the budget.  Degraded answers
        (:class:`~repro.engine.router.ProbabilityBounds`) are never
        cached: the next call gets a fresh chance at an exact route.

        A query atom whose arity disagrees with the instance signature raises
        :class:`~repro.errors.SignatureError` before any route runs, so
        ``auto`` neither fails over nor degrades on it.
        """
        route = ROUTES.get(method)
        if route is None:
            raise ProbabilityError(
                f"unknown probability evaluation method {method!r};"
                f" use one of {', '.join(ROUTES)}"
            )
        ucq = as_ucq(query)
        collected = self._collected
        while collected:
            self._probabilities.pop(collected.pop(), None)
        # While the TID lives, a plain reference to it equals (and hashes
        # like) the one the stored key holds.
        probe = (ucq, weakref.ref(tid), method)
        cached = self._probabilities.get(probe)
        self.stats["probability"].record(cached is not None)
        if cached is not None:
            self._probabilities.move_to_end(probe)
            return cached
        ucq.check_arities(tid.signature)
        if budget is not None:
            with activate(budget):
                value = route.evaluate(self, ucq, tid)
        else:
            value = route.evaluate(self, ucq, tid)
        if isinstance(value, ProbabilityBounds):
            return value

        def forget(ref: weakref.ref) -> None:
            # The callback can run inside a lookup of this cache (a query's
            # __eq__ runs Python code), so it only queues the key.
            collected.append((ucq, ref, method))

        self._probabilities[(ucq, weakref.ref(tid, forget), method)] = value
        while len(self._probabilities) > self._max_probability_entries:
            self._probabilities.popitem(last=False)
        return value

    def probability_many(
        self,
        queries: Sequence[Query],
        tid: ProbabilisticInstance,
        method: str = "auto",
        budget: ResourceBudget | None = None,
    ) -> list[Fraction | float | ProbabilityBounds]:
        """Probabilities of a batch of queries on one TID instance.

        A shared ``budget`` spans the whole batch: its node/row caps bound
        each attempt (the failover chain resets the usage counters between
        routes) while its deadline is global to the batch.
        """
        return [self.probability(q, tid, method, budget=budget) for q in queries]

    def _evaluate_auto(
        self, query: UnionOfConjunctiveQueries, tid: ProbabilisticInstance
    ) -> Fraction | ProbabilityBounds:
        """``method="auto"``: the routed evaluation with route failover.

        The router's pick runs first; on a budget blowout or a
        route-specific failure the engine advances through the remaining
        feasible routes in :data:`ROUTES` order, resetting the active
        budget's usage counters between attempts (caps are per-attempt) and
        adding one to the route's :attr:`route_failures` entry.  A success
        halves the count of the route that answered and of every route the
        head passed over that this call did not try, so
        :meth:`choose_route` returns to a route after its failures.  A
        :class:`~repro.errors.DeadlineExceeded` is terminal: no remaining
        route can finish inside an already-elapsed wall-clock deadline, so
        it re-raises instead of failing over; it is charged to the route
        only when it expired after the route started.  When every exact
        route fails, the opt-in ``karp_luby`` degradation tier returns
        labelled bounds; without it, the last typed error is re-raised.  The
        walked chain is re-published on :attr:`last_decision` as
        :class:`~repro.engine.router.RouteAttempt` records, with their
        timings; no timing steers a route.
        """
        decision = self.choose_route(query, tid)
        feasible = decision.feasible
        chain = [decision.method] + [name for name in feasible if name != decision.method]
        # The feasible routes ahead of the head: each has a recorded failure.
        passed = feasible[: feasible.index(decision.method)] if feasible else ()
        budget = active_budget()
        attempts: list[RouteAttempt] = []
        last_error: BaseException | None = None
        for route in chain:
            started = perf_counter()
            running = False
            try:
                if budget is not None:
                    # Never start a route after the deadline has passed; the
                    # kernels' own checkpoints only fire once work is underway.
                    budget.checkpoint()
                running = True
                value = _AUTO[route](self, query, tid)
            except DeadlineExceeded as error:
                if running:
                    self.route_failures[route] = self.route_failures.get(route, 0) + 1
                attempts.append(
                    RouteAttempt(route, _describe_failure(error), perf_counter() - started)
                )
                self.last_decision = replace(decision, attempts=tuple(attempts))
                raise
            except (ReproError, MemoryError) as error:
                self.route_failures[route] = self.route_failures.get(route, 0) + 1
                attempts.append(
                    RouteAttempt(route, _describe_failure(error), perf_counter() - started)
                )
                last_error = error
                if budget is not None:
                    # Caps are per-attempt: the next route starts fresh
                    # (the deadline, deliberately, keeps running).
                    budget.reset_usage()
                continue
            elapsed = perf_counter() - started
            self.route_counts[route] = self.route_counts.get(route, 0) + 1
            # Forgive the route that answered and the routes the head passed
            # over, but not a failure this call has just seen.
            for name in {route, *passed} - {attempt.route for attempt in attempts}:
                failures = self.route_failures.pop(name, 0) // 2
                if failures:
                    self.route_failures[name] = failures
            attempts.append(RouteAttempt(route, "", elapsed))
            self.last_decision = replace(
                decision, method=route, attempts=tuple(attempts)
            )
            return value
        if self.degradation == DEGRADED_ROUTE:
            bounds = degraded_probability_bounds(query, tid)
            self.route_counts[DEGRADED_ROUTE] = (
                self.route_counts.get(DEGRADED_ROUTE, 0) + 1
            )
            self.last_decision = replace(
                decision,
                method=DEGRADED_ROUTE,
                attempts=tuple(attempts),
                degraded=True,
            )
            return bounds
        self.last_decision = replace(decision, attempts=tuple(attempts))
        assert last_error is not None  # the chain is never empty
        raise last_error


def _describe_failure(error: BaseException) -> str:
    """One-line attempt label: ``ErrorType: message`` (message truncated)."""
    message = str(error)
    if len(message) > 200:
        message = message[:197] + "..."
    return f"{type(error).__name__}: {message}" if message else type(error).__name__


# -- the route table -------------------------------------------------------------

UCQ = UnionOfConjunctiveQueries
RouteEvaluator = Callable[
    [CompilationEngine, UCQ, ProbabilisticInstance], "Fraction | float | ProbabilityBounds"
]
ExactEvaluator = Callable[[CompilationEngine, UCQ, ProbabilisticInstance], Fraction]
ArtifactPeek = Callable[[CompilationEngine, Query, Instance], bool]


def _never_cached(engine: CompilationEngine, query: Query, instance: Instance) -> bool:
    return False


@dataclass(frozen=True, slots=True)
class Route:
    """One evaluation route: the only place a route is described.

    ``evaluate`` answers ``probability(method=name)``: a
    :class:`~fractions.Fraction` when ``exact``, else a ``float``.  ``auto``
    is what ``method="auto"`` and its failover chain run for this route
    (usually ``evaluate`` itself); ``None`` keeps the route explicit-only.
    ``circuit`` routes build a per-instance artifact, so past the engine's
    ``circuit_fact_limit`` they are candidates only when ``cached`` finds
    that artifact in memory; any other route is a candidate exactly when
    ``cached`` holds.  ``cached`` is a peek: no LRU touch, no stats, no
    construction.
    """

    name: str
    exact: bool
    evaluate: RouteEvaluator
    auto: ExactEvaluator | None = None
    circuit: bool = False
    cached: ArtifactPeek = _never_cached


def _safe_plan(engine: CompilationEngine, query: UCQ, tid: ProbabilisticInstance) -> Fraction:
    plan = engine.lifted_plan(query)
    if plan is None:
        raise UnsafeQueryError("query admits no lifted plan: use a circuit method or auto")
    return execute_plan(plan, tid)


def _plan_cached(engine: CompilationEngine, query: Query, instance: Instance) -> bool:
    return engine._lifted_plans.get(as_ucq(query)) is not None


def _obdd(engine: CompilationEngine, query: UCQ, tid: ProbabilisticInstance) -> Fraction:
    # The TID itself: the kernel reads its probability column by position.
    return engine.compile(query, tid.instance).probability(tid)


def _obdd_float(engine: CompilationEngine, query: UCQ, tid: ProbabilisticInstance) -> float:
    return engine.compile(query, tid.instance).probability(tid, exact=False)


def _read_once(engine: CompilationEngine, query: UCQ, tid: ProbabilisticInstance) -> Fraction:
    from repro.probability.evaluation import _probability_of_read_once

    lineage = engine.lineage(query, tid.instance)
    if not lineage.is_read_once_shaped():
        raise ProbabilityError("lineage is not read-once shaped; use another method")
    return _probability_of_read_once(lineage, tid)


def _obdd_or_read_once(
    engine: CompilationEngine, query: UCQ, tid: ProbabilisticInstance
) -> Fraction:
    """The ``auto`` side of the OBDD route: a read-once-shaped lineage is
    evaluated directly, skipping OBDD construction entirely.

    A lineage held in memory decides as the shape says.  Otherwise the
    compiled OBDD is taken from memory, then from the store, and the lineage
    is enumerated only when both miss, so a store hit enumerates nothing.
    Either way a request looks the store up at most once.
    """
    from repro.probability.evaluation import _probability_of_read_once

    instance = tid.instance
    slot = _held_slot(engine, instance)
    lineage_held = slot is not None and query in slot.lineages
    if not lineage_held:
        compiled = engine._held_or_stored(query, instance, False)
        if compiled is not None:
            return compiled.probability(tid)
    lineage = engine.lineage(query, instance)
    if lineage.is_read_once_shaped():
        return _probability_of_read_once(lineage, tid)
    if lineage_held:
        return _obdd(engine, query, tid)
    return engine._build(query, instance, False).probability(tid)


def _held_slot(engine: CompilationEngine, instance: Instance) -> _InstanceArtifacts | None:
    """The instance's artifact slot, if the engine holds one (no LRU touch).

    The instance is hashed only when a slot holds an instance of its size.
    """
    facts = len(instance)
    if not any(slot.facts == facts for slot in engine._artifacts.values()):
        return None
    return engine._artifacts.get(instance.fingerprint)


def _compiled_cached(engine: CompilationEngine, query: Query, instance: Instance) -> bool:
    slot = _held_slot(engine, instance)
    if slot is None:
        return False
    ucq = as_ucq(query)
    return (ucq, False) in slot.compiled or (ucq, True) in slot.compiled


def _automaton(engine: CompilationEngine, query: UCQ, tid: ProbabilisticInstance) -> Fraction:
    from repro.provenance.ucq_automaton import ucq_probability_via_automaton

    # The fused tree encoding is a per-instance structural artifact: cached
    # on the engine, every query in a session reuses it.
    return ucq_probability_via_automaton(
        query, tid, encoding=engine.tree_encoding_of(tid.instance)
    )


def _encoding_cached(engine: CompilationEngine, query: Query, instance: Instance) -> bool:
    slot = _held_slot(engine, instance)
    return slot is not None and slot.encoding is not None


def _dnnf(engine: CompilationEngine, query: UCQ, tid: ProbabilisticInstance) -> Fraction:
    dnnf = engine.dnnf(query, tid.instance)
    return dnnf.probability({fact: tid.probability_of(fact) for fact in dnnf.variables()})


def _auto(
    engine: CompilationEngine, query: UCQ, tid: ProbabilisticInstance
) -> Fraction | ProbabilityBounds:
    return engine._evaluate_auto(query, tid)


#: Every evaluation route by name, in presentation order.  The routes with
#: an ``auto`` evaluator appear in preference order, which is also the
#: failover order.  The d-DNNF route is derived from the OBDD, so it is
#: never cheaper and stays explicit-only.
ROUTES: dict[str, Route] = {
    route.name: route
    for route in (
        # name, exact, evaluate, auto, circuit, cached
        Route("auto", True, _auto),
        Route("safe_plan", True, _safe_plan, _safe_plan, cached=_plan_cached),
        Route("obdd", True, _obdd, _obdd_or_read_once, True, _compiled_cached),
        Route("automaton", True, _automaton, _automaton, True, _encoding_cached),
        Route("dnnf", True, _dnnf),
        Route("read_once", True, _read_once),
        Route("obdd_float", False, _obdd_float),
    )
}

#: The ``auto`` evaluators by route name, in table order.
_AUTO: dict[str, ExactEvaluator] = {
    name: route.auto for name, route in ROUTES.items() if route.auto is not None
}


_DEFAULT_ENGINE: CompilationEngine | None = None


def default_engine() -> CompilationEngine:
    """The process-wide default engine (created lazily on first use)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = CompilationEngine()
    return _DEFAULT_ENGINE
