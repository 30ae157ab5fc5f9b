"""repro.engine — an indexed, cached compilation engine for lineage workloads.

This package is the session layer of the library: where the one-shot helpers
(:func:`repro.provenance.lineage.lineage_of`,
:func:`repro.provenance.compile_obdd.compile_query_to_obdd`,
:func:`repro.probability.evaluation.probability`) recompute every structural
artifact on each call, a :class:`CompilationEngine` memoizes them across calls
and serves batched workloads.

Caching keys
------------
Per-instance artifacts are keyed on *content fingerprints*; probability
results are keyed on the TID object:

* per-instance structural artifacts (Gaifman graph, tree and path
  decompositions, fact orders) are keyed on
  :attr:`repro.data.instance.Instance.fingerprint` — a SHA-256 digest of the
  signature and the sorted fact list, computed once per ``Instance`` object
  and only when a circuit route or the store needs it;
* per-(query, instance) lineages and compiled OBDDs are keyed on the
  (hashable) query together with the instance fingerprint and the compilation
  options;
* lifted plans are instance-independent and keyed on the query alone;
* probability results are keyed on the query, the evaluation method, and a
  weak reference to the :class:`~repro.data.tid.ProbabilisticInstance`.  An
  entry serves that very object, and leaves the cache once the object is
  garbage-collected.  A content-equal TID built elsewhere recomputes its
  answer, on the instance's cached lineages, circuits and plans.  So a
  safe-plan request on a fresh engine computes no fingerprint at all.

Invalidation
------------
Instances are immutable: every mutation-like operation (``with_facts``,
``subinstance``, ``rename``, ``condition`` ...) builds a new object whose
fingerprint differs, so stale entries are never *served* — they are merely
unreachable, and are eventually dropped by the engine's LRU bounds
(``max_instances`` live instances; oldest evicted first) or, for probability
entries, with their TID.  ``clear()`` resets everything, including the
hit/miss statistics.

Batching
--------
``compile_many(queries, instance)`` and ``probability_many(queries, tid)``
evaluate a whole workload against one instance in a single session, so the
Gaifman graph, decompositions, and fact order are computed once and shared;
repeated queries in the batch are served from cache.  The CLI ``batch``
subcommand, the examples, and ``benchmarks/bench_engine.py`` all go through
these entry points.

Routes and dichotomy routing
----------------------------
Every evaluation route is one :class:`Route` record in :data:`ROUTES`: its
name, whether it is exact, its evaluator, whether ``auto`` may pick it,
whether it builds a circuit, and its artifact peek.
``probability(..., method=name)`` is a lookup in that table, and so are the
router, the failover chain, the CLI ``--method`` choices, and the
differential oracle's name check.  ``probability(..., method="auto")``
consults the dichotomy router (:meth:`CompilationEngine.choose_route`): the
safe-plan route is feasible when the query admits a lifted plan (cached,
instance-independent — :meth:`CompilationEngine.lifted_plan`), and past
``circuit_fact_limit`` facts the circuit routes are gated infeasible
(unless already compiled).  The first feasible route in table order (safe
plan, OBDD, automaton) without a recorded failure runs; no timing enters
the choice.  Chosen routes are counted in
:meth:`CompilationEngine.route_mix` and surfaced by the CLI.

Parallelism
-----------
:class:`repro.engine.parallel.ParallelEngine` scales the same batched entry
points past one core: workloads are partitioned into shards (split when a
single group dominates), each shard runs in a worker of a
:class:`concurrent.futures.ProcessPoolExecutor` owning a private
:class:`CompilationEngine`, and the values plus per-worker ``CacheStats``
are merged back into one :class:`ParallelReport` that counts that batch's
work only.  The CLI ``batch --workers N`` flag and
``benchmarks/bench_parallel.py`` go through it.  A compile workload groups
its ``(query, instance)`` pairs by instance fingerprint, for cache
affinity.  A probability workload groups its ``(query, tid)`` pairs by TID
object, so no TID is hashed, and ships each distinct instance once as
pickle bytes and each TID as columns of its probabilities' numerators and
denominators; a worker unpickles an instance once and keeps it.

Data plane
----------
Compiled artifacts cross the process boundary as flat columnar buffers in
``multiprocessing.shared_memory`` segments (:mod:`repro.engine.shm`): a
:class:`~repro.engine.shm.SegmentPlane` owns the segments' lifecycle
(create/attach/close/unlink, plus a prefix sweep of ``/dev/shm`` that
reclaims segments orphaned by crashed workers), and only the tiny
:class:`~repro.engine.shm.SegmentHandle` sidecars are pickled.

Resilience
----------
A :class:`~repro.resilience.ResourceBudget` (node/row caps plus a
wall-clock :class:`~repro.resilience.Deadline`) threads through
``probability(..., budget=...)`` into the kernels' cooperative
checkpoints; ``method="auto"`` fails over along the :data:`ROUTES` order
on blowouts, counting failures per route in
:attr:`CompilationEngine.route_failures`; an engine
constructed with ``degradation="karp_luby"`` returns labelled
:class:`~repro.engine.router.ProbabilityBounds` when every exact route
fails.  When a worker crashes, :class:`ParallelEngine` restarts its whole
process pool and charges one bounded retry to every unfinished shard.
"""

from repro.engine.parallel import (
    ParallelEngine,
    ParallelReport,
    available_workers,
    shard_workload,
)
from repro.engine.router import (
    DEGRADED_ROUTE,
    ProbabilityBounds,
    RouteAttempt,
    RouteDecision,
    degraded_probability_bounds,
)
from repro.engine.session import (
    ROUTES,
    CacheStats,
    CompilationEngine,
    Route,
    default_engine,
    merge_cache_stats,
)
from repro.engine.shm import SegmentHandle, SegmentPlane, attach_segment, publish_segment

__all__ = [
    "CacheStats",
    "CompilationEngine",
    "DEGRADED_ROUTE",
    "ParallelEngine",
    "ParallelReport",
    "ProbabilityBounds",
    "ROUTES",
    "Route",
    "RouteAttempt",
    "RouteDecision",
    "SegmentHandle",
    "SegmentPlane",
    "attach_segment",
    "available_workers",
    "default_engine",
    "degraded_probability_bounds",
    "merge_cache_stats",
    "publish_segment",
    "shard_workload",
]
