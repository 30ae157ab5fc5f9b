"""Sharded parallel evaluation on top of :class:`CompilationEngine`.

The single-process engine memoizes structural artifacts per instance, so the
natural unit of parallelism is not the individual ``(query, instance)`` pair
but the *instance group*: all items touching one instance should land in the
same worker, where they share that worker's cached Gaifman graph,
decompositions, fact orders, and lineages.  :func:`shard_workload` groups a
workload by the fingerprint of each item's second element (the instance of a
compile workload) or by the TID object of a probability workload, and assigns
the groups greedily to the least-loaded shard.
:class:`ParallelEngine` runs each shard in a worker process that owns a
private :class:`CompilationEngine`, then merges the values (in the original
workload order) and the per-worker :class:`CacheStats` into a single
:class:`ParallelReport`.

Two execution regimes:

* ``workers == 1`` runs inline in the calling process on a local engine — no
  subprocess, no pickling, **no shared-memory segments**; semantics are
  identical, which keeps debugging and single-core environments honest;
* ``workers > 1`` uses a lazily created, persistent
  :class:`concurrent.futures.ProcessPoolExecutor` (``fork`` start method
  when the platform has it, the platform default otherwise): the workers —
  and their engines' caches — survive across calls, so repeated workloads
  against hot instances keep their artifacts warm.  ``close()`` (or use as
  a context manager) shuts the pool down, **clears the inline engine's
  caches deterministically**, and unlinks every shared-memory segment the
  run created (including orphans left by crashed workers, swept by the
  plane prefix).

A run submits one future per shard and collects them with
:func:`concurrent.futures.wait`, so it never returns or raises while any of
its shards is still running.  A worker that dies breaks the whole executor
(``BrokenProcessPool``): the engine shuts the broken executor down (joining
its workers), sweeps the shared-memory segments the dead workers left
unclaimed, and charges one retry to every unfinished shard; the next
submission starts a fresh executor, so a crash restarts every worker and
rebuilds their warm caches.  Worker-reported ``MemoryError`` /
:class:`~repro.errors.SegmentError` failures are retried per shard (a
segment failure first triggers the caller's recovery hook, e.g.
republishing the reweight artifact); any other worker error is re-raised in
the parent.  Retries are bounded per shard, with exponential backoff, and
exhaustion raises the typed :class:`~repro.errors.WorkerCrashError`.

The data plane is columnar.  Compiled artifacts cross the process boundary
as :class:`repro.booleans.columnar.ColumnarOBDD` columns inside
``multiprocessing.shared_memory`` segments (:mod:`repro.engine.shm`): a
worker *publishes* the flat ``var|lo|hi`` buffer and ships back only a tiny
:class:`~repro.engine.shm.SegmentHandle`; the parent *attaches* zero-copy.
:meth:`ParallelEngine.reweight_many` runs the same plane in the other
direction — the parent publishes one compiled artifact (once per engine:
later calls on the same artifact reuse its segment), every worker attaches
to it and runs the columnar batch kernel over its share of the probability
assignments, which is the batch re-weighting workload where per-worker cost
is exactly "an attach plus a sweep".

Because the hot artifacts are acyclic int arrays rather than node-object
graphs, workers run with the cyclic garbage collector frozen and disabled
(``gc.freeze()`` + ``gc.disable()`` in the initializer): full GC passes
rescanning millions of cached nodes were a measured ~2x drag on
allocation-heavy shards.  The calling process's collector is never touched.

A probability batch ships the instance and the valuations apart, because
the artifacts depend on the instance alone.  Each distinct instance of a
shard crosses as pickle bytes, keyed by its fingerprint; the parent pickles
an instance once and keeps the last batch's bytes, so a batch over known
instances pickles none.  A worker unpickles an instance only the first time
it sees the fingerprint and keeps it, as many as its engine keeps instances.
Each TID crosses as two columns of Python ints, the numerators and the
denominators of its probabilities in ``instance.facts`` order, and the
worker rebuilds it once per shard with
:meth:`ProbabilisticInstance.from_column`.  No TID is hashed on either side.
A worker keys its per-instance artifacts on the instance fingerprint, which
the pickle carries, so they behave as in-process caching does.  Its
probability cache is keyed on the TID object: a TID rebuilt in a later task
is a new object, and recomputes its answer on the cached artifacts.

Everything else crossing the process boundary is plain picklable data:
queries (frozen dataclasses), ``Fraction`` results, segment handles, and
``CacheStats`` counters.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import pickle
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping, Sequence

from repro.booleans.columnar import ColumnarOBDD
from repro.data.instance import Instance
from repro.data.tid import ProbabilisticInstance
from repro.engine.session import (
    CacheStats,
    CompilationEngine,
    Query,
    merge_cache_stats,
)
from repro.engine.shm import (
    SegmentHandle,
    SegmentPlane,
    attach_segment,
    publish_segment,
)
from repro.errors import CompilationError, SegmentError, WorkerCrashError
from repro.provenance.compile_obdd import CompiledOBDD

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from repro.testing.faults import WorkerFaults

ProbabilityItem = tuple[Query, ProbabilisticInstance]
CompileItem = tuple[Query, Instance]
Shard = list[tuple[int, tuple]]
ShardOutcome = tuple[list[tuple[int, Any]], dict[str, CacheStats], dict[str, int]]
ShardRunner = Callable[[Any, Any], ShardOutcome]
# A probability shard as the pool ships it: the pickled instances by
# fingerprint; one (fingerprint, numerators, denominators) column per TID;
# one (index, query, column slot) per pair.
ShippedShard = tuple[
    dict[str, bytes], list[tuple[str, list[int], list[int]]], list[tuple[int, Query, int]]
]


def available_workers() -> int:
    """How many workers the host can actually run in parallel.

    Prefers the scheduling affinity mask (which honors cgroup/container
    limits) over the raw CPU count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def shard_workload(
    items: Sequence[tuple],
    shard_count: int,
    group_key: Callable[[tuple], Hashable] | None = None,
) -> list[list[tuple[int, tuple]]]:
    """Partition indexed work items into at most ``shard_count`` shards.

    Items with equal ``group_key`` share a group.  By default that is the
    ``fingerprint`` of the second element of each pair, which
    :meth:`ParallelEngine.map_compile` uses: the instance, so one instance's
    structural artifacts are computed by as few workers as possible.
    :meth:`ParallelEngine.map_probability` groups by the TID object instead,
    so no TID is hashed: pairs of one TID share a group, but fresh
    valuations of one instance do not, and a batch of them spreads evenly
    while every worker keeps the instance's artifacts.  A group larger than
    the balanced shard size ``ceil(len(items) / shard_count)`` is split into
    chunks of that size, so a batch against a *single* instance still spreads
    over all shards (each worker then recomputes that instance's artifacts
    once — duplicated structural work, parallelized compilation work).  The
    chunks are assigned largest-first to the currently least-loaded shard.
    Each shard entry keeps the item's index in the original workload so
    results can be merged back in order.  Empty shards are dropped.
    """
    if shard_count < 1:
        raise CompilationError("shard_count must be at least 1")
    if group_key is None:
        group_key = lambda item: item[1].fingerprint  # noqa: E731
    groups: dict[Hashable, list[tuple[int, tuple]]] = {}
    for index, item in enumerate(items):
        groups.setdefault(group_key(item), []).append((index, item))
    target = -(-len(items) // shard_count)  # ceil division
    chunks: list[list[tuple[int, tuple]]] = []
    for group in groups.values():
        for start in range(0, len(group), target):
            chunks.append(group[start : start + target])
    shards: list[list[tuple[int, tuple]]] = [[] for _ in range(shard_count)]
    for chunk in sorted(chunks, key=len, reverse=True):
        least_loaded = min(shards, key=len)
        least_loaded.extend(chunk)
    return [shard for shard in shards if shard]


@dataclass(frozen=True)
class ParallelReport:
    """The merged outcome of one sharded run.

    ``values`` follow the original workload order; ``workers`` is the
    engine's configured worker count (``shard_count`` is how many shards the
    workload actually produced — it can be smaller); ``worker_stats`` holds
    one ``CacheStats`` dictionary per shard (in shard order), and ``stats``
    is their pointwise sum.
    """

    values: tuple[Any, ...]
    workers: int
    shard_sizes: tuple[int, ...]
    worker_stats: tuple[dict[str, CacheStats], ...]
    worker_routes: tuple[dict[str, int], ...] = ()

    @property
    def shard_count(self) -> int:
        return len(self.shard_sizes)

    @property
    def stats(self) -> dict[str, CacheStats]:
        return merge_cache_stats(self.worker_stats)

    @property
    def items(self) -> int:
        return sum(self.shard_sizes)

    @property
    def route_mix(self) -> dict[str, int]:
        """Pointwise sum of the per-shard ``method="auto"`` route counts."""
        merged: dict[str, int] = {}
        for routes in self.worker_routes:
            for route, count in routes.items():
                merged[route] = merged.get(route, 0) + count
        return merged


# -- worker-side plumbing -----------------------------------------------------
#
# The pool initializer builds one CompilationEngine per worker process; the
# shard runners look it up through a module global.  Under the ``fork`` start
# method the workload shards themselves are the only data pickled per task.
# Workers also carry the plane prefix (for naming the segments they publish;
# the inline regime has none and publishes nothing), the fault hooks of the
# chaos tests, a small LRU of attached shared artifacts for the reweight
# runner, and an LRU of the instances that probability shards shipped.

_WORKER_ENGINE: CompilationEngine | None = None
_WORKER_PLANE_PREFIX: str | None = None
_WORKER_FAULTS: WorkerFaults | None = None
_WORKER_SEGMENT_SERIAL = itertools.count(1)
_WORKER_ATTACHMENTS: dict[str, ColumnarOBDD] = {}
_WORKER_ATTACHMENT_LIMIT = 8
_WORKER_INSTANCES: OrderedDict[str, Instance] = OrderedDict()


def _init_worker(store: str | None, plane_prefix: str, fault_plan: Any) -> None:
    global _WORKER_ENGINE, _WORKER_PLANE_PREFIX, _WORKER_FAULTS
    _WORKER_ENGINE = CompilationEngine(store=store)
    _WORKER_PLANE_PREFIX = plane_prefix
    _WORKER_ATTACHMENTS.clear()
    _WORKER_INSTANCES.clear()
    if fault_plan is not None:
        from repro.testing.faults import WorkerFaults

        _WORKER_FAULTS = WorkerFaults(fault_plan)
        if _WORKER_ENGINE.store is not None:
            # The chaos suite's disk faults reach worker-opened stores too;
            # the store path travels as a plain string, so the plan is
            # attached after construction.
            _WORKER_ENGINE.store.fault_plan = fault_plan
    # The hot artifacts are flat int columns (acyclic); full cyclic-GC
    # passes over the interpreter state and the engine caches are pure
    # overhead in a worker whose lifetime the pool already bounds.
    gc.collect()
    gc.freeze()
    gc.disable()


def _run_task(runner: ShardRunner, shard: Shard, extra: Any) -> ShardOutcome:
    """Run one shard in a pool worker, between the fault hooks (tests only)."""
    if _WORKER_FAULTS is not None:
        _WORKER_FAULTS.on_task_start()
    outcome = runner(shard, extra)
    if _WORKER_FAULTS is not None:
        _WORKER_FAULTS.before_result()
    return outcome


def _worker_engine() -> CompilationEngine:
    if _WORKER_ENGINE is None:  # pragma: no cover - initializer always ran
        raise CompilationError("parallel worker used before initialization")
    return _WORKER_ENGINE


def _worker_attachment(handle: SegmentHandle) -> ColumnarOBDD:
    """Attach (once) to a parent-published artifact; small per-worker LRU."""
    key = handle.name if handle.name is not None else f"inline-{handle.root}"
    artifact = _WORKER_ATTACHMENTS.get(key)
    if artifact is None:
        artifact = attach_segment(handle)
        _WORKER_ATTACHMENTS[key] = artifact
        while len(_WORKER_ATTACHMENTS) > _WORKER_ATTACHMENT_LIMIT:
            _WORKER_ATTACHMENTS.pop(next(iter(_WORKER_ATTACHMENTS)))
    return artifact


def _worker_instance(fingerprint: str, pickled: bytes) -> Instance:
    """The shipped instance, unpickled only the first time this worker sees
    its fingerprint; the LRU keeps as many instances as the engine does."""
    instance = _WORKER_INSTANCES.get(fingerprint)
    if instance is None:
        instance = _WORKER_INSTANCES[fingerprint] = pickle.loads(pickled)
        while len(_WORKER_INSTANCES) > _worker_engine()._max_instances:
            _WORKER_INSTANCES.popitem(last=False)
    else:
        _WORKER_INSTANCES.move_to_end(fingerprint)
    return instance


def _outcome(engine: CompilationEngine, results: list[tuple[int, Any]]) -> ShardOutcome:
    """A shard's indexed results plus the counters of the work it did."""
    stats = {name: stats.copy() for name, stats in engine.stats.items()}
    return results, stats, engine.route_mix()


def _reset_stats(engine: CompilationEngine) -> None:
    """Zero the counters (keeping the caches) so a shard reports its own work.

    One pool process may execute several shards; without the reset, a later
    shard's snapshot would re-count the earlier shards' hits, misses and
    store quarantines, and the merged report would no longer be the exact
    sum over the workload.  The router's route counts are reset with the
    cache counters.
    """
    for stats in engine.stats.values():
        stats.hits = stats.misses = stats.quarantines = 0
    engine.route_counts.clear()


def _run_probability_shard(shard: Shard, method: str) -> ShardOutcome:
    engine = _worker_engine()
    _reset_stats(engine)
    results = [(index, engine.probability(query, tid, method)) for index, (query, tid) in shard]
    return _outcome(engine, results)


def _run_shipped_probability_shard(shard: ShippedShard, method: str) -> ShardOutcome:
    """Rebuild a shipped shard's TIDs, each once, then run it as inline."""
    instances, columns, pairs = shard
    tids = [
        ProbabilisticInstance.from_column(
            _worker_instance(fingerprint, instances[fingerprint]),
            list(map(Fraction, numerators, denominators)),
        )
        for fingerprint, numerators, denominators in columns
    ]
    return _run_probability_shard(
        [(index, (query, tids[slot])) for index, query, slot in pairs], method
    )


def _run_compile_shard(shard: Shard, use_path_decomposition: bool) -> ShardOutcome:
    """Compile to columns; a pool worker ships them as segment handles."""
    engine = _worker_engine()
    _reset_stats(engine)
    results: list[tuple[int, Any]] = []
    for index, (query, instance) in shard:
        columnar = engine.columnar(query, instance, use_path_decomposition)
        if _WORKER_PLANE_PREFIX is None:  # inline: no process boundary to cross
            results.append((index, columnar))
        else:
            name = f"{_WORKER_PLANE_PREFIX}-w{os.getpid()}-{next(_WORKER_SEGMENT_SERIAL)}"
            results.append((index, publish_segment(columnar, name)))
    return _outcome(engine, results)


def _run_reweight_shard(
    shard: Shard, extra: tuple[SegmentHandle | ColumnarOBDD, bool]
) -> ShardOutcome:
    """Sweep one artifact under this shard's probability assignments: the
    artifact itself inline, a shared one attached through its handle."""
    handle, exact = extra
    engine = _worker_engine()
    _reset_stats(engine)
    artifact = handle if isinstance(handle, ColumnarOBDD) else _worker_attachment(handle)
    # One matrix sweep over the whole shard: in the float regime the batch
    # kernel amortizes per-level overhead across every assignment at once.
    values = artifact.probability_many(
        [probabilities for _, (probabilities,) in shard], exact=exact
    )
    return _outcome(engine, [(index, value) for (index, _), value in zip(shard, values)])


def _segment_names(outcomes: Iterable[ShardOutcome]) -> set[str]:
    """Segment names referenced by completed outcomes (must survive sweeps)."""
    names: set[str] = set()
    for results, _, _ in outcomes:
        for _, value in results:
            if isinstance(value, SegmentHandle) and value.name is not None:
                names.add(value.name)
    return names


class ParallelEngine:
    """Shard ``(query, instance)`` workloads across engine-owning workers.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the host's available parallelism.
        ``workers=1`` executes inline (no subprocess, no segments).
    max_shard_retries:
        How many times one shard may be re-submitted after a worker crash
        or a retryable worker failure (``MemoryError`` /
        :class:`~repro.errors.SegmentError`) before the run raises
        :class:`~repro.errors.WorkerCrashError`.
    retry_backoff:
        Base seconds of the exponential backoff between a shard's retries
        (``backoff * 2**(attempt-1)``, capped at 1s); 0 disables it.
    fault_plan:
        Deterministic fault-injection plan (tests only; see
        :mod:`repro.testing.faults`), shipped to every worker and consulted
        by the parent's reweight publishing.  ``None`` — the default — adds
        no hooks anywhere.
    store:
        A persistent artifact store directory shared by every worker: a
        path (string or ``Path``), or an opened
        :class:`~repro.store.ArtifactStore` whose directory is reused.
        Each worker's :class:`CompilationEngine` opens the store itself (a
        path string is what crosses the process boundary), so compiled
        artifacts persist across runs *and* across workers; a worker that
        loads a stored columnar artifact publishes it into shared memory
        straight from the file mapping — no node-graph deserialization
        anywhere on the path.
    """

    def __init__(
        self,
        workers: int | None = None,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.05,
        fault_plan: Any = None,
        store: Any = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise CompilationError("workers must be at least 1")
        if max_shard_retries < 0:
            raise CompilationError("max_shard_retries must be at least 0")
        if retry_backoff < 0.0:
            raise CompilationError("retry_backoff must not be negative")
        self.workers = workers if workers is not None else available_workers()
        self._store: str | None = None
        if store is not None:
            # Workers open their own engines, so the store crosses the
            # process boundary as its directory path.  (isinstance, not
            # getattr: Path.root is the *filesystem* root.)
            from repro.store import ArtifactStore

            self._store = str(store.root if isinstance(store, ArtifactStore) else store)
        self.max_shard_retries = max_shard_retries
        self.retry_backoff = retry_backoff
        self.fault_plan = fault_plan
        self.last_report: ParallelReport | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._plane: SegmentPlane | None = None
        self._inline_engine: CompilationEngine | None = None
        # The last pool batch's pickled instances, by fingerprint.
        self._instance_pickles: dict[str, bytes] = {}
        # Reweight artifacts published into the plane, least recently used
        # first, keyed by the artifact object (identity hash).
        self._published: dict[ColumnarOBDD, SegmentHandle] = {}

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Tear down the pool, the segment plane, and every worker cache.

        Deterministic by design: the pool processes (and with them every
        worker engine's cached node graphs) are shut down and joined, the
        inline engine's caches are *cleared* — not merely dereferenced, so
        no dead engine keeps millions of cached nodes alive for later GC
        passes to rescan — and every shared-memory segment this engine
        created is unlinked (a prefix sweep also reclaims segments orphaned
        by worker crashes).  Shared-columnar artifacts returned by earlier
        calls become invalid at that point; take a :meth:`ColumnarOBDD.copy`
        first if one must outlive the engine.  The engine itself stays
        usable: pools, plane, and inline engine are rebuilt lazily on the
        next call.

        Exception-safe by construction (``try``/``finally`` chain): even
        when shutting the pool down fails — e.g. the context manager body
        raised mid-batch — the segment plane is still closed (so no
        ``/dev/shm`` leak) and the inline engine's caches are still cleared.
        """
        try:
            self._discard_pool()
        finally:
            try:
                if self._plane is not None:
                    self._plane.close()
            finally:
                self._plane = None
                self._published.clear()
                self._instance_pickles = {}
                if self._inline_engine is not None:
                    self._inline_engine.clear()
                    self._inline_engine = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def segment_plane(self) -> SegmentPlane:
        """The engine's (lazily created) shared-memory segment plane."""
        if self._plane is None:
            self._plane = SegmentPlane()
        return self._plane

    # -- generic sharded execution -------------------------------------------

    def _run(
        self,
        items: Sequence[tuple],
        runner: ShardRunner,
        extra: Any,
        group_key: Callable[[tuple], Hashable] | None = None,
        recover: Callable[[], Any] | None = None,
        ship: Callable[[list[Shard]], tuple[ShardRunner, list[Any]]] | None = None,
    ) -> ParallelReport:
        """Shard ``items`` and execute: on the pool when there are several
        shards, else inline.  In the pool regime, ``ship`` turns the shards
        into the tasks that cross the process boundary and names the runner
        that reads them, and ``recover`` rebuilds ``extra`` after a
        retryable segment failure."""
        shards = shard_workload(items, self.workers, group_key)
        if len(shards) > 1:
            tasks: list[Any] = shards
            if ship is not None:
                runner, tasks = ship(shards)
            report = self._run_pool(shards, tasks, runner, extra, recover)
        elif shards:
            report = self._run_inline(shards, runner, extra)
        else:
            report = self._merge([], [])
        self.last_report = report
        return report

    def _ensure_inline_engine(self) -> CompilationEngine:
        if self._inline_engine is None:
            self._inline_engine = CompilationEngine(store=self._store)
            if self.fault_plan is not None and self._inline_engine.store is not None:
                # Mirror _init_worker: the chaos suite's disk faults reach
                # the inline (workers == 1) engine's store too.
                self._inline_engine.store.fault_plan = self.fault_plan
        return self._inline_engine

    def _run_inline(
        self, shards: list[Shard], runner: ShardRunner, extra: Any
    ) -> ParallelReport:
        global _WORKER_ENGINE
        previous = _WORKER_ENGINE
        _WORKER_ENGINE = self._ensure_inline_engine()
        try:
            outcomes = [runner(shard, extra) for shard in shards]
        finally:
            _WORKER_ENGINE = previous
        return self._merge(shards, outcomes)

    def _executor(self) -> ProcessPoolExecutor:
        """The live pool, started on first use (``fork`` where available)."""
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork" if "fork" in methods else None)
            self._pool = ProcessPoolExecutor(
                self.workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(self._store, self.segment_plane().prefix, self.fault_plan),
            )
        return self._pool

    def _run_pool(
        self,
        shards: list[Shard],
        tasks: list[Any],
        runner: ShardRunner,
        extra: Any,
        recover: Callable[[], Any] | None = None,
    ) -> ParallelReport:
        """Execute every shard on the pool, retrying around failures.

        ``tasks[i]`` is what shard ``i`` ships, and what a retry ships
        again.  Outcomes are keyed by shard index, so each shard is merged
        exactly once.  A failure that ends the run (a non-retryable worker
        error, or a shard out of retries) is raised only after every running
        shard has settled.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        outcomes: dict[int, ShardOutcome] = {}
        attempts = [0] * len(shards)
        pending = deque(range(len(shards)))
        running: dict[Future[ShardOutcome], int] = {}
        failure: BaseException | None = None
        while running or (pending and failure is None):
            broken = False
            if pending and failure is None:
                pool = self._executor()
                try:
                    while pending:
                        future = pool.submit(_run_task, runner, tasks[pending[0]], extra)
                        running[future] = pending.popleft()
                except BrokenProcessPool:
                    broken = True  # a worker died while shards were queued
            if not broken:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                broken = any(
                    isinstance(future.exception(), BrokenProcessPool) for future in done
                )
            if broken:
                # Joining the broken pool settles every future it held.
                self._discard_pool()
                done = set(running)
            retried: list[int] = []
            for future in done:
                index = running.pop(future)
                error = future.exception()
                if error is None:
                    outcomes[index] = future.result()
                    continue
                if not isinstance(error, (BrokenProcessPool, MemoryError, SegmentError)):
                    failure = failure or error
                    continue
                # Retryable: a crash, transient allocation pressure, or a
                # segment a crashed publisher / racing sweep invalidated.
                if isinstance(error, SegmentError) and recover is not None:
                    extra = recover()
                attempts[index] += 1
                if attempts[index] > self.max_shard_retries:
                    exhausted = WorkerCrashError(
                        f"shard {index} failed {attempts[index]} times"
                        f" ({self.max_shard_retries} retries allowed);"
                        f" last cause: {error}"
                    )
                    exhausted.__cause__ = error
                    failure = failure or exhausted
                else:
                    retried.append(index)
            if broken:
                # Reclaim the dead pool's unclaimed segments — except those
                # merged into completed outcomes, which the caller adopts.
                self.segment_plane().sweep_worker_orphans(_segment_names(outcomes.values()))
            pending.extend(sorted(retried))
            if retried and failure is None and self.retry_backoff > 0.0:
                attempt = max(attempts[index] for index in retried)
                time.sleep(min(self.retry_backoff * (1 << (attempt - 1)), 1.0))
        if failure is not None:
            raise failure
        return self._merge(shards, [outcomes[index] for index in range(len(shards))])

    def _discard_pool(self) -> None:
        """Shut the pool down and join its workers; the next run starts anew."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _merge(
        self, shards: list[Shard], outcomes: list[ShardOutcome]
    ) -> ParallelReport:
        total = sum(len(shard) for shard in shards)
        values: list[Any] = [None] * total
        worker_stats: list[dict[str, CacheStats]] = []
        worker_routes: list[dict[str, int]] = []
        for results, stats, routes in outcomes:
            for index, value in results:
                values[index] = value
            worker_stats.append(stats)
            worker_routes.append(routes)
        return ParallelReport(
            values=tuple(values),
            workers=self.workers,
            shard_sizes=tuple(len(shard) for shard in shards),
            worker_stats=tuple(worker_stats),
            worker_routes=tuple(worker_routes),
        )

    # -- probability workloads ------------------------------------------------

    def map_probability(
        self, pairs: Sequence[ProbabilityItem], method: str = "auto"
    ) -> ParallelReport:
        """Evaluate a workload of ``(query, tid)`` pairs; full report.

        Pairs are grouped by TID object, so no TID is hashed and fresh
        valuations of one instance spread over the shards.  In the pool
        regime each shard ships its distinct instances as pickle bytes and
        each of its TIDs once, as probability columns (see the module
        docstring); the inline regime evaluates the pairs as given.
        """
        return self._run(
            pairs,
            _run_probability_shard,
            method,
            group_key=_tid_object,
            ship=self._ship_probability_shards,
        )

    def _ship_probability_shards(
        self, shards: list[Shard]
    ) -> tuple[ShardRunner, list[ShippedShard]]:
        """Each shard's instances as pickle bytes, its TIDs as columns.

        An instance is pickled once, and its bytes are kept until the next
        batch, so a batch over known instances pickles none of them.
        """
        previous, pickled = self._instance_pickles, {}
        shipped: list[ShippedShard] = []
        for shard in shards:
            instances: dict[str, bytes] = {}
            slots: dict[ProbabilisticInstance, int] = {}
            columns: list[tuple[str, list[int], list[int]]] = []
            pairs: list[tuple[int, Query, int]] = []
            for index, (query, tid) in shard:
                slot = slots.get(tid)
                if slot is None:
                    instance = tid.instance
                    fingerprint = instance.fingerprint
                    if fingerprint not in instances:
                        data = pickled.get(fingerprint) or previous.get(fingerprint)
                        if data is None:
                            data = pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL)
                        instances[fingerprint] = pickled[fingerprint] = data
                    column = tid.column()
                    slot = slots[tid] = len(columns)
                    columns.append(
                        (
                            fingerprint,
                            [p.numerator for p in column],
                            [p.denominator for p in column],
                        )
                    )
                pairs.append((index, query, slot))
            shipped.append((instances, columns, pairs))
        self._instance_pickles = pickled
        return _run_shipped_probability_shard, shipped

    def probability_many(
        self,
        queries: Sequence[Query],
        tid: ProbabilisticInstance,
        method: str = "auto",
    ) -> list[Fraction | float]:
        """Probabilities of a batch of queries on one TID instance.

        Mirrors :meth:`CompilationEngine.probability_many`; the detailed
        :class:`ParallelReport` (shard sizes, per-worker cache statistics) is
        kept in :attr:`last_report`.
        """
        report = self.map_probability([(query, tid) for query in queries], method)
        return list(report.values)

    # -- compilation workloads -------------------------------------------------

    def map_compile(
        self,
        pairs: Sequence[CompileItem],
        use_path_decomposition: bool = False,
    ) -> ParallelReport:
        """Compile a workload of ``(query, instance)`` pairs; full report.

        The values are always :class:`~repro.booleans.columnar.ColumnarOBDD`
        artifacts.  In the pool regime, workers publish the columns into
        shared-memory segments and return handles; the parent attaches
        zero-copy, so the values are views owned by this engine (valid until
        :meth:`close`).  The inline regime (``workers=1``, or a workload that
        collapses to a single shard) builds the same columns directly and
        never creates a segment — there is no process boundary to cross.
        """
        report = self._run(pairs, _run_compile_shard, bool(use_path_decomposition))
        if any(isinstance(value, SegmentHandle) for value in report.values):
            plane = self.segment_plane()
            report = self.last_report = replace(
                report,
                values=tuple(
                    plane.adopt(value) if isinstance(value, SegmentHandle) else value
                    for value in report.values
                ),
            )
        return report

    def compile_many(
        self,
        queries: Sequence[Query],
        instance: Instance,
        use_path_decomposition: bool = False,
    ) -> list[ColumnarOBDD]:
        """Compiled artifacts of a batch of queries against one instance."""
        report = self.map_compile(
            [(query, instance) for query in queries], use_path_decomposition
        )
        return list(report.values)

    # -- batch re-weighting over one shared artifact ---------------------------

    def reweight_many(
        self,
        compiled: CompiledOBDD | ColumnarOBDD,
        probability_maps: Sequence[Mapping],
        exact: bool = True,
    ) -> list[Fraction | float]:
        """Probabilities of one compiled artifact under many weightings.

        The inverse direction of :meth:`map_compile`'s transport: the parent
        publishes the artifact's columns *once* into a shared-memory segment,
        and every worker attaches to that one segment and runs columnar
        sweeps for its shard of ``probability_maps`` — per-worker cost is an
        attach plus one batch pass over its assignments, never a deserialize.
        This is the re-weighting workload (same lineage, changing fact
        probabilities) that motivates separating diagram structure from
        weights.  ``workers=1`` evaluates inline without any segment.

        The segment outlives the call: a later call on the same artifact
        object reuses it, and workers keep it attached.  The engine keeps as
        many published artifacts as a worker keeps attachments, and unlinks
        the least recently used one beyond that.
        """
        columnar = (
            compiled if isinstance(compiled, ColumnarOBDD) else compiled.to_columnar()
        )
        items = [(probabilities,) for probabilities in probability_maps]
        # Each item is its own group, so a batch runs inline exactly when one
        # worker or one item leaves a single shard: it then sweeps the
        # artifact itself, and no segment is published.
        inline = self.workers == 1 or len(items) < 2
        shared = columnar if inline else self._published_handle(columnar)
        report = self._run(
            items,
            _run_reweight_shard,
            (shared, exact),
            group_key=_reweight_group_key,
            # A worker that cannot attach (absent/corrupt segment) reports a
            # retryable SegmentError; republishing under a fresh name is the
            # recovery — retried shards then attach to the new segment.
            # The replaced segment stays owned until close(): within one run
            # it may be the one another failed shard's recovery just
            # published, which retried shards are attaching to.
            recover=lambda: (self._published_handle(columnar, republish=True), exact),
        )
        return list(report.values)

    def _published_handle(self, columnar: ColumnarOBDD, republish: bool = False) -> SegmentHandle:
        """The segment holding ``columnar``, published on first use, or
        under a fresh name when ``republish`` is set."""
        plane = self.segment_plane()
        handle = self._published.pop(columnar, None)
        if handle is None or republish:
            handle = plane.publish(columnar)
            if self.fault_plan is not None:
                from repro.testing.faults import apply_parent_segment_faults

                apply_parent_segment_faults(self.fault_plan, handle)
        self._published[columnar] = handle
        if len(self._published) > _WORKER_ATTACHMENT_LIMIT:
            plane.unlink(self._published.pop(next(iter(self._published))))
        return handle


_REWEIGHT_COUNTER = itertools.count()


def _reweight_group_key(item: tuple) -> str:
    """Reweight items share one artifact; spread them evenly over shards."""
    return str(next(_REWEIGHT_COUNTER))


def _tid_object(item: tuple) -> ProbabilisticInstance:
    """A probability pair's TID, which hashes by identity, not content."""
    return item[1]
