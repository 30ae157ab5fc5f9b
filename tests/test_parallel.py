"""Tests for the sharded parallel evaluation engine (repro.engine.parallel)."""

import os
import threading
import time
import warnings
from fractions import Fraction

import pytest

from repro.cli import main
from repro.data.instance import Instance
from repro.data.io import save_instance
from repro.data.tid import ProbabilisticInstance
from repro.engine import (
    CompilationEngine,
    ParallelEngine,
    available_workers,
    shard_workload,
)
from repro.errors import CompilationError
from repro.generators import labelled_partial_ktree_instance
from repro.queries import hierarchical_example, parse_ucq, qp, unsafe_rst
from repro.testing import FaultInjector


@pytest.fixture(scope="module")
def workload():
    tids = [
        ProbabilisticInstance.uniform(
            labelled_partial_ktree_instance(8, 2, seed=seed), Fraction(1, 2)
        )
        for seed in range(4)
    ]
    queries = [unsafe_rst(), hierarchical_example()]
    return [(query, tid) for tid in tids for query in queries]


@pytest.fixture(scope="module")
def expected(workload):
    engine = CompilationEngine()
    return [engine.probability(query, tid) for query, tid in workload]


# -- sharding ------------------------------------------------------------------


def test_shard_workload_preserves_every_item(workload):
    for shard_count in (1, 2, 3, 5, 100):
        shards = shard_workload(workload, shard_count)
        assert len(shards) <= shard_count
        indices = sorted(index for shard in shards for index, _ in shard)
        assert indices == list(range(len(workload)))


def test_shard_workload_groups_by_instance(workload):
    # 4 instances, 2 shards: each instance's items stay in one shard.
    shards = shard_workload(workload, 2)
    for shard in shards:
        fingerprints = {}
        for _, (query, tid) in shard:
            fingerprints.setdefault(tid.fingerprint, 0)
            fingerprints[tid.fingerprint] += 1
        assert all(count == 2 for count in fingerprints.values())


def test_shard_workload_splits_a_single_dominant_group(workload):
    tid = workload[0][1]
    single = [(unsafe_rst(), tid)] * 8
    shards = shard_workload(single, 4)
    assert len(shards) == 4
    assert sorted(len(shard) for shard in shards) == [2, 2, 2, 2]


def test_shard_workload_balances_load(workload):
    shards = shard_workload(workload, 3)
    sizes = sorted(len(shard) for shard in shards)
    assert sum(sizes) == len(workload)
    assert sizes[-1] - sizes[0] <= 2


def test_shard_workload_rejects_zero_shards(workload):
    with pytest.raises(CompilationError):
        shard_workload(workload, 0)


# -- execution ------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_map_probability_matches_serial_engine(workers, workload, expected):
    with ParallelEngine(workers=workers) as parallel:
        report = parallel.map_probability(workload)
    assert list(report.values) == expected
    assert report.workers == workers
    assert report.shard_count <= workers
    assert report.items == len(workload)
    assert report.stats["probability"].total == len(workload)


def _extreme_tids(instances):
    """Two TIDs per instance whose probabilities cycle through 0, 1, a
    denominator above 2**64, floats and an exact binary float."""
    cells = [0, 1, Fraction(3, 2**64 + 13), 0.1, 1 / 3, Fraction(0.3), Fraction(1, 2)]
    return [
        ProbabilisticInstance(
            instance,
            {f: cells[(i + shift) % len(cells)] for i, f in enumerate(instance.facts)},
        )
        for shift in range(2)
        for instance in instances
    ]


def test_pool_map_is_exact_on_extreme_probabilities():
    instances = [labelled_partial_ktree_instance(8, 2, seed=seed) for seed in range(3)]
    tids = _extreme_tids(instances)
    queries = [unsafe_rst(), hierarchical_example()]
    # TID objects repeat across pairs, and within one shard.
    pairs = [(query, tid) for tid in tids for query in queries] + [
        (unsafe_rst(), tids[0]),
        (hierarchical_example(), tids[4]),
    ]
    serial = CompilationEngine()
    expected = [serial.probability(query, tid) for query, tid in pairs]
    assert any(value.denominator > 2**64 for value in expected)
    with ParallelEngine(workers=2) as parallel:
        report = parallel.map_probability(pairs)
        again = parallel.map_probability(pairs)
    assert report.shard_count == 2
    assert list(report.values) == list(again.values) == expected
    assert all(type(value) is Fraction for value in report.values)


def test_pool_map_hashes_no_tid():
    instances = [labelled_partial_ktree_instance(8, 2, seed=seed) for seed in range(3)]
    tids = _extreme_tids(instances)
    pairs = [(unsafe_rst(), tid) for tid in tids]
    with ParallelEngine(workers=2) as parallel:
        report = parallel.map_probability(pairs)
    assert report.shard_count == 2
    assert all(tid._fingerprint is None for tid in tids)


def test_pool_map_groups_fresh_valuations_by_tid_object():
    # Three instances, four fresh valuations each: twelve groups of one,
    # split 6/6 as grouping by TID fingerprint split them.
    instances = [labelled_partial_ktree_instance(8, 2, seed=seed) for seed in range(3)]
    pairs = [
        (unsafe_rst(), ProbabilisticInstance.uniform(instance, Fraction(k, 5)))
        for k in range(1, 5)
        for instance in instances
    ]
    with ParallelEngine(workers=2) as parallel:
        assert parallel.map_probability(pairs).shard_sizes == (6, 6)


def test_pool_unpickles_each_instance_once_per_worker(tmp_path, monkeypatch):
    """Workers keep the instances they were shipped: an instance is
    unpickled the first time a worker sees it, and never again there."""
    log = tmp_path / "unpickled"
    restore = Instance.__setstate__

    def logged(self, state):
        restore(self, state)
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {self.fingerprint}\n")

    # Patched before the pool forks, so the workers inherit it.
    monkeypatch.setattr(Instance, "__setstate__", logged)
    instances = [labelled_partial_ktree_instance(8, 2, seed=seed) for seed in range(3)]
    serial = CompilationEngine()

    def unpickles() -> list[tuple[str, str]]:
        return [tuple(line.split()) for line in log.read_text().splitlines()]

    with ParallelEngine(workers=2) as parallel:
        seen: list[tuple[str, str]] = []
        for round_ in range(4):
            # Interleaved, so each of the two shards holds every instance.
            pairs = [
                (unsafe_rst(), ProbabilisticInstance.uniform(instance, Fraction(round_ + 1, k + 6)))
                for k in range(4)
                for instance in instances
            ]
            report = parallel.map_probability(pairs)
            assert list(report.values) == [serial.probability(q, t) for q, t in pairs]
            now = unpickles()
            # A worker that ran an earlier shard holds every instance, so
            # this batch unpickles nothing on it.
            ran_before = {pid for pid, _ in seen}
            assert not [pid for pid, _ in now[len(seen) :] if pid in ran_before]
            seen = now
    assert seen, "the pool shipped no instance"
    assert len(seen) == len(set(seen)) <= 2 * len(instances)
    assert all(instance._fingerprint is not None for instance in instances)


def test_probability_many_single_instance(workload, expected):
    query, tid = workload[0]
    queries = [unsafe_rst(), hierarchical_example(), qp(tid.instance.signature)]
    serial = CompilationEngine().probability_many(queries, tid)
    with ParallelEngine(workers=2) as parallel:
        assert parallel.probability_many(queries, tid) == serial
    assert parallel.last_report is not None
    assert parallel.last_report.items == len(queries)


def test_compile_many_matches_serial_engine(workload):
    _, tid = workload[0]
    queries = [unsafe_rst(), hierarchical_example()]
    serial = CompilationEngine().compile_many(queries, tid.instance)
    with ParallelEngine(workers=2) as parallel:
        for mine, reference in zip(parallel.compile_many(queries, tid.instance), serial):
            assert mine.size == reference.size
            assert mine.width == reference.width
            assert mine.order == reference.order
            assert mine.probability(tid.valuation()) == reference.probability(
                tid.valuation()
            )


def test_map_compile_report_carries_worker_stats(workload):
    pairs = [(query, tid.instance) for query, tid in workload]
    with ParallelEngine(workers=2) as parallel:
        report = parallel.map_compile(pairs)
    assert report.items == len(pairs)
    assert report.stats["obdd"].total == len(pairs)
    # Repeated (query, instance) pairs hit the owning worker's cache.
    with ParallelEngine(workers=2) as parallel:
        doubled = parallel.map_compile(pairs + pairs)
    assert doubled.stats["obdd"].hits >= len(pairs)


def test_pool_persists_across_calls(workload, expected):
    with ParallelEngine(workers=2) as parallel:
        cold = parallel.map_probability(workload)
        assert cold.stats["probability"].hits == 0
        pool = parallel._pool
        assert pool is not None
        warm = parallel.map_probability(workload)
        assert list(warm.values) == expected
        # Same pool object: the worker processes (and their engine caches)
        # survived the first call.  Which worker picks up which shard is up
        # to the pool, so hit counts are not asserted here — the inline test
        # below pins the cache-persistence semantics deterministically.
        assert parallel._pool is pool
        assert warm.stats["probability"].total == len(workload)
    assert parallel._pool is None  # context exit closed it


def _os_thread_count() -> int:
    """Threads in this process as the OS counts them (what Python 3.12's
    fork warning reads), else the threads Python started."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def test_pools_fork_only_beside_no_executor_thread(workload, expected, monkeypatch):
    """An open executor keeps a manager and a queue-feeder thread, and from
    Python 3.12 on fork() in a multi-threaded process warns that it "may
    lead to deadlocks".  The first pool start, the restart after a worker
    kill, and the start after close() must each fork with no executor
    thread alive.

    The OS-level exit of a joined thread trails its join by a millisecond
    or two (threads are detached before Python 3.13), so the fork hook
    first checks the Python-level threads, then gives a joined thread that
    long to vanish before it forks.  The warning check needs a process with
    no native threads of its own (a BLAS pool makes every fork warn).
    """
    threads_at_fork: list[int] = []
    baseline = threading.active_count()
    os_baseline = _os_thread_count()
    fork = os.fork

    def recording_fork() -> int:
        threads_at_fork.append(threading.active_count())
        deadline = time.monotonic() + 1.0
        while _os_thread_count() > os_baseline and time.monotonic() < deadline:
            time.sleep(0.001)
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    with FaultInjector() as injector, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        injector.arm("worker_kill", 1)
        with ParallelEngine(
            workers=2, fault_plan=injector.plan, retry_backoff=0.0
        ) as parallel:
            # Pool start, then kill-and-restart.
            assert list(parallel.map_probability(workload).values) == expected
            assert injector.armed("worker_kill") == 0
            parallel.close()
            assert threading.active_count() == baseline
            # Close-and-reopen.
            assert list(parallel.map_probability(workload).values) == expected
    assert len(threads_at_fork) == 3 * 2  # three pool starts, two workers each
    assert set(threads_at_fork) == {baseline}
    assert threading.active_count() == baseline
    if os_baseline == 1:
        messages = [str(warning.message) for warning in caught]
        assert [message for message in messages if "multi-threaded" in message] == []


def test_inline_engine_persists_across_calls(workload, expected):
    parallel = ParallelEngine(workers=1)
    parallel.map_probability(workload)
    warm = parallel.map_probability(workload)
    assert list(warm.values) == expected
    assert warm.stats["probability"].hits == len(workload)
    parallel.close()
    assert parallel._inline_engine is None
    # Still usable after close: state is rebuilt lazily.
    assert list(parallel.map_probability(workload).values) == expected


def test_empty_workload(workload):
    parallel = ParallelEngine(workers=3)
    report = parallel.map_probability([])
    assert report.values == () and report.shard_count == 0
    assert report.workers == 3
    assert parallel.probability_many([], workload[0][1]) == []


def test_inline_regime_spawns_no_pool(workload, expected, monkeypatch):
    import multiprocessing

    def forbidden(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("workers=1 must not create a multiprocessing context")

    monkeypatch.setattr(multiprocessing, "get_context", forbidden)
    parallel = ParallelEngine(workers=1)
    assert list(parallel.map_probability(workload).values) == expected


def test_close_drops_worker_caches_deterministically(workload):
    """Regression: a closed engine must not keep cached node graphs alive.

    Dead engines pinning millions of cached OBDD nodes were a measured ~2x
    drag on later GC passes; close() must make the cached artifacts
    collectable immediately, not whenever the engine object itself dies.
    """
    import gc
    import weakref

    parallel = ParallelEngine(workers=1)
    parallel.map_probability(workload)
    engine = parallel._inline_engine
    assert engine is not None
    query, tid = workload[0]
    cached = engine.compile(query, tid.instance)
    ref = weakref.ref(cached)
    del cached, engine
    parallel.close()
    gc.collect()
    assert ref() is None, "close() left a cached compiled artifact alive"


def test_map_compile_shm_transport_in_pool_regime(workload):
    from repro.booleans.columnar import ColumnarOBDD

    _, tid = workload[0]
    queries = [unsafe_rst(), hierarchical_example()]
    serial = CompilationEngine().compile_many(queries, tid.instance)
    with ParallelEngine(workers=2) as parallel:
        artifacts = parallel.compile_many(queries, tid.instance)
        assert all(isinstance(artifact, ColumnarOBDD) for artifact in artifacts)
        for mine, reference in zip(artifacts, serial):
            assert mine.probability(tid.valuation()) == reference.probability(
                tid.valuation()
            )


def test_map_compile_shm_transport_in_inline_regime(workload):
    """The columnar representation holds even when the workload collapses
    to the inline regime — which still creates no segment."""
    from repro.booleans.columnar import ColumnarOBDD

    _, tid = workload[0]
    reference = CompilationEngine().compile(unsafe_rst(), tid.instance)
    for parallel in (ParallelEngine(workers=1), ParallelEngine(workers=2)):
        with parallel:
            # One query -> one shard -> inline, whatever the worker count.
            artifacts = parallel.compile_many([unsafe_rst()], tid.instance)
            assert isinstance(artifacts[0], ColumnarOBDD)
            assert artifacts[0].probability(tid.valuation()) == reference.probability(
                tid.valuation()
            )
            if parallel._plane is not None:
                assert parallel._plane.owned_segments() == ()


def test_reweight_many_matches_direct_evaluation(workload):
    _, tid = workload[0]
    compiled = CompilationEngine().compile(unsafe_rst(), tid.instance)
    maps = [
        {fact: Fraction(i + 1, i + 4) for fact in compiled.order} for i in range(7)
    ]
    expected = [compiled.probability(m) for m in maps]
    for workers in (1, 2):
        with ParallelEngine(workers=workers) as parallel:
            assert parallel.reweight_many(compiled, maps) == expected
            floats = parallel.reweight_many(compiled, maps, exact=False)
            assert all(
                abs(value - float(reference)) < 1e-9
                for value, reference in zip(floats, expected)
            )
    assert ParallelEngine(workers=2).reweight_many(compiled, []) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_reweight_report_counts_only_its_own_batch(workers, workload):
    _, tid = workload[0]
    compiled = CompilationEngine().compile(unsafe_rst(), tid.instance)
    maps = [{fact: Fraction(1, i + 2) for fact in compiled.order} for i in range(4)]
    with ParallelEngine(workers=workers) as parallel:
        parallel.map_probability(workload[:3])
        assert parallel.last_report.stats["structure"].total > 0
        values = parallel.reweight_many(compiled, maps)
        report = parallel.last_report
        assert values == [compiled.probability(m) for m in maps]
        assert report.items == len(maps)
        # A sweep over a given artifact touches no cache and routes nothing.
        assert all(str(stats) == "0 hits / 0 misses" for stats in report.stats.values())
        assert report.route_mix == {}
        if workers == 1:
            # Inline, the artifact itself is swept: no segment is published.
            assert parallel._plane is None
    with ParallelEngine(workers=workers) as parallel:
        # One item is one shard, which runs inline at any worker count.
        assert parallel.reweight_many(compiled, maps[:1]) == values[:1]
        assert parallel._plane is None


def test_inline_regime_leaves_gc_enabled(workload):
    import gc

    assert gc.isenabled()
    parallel = ParallelEngine(workers=1)
    parallel.map_probability(workload)
    parallel.compile_many([unsafe_rst()], workload[0][1].instance)
    assert gc.isenabled(), "the inline regime must never touch the caller's GC"
    parallel.close()


def test_worker_errors_propagate(workload):
    bad = [(unsafe_rst(), workload[0][1])] + [("not a query", workload[1][1])]
    with ParallelEngine(workers=2) as parallel:
        with pytest.raises(Exception):
            parallel.map_probability(bad)


def test_available_workers_positive():
    assert available_workers() >= 1
    with pytest.raises(CompilationError):
        ParallelEngine(workers=0)


def test_parallel_engine_default_worker_count():
    assert ParallelEngine().workers == available_workers()


# -- CLI ------------------------------------------------------------------------


def test_cli_batch_workers_flag(tmp_path, capsys, workload):
    _, tid = workload[0]
    target = tmp_path / "instance.json"
    save_instance(tid, target)
    code = main(
        [
            "batch",
            str(target),
            "--query",
            "R(x), S(x, y), T(y)",
            "--query",
            "R(x)",
            "--workers",
            "2",
            "--stats",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "R(x), S(x, y), T(y):" in output
    assert "workers:" in output and "worker[0]:" in output
    assert "cache[probability]" in output
    # The values match the single-process CLI path.
    serial = CompilationEngine()
    expected_value = serial.probability(parse_ucq("R(x)"), tid)
    assert f"R(x): {expected_value}" in output
