"""Chaos tests: deterministic fault injection against the parallel engine.

Every test arms a :class:`~repro.testing.faults.FaultInjector`, runs a real
workload through a :class:`~repro.engine.parallel.ParallelEngine` carrying
the injector's plan, and asserts three things at once: the faults actually
fired (no tokens left over), the answers are still *exact* (checked against
a serial engine, and — for the headline crash test — against the
differential :class:`~repro.testing.ProbabilityOracle`), and nothing leaked
(``/dev/shm`` is clean after close, the pool is torn down).
"""

import os
from fractions import Fraction

import pytest

from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine, ParallelEngine
from repro.engine.shm import live_segments
from repro.errors import ReproError, WorkerCrashError
from repro.generators import labelled_partial_ktree_instance
from repro.queries import hierarchical_example, unsafe_rst
from repro.testing import FaultInjector, FaultPlan, ProbabilityOracle, consume_token

pytestmark = pytest.mark.chaos


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


@pytest.fixture()
def injector():
    with FaultInjector(slow_seconds=0.05) as active:
        yield active


# -- the harness itself ---------------------------------------------------------


def test_tokens_fire_exactly_once(injector):
    injector.arm("worker_kill", 2)
    assert injector.armed("worker_kill") == 2
    assert consume_token(injector.plan, "worker_kill")
    assert consume_token(injector.plan, "worker_kill")
    assert not consume_token(injector.plan, "worker_kill")
    assert injector.armed("worker_kill") == 0


def test_kinds_are_independent(injector):
    injector.arm("alloc_fail")
    assert not consume_token(injector.plan, "worker_kill")
    assert consume_token(injector.plan, "alloc_fail")


def test_unknown_kind_and_bad_count_rejected(injector):
    with pytest.raises(ReproError):
        injector.arm("power_outage")
    with pytest.raises(ReproError):
        injector.arm("worker_kill", 0)


def test_missing_token_dir_means_no_faults(tmp_path):
    plan = FaultPlan(token_dir=str(tmp_path / "never-created"))
    assert not consume_token(plan, "worker_kill")


def test_cleanup_removes_the_token_dir():
    with FaultInjector() as active:
        active.arm("slow_kernel", 3)
        token_dir = active.plan.token_dir
        assert os.path.isdir(token_dir)
    assert not os.path.isdir(token_dir)


# -- worker crashes --------------------------------------------------------------


def test_worker_kill_recovery_is_exact(injector, workload, expected):
    """The headline chaos case: seeded worker kills at 4 workers, and the
    batch still returns exactly the answers the serial engine (and the
    differential oracle) produce — with nothing left in /dev/shm."""
    injector.arm("worker_kill", 2)
    with ParallelEngine(
        workers=4, fault_plan=injector.plan, retry_backoff=0.01
    ) as parallel:
        prefix = parallel.segment_plane().prefix
        report = parallel.map_probability(workload)
    assert list(report.values) == expected
    assert injector.armed("worker_kill") == 0, "the kills never fired"
    assert live_segments(prefix) == []
    # Independent confirmation through every serial route the oracle runs.
    oracle = ProbabilityOracle(karp_luby_samples=0)
    query, tid = workload[0]
    assert report.values[0] == oracle.check(query, tid, "chaos-kill").reference


def _reweight_case(tid, count=8):
    """A compiled artifact, ``count`` weightings of its facts, and the
    exact answers the artifact gives in process."""
    compiled = CompilationEngine().compile(unsafe_rst(), tid.instance)
    maps = [
        {fact: Fraction(i + 1, i + 4) for fact in compiled.order} for i in range(count)
    ]
    return compiled, maps, [compiled.probability(m) for m in maps]


def test_worker_kill_during_reweight_is_exact_and_leaves_no_segments(injector, workload):
    """A worker killed while sweeping the shared reweight artifact: the
    restarted pool attaches to the same segment and answers exactly, and
    close() leaves nothing in /dev/shm."""
    compiled, maps, reference = _reweight_case(workload[0][1])
    injector.arm("worker_kill", 1)
    with ParallelEngine(
        workers=2, fault_plan=injector.plan, retry_backoff=0.01
    ) as parallel:
        prefix = parallel.segment_plane().prefix
        assert parallel.reweight_many(compiled, maps) == reference
        assert len(parallel.segment_plane().owned_segments()) == 1
    assert injector.armed("worker_kill") == 0
    assert live_segments(prefix) == []


def test_worker_kill_restarts_the_pool_and_the_engine_stays_usable(
    injector, workload, expected
):
    """A crash replaces the whole executor; the same engine keeps answering
    exactly afterwards, and close() still reclaims every segment."""
    compiled, maps, reference = _reweight_case(workload[0][1])
    with ParallelEngine(
        workers=2, fault_plan=injector.plan, retry_backoff=0.0
    ) as parallel:
        prefix = parallel.segment_plane().prefix
        assert list(parallel.map_probability(workload).values) == expected
        first = parallel._pool
        assert first is not None
        injector.arm("worker_kill", 1)
        assert list(parallel.map_probability(workload).values) == expected
        assert injector.armed("worker_kill") == 0
        assert parallel._pool is not None and parallel._pool is not first
        # The next call runs on the replacement pool, segments included.
        assert list(parallel.map_probability(workload).values) == expected
        assert parallel.reweight_many(compiled, maps) == reference
        assert live_segments(prefix) == list(parallel.segment_plane().owned_segments())
    assert live_segments(prefix) == []


def test_retry_exhaustion_raises_worker_crash_error(injector, workload):
    """When every retry is also killed, the run must fail with the typed
    error instead of hanging — and close() must still clean up."""
    # 2 shards x (1 + max_shard_retries) attempts: enough kills to exhaust
    # some shard no matter how the pool schedules the retries.
    injector.arm("worker_kill", 4)
    with ParallelEngine(
        workers=2, fault_plan=injector.plan, max_shard_retries=1, retry_backoff=0.0
    ) as parallel:
        prefix = parallel.segment_plane().prefix
        with pytest.raises(WorkerCrashError):
            parallel.map_probability(workload)
    assert live_segments(prefix) == []


# -- soft worker faults ----------------------------------------------------------


def test_alloc_fail_is_retried(injector, workload, expected):
    injector.arm("alloc_fail", 2)
    with ParallelEngine(
        workers=2, fault_plan=injector.plan, retry_backoff=0.0
    ) as parallel:
        values = list(parallel.map_probability(workload).values)
    assert values == expected
    assert injector.armed("alloc_fail") == 0


def test_slow_kernel_is_tolerated_without_retry(injector, workload, expected):
    injector.arm("slow_kernel", 2)  # one straggler per shard
    with ParallelEngine(workers=2, fault_plan=injector.plan) as parallel:
        report = parallel.map_probability(workload)
    assert list(report.values) == expected
    assert injector.armed("slow_kernel") == 0
    # A straggler is not an error: every shard completed exactly once.
    assert report.items == len(workload)


# -- segment sabotage ------------------------------------------------------------


@pytest.mark.parametrize("kind", ["segment_corrupt", "segment_unlink"])
def test_reweight_recovers_from_segment_sabotage(injector, workload, kind):
    """Corrupting or unlinking the published reweight artifact must surface
    as a retryable SegmentError: the parent republishes under a fresh name
    and the retried shards attach to the replacement."""
    compiled, maps, reference = _reweight_case(workload[0][1])
    injector.arm(kind, 1)
    with ParallelEngine(
        workers=2, fault_plan=injector.plan, retry_backoff=0.0
    ) as parallel:
        prefix = parallel.segment_plane().prefix
        assert parallel.reweight_many(compiled, maps) == reference
    assert injector.armed(kind) == 0
    assert live_segments(prefix) == []


# -- lifecycle regression --------------------------------------------------------


def test_context_exit_releases_everything_when_body_raises(workload):
    """Regression: a body that raises mid-batch must still get the pool torn
    down and every shared-memory segment unlinked by __exit__."""
    compiled, maps, _ = _reweight_case(workload[0][1], count=4)
    with pytest.raises(RuntimeError, match="mid-batch"):
        with ParallelEngine(workers=2) as parallel:
            parallel.reweight_many(compiled, maps)
            prefix = parallel.segment_plane().prefix
            assert live_segments(prefix), "the batch should have published segments"
            raise RuntimeError("mid-batch failure")
    assert parallel._pool is None
    assert parallel._plane is None
    assert live_segments(prefix) == []
