"""Chaos-disk tests: deterministic disk faults against the artifact store.

Every test arms a :class:`~repro.testing.faults.FaultInjector` with the disk
fault kinds, points a real engine at a store carrying the plan, and asserts
three things at once: the faults actually fired (no tokens left), every
answer is still an *exact* Fraction (checked against a store-less serial
engine, and — for the headline sweep — the differential
:class:`~repro.testing.ProbabilityOracle`), and the store ends consistent
(damage quarantined, ``verify`` clean, no temp files left behind).
"""

import glob
from fractions import Fraction

import pytest

from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine, ParallelEngine
from repro.generators import labelled_partial_ktree_instance
from repro.queries import hierarchical_example, parse_ucq, unsafe_rst
from repro.store import ArtifactStore
from repro.testing import DISK_FAULT_KINDS, FaultInjector, ProbabilityOracle

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def tid():
    return ProbabilisticInstance.uniform(
        labelled_partial_ktree_instance(8, 2, seed=11), Fraction(1, 2)
    )


@pytest.fixture(scope="module")
def queries():
    return [unsafe_rst(), hierarchical_example(), parse_ucq("R(x), S(x, y)")]


@pytest.fixture(scope="module")
def expected(tid, queries):
    engine = CompilationEngine()
    return [engine.probability(query, tid, method="obdd") for query in queries]


@pytest.fixture()
def injector():
    with FaultInjector() as active:
        yield active


def tmp_files(root) -> list[str]:
    return glob.glob(str(root / "objects" / "*" / ".tmp-*"))


def assert_consistent(root) -> None:
    """The post-fault invariant: a verify sweep handles any lingering damage
    (quarantining it, never serving it), after which the store is fully
    clean and no in-flight temp files remain."""
    report = ArtifactStore(root).verify()
    assert report.clean, report.damaged
    assert ArtifactStore(root).verify().damaged == []
    assert tmp_files(root) == []


def test_disk_kinds_are_armable(injector):
    for kind in DISK_FAULT_KINDS:
        injector.arm(kind)
        assert injector.armed(kind) == 1


def test_torn_write_is_quarantined_on_next_read(tmp_path, injector, tid, expected, queries):
    root = tmp_path / "store"
    injector.arm("disk_torn_write")
    # The writer itself still answers exactly: the torn entry only exists on
    # disk, the in-memory artifact served the query.
    writer = CompilationEngine(store=ArtifactStore(root, fault_plan=injector.plan))
    assert writer.probability(queries[0], tid, method="obdd") == expected[0]
    assert injector.armed("disk_torn_write") == 0

    # The next process finds the torn entry, quarantines it, recompiles, and
    # heals the store by writing the good artifact behind.
    reader = CompilationEngine(store=root)
    assert reader.probability(queries[0], tid, method="obdd") == expected[0]
    assert reader.stats["store"].quarantines == 1
    assert reader.stats["store"].misses == 1

    healed = CompilationEngine(store=root)
    assert healed.probability(queries[0], tid, method="obdd") == expected[0]
    assert healed.stats["store"].hits == 1
    assert_consistent(root)


def test_bit_flip_is_caught_by_the_checksum(tmp_path, injector, tid, expected, queries):
    root = tmp_path / "store"
    CompilationEngine(store=root).probability(queries[0], tid, method="obdd")

    injector.arm("disk_bit_flip")
    reader = CompilationEngine(store=ArtifactStore(root, fault_plan=injector.plan))
    assert reader.probability(queries[0], tid, method="obdd") == expected[0]
    assert injector.armed("disk_bit_flip") == 0
    assert reader.stats["store"].quarantines == 1
    assert len(ArtifactStore(root).quarantine_list()) == 1
    assert_consistent(root)


def test_disk_full_write_is_tolerated(tmp_path, injector, tid, expected, queries):
    root = tmp_path / "store"
    # One token: a fresh build writes behind once, and that write fails.
    injector.arm("disk_enospc")
    store = ArtifactStore(root, fault_plan=injector.plan)
    engine = CompilationEngine(store=store)
    assert engine.probability(queries[0], tid, method="obdd") == expected[0]
    assert injector.armed("disk_enospc") == 0
    assert store.counters.write_failures == 1
    assert store.counters.writes == 0
    # Nothing half-written survives the failed commit.
    assert tmp_files(root) == []
    # The same session still answers (memory cache), and a later run simply
    # recompiles and persists successfully.
    assert engine.probability(queries[0], tid, method="obdd") == expected[0]
    retry = CompilationEngine(store=root)
    assert retry.probability(queries[0], tid, method="obdd") == expected[0]
    assert retry.store.counters.writes == 1
    assert_consistent(root)


def test_lock_steal_is_detected_and_reacquired(tmp_path, injector, tid, expected, queries):
    root = tmp_path / "store"
    injector.arm("lock_steal", 3)
    store = ArtifactStore(root, fault_plan=injector.plan)
    engine = CompilationEngine(store=store)
    for query, value in zip(queries, expected):
        assert engine.probability(query, tid, method="obdd") == value
    assert injector.armed("lock_steal") == 0
    assert_consistent(root)


def test_chaos_sweep_every_fault_still_exact(tmp_path, injector, tid, expected, queries):
    """The headline: all four disk faults armed at once, answers exact."""
    root = tmp_path / "store"
    injector.arm("disk_torn_write")
    injector.arm("disk_enospc")
    injector.arm("disk_bit_flip")
    injector.arm("lock_steal", 2)

    cold = CompilationEngine(store=ArtifactStore(root, fault_plan=injector.plan))
    for query, value in zip(queries, expected):
        assert cold.probability(query, tid, method="obdd") == value

    warm = CompilationEngine(store=ArtifactStore(root, fault_plan=injector.plan))
    for query, value in zip(queries, expected):
        assert warm.probability(query, tid, method="obdd") == value

    for kind in DISK_FAULT_KINDS:
        assert injector.armed(kind) == 0, kind
    assert_consistent(root)

    # Damage was quarantined, never silently served: every remaining entry
    # re-verifies, and the quarantine holds whatever the faults tore.
    final = CompilationEngine(store=root)
    for query, value in zip(queries, expected):
        assert final.probability(query, tid, method="obdd") == value


def test_oracle_checked_probabilities_with_store_faults(tmp_path, injector, tid):
    """Every backend agrees even when the engine's store is being damaged."""
    root = tmp_path / "store"
    injector.arm("disk_torn_write")
    injector.arm("disk_bit_flip")
    engine = CompilationEngine(store=ArtifactStore(root, fault_plan=injector.plan))
    oracle = ProbabilityOracle(engine=engine, karp_luby_samples=0)
    oracle.check(unsafe_rst(), tid, name="store-faults")
    oracle.check(hierarchical_example(), tid, name="store-faults-hierarchical")
    assert_consistent(root)


def test_parallel_workers_with_disk_faults(tmp_path, injector, tid, expected, queries):
    root = tmp_path / "store"
    injector.arm("disk_torn_write")
    injector.arm("disk_enospc")
    with ParallelEngine(workers=2, store=root, fault_plan=injector.plan) as pool:
        values = pool.probability_many(queries, tid, method="obdd")
    assert values == expected
    assert injector.armed("disk_torn_write") == 0
    assert injector.armed("disk_enospc") == 0
    assert_consistent(root)

    # A fresh pool reads the surviving entries back and stays exact.
    with ParallelEngine(workers=2, store=root) as pool:
        assert pool.probability_many(queries, tid, method="obdd") == expected
    assert_consistent(root)
