"""Tests for the shared-memory segment lifecycle (repro.engine.shm).

The contract under test: every segment a :class:`SegmentPlane` publishes is
provably reclaimed — ``close()`` and context exit unlink the owned segments,
the prefix sweep reclaims any other name under the plane's prefix, garbage
collection of an unclosed plane reclaims them too, and the ``workers=1``
inline regime never creates a segment in the first place.
"""

import gc
import os
from fractions import Fraction

import pytest

from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine, ParallelEngine
from repro.engine import shm as shm_module
from repro.engine.parallel import _WORKER_ATTACHMENT_LIMIT
from repro.engine.shm import (
    SegmentHandle,
    SegmentPlane,
    attach_segment,
    live_segments,
    publish_segment,
)
from repro.errors import CompilationError, SegmentError
from repro.generators import labelled_partial_ktree_instance
from repro.queries import hierarchical_example, unsafe_rst


@pytest.fixture(scope="module")
def columnar_artifact():
    tid = ProbabilisticInstance.uniform(
        labelled_partial_ktree_instance(8, 2, seed=11), Fraction(1, 2)
    )
    engine = CompilationEngine()
    return engine.columnar(unsafe_rst(), tid.instance), tid


# -- publish / attach -----------------------------------------------------------


def test_publish_attach_round_trip(columnar_artifact):
    columnar, tid = columnar_artifact
    with SegmentPlane() as plane:
        handle = plane.publish(columnar)
        assert handle.name is not None
        assert handle.node_count == len(columnar)
        assert handle.nbytes == columnar.nbytes
        attached = attach_segment(handle)
        assert list(attached.var) == list(columnar.var)
        assert list(attached.lo) == list(columnar.lo)
        assert list(attached.hi) == list(columnar.hi)
        assert attached.probability(tid.valuation()) == columnar.probability(tid.valuation())
        del attached


def test_segments_send_no_traffic_to_the_resource_tracker(columnar_artifact, monkeypatch):
    # Forked workers share one tracker whose cache is a set: two attaches of
    # one segment followed by two unregisters make the second one raise
    # KeyError inside the tracker.  Repro segments must not touch it at all.
    from multiprocessing import resource_tracker

    calls = []
    for kind in ("register", "unregister"):
        monkeypatch.setattr(
            resource_tracker,
            kind,
            lambda name, rtype, kind=kind: calls.append((kind, name, rtype)),
        )
    columnar, tid = columnar_artifact
    with SegmentPlane() as plane:
        handle = plane.publish(columnar)
        attached = attach_segment(handle)
        assert attached.probability(tid.valuation()) == columnar.probability(tid.valuation())
        del attached
    assert live_segments(plane.prefix) == []
    assert [call for call in calls if plane.prefix in call[1]] == []


def test_terminal_only_artifact_needs_no_segment():
    from repro.booleans import TRUE_NODE
    from repro.booleans.columnar import ColumnarOBDD

    trivial = ColumnarOBDD(("x",), [], [], [], TRUE_NODE)
    with SegmentPlane() as plane:
        handle = plane.publish(trivial)
        assert handle.name is None
        assert plane.owned_segments() == ()
        assert live_segments(plane.prefix) == []
        attached = attach_segment(handle)
        assert len(attached) == 0
        assert attached.probability({"x": Fraction(1, 2)}) == 1


def test_plane_owns_exactly_what_it_publishes(columnar_artifact):
    """Each publish takes a fresh name under the plane's prefix and is owned;
    a segment made beside the plane under that prefix is not."""
    columnar, _ = columnar_artifact
    with SegmentPlane() as plane:
        first = plane.publish(columnar)
        second = plane.publish(columnar)
        assert first.name != second.name
        assert all(handle.name.startswith(f"{plane.prefix}-p") for handle in (first, second))
        assert plane.owned_segments() == tuple(sorted([first.name, second.name]))
        stray = publish_segment(columnar, f"{plane.prefix}-stray")
        assert plane.owned_segments() == tuple(sorted([first.name, second.name]))
        assert live_segments(plane.prefix) == sorted([first.name, second.name, stray.name])
    assert live_segments(plane.prefix) == []


def test_attach_rejects_a_truncated_segment(columnar_artifact):
    columnar, tid = columnar_artifact
    with SegmentPlane() as plane:
        handle = plane.publish(columnar)
        oversized = SegmentHandle(handle.name, handle.node_count + 1, handle.root, handle.order)
        with pytest.raises(SegmentError, match="truncated"):
            attach_segment(oversized)
        attached = attach_segment(handle)
        assert attached.probability(tid.valuation()) == columnar.probability(tid.valuation())
        del attached


@pytest.mark.parametrize(
    "prefix, session_id", [("repro/x", None), ("repro", "a/b")], ids=["prefix", "session id"]
)
def test_plane_names_must_not_contain_a_slash(prefix, session_id):
    with pytest.raises(CompilationError, match="must not contain"):
        SegmentPlane(prefix=prefix, session_id=session_id)


def test_handles_are_picklable(columnar_artifact):
    import pickle

    columnar, _ = columnar_artifact
    with SegmentPlane() as plane:
        handle = plane.publish(columnar)
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle
        assert isinstance(clone, SegmentHandle)


# -- reclamation ----------------------------------------------------------------


def test_close_unlinks_owned_segments(columnar_artifact):
    columnar, _ = columnar_artifact
    plane = SegmentPlane()
    handle = plane.publish(columnar)
    assert live_segments(plane.prefix) == [handle.name]
    plane.close()
    assert live_segments(plane.prefix) == []
    assert plane.owned_segments() == ()


def test_context_exit_unlinks_segments(columnar_artifact):
    columnar, _ = columnar_artifact
    with SegmentPlane() as plane:
        plane.publish(columnar)
        plane.publish(columnar)
        assert len(live_segments(plane.prefix)) == 2
    assert live_segments(plane.prefix) == []


def test_unlink_reclaims_one_owned_segment_before_close(columnar_artifact):
    columnar, tid = columnar_artifact
    with SegmentPlane() as plane, SegmentPlane() as other:
        kept = plane.publish(columnar)
        dropped = plane.publish(columnar)
        foreign = other.publish(columnar)
        attached = attach_segment(dropped)
        plane.unlink(dropped)
        assert plane.owned_segments() == (kept.name,)
        assert live_segments(plane.prefix) == [kept.name]
        # A mapping made before the unlink stays readable; a new attach fails.
        assert attached.probability(tid.valuation()) == columnar.probability(tid.valuation())
        with pytest.raises(SegmentError, match="absent"):
            attach_segment(dropped)
        # Unlinking again, or unlinking what another plane owns, does nothing.
        plane.unlink(dropped)
        plane.unlink(foreign)
        assert live_segments(other.prefix) == [foreign.name]
        del attached
    assert live_segments(plane.prefix) == live_segments(other.prefix) == []


def test_crash_orphans_are_swept_on_close(columnar_artifact):
    columnar, _ = columnar_artifact
    plane = SegmentPlane()
    # A segment under the plane's prefix that the plane does not own (say,
    # left by a process that died between creating it and recording it).
    orphan_name = f"{plane.prefix}-orphan"
    publish_segment(columnar, orphan_name)
    assert live_segments(plane.prefix) == [orphan_name]
    assert plane.owned_segments() == ()
    plane.close()
    assert live_segments(plane.prefix) == []


def test_session_id_scopes_the_orphan_sweep(columnar_artifact):
    """Two planes sharing a base prefix never reclaim each other's segments."""
    columnar, _ = columnar_artifact
    base = f"repro-scope-{os.getpid()}"
    first = SegmentPlane(prefix=base)
    second = SegmentPlane(prefix=base)
    assert first.base_prefix == second.base_prefix == base
    assert first.session_id != second.session_id
    assert first.prefix != second.prefix
    try:
        live_handle = second.publish(columnar)
        # Closing the first plane sweeps orphans under *its* session-scoped
        # prefix only; the second plane's live segment must survive.
        first.close()
        assert live_segments(second.prefix) == [live_handle.name]
        attached = attach_segment(live_handle)
        assert list(attached.var) == list(columnar.var)
        del attached
    finally:
        second.close()
    assert live_segments(base) == []


def test_garbage_collected_plane_reclaims_segments(columnar_artifact):
    columnar, _ = columnar_artifact
    plane = SegmentPlane()
    prefix = plane.prefix
    plane.publish(columnar)
    assert len(live_segments(prefix)) == 1
    del plane
    gc.collect()
    assert live_segments(prefix) == []


def test_close_is_idempotent(columnar_artifact):
    columnar, _ = columnar_artifact
    plane = SegmentPlane()
    plane.publish(columnar)
    plane.close()
    plane.close()
    assert live_segments(plane.prefix) == []


# -- the parallel engine's use of the plane -------------------------------------


@pytest.fixture(scope="module")
def workload():
    tids = [
        ProbabilisticInstance.uniform(
            labelled_partial_ktree_instance(8, 2, seed=seed), Fraction(1, 2)
        )
        for seed in range(2)
    ]
    return [unsafe_rst(), hierarchical_example()], tids


def test_pool_reweight_segments_reclaimed_after_context_exit(workload):
    queries, tids = workload
    compiled = CompilationEngine().compile(queries[0], tids[0].instance)
    maps = [
        {fact: Fraction(i + 1, i + 5) for fact in compiled.order} for i in range(8)
    ]
    with ParallelEngine(workers=2) as engine:
        values = engine.reweight_many(compiled, maps)
        prefix = engine.segment_plane().prefix
        assert len(live_segments(prefix)) == 1
    assert values == [compiled.probability(m) for m in maps]
    assert live_segments(prefix) == []


def test_reweight_many_publishes_an_artifact_once(workload):
    queries, tids = workload
    compiled = CompilationEngine().compile(queries[0], tids[0].instance)
    maps = [
        {fact: Fraction(i + 1, i + 5) for fact in compiled.order} for i in range(8)
    ]
    expected = [compiled.probability(m) for m in maps]
    with ParallelEngine(workers=2) as engine:
        for _ in range(20):
            assert engine.reweight_many(compiled, maps) == expected
        plane = engine.segment_plane()
        assert len(plane.owned_segments()) == 1
        assert live_segments(plane.prefix) == list(plane.owned_segments())
    assert live_segments(plane.prefix) == []


def test_reweight_many_keeps_as_many_artifacts_as_a_worker_attaches(workload):
    queries, tids = workload
    compiled = CompilationEngine().compile(queries[0], tids[0].instance)
    artifacts = [compiled.to_columnar().copy() for _ in range(_WORKER_ATTACHMENT_LIMIT + 2)]
    maps = [{fact: Fraction(1, i + 2) for fact in compiled.order} for i in range(4)]
    expected = [compiled.probability(m) for m in maps]
    with ParallelEngine(workers=2) as engine:
        for artifact in artifacts + artifacts[:1]:
            assert engine.reweight_many(artifact, maps) == expected
        plane = engine.segment_plane()
        assert len(plane.owned_segments()) == _WORKER_ATTACHMENT_LIMIT
        assert live_segments(plane.prefix) == list(plane.owned_segments())
    assert live_segments(plane.prefix) == []


def test_inline_regime_never_creates_segments(workload, monkeypatch):
    queries, tids = workload

    def forbidden(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("workers=1 must never touch shared memory")

    monkeypatch.setattr(shm_module, "_Segment", forbidden)
    serial = CompilationEngine()
    pairs = [(query, tid) for tid in tids for query in queries]
    artifact = serial.columnar(queries[0], tids[0].instance)
    maps = [{fact: Fraction(1, i + 3) for fact in artifact.order} for i in range(3)]
    engine = ParallelEngine(workers=1)
    assert list(engine.map_probability(pairs).values) == [
        serial.probability(query, tid) for query, tid in pairs
    ]
    assert engine.reweight_many(artifact, maps) == [artifact.probability(m) for m in maps]
    assert engine._plane is None
    engine.close()


def test_fallback_backend_attach_copies_and_closes(columnar_artifact, monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    columnar, tid = columnar_artifact
    detached = columnar.copy()
    with SegmentPlane() as plane:
        handle = plane.publish(detached)
        attached = attach_segment(handle)
        # No numpy: the columns were copied out, nothing retains the mapping.
        assert attached._retain is None
        assert attached.probability(tid.valuation()) == detached.probability(tid.valuation())
    assert live_segments(plane.prefix) == []
