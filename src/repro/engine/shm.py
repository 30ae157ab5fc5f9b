"""Zero-copy artifact shipping over ``multiprocessing.shared_memory``.

A :class:`SegmentPlane` owns a family of shared-memory segments, all named
under one per-plane prefix.  Compiled columnar artifacts
(:class:`repro.booleans.columnar.ColumnarOBDD`) are *published* into a
segment (one contiguous ``var|lo|hi`` buffer) by the parent process and
*attached* in workers as numpy views straight into the mapping — no
pickling of node graphs, no per-node object materialization on the far
side.

Lifecycle contract (``tests/test_shared_memory.py`` pins it):

* the plane that calls :meth:`publish` owns the segment and is responsible
  for the single ``unlink``;
* :meth:`close` unlinks every owned segment, and then sweeps ``/dev/shm``
  for any other name under the plane's prefix;
* segments never talk to CPython's ``resource_tracker`` (:class:`_Segment`
  opens them with ``shm_open`` directly): under the ``spawn`` start method
  each worker has its *own* tracker, which would unlink segments at worker
  exit while the parent still maps them, and forked workers share one
  tracker, where two attaches of one segment end in a double unregister.
  Explicit ownership plus the prefix sweep replaces the tracker.

Segments are a transport for *flat columns only*; the small picklable
sidecar (:class:`SegmentHandle`: name, node count, root, variable order)
still crosses the process boundary by value.
"""

from __future__ import annotations

import mmap
import os
import secrets
import weakref
from dataclasses import dataclass
from typing import Hashable, Iterator

import _posixshmem

from repro.booleans.columnar import ColumnarOBDD, columnar_from_buffer
from repro.errors import CompilationError, SegmentError

_DEV_SHM = "/dev/shm"


class _Segment:
    """One POSIX shared-memory mapping, unknown to the resource tracker.

    ``multiprocessing.shared_memory.SharedMemory`` registers every create
    *and* every attach with the tracker (before Python 3.13) and unregisters
    on unlink; ownership here is explicit instead, so this opens the segment
    with ``shm_open`` and maps it without any tracker traffic.
    """

    def __init__(self, name: str, create: bool = False, size: int = 0) -> None:
        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = _posixshmem.shm_open(f"/{name}", flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            self.size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, self.size)
        except OSError:
            if create:
                _posixshmem.shm_unlink(f"/{name}")
            raise
        finally:
            os.close(fd)
        self.name = name
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


@dataclass(frozen=True, slots=True)
class SegmentHandle:
    """The picklable sidecar describing one published columnar artifact."""

    name: str | None  # None: terminal-only artifact, no segment was created
    node_count: int
    root: int
    order: tuple[Hashable, ...]

    @property
    def nbytes(self) -> int:
        return 3 * self.node_count * 8


def publish_segment(columnar: ColumnarOBDD, name: str) -> SegmentHandle:
    """Create segment ``name`` holding the artifact's packed columns.

    The creating process keeps no mapping open afterwards; the caller owns
    the unlink.  Terminal-only artifacts (zero decision nodes) need no
    segment at all and return a handle with ``name=None``.
    """
    if len(columnar) == 0:
        return SegmentHandle(None, 0, columnar.root, columnar.order)
    segment = _Segment(name, create=True, size=columnar.nbytes)
    try:
        columnar.write_into(segment.buf)
    finally:
        segment.close()
    return SegmentHandle(name, len(columnar), columnar.root, columnar.order)


def attach_segment(handle: SegmentHandle) -> ColumnarOBDD:
    """Attach to a published artifact; columns are views into the mapping.

    The returned artifact retains the mapping, so it stays valid while the
    artifact is referenced — but an ``unlink`` (plane close) invalidates it;
    call :meth:`ColumnarOBDD.copy` first to keep a private copy.

    An absent segment (unlinked, or swept by its plane's close) and a
    corrupt buffer (rejected by the columnar topology check) both raise the
    typed :class:`~repro.errors.SegmentError`, which the parallel tier
    treats as retryable: the parent republishes and re-submits the affected
    shard.
    """
    if handle.name is None:
        return ColumnarOBDD(handle.order, [], [], [], handle.root)
    try:
        segment = _Segment(handle.name)
    except FileNotFoundError as error:
        raise SegmentError(
            f"shared-memory segment {handle.name!r} is absent"
            " (unlinked or swept plane)"
        ) from error
    if segment.size < handle.nbytes:
        segment.close()
        raise SegmentError(
            f"shared-memory segment {handle.name!r} is truncated:"
            f" {segment.size} bytes < {handle.nbytes} expected"
        )
    try:
        artifact = columnar_from_buffer(
            {"node_count": handle.node_count, "root": handle.root, "order": handle.order},
            segment.buf,
            retain=segment,
        )
    except CompilationError as error:
        # The failed validation may have exported views into the mapping (the
        # exception traceback keeps them alive), so a plain close can raise
        # BufferError.  The mapping is then left for process exit, and the
        # close is stubbed out so the destructor does not raise it again.
        try:
            segment.close()
        except BufferError:
            segment.close = lambda: None  # type: ignore[method-assign]
        raise SegmentError(
            f"shared-memory segment {handle.name!r} holds a corrupt columnar"
            f" buffer: {error}"
        ) from error
    if artifact._retain is None:
        # Fallback backend: the columns were copied out, the mapping is done.
        segment.close()
    return artifact


class SegmentPlane:
    """Owner of a prefix-named family of shared-memory segments.

    One plane lives in the parent :class:`~repro.engine.parallel.
    ParallelEngine`, which publishes into it; workers only attach.

    The effective prefix is ``{base}-{session_id}``: a fresh random session
    id per plane scopes the closing sweep to this plane's own segments,
    so two concurrent engines on one host — even ones constructed with the
    same base ``prefix`` — cannot reclaim each other's live segments.
    """

    def __init__(self, prefix: str | None = None, session_id: str | None = None) -> None:
        base = prefix if prefix is not None else f"repro-{os.getpid()}"
        if session_id is None:
            session_id = secrets.token_hex(4)
        if "/" in base or "/" in session_id:
            raise CompilationError("segment prefix must not contain '/'")
        self.base_prefix = base
        self.session_id = session_id
        # Every name this plane creates — and everything its closing sweep
        # reclaims — lives under the *session-scoped* prefix.  Two planes
        # sharing a base prefix (two engines in one process, or two processes
        # handed the same explicit prefix) therefore can never sweep each
        # other's live segments: the session id keeps their namespaces
        # disjoint.
        self.prefix = f"{base}-{session_id}"
        self._serial = 0
        self._owned: set[str] = set()
        # Safety net for planes that are garbage-collected (or alive at
        # interpreter exit) without an explicit close(): the finalizer sees
        # the same mutable registry, so whatever close() already reclaimed
        # is skipped and whatever it missed is unlinked.  Explicit close()
        # remains the contract; this only prevents /dev/shm litter.
        self._finalizer = weakref.finalize(self, _reclaim_segments, self.prefix, self._owned)

    # -- naming ----------------------------------------------------------------

    def next_name(self) -> str:
        self._serial += 1
        return f"{self.prefix}-p{self._serial}"

    # -- publish / unlink ------------------------------------------------------

    def publish(self, columnar: ColumnarOBDD) -> SegmentHandle:
        """Publish an artifact under a fresh plane-owned name."""
        handle = publish_segment(columnar, self.next_name())
        if handle.name is not None:
            self._owned.add(handle.name)
        return handle

    def unlink(self, handle: SegmentHandle) -> None:
        """Unlink a segment this plane published, before :meth:`close`.

        Processes that attached it keep their mappings; nothing can attach
        it afterwards.
        """
        if handle.name is not None and handle.name in self._owned:
            self._owned.discard(handle.name)
            _unlink_quietly(handle.name)

    # -- lifecycle -------------------------------------------------------------

    def owned_segments(self) -> tuple[str, ...]:
        return tuple(sorted(self._owned))

    def close(self) -> None:
        """Unlink every owned segment, then sweep the prefix."""
        _reclaim_segments(self.prefix, self._owned)

    def __enter__(self) -> "SegmentPlane":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _reclaim_segments(prefix: str, owned: set[str]) -> None:
    """Unlink owned segments, then sweep the prefix.

    Shared by :meth:`SegmentPlane.close` and the plane's GC finalizer; takes
    the mutable registry (not the plane) so the finalizer keeps nothing
    alive and both paths observe whatever the other already reclaimed.
    """
    for name in sorted(owned):
        _unlink_quietly(name)
    owned.clear()
    for name in orphan_segments(prefix):
        _unlink_quietly(name)


def _unlink_quietly(name: str) -> None:
    try:
        _posixshmem.shm_unlink(f"/{name}")
    except FileNotFoundError:
        pass


def orphan_segments(prefix: str) -> Iterator[str]:
    """Names under ``prefix`` still present in ``/dev/shm`` (Linux only)."""
    if not os.path.isdir(_DEV_SHM):  # pragma: no cover - non-Linux
        return
    for entry in sorted(os.listdir(_DEV_SHM)):
        if entry.startswith(prefix):
            yield entry


def live_segments(prefix: str) -> list[str]:
    """Snapshot of ``/dev/shm`` entries under a prefix (test helper)."""
    return list(orphan_segments(prefix))
