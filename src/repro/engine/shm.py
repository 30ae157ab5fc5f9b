"""Zero-copy artifact shipping over ``multiprocessing.shared_memory``.

A :class:`SegmentPlane` owns a family of shared-memory segments, all named
under one per-plane prefix.  Compiled columnar artifacts
(:class:`repro.booleans.columnar.ColumnarOBDD`) are *published* into a
segment (one contiguous ``var|lo|hi`` buffer) and *attached* elsewhere as
numpy views straight into the mapping — no pickling of node graphs, no
per-node object materialization on the far side.

Lifecycle contract (the satellite tests pin it):

* the plane that calls :meth:`publish` — or that adopts a worker-created
  segment via :meth:`adopt` — owns the segment and is responsible for the
  single ``unlink``;
* :meth:`close` closes every mapping, unlinks every owned segment, and then
  sweeps ``/dev/shm`` for orphans under the plane's prefix — segments left
  behind by a worker that crashed between ``shm_open`` and handing the name
  back are reclaimed too;
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
from typing import Hashable, Iterable, Iterator

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

    The creating process keeps no mapping open afterwards; the caller (or an
    adopting plane) owns the unlink.  Terminal-only artifacts (zero decision
    nodes) need no segment at all and return a handle with ``name=None``.
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

    An absent segment (publisher crashed before the write, or the plane
    already swept it) and a corrupt buffer (rejected by the columnar
    topology check) both raise the typed
    :class:`~repro.errors.SegmentError`, which the parallel tier treats as
    retryable: the parent republishes and re-submits the affected shard.
    """
    if handle.name is None:
        return ColumnarOBDD(handle.order, [], [], [], handle.root)
    try:
        segment = _Segment(handle.name)
    except FileNotFoundError as error:
        raise SegmentError(
            f"shared-memory segment {handle.name!r} is absent"
            " (crashed publisher or swept plane)"
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
        # BufferError; the tolerant close leaves the mapping for process exit.
        _close_ignoring_exports(segment)
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
    ParallelEngine`; workers derive segment names from the plane's prefix
    (:meth:`worker_name`) so the parent can both adopt the handles they
    return and sweep orphans after a crash.

    The effective prefix is ``{base}-{session_id}``: a fresh random session
    id per plane scopes the crash-orphan sweep to this plane's own segments,
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
        # Every name this plane creates — and everything its orphan sweep
        # reclaims — lives under the *session-scoped* prefix.  Two planes
        # sharing a base prefix (two engines in one process, or two processes
        # handed the same explicit prefix) therefore can never sweep each
        # other's live segments: the session id keeps their namespaces
        # disjoint.
        self.prefix = f"{base}-{session_id}"
        self._serial = 0
        # name -> open segment mapping (attached artifacts keep their
        # own reference too; this registry is for close/unlink).
        self._attached: dict[str, _Segment] = {}
        self._owned: set[str] = set()
        # Safety net for planes that are garbage-collected (or alive at
        # interpreter exit) without an explicit close(): the finalizer sees
        # the same mutable registries, so whatever close() already reclaimed
        # is skipped and whatever it missed is unlinked.  Explicit close()
        # remains the contract; this only prevents /dev/shm litter.
        self._finalizer = weakref.finalize(
            self, _reclaim_segments, self.prefix, self._owned, self._attached
        )

    # -- naming ----------------------------------------------------------------

    def next_name(self) -> str:
        self._serial += 1
        return f"{self.prefix}-p{self._serial}"

    def worker_name(self, worker_pid: int, serial: int) -> str:
        return f"{self.prefix}-w{worker_pid}-{serial}"

    # -- publish / attach ------------------------------------------------------

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

    def adopt(self, handle: SegmentHandle) -> ColumnarOBDD:
        """Attach to a worker-published segment and take ownership of it."""
        artifact = attach_segment(handle)
        if handle.name is not None:
            self._owned.add(handle.name)
            if artifact._retain is not None:
                self._attached[handle.name] = artifact._retain
        return artifact

    # -- lifecycle -------------------------------------------------------------

    def owned_segments(self) -> tuple[str, ...]:
        return tuple(sorted(self._owned))

    def sweep_worker_orphans(self, keep: Iterable[str] = ()) -> list[str]:
        """Reclaim the worker segments a crashed pool left unclaimed.

        Called after a broken pool has been shut down and joined, when no
        worker of this plane is alive to publish.  Only worker-published
        names (``{prefix}-w*``) are touched — segments the parent published
        (``{prefix}-p*``) survive; names in ``keep`` (handles already merged
        into completed outcomes) and names the plane owns (adopted earlier)
        survive too.  Returns the unlinked names.
        """
        kept = set(keep) | self._owned
        swept = []
        for name in orphan_segments(f"{self.prefix}-w"):
            if name in kept:
                continue
            _unlink_quietly(name)
            swept.append(name)
        return swept

    def close(self) -> None:
        """Close every mapping, unlink every owned segment, sweep orphans."""
        _reclaim_segments(self.prefix, self._owned, self._attached)

    def __enter__(self) -> "SegmentPlane":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _reclaim_segments(
    prefix: str,
    owned: set[str],
    attached: dict[str, _Segment],
) -> None:
    """Close mappings, unlink owned segments, sweep prefix orphans.

    Shared by :meth:`SegmentPlane.close` and the plane's GC finalizer; takes
    the mutable registries (not the plane) so the finalizer keeps nothing
    alive and both paths observe whatever the other already reclaimed.
    """
    for name, segment in list(attached.items()):
        _close_ignoring_exports(segment)
        del attached[name]
    for name in sorted(owned):
        _unlink_quietly(name)
    owned.clear()
    for name in orphan_segments(prefix):
        _unlink_quietly(name)


def _close_ignoring_exports(segment: _Segment) -> None:
    """Close a mapping, tolerating still-exported numpy views.

    An adopted artifact that outlives its plane keeps views into the mapping;
    ``mmap.close`` then raises ``BufferError``.  The mapping is left in place
    (the OS reclaims it at process exit — the *segment* is already unlinked)
    and the object's ``close`` is stubbed out so its destructor does not
    re-raise the same error as interpreter-teardown noise.
    """
    try:
        segment.close()
    except BufferError:
        segment.close = lambda: None  # type: ignore[method-assign]


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
