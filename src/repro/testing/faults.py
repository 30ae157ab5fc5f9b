"""Deterministic fault injection for the parallel engine (chaos tests).

The injector answers one question precisely: *when exactly N faults of a
kind fire somewhere in a multi-process run, does the engine still return
exact answers and clean state?*  Determinism across processes is the hard
part — a seeded RNG per worker would make fault counts depend on how the
scheduler distributed tasks — so the plan is a **token directory**: arming
a fault drops N token files, and every injection site consumes a token by
``os.unlink``, which the filesystem makes atomic.  Exactly N firings happen
across all workers, pool restarts included, no matter how the tasks were
scheduled; tests then assert recovery and exactness without caring *which*
worker was hit.

Fault kinds (see :data:`FAULT_KINDS`):

* ``worker_kill`` — the worker ``SIGKILL``s itself at task start (a hard
  crash: no reply, no cleanup; breaks the process pool, and exercises the
  pool restart, the one retry charged to every unfinished shard, and the
  sweep of the segments the dead pool's workers left unclaimed);
* ``slow_kernel`` — the worker sleeps ``slow_seconds`` at task start (a
  straggler, not an error; nothing should be retried);
* ``alloc_fail`` — the worker raises ``MemoryError`` after computing its
  shard but before replying (work lost, worker alive; exercises the
  retryable-error path);
* ``segment_corrupt`` — the parent scribbles over a just-published reweight
  segment (attachers hit the columnar topology check and report
  :class:`~repro.errors.SegmentError`; exercises republish-and-retry);
* ``segment_unlink`` — the parent unlinks a just-published reweight segment
  (attachers find nothing; same recovery path).

Disk fault kinds, consumed by :class:`repro.store.ArtifactStore` when built
with ``fault_plan=...`` (the chaos-disk suite in ``tests/test_store_faults.py``
proves every one still yields oracle-checked exact answers):

* ``disk_torn_write`` — the store commits a half-written entry under its
  live name (a crash after the rename was queued but before the data blocks
  landed); the next load's verification must quarantine it;
* ``disk_bit_flip`` — one payload byte of the entry is flipped just before
  a load (silent media corruption); the checksum must catch it;
* ``disk_enospc`` — the entry write raises ``OSError(ENOSPC)`` (disk
  full); write-behind persistence is best-effort, so the query must still
  answer from the in-memory artifact with ``write_failures`` counted;
* ``lock_steal`` — the store's ``.lock`` file is unlinked right after an
  acquisition (an external janitor); the inode-checked steal detection
  must notice and re-acquire.

Wiring: build a :class:`FaultInjector`, ``arm`` faults, and pass
``injector.plan`` as ``ParallelEngine(fault_plan=...)``.  The plan is a
tiny picklable value object; the pool initializer builds a
:class:`WorkerFaults` around it in every worker, and each task runs between
its hooks; the parent consults :func:`apply_parent_segment_faults` when
publishing reweight segments.
With ``fault_plan=None`` (production) none of these hooks exist.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass

from repro.errors import ReproError

#: Every fault kind the injector can arm.
FAULT_KINDS: tuple[str, ...] = (
    "worker_kill",
    "slow_kernel",
    "alloc_fail",
    "segment_corrupt",
    "segment_unlink",
    "disk_torn_write",
    "disk_bit_flip",
    "disk_enospc",
    "lock_steal",
)

#: The subset the persistent artifact store consumes (chaos-disk suite).
DISK_FAULT_KINDS: tuple[str, ...] = (
    "disk_torn_write",
    "disk_bit_flip",
    "disk_enospc",
    "lock_steal",
)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """The picklable fault description shipped to workers.

    ``token_dir`` holds the armed fault tokens; ``slow_seconds`` is the
    straggler delay of the ``slow_kernel`` fault.
    """

    token_dir: str
    slow_seconds: float = 0.25


def consume_token(plan: FaultPlan, kind: str) -> bool:
    """Atomically consume one ``kind`` token; True when one was armed.

    The ``unlink`` succeeds in exactly one of any number of racing
    processes, so N armed tokens yield exactly N firings run-wide.
    """
    try:
        names = sorted(os.listdir(plan.token_dir))
    except FileNotFoundError:
        return False
    for name in names:
        if name.startswith(f"{kind}-"):
            try:
                os.unlink(os.path.join(plan.token_dir, name))
            except FileNotFoundError:
                continue  # another process won this token; try the next
            return True
    return False


class FaultInjector:
    """Parent-side controller: arm faults, inspect leftovers, clean up."""

    def __init__(self, token_dir: str | None = None, slow_seconds: float = 0.25) -> None:
        if token_dir is None:
            token_dir = tempfile.mkdtemp(prefix="repro-faults-")
        os.makedirs(token_dir, exist_ok=True)
        self.plan = FaultPlan(token_dir=token_dir, slow_seconds=slow_seconds)
        self._serial = 0

    def arm(self, kind: str, count: int = 1) -> None:
        """Drop ``count`` tokens of ``kind`` (fires exactly that often)."""
        if kind not in FAULT_KINDS:
            raise ReproError(f"unknown fault kind {kind!r}; use one of {FAULT_KINDS}")
        if count < 1:
            raise ReproError("fault count must be at least 1")
        for _ in range(count):
            self._serial += 1
            path = os.path.join(self.plan.token_dir, f"{kind}-{self._serial:06d}")
            with open(path, "x"):
                pass

    def armed(self, kind: str) -> int:
        """How many ``kind`` tokens have not fired yet."""
        try:
            names = os.listdir(self.plan.token_dir)
        except FileNotFoundError:
            return 0
        return sum(1 for name in names if name.startswith(f"{kind}-"))

    def cleanup(self) -> None:
        """Remove the token directory (and any unfired tokens)."""
        shutil.rmtree(self.plan.token_dir, ignore_errors=True)

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.cleanup()


class WorkerFaults:
    """Worker-side injection hooks, built by the pool initializer.

    Every pool task calls :meth:`on_task_start` before its shard runner and
    :meth:`before_result` after it; the inline regime has no hooks.
    """

    __slots__ = ("plan",)

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def on_task_start(self) -> None:
        """Fire start-of-task faults: hard kill, or straggler sleep."""
        if consume_token(self.plan, "worker_kill"):
            # A real crash, not an exception: no reply reaches the parent,
            # no cleanup runs, published segments are orphaned.
            os.kill(os.getpid(), signal.SIGKILL)
        if consume_token(self.plan, "slow_kernel"):
            time.sleep(self.plan.slow_seconds)

    def before_result(self) -> None:
        """Fire end-of-task faults: allocation failure after the work."""
        if consume_token(self.plan, "alloc_fail"):
            raise MemoryError("injected allocation failure")


def apply_parent_segment_faults(plan: FaultPlan, handle) -> None:
    """Parent-side segment sabotage, applied right after a publish.

    ``segment_unlink`` removes the segment (attachers see it absent);
    ``segment_corrupt`` overwrites the head of the ``var`` column with an
    out-of-range level, which the columnar topology check rejects on
    attach.  Both surface worker-side as the retryable
    :class:`~repro.errors.SegmentError`.
    """
    from repro.engine.shm import _Segment, _unlink_quietly

    if handle.name is None:
        return
    if consume_token(plan, "segment_unlink"):
        _unlink_quietly(handle.name)
        return
    if consume_token(plan, "segment_corrupt"):
        try:
            segment = _Segment(handle.name)
        except FileNotFoundError:
            return
        try:
            # var[0] = -1: impossible level, rejected by _check_topology.
            segment.buf[:8] = (-1).to_bytes(8, "little", signed=True)
        finally:
            segment.close()
