"""The crash-safe persistent artifact store (:class:`ArtifactStore`).

Directory layout (all under one store root)::

    objects/<kk>/<key>.entry   one artifact per file, sharded by key prefix
    quarantine/<name>.entry    entries that failed verification, plus a
    quarantine/<name>.reason.json  machine-readable reason record each
    .lock                      the advisory cross-process lock file
    objects/<kk>/.tmp-<pid>-<n>    in-flight writes (never visible as entries)

Durability contract
-------------------
Writes are atomic and ordered: the entry is written to a temp file in the
*target* directory, ``fsync``\\ ed, then ``os.replace``\\ d onto its final
name, and the directory is ``fsync``\\ ed — a reader (or a crash at any
point) sees either the complete old state or the complete new state, never a
partial entry under a live name.  Temp files orphaned by a crash are removed
by the startup recovery sweep (:meth:`ArtifactStore.recover`), which skips
temp files belonging to a still-running pid.

Integrity contract
------------------
Every load re-verifies the entry end to end (magic, version, key echo,
payload checksum — :func:`repro.store.format.verify_entry`) before a single
payload byte is trusted.  Damage is *quarantined*: the file moves to
``quarantine/`` with a reason record and the load reports a miss, so the
engine transparently recompiles.  Corruption can cost time, never
correctness.

Concurrency contract
--------------------
All entry traffic (reads, writes) holds the ``.lock`` file *shared*;
maintenance sweeps (:meth:`recover`, :meth:`gc`, :meth:`verify`) hold it
*exclusive*, so a sweep never observes — or deletes — another process's
write mid-flight.  Lock acquisition re-validates that the locked file is
still the file on disk (inode check) and retries when the lock was stolen
(deleted/recreated underneath us).  On platforms without ``fcntl`` the lock
degrades to a no-op; the atomic-rename protocol alone still guarantees
readers never see torn entries.

Zero-copy loads
---------------
With numpy available, a verified columnar entry is memory-mapped and the
``var|lo|hi`` columns become int64 views straight into the mapping (the
same :func:`~repro.booleans.columnar.columnar_from_buffer` path the
shared-memory transport uses); the mapping is released when the last view
dies.  The stdlib ``array`` fallback copies the columns out and closes the
mapping immediately.  The variable order is stored as positions in
``instance.facts``, so :meth:`ArtifactStore.get_columnar` takes the
instance and returns an artifact over that instance's own facts.
"""

from __future__ import annotations

import errno
import json
import mmap
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.booleans.columnar import ColumnarOBDD
from repro.data.instance import Instance
from repro.errors import StoreError
from repro.store.format import (
    CODEC_COLUMNAR,
    CODEC_JSON,
    EntryDamage,
    best_effort_meta,
    decode_columnar,
    decode_json,
    encode_columnar,
    encode_json,
    pack_entry,
    verify_entry,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

_ENTRY_SUFFIX = ".entry"
_TMP_PREFIX = ".tmp-"
_REASON_SUFFIX = ".reason.json"
_LOCK_RETRIES = 16

#: Signature of the ``verify(recompile=...)`` callback: given a damaged
#: entry's meta mapping, return the replacement columnar artifact with the
#: instance its variable order is a fact order of, or ``None`` when the
#: artifact cannot be re-derived (the entry is then deleted with a logged
#: reason).
RecompileHook = Callable[[dict[str, Any]], "tuple[ColumnarOBDD, Instance] | None"]


@dataclass
class StoreCounters:
    """Live in-process traffic counters (reset with the owning store)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_failures: int = 0
    quarantines: int = 0
    recovered: int = 0


@dataclass(frozen=True)
class StoreStats:
    """One consistent snapshot: disk occupancy plus session counters."""

    entries: int
    total_bytes: int
    quarantined: int
    quarantined_bytes: int
    counters: StoreCounters

    def as_dict(self) -> dict[str, int]:
        return {
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "quarantined": self.quarantined,
            "quarantined_bytes": self.quarantined_bytes,
            "hits": self.counters.hits,
            "misses": self.counters.misses,
            "writes": self.counters.writes,
            "write_failures": self.counters.write_failures,
            "quarantines": self.counters.quarantines,
            "recovered": self.counters.recovered,
        }


@dataclass(frozen=True)
class QuarantineRecord:
    """One quarantined entry: where it sits and why it was pulled."""

    name: str
    key: str
    reason: str
    quarantined_at: float


@dataclass
class VerifyReport:
    """The outcome of one :meth:`ArtifactStore.verify` sweep."""

    checked: int = 0
    ok: int = 0
    damaged: list[tuple[str, str]] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    repaired: list[str] = field(default_factory=list)
    deleted: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no unhandled damage remains on disk."""
        return not self.damaged or len(self.damaged) == len(self.repaired) + len(
            self.deleted
        ) + len(self.quarantined)


class ArtifactStore:
    """A content-fingerprint-keyed persistent tier for compiled artifacts.

    ``fault_plan`` (tests only — :mod:`repro.testing.faults`) arms the
    deterministic disk faults: torn writes, bit flips on read, ``ENOSPC``
    on write, and lock steals.  ``None`` (production) installs no hooks.
    """

    def __init__(self, root: str | Path, fault_plan: Any = None) -> None:
        self.root = Path(root)
        self.fault_plan = fault_plan
        self.counters = StoreCounters()
        self._serial = 0
        self._closed = False
        try:
            self._objects_dir.mkdir(parents=True, exist_ok=True)
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise StoreError(f"cannot create store directory {self.root}: {error}") from error
        self.recover()

    # -- paths ----------------------------------------------------------------

    @property
    def _objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def _quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def _lock_path(self) -> Path:
        return self.root / ".lock"

    def _entry_path(self, key: str) -> Path:
        return self._objects_dir / key[:2] / f"{key}{_ENTRY_SUFFIX}"

    # -- locking ---------------------------------------------------------------

    @contextmanager
    def _lock(self, exclusive: bool) -> Iterator[None]:
        """Advisory cross-process lock with steal detection.

        The lock file can be deleted or recreated underneath a holder (an
        external cleanup, a misconfigured janitor, the armed ``lock_steal``
        fault); holding a lock on an unlinked inode excludes nobody.  After
        every acquisition the holder re-stats the *path* and compares inodes
        with its own descriptor — a mismatch means the lock was stolen, so
        it is released and re-acquired on the new file.
        """
        if self._closed:
            raise StoreError("store is closed")
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        operation = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
        for _ in range(_LOCK_RETRIES):
            fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, operation)
            except OSError as error:
                # repro-analysis: allow(EXCEPT001): flock can fail on exotic filesystems (NFS without lockd); the atomic-rename protocol still holds, so degrade to lockless rather than refuse service
                os.close(fd)
                del error
                yield
                return
            if self.fault_plan is not None:
                from repro.testing.faults import consume_token

                if consume_token(self.fault_plan, "lock_steal"):
                    # Simulate an external janitor deleting the lock file
                    # out from under the holder; detection must catch it.
                    try:
                        os.unlink(self._lock_path)
                    except FileNotFoundError:
                        pass
            try:
                current = os.stat(self._lock_path)
            except FileNotFoundError:
                # Stolen: the file we locked is gone; retry on the new file.
                _unlock_close(fd)
                continue
            held = os.fstat(fd)
            if (current.st_ino, current.st_dev) != (held.st_ino, held.st_dev):
                _unlock_close(fd)
                continue
            try:
                yield
            finally:
                _unlock_close(fd)
            return
        raise StoreError(
            f"could not hold the store lock {self._lock_path} "
            f"({_LOCK_RETRIES} acquisitions were stolen)"
        )

    # -- write path ------------------------------------------------------------

    def _next_tmp(self, directory: Path) -> Path:
        self._serial += 1
        return directory / f"{_TMP_PREFIX}{os.getpid()}-{self._serial}"

    def _commit_entry(self, key: str, blob: bytes) -> bool:
        """Atomically publish one packed entry; False on a tolerated failure.

        Write-behind semantics: disk-full and permission problems increment
        ``write_failures`` and return False — the caller already holds the
        artifact in memory, so a failed persist must never fail the query.
        """
        target = self._entry_path(key)
        torn = enospc = False
        if self.fault_plan is not None:
            from repro.testing.faults import consume_token

            torn = consume_token(self.fault_plan, "disk_torn_write")
            enospc = consume_token(self.fault_plan, "disk_enospc")
        tmp: Path | None = None
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._next_tmp(target.parent)
            payload = blob[: max(1, len(blob) // 2)] if torn else blob
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                if enospc:
                    raise OSError(errno.ENOSPC, "injected disk-full fault")
                os.write(fd, payload)
                os.fsync(fd)
            finally:
                os.close(fd)
            # A torn write models a crash *after* the rename was queued but
            # before the data blocks hit the platter: the entry is committed
            # under its live name with a truncated body, which the read-path
            # verification must catch.
            os.replace(tmp, target)
            tmp = None
            _fsync_dir(target.parent)
        except OSError as error:
            # repro-analysis: allow(EXCEPT001): write-behind persistence is best-effort by contract — disk-full/permission failures are counted and the in-memory artifact still serves the query
            self.counters.write_failures += 1
            if tmp is not None:
                _unlink_quietly(tmp)
            del error
            return False
        self.counters.writes += 1
        return True

    def put_columnar(
        self, key: str, columnar: ColumnarOBDD, instance: Instance, meta: dict[str, Any]
    ) -> bool:
        """Persist a columnar artifact over ``instance``'s facts under ``key``
        (idempotent); its variable order is stored as fact positions."""
        meta = dict(meta, kind=meta.get("kind", "columnar"))
        with self._lock(exclusive=False):
            if self._entry_path(key).exists():
                return True
            blob = pack_entry(key, CODEC_COLUMNAR, meta, encode_columnar(columnar, instance))
            return self._commit_entry(key, blob)

    def put_object(self, key: str, value: Any, meta: dict[str, Any]) -> bool:
        """Persist a JSON value under ``key`` (idempotent)."""
        with self._lock(exclusive=False):
            if self._entry_path(key).exists():
                return True
            blob = pack_entry(key, CODEC_JSON, meta, encode_json(value))
            return self._commit_entry(key, blob)

    # -- read path -------------------------------------------------------------

    def _apply_read_faults(self, path: Path) -> None:
        if self.fault_plan is None:
            return
        from repro.testing.faults import consume_token

        if consume_token(self.fault_plan, "disk_bit_flip"):
            try:
                with open(path, "r+b") as handle:
                    handle.seek(-1, os.SEEK_END)
                    last = handle.read(1)
                    handle.seek(-1, os.SEEK_END)
                    handle.write(bytes((last[0] ^ 0x40,)))
            except OSError:
                # repro-analysis: allow(EXCEPT001): the sabotage helper itself must not crash the read it is trying to sabotage
                pass

    def get_columnar(self, key: str, instance: Instance) -> ColumnarOBDD | None:
        """Load a columnar artifact over ``instance``, or None on miss /
        quarantined damage.

        The entry is fully verified, then attached zero-copy: the returned
        artifact's columns are views into the file mapping (numpy backend),
        released when the artifact dies, and its variable order holds
        ``instance``'s own facts.  The artifact stays valid after
        :meth:`close` — it owns its mapping.
        """
        path = self._entry_path(key)
        if not path.exists():
            self.counters.misses += 1
            return None
        with self._lock(exclusive=False):
            self._apply_read_faults(path)
            mapping: mmap.mmap | None = None
            try:
                fd = os.open(path, os.O_RDONLY)
                try:
                    mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
                finally:
                    os.close(fd)
                buffer = memoryview(mapping)
                try:
                    header, _ = verify_entry(buffer, expected_key=key)
                    if header.codec != CODEC_COLUMNAR:
                        raise EntryDamage(
                            f"expected a columnar entry, found {header.codec_name}"
                        )
                    payload = buffer[
                        header.payload_offset : header.payload_offset + header.payload_len
                    ]
                    artifact = decode_columnar(payload, instance.facts, retain=mapping)
                finally:
                    # Drop the locals' buffer exports so the mapping's only
                    # keepalive is the artifact itself (numpy backend) —
                    # otherwise the finalizer's close would hit BufferError.
                    buffer.release()
            except EntryDamage as damage:
                if mapping is not None:
                    _close_mapping(mapping)
                self._quarantine(path, key, str(damage))
                self.counters.misses += 1
                return None
            except (OSError, ValueError) as error:
                # repro-analysis: allow(EXCEPT001): a file that vanished or shrank between stat and mmap (racing gc, external cleanup) is a cache miss by contract, not an error — ValueError is mmap's empty-file signal
                if mapping is not None:
                    _close_mapping(mapping)
                del error
                self.counters.misses += 1
                return None
            if artifact._retain is None:
                # Fallback array backend: columns were copied out.
                _close_mapping(mapping)
            self.counters.hits += 1
            return artifact

    def get_object(self, key: str) -> tuple[bool, Any]:
        """Load a JSON value: ``(found, value)``.

        The pair (rather than ``value | None``) lets a stored ``null``
        round-trip unambiguously.
        """
        path = self._entry_path(key)
        if not path.exists():
            self.counters.misses += 1
            return False, None
        with self._lock(exclusive=False):
            self._apply_read_faults(path)
            try:
                blob = path.read_bytes()
                header, _ = verify_entry(blob, expected_key=key)
                if header.codec != CODEC_JSON:
                    raise EntryDamage(f"expected a json entry, found {header.codec_name}")
                value = decode_json(
                    memoryview(blob)[
                        header.payload_offset : header.payload_offset + header.payload_len
                    ]
                )
            except EntryDamage as damage:
                self._quarantine(path, key, str(damage))
                self.counters.misses += 1
                return False, None
            except OSError as error:
                # repro-analysis: allow(EXCEPT001): a file that vanished between stat and read (racing gc, external cleanup) is a cache miss by contract, not an error
                del error
                self.counters.misses += 1
                return False, None
            self.counters.hits += 1
            return True, value

    def contains(self, key: str) -> bool:
        """Whether a (not necessarily valid) entry exists under ``key``."""
        return self._entry_path(key).exists()

    # -- quarantine ------------------------------------------------------------

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move a damaged entry aside with a reason record (never serve it)."""
        self.counters.quarantines += 1
        destination = self._quarantine_dir / path.name
        serial = 0
        while destination.exists():
            serial += 1
            destination = self._quarantine_dir / f"{path.name}.{serial}"
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
            record = {
                "name": destination.name,
                "key": key,
                "reason": reason,
                "quarantined_at": time.time(),
            }
            reason_path = destination.with_name(destination.name + _REASON_SUFFIX)
            reason_path.write_text(json.dumps(record, sort_keys=True) + "\n")
            _fsync_dir(self._quarantine_dir)
        except OSError as error:
            # repro-analysis: allow(EXCEPT001): quarantining is best-effort damage *containment* — if even the move fails (read-only disk), the caller still reports a miss and recompiles, which preserves correctness
            del error
            _unlink_quietly(path)

    def quarantine_list(self) -> list[QuarantineRecord]:
        """Every quarantined entry's reason record, oldest first."""
        records = []
        for reason_path in sorted(self._quarantine_dir.glob(f"*{_REASON_SUFFIX}")):
            try:
                data = json.loads(reason_path.read_text())
            except (OSError, ValueError):
                # repro-analysis: allow(EXCEPT001): a reason record damaged by the same disk that damaged the entry still deserves a row in the report rather than crashing the listing
                data = {}
            records.append(
                QuarantineRecord(
                    name=str(data.get("name", reason_path.name[: -len(_REASON_SUFFIX)])),
                    key=str(data.get("key", "")),
                    reason=str(data.get("reason", "unreadable reason record")),
                    quarantined_at=float(data.get("quarantined_at", 0.0)),
                )
            )
        records.sort(key=lambda record: (record.quarantined_at, record.name))
        return records

    # -- maintenance sweeps ----------------------------------------------------

    def _iter_entries(self) -> Iterator[Path]:
        for shard in sorted(self._objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob(f"*{_ENTRY_SUFFIX}")):
                yield path

    def recover(self) -> list[str]:
        """Startup recovery: remove temp files orphaned by crashed writers.

        A temp file whose embedded pid is still alive belongs to an
        in-flight write of a concurrent process and is left alone; every
        other temp file is a crash leftover and is unlinked.  Runs under the
        exclusive lock so it cannot race a live writer's rename.
        """
        removed: list[str] = []
        with self._lock(exclusive=True):
            for shard in sorted(self._objects_dir.iterdir()):
                if not shard.is_dir():
                    continue
                for path in sorted(shard.glob(f"{_TMP_PREFIX}*")):
                    if _tmp_pid_alive(path.name):
                        continue
                    _unlink_quietly(path)
                    removed.append(path.name)
        self.counters.recovered += len(removed)
        return removed

    def stats(self) -> StoreStats:
        """Disk occupancy plus this session's traffic counters."""
        entries = total = 0
        for path in self._iter_entries():
            try:
                total += path.stat().st_size
            except OSError:
                # repro-analysis: allow(EXCEPT001): an entry unlinked by a racing gc between listing and stat simply leaves the snapshot
                continue
            entries += 1
        quarantined = quarantined_bytes = 0
        for path in self._quarantine_dir.glob(f"*{_ENTRY_SUFFIX}*"):
            if path.name.endswith(_REASON_SUFFIX):
                continue
            try:
                quarantined_bytes += path.stat().st_size
            except OSError:
                # repro-analysis: allow(EXCEPT001): same racing-unlink tolerance as the entry walk above
                continue
            quarantined += 1
        return StoreStats(entries, total, quarantined, quarantined_bytes, self.counters)

    def verify(self, recompile: RecompileHook | None = None) -> VerifyReport:
        """Re-verify every entry; optionally repair or delete the damaged.

        Without ``recompile`` (plain ``verify``) damaged entries are
        quarantined, exactly as the read path would.  With ``recompile``
        (``verify --repair``) each damaged entry's meta is handed to the
        hook: a re-derived artifact replaces the entry in place; ``None``
        deletes it with the reason logged in the report.
        """
        report = VerifyReport()
        with self._lock(exclusive=True):
            for path in list(self._iter_entries()):
                key = path.name[: -len(_ENTRY_SUFFIX)]
                report.checked += 1
                meta: dict[str, Any] = {}
                try:
                    blob = path.read_bytes()
                    header, meta = verify_entry(blob, expected_key=key)
                    payload = memoryview(blob)[
                        header.payload_offset : header.payload_offset + header.payload_len
                    ]
                    if header.codec == CODEC_COLUMNAR:
                        # No instance here: the order is checked as positions,
                        # and read against its instance on a load.
                        decode_columnar(payload)
                    else:
                        decode_json(payload)
                except EntryDamage as damage:
                    if not meta:
                        # A payload-checksum failure raises before verify_entry
                        # returns the meta; re-read it leniently so --repair
                        # still knows what to re-derive.
                        meta = best_effort_meta(blob)
                    report.damaged.append((key, str(damage)))
                    self._repair_or_remove(path, key, str(damage), meta, recompile, report)
                    continue
                except OSError as error:
                    # repro-analysis: allow(EXCEPT001): an unreadable entry (I/O error, racing unlink) counts as damage for the sweep's purposes and goes through the same repair-or-remove path
                    reason = f"unreadable entry: {error}"
                    report.damaged.append((key, reason))
                    self._repair_or_remove(path, key, reason, meta, recompile, report)
                    continue
                report.ok += 1
        return report

    def _repair_or_remove(
        self,
        path: Path,
        key: str,
        reason: str,
        meta: dict[str, Any],
        recompile: RecompileHook | None,
        report: VerifyReport,
    ) -> None:
        if recompile is not None:
            replacement = recompile(meta) if meta else None
            if replacement is not None:
                columnar, instance = replacement
                blob = pack_entry(key, CODEC_COLUMNAR, meta, encode_columnar(columnar, instance))
                _unlink_quietly(path)
                if self._commit_entry(key, blob):
                    report.repaired.append(key)
                else:
                    report.deleted.append((key, f"{reason}; rewrite failed"))
                return
            _unlink_quietly(path)
            report.deleted.append((key, f"{reason}; not re-derivable, deleted"))
            return
        self._quarantine(path, key, reason)
        report.quarantined.append(key)

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
        clear_quarantine: bool = False,
    ) -> list[str]:
        """Evict entries by age then by total size (oldest-first); list keys.

        ``clear_quarantine`` additionally empties the quarantine directory
        (the damaged entries and their reason records).
        """
        removed: list[str] = []
        now = time.time()
        with self._lock(exclusive=True):
            entries: list[tuple[float, int, Path]] = []
            for path in self._iter_entries():
                try:
                    status = path.stat()
                except OSError:
                    # repro-analysis: allow(EXCEPT001): racing unlink between listing and stat; nothing to evict
                    continue
                entries.append((status.st_mtime, status.st_size, path))
            entries.sort()
            if max_age_seconds is not None:
                survivors = []
                for mtime, size, path in entries:
                    if now - mtime > max_age_seconds:
                        _unlink_quietly(path)
                        removed.append(path.name[: -len(_ENTRY_SUFFIX)])
                    else:
                        survivors.append((mtime, size, path))
                entries = survivors
            if max_bytes is not None:
                total = sum(size for _, size, _ in entries)
                for _, size, path in entries:
                    if total <= max_bytes:
                        break
                    _unlink_quietly(path)
                    removed.append(path.name[: -len(_ENTRY_SUFFIX)])
                    total -= size
            if clear_quarantine:
                for path in sorted(self._quarantine_dir.iterdir()):
                    _unlink_quietly(path)
        return removed

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Mark the store closed (further calls raise :class:`StoreError`).

        Already-loaded columnar artifacts stay valid: each owns its file
        mapping, released when the artifact dies.  The store holds no
        persistent descriptors — locks are per-operation — so close leaks
        nothing by construction; the tests pin that.
        """
        self._closed = True

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _unlock_close(fd: int) -> None:
    if fcntl is not None:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            # repro-analysis: allow(EXCEPT001): unlocking a descriptor whose file was unlinked can fail on some kernels; close() releases the lock anyway
            pass
    os.close(fd)


def _close_mapping(mapping: mmap.mmap) -> None:
    try:
        mapping.close()
    except BufferError:  # pragma: no cover - a stray export keeps it alive
        pass


def _fsync_dir(directory: Path) -> None:
    """Flush a directory's metadata so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        # repro-analysis: allow(EXCEPT001): some filesystems refuse O_RDONLY on directories; the entry data is already fsynced, only rename durability degrades
        return
    try:
        os.fsync(fd)
    except OSError:
        # repro-analysis: allow(EXCEPT001): fsync on a directory descriptor is EINVAL on some filesystems; same degradation as above
        pass
    finally:
        os.close(fd)


def _unlink_quietly(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        # repro-analysis: allow(EXCEPT001): the file is already gone or undeletable; both are acceptable for a cleanup helper
        pass


def _tmp_pid_alive(name: str) -> bool:
    """Whether a ``.tmp-<pid>-<n>`` file's writer process still runs."""
    try:
        pid = int(name[len(_TMP_PREFIX) :].split("-", 1)[0])
    except ValueError:
        return False
    if pid == os.getpid():
        return False  # our own serial counter never reuses names; stale
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by someone else
    except OSError:
        # repro-analysis: allow(EXCEPT001): exotic kill(pid, 0) failures; assume alive — leaving a temp file is safe, deleting a live one is not
        return True
    return True
