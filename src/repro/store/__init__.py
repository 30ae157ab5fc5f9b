"""repro.store — the crash-safe persistent artifact tier.

A :class:`ArtifactStore` is a content-fingerprint-keyed, disk-backed cache
sitting *below* the :class:`~repro.engine.CompilationEngine` LRU caches: the
engine reads through it on a memory miss and writes freshly compiled
columnar OBDDs behind, so the one artifact a restarted process must not
rebuild survives process restarts and is shared by every worker pointed at
the same directory.  Lifted plans and tree encodings are not stored: a
plan builds in a fraction of a millisecond, and only the failover route
reads an encoding.

An entry holds int64 columns behind a small JSON sidecar, and a columnar
artifact's variable order is a column of positions in ``instance.facts``;
reading an entry deserializes no Python object.

Three properties the tests pin:

* **Atomicity** — the temp-write / fsync / rename protocol means a crash at
  any point leaves either the old state or the new state, never a torn
  entry under a live name; orphaned temp files are swept at startup.
* **Integrity** — every load re-verifies the entry (format version, key
  echo, SHA-256 payload checksum, then every shape and position the
  payload claims) before trusting a byte; damage is moved to
  ``quarantine/`` with a reason record and reported as a miss, so
  corruption can cost recompilation time but never a wrong answer.
* **Concurrency** — entry traffic shares an advisory file lock that
  maintenance sweeps take exclusively, with inode-checked steal detection,
  so concurrent engines on one host can point at one directory safely.

See :mod:`repro.store.store` for the contracts and
:mod:`repro.store.format` for the on-disk entry layout.
"""

from repro.store.format import (
    CODEC_COLUMNAR,
    CODEC_JSON,
    FORMAT_VERSION,
    canonical_query_text,
    columnar_key,
)
from repro.store.store import (
    ArtifactStore,
    QuarantineRecord,
    StoreCounters,
    StoreStats,
    VerifyReport,
)

__all__ = [
    "ArtifactStore",
    "CODEC_COLUMNAR",
    "CODEC_JSON",
    "FORMAT_VERSION",
    "QuarantineRecord",
    "StoreCounters",
    "StoreStats",
    "VerifyReport",
    "canonical_query_text",
    "columnar_key",
]
