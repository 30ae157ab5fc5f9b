"""The on-disk entry format of the persistent artifact store.

One store entry is one file::

    header (128 bytes) | meta JSON | padding | payload

The fixed binary header carries everything integrity verification needs
*before* any byte of the payload is trusted: a magic string, the format
version, the payload codec, the payload length, a SHA-256 checksum of the
payload, and an echo of the content-fingerprint key the entry was written
under.  A reader validates in that order — magic, version, lengths,
key echo, checksum — and every mismatch raises :class:`EntryDamage` with a
machine-readable reason, which the store turns into a quarantine (never an
answer).

Two payload codecs:

* :data:`CODEC_COLUMNAR` — a :class:`~repro.booleans.columnar.ColumnarOBDD`
  as a small pickled sidecar (variable order, root) followed by the packed
  ``var|lo|hi`` int64 columns at an 8-byte-aligned offset.  The columns are
  the exact :meth:`~repro.booleans.columnar.ColumnarOBDD.write_into` buffer
  layout, so a verified entry can be memory-mapped and attached zero-copy
  (numpy views straight into the mapping), mirroring the shared-memory
  transport of :mod:`repro.engine.shm`.
* :data:`CODEC_PICKLE` — a picklable artifact built from the library's
  stored data classes (lifted plans — including the ``None`` verdict for
  unsafe queries — and tree-encoding node tables).

Both codecs read their pickles with an unpickler that resolves only the
stored data classes (:data:`STORED_CLASSES`): a checksum proves which bytes
a writer packed, not what they name, so a pickle that names any other
global (``print``, ``os.system``) is damage, and reading it calls nothing.

Keys are SHA-256 hex digests over a canonical description that chains the
artifact kind, the instance content fingerprint, and the query's canonical
text (:func:`canonical_query_text`, the parseable ``" | "``-joined form), so
two processes deriving the key independently always agree and a stale file
can never alias a different artifact.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Mapping

from repro.booleans.columnar import ColumnarOBDD
from repro.errors import StoreError

#: First (and current) version of the entry format.
FORMAT_VERSION = 1

MAGIC = b"RPROART1"

#: Payload codecs (the ``codec`` header field).
CODEC_COLUMNAR = 1
CODEC_PICKLE = 2

_CODEC_NAMES = {CODEC_COLUMNAR: "columnar", CODEC_PICKLE: "pickle"}

# magic | version | codec | payload_len | sha256(payload) | key echo |
# meta_len | reserved — 128 bytes, little-endian, no implicit padding.
_HEADER = struct.Struct("<8sIIQ32s64sII")
HEADER_SIZE = _HEADER.size
assert HEADER_SIZE == 128

_ALIGN = 8


class EntryDamage(Exception):
    """An entry failed integrity verification (reason in ``args[0]``).

    Internal to the store: the read path catches it and quarantines the
    entry; maintenance commands surface the reason string in their reports.
    Deliberately *not* a :class:`~repro.errors.ReproError` — damage must
    never escape as a library error, only as a miss.
    """


@dataclass(frozen=True, slots=True)
class EntryHeader:
    """The parsed fixed header of one entry file."""

    codec: int
    payload_len: int
    checksum: bytes
    key: str
    meta_len: int

    @property
    def codec_name(self) -> str:
        return _CODEC_NAMES.get(self.codec, f"codec-{self.codec}")

    @property
    def meta_offset(self) -> int:
        return HEADER_SIZE

    @property
    def payload_offset(self) -> int:
        return _aligned(HEADER_SIZE + self.meta_len)

    @property
    def total_size(self) -> int:
        return self.payload_offset + self.payload_len


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def derive_key(*parts: str) -> str:
    """The store key for a canonical description: chained SHA-256 hex."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def canonical_query_text(query: Any) -> str:
    """The parseable canonical text of a UCQ: ``" | "``-joined disjuncts.

    :func:`repro.queries.parser.parse_ucq` splits on ``|``, so this exact
    string round-trips — which is what lets ``store verify --repair``
    re-derive a damaged entry from its metadata alone.
    """
    from repro.queries.ucq import as_ucq

    return " | ".join(str(disjunct) for disjunct in as_ucq(query).disjuncts)


def columnar_key(instance_fingerprint: str, query: Any, use_path: bool) -> str:
    """Key of a compiled columnar artifact for (instance, query, order)."""
    return derive_key(
        "columnar", instance_fingerprint, canonical_query_text(query), str(int(use_path))
    )


def plan_key(query: Any) -> str:
    """Key of a lifted plan (instance-independent, like the engine cache)."""
    return derive_key("lifted_plan", canonical_query_text(query))


def encoding_key(instance_fingerprint: str) -> str:
    """Key of a fused tree encoding (per-instance structural artifact)."""
    return derive_key("tree_encoding", instance_fingerprint)


def pack_entry(key: str, codec: int, meta: Mapping[str, Any], payload: bytes) -> bytes:
    """Serialize one complete entry file: header, meta JSON, padded payload."""
    if codec not in _CODEC_NAMES:
        raise StoreError(f"unknown payload codec {codec!r}")
    key_bytes = key.encode("ascii")
    if len(key_bytes) != 64:
        raise StoreError(f"store keys are 64 hex chars, got {len(key_bytes)}")
    meta_bytes = json.dumps(dict(meta), sort_keys=True).encode("utf-8")
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        codec,
        len(payload),
        hashlib.sha256(payload).digest(),
        key_bytes,
        len(meta_bytes),
        0,
    )
    padding = b"\x00" * (_aligned(HEADER_SIZE + len(meta_bytes)) - HEADER_SIZE - len(meta_bytes))
    return b"".join((header, meta_bytes, padding, payload))


def parse_header(buffer: bytes | memoryview, expected_key: str | None = None) -> EntryHeader:
    """Parse and validate the fixed header (raises :class:`EntryDamage`)."""
    if len(buffer) < HEADER_SIZE:
        raise EntryDamage(f"truncated header: {len(buffer)} bytes < {HEADER_SIZE}")
    magic, version, codec, payload_len, checksum, key_bytes, meta_len, _ = _HEADER.unpack_from(
        bytes(buffer[:HEADER_SIZE])
    )
    if magic != MAGIC:
        raise EntryDamage(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise EntryDamage(f"unsupported format version {version}")
    if codec not in _CODEC_NAMES:
        raise EntryDamage(f"unknown payload codec {codec}")
    try:
        key = key_bytes.decode("ascii")
    except UnicodeDecodeError as error:
        raise EntryDamage("corrupt key echo (not ascii)") from error
    header = EntryHeader(codec, payload_len, checksum, key, meta_len)
    if expected_key is not None and key != expected_key:
        raise EntryDamage(f"key echo mismatch: entry was written under {key[:12]}...")
    return header


def verify_entry(
    buffer: bytes | memoryview, expected_key: str | None = None
) -> tuple[EntryHeader, dict[str, Any]]:
    """Full integrity check of one entry buffer: header, meta, checksum.

    Returns the parsed header and meta dictionary; raises
    :class:`EntryDamage` on any mismatch, without trusting a single payload
    byte before the checksum has passed.
    """
    header = parse_header(buffer, expected_key)
    if len(buffer) < header.total_size:
        raise EntryDamage(
            f"truncated entry: {len(buffer)} bytes < {header.total_size} expected"
        )
    meta_raw = bytes(buffer[header.meta_offset : header.meta_offset + header.meta_len])
    try:
        meta = json.loads(meta_raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise EntryDamage(f"corrupt meta JSON: {error}") from error
    if not isinstance(meta, dict):
        raise EntryDamage("corrupt meta JSON: not an object")
    # hashlib accepts any contiguous buffer, so a memory-mapped entry is
    # checksummed in place — no payload-sized copy on the zero-copy path.
    payload = memoryview(buffer)[
        header.payload_offset : header.payload_offset + header.payload_len
    ]
    try:
        damaged = hashlib.sha256(payload).digest() != header.checksum
    finally:
        payload.release()
    if damaged:
        raise EntryDamage("payload checksum mismatch")
    return header, meta


def best_effort_meta(buffer: bytes | memoryview) -> dict[str, Any]:
    """The meta mapping of a *damaged* entry, or ``{}`` when unrecoverable.

    ``verify --repair`` needs the metadata (kind, query text, instance
    fingerprint) to re-derive an entry whose *payload* failed its checksum —
    by then :func:`verify_entry` has already raised, so this helper re-reads
    just the header and meta region, tolerating everything it can.  The
    result is only ever used to describe what to recompile from scratch,
    never to serve stored bytes, so leniency here cannot launder corruption
    into an answer.
    """
    try:
        header = parse_header(buffer)
        meta_raw = bytes(buffer[header.meta_offset : header.meta_offset + header.meta_len])
        meta = json.loads(meta_raw.decode("utf-8"))
    # repro-analysis: allow(EXCEPT001): this is the tolerant path for entries already known to be damaged; any parse failure simply means "no metadata survives", which the repair sweep reports as not re-derivable
    except Exception:
        return {}
    return meta if isinstance(meta, dict) else {}


# -- columnar payload ----------------------------------------------------------

_SIDECAR_LEN = struct.Struct("<Q")

#: The classes a stored pickle may name, by module: the facts of a columnar
#: variable order, lifted plans and tree encodings, what they hold, and the
#: exact ``Fraction`` (whose pickle calls ``Fraction(str)``).
STORED_CLASSES: dict[str, frozenset[str]] = {
    "fractions": frozenset({"Fraction"}),
    "repro.data.instance": frozenset({"Fact", "Instance"}),
    "repro.data.signature": frozenset({"Signature", "Relation"}),
    "repro.queries.atoms": frozenset({"Variable", "Atom", "Disequality"}),
    "repro.queries.cq": frozenset({"ConjunctiveQuery"}),
    "repro.queries.ucq": frozenset({"UnionOfConjunctiveQueries"}),
    "repro.probability.lifted.plan": frozenset(
        {
            "AtomSpec",
            "GroundNode",
            "JoinNode",
            "ProjectNode",
            "InclusionExclusionNode",
            "LiftedPlan",
        }
    ),
    "repro.provenance.tree_encoding": frozenset({"EncodingNode", "TreeEncoding"}),
}


class _StoredDataUnpickler(pickle.Unpickler):
    """An unpickler that resolves only :data:`STORED_CLASSES`."""

    def find_class(self, module: str, name: str) -> Any:
        if name not in STORED_CLASSES.get(module, ()):
            raise EntryDamage(f"pickle names {module}.{name}, not a stored data class")
        return getattr(importlib.import_module(module), name)


def _load_stored(data: bytes) -> Any:
    return _StoredDataUnpickler(io.BytesIO(data)).load()


def encode_columnar(columnar: ColumnarOBDD) -> bytes:
    """Pack a columnar artifact: pickled sidecar, then aligned columns."""
    sidecar = pickle.dumps(columnar.meta(), protocol=pickle.HIGHEST_PROTOCOL)
    columns_offset = _aligned(_SIDECAR_LEN.size + len(sidecar))
    payload = bytearray(columns_offset + columnar.nbytes)
    _SIDECAR_LEN.pack_into(payload, 0, len(sidecar))
    payload[_SIDECAR_LEN.size : _SIDECAR_LEN.size + len(sidecar)] = sidecar
    if columnar.nbytes:
        columnar.write_into(memoryview(payload)[columns_offset:])
    return bytes(payload)


def decode_columnar_sidecar(payload: bytes | memoryview) -> tuple[dict[str, Any], int]:
    """The pickled sidecar and the columns' offset within the payload.

    Only called after :func:`verify_entry` passed, so the pickle bytes are
    what some writer packed; a sidecar that does not unpickle, names a class
    outside :data:`STORED_CLASSES`, or whose ``node_count`` and ``root`` are
    not non-negative ints or whose ``order`` is not a list or tuple,
    surfaces as :class:`EntryDamage`, never as an unpickling crash, a call
    the pickle asked for, or a ``KeyError`` propagating upward.
    """
    if len(payload) < _SIDECAR_LEN.size:
        raise EntryDamage("columnar payload too short for its sidecar length")
    (sidecar_len,) = _SIDECAR_LEN.unpack_from(bytes(payload[: _SIDECAR_LEN.size]))
    columns_offset = _aligned(_SIDECAR_LEN.size + sidecar_len)
    if len(payload) < columns_offset:
        raise EntryDamage("columnar payload too short for its sidecar")
    try:
        sidecar = _load_stored(
            bytes(payload[_SIDECAR_LEN.size : _SIDECAR_LEN.size + sidecar_len])
        )
    # repro-analysis: allow(EXCEPT001): unpickling attacker-shaped corrupt bytes can raise nearly anything; every failure is converted to EntryDamage and quarantined, never swallowed
    except Exception as error:
        raise EntryDamage(f"corrupt columnar sidecar: {error}") from error
    if not isinstance(sidecar, dict):
        raise EntryDamage("corrupt columnar sidecar: not a meta mapping")
    for field in ("node_count", "root"):
        value = sidecar.get(field)
        if type(value) is not int or value < 0:
            raise EntryDamage(f"corrupt columnar sidecar: {field} is {value!r}")
    if not isinstance(sidecar.get("order"), (list, tuple)):
        raise EntryDamage("corrupt columnar sidecar: order is not a list")
    expected = columns_offset + 3 * sidecar["node_count"] * 8
    if len(payload) < expected:
        raise EntryDamage(
            f"columnar payload too short for {sidecar['node_count']} nodes"
        )
    return sidecar, columns_offset


def encode_pickle(value: Any) -> bytes:
    """Pack a picklable artifact (lifted plans, tree encodings)."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_pickle(payload: bytes | memoryview) -> Any:
    """Unpickle a verified :data:`CODEC_PICKLE` payload, resolving only the
    stored data classes."""
    try:
        return _load_stored(bytes(payload))
    # repro-analysis: allow(EXCEPT001): unpickling corrupt bytes can raise nearly anything; the failure becomes EntryDamage and a quarantine, never a silent pass
    except Exception as error:
        raise EntryDamage(f"corrupt pickle payload: {error}") from error
