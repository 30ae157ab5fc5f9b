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
answer).  An entry of another format version is damage like any other: the
engine quarantines it, recompiles, and writes the current version behind.

Two payload codecs, and neither deserializes a Python object:

* :data:`CODEC_COLUMNAR` — a :class:`~repro.booleans.columnar.ColumnarOBDD`
  as a JSON sidecar ``{"node_count": n, "root": r}``, the packed
  ``var|lo|hi`` int64 columns at an 8-byte-aligned offset, and then the
  variable order as an int64 column of positions in ``instance.facts``
  (it fills the rest of the payload).  The entry key names the instance,
  so a reader holding that instance maps the positions back to its own
  facts.  The columns are the exact
  :meth:`~repro.booleans.columnar.ColumnarOBDD.write_into` buffer layout,
  so a verified entry can be memory-mapped and attached zero-copy (numpy
  views straight into the mapping), mirroring the shared-memory transport
  of :mod:`repro.engine.shm`.
* :data:`CODEC_JSON` — one JSON value.

A checksum proves which bytes a writer packed, not that they make sense:
the decoders check every shape, count and position against what the reader
holds, and a mismatch is damage too.

Keys are SHA-256 hex digests over a canonical description that chains the
artifact kind, the instance content fingerprint, and the query's canonical
text (:func:`canonical_query_text`, the parseable ``" | "``-joined form), so
two processes deriving the key independently always agree and a stale file
can never alias a different artifact.
"""

from __future__ import annotations

import hashlib
import json
import struct
from array import array
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.booleans.columnar import ColumnarOBDD, columnar_from_buffer
from repro.data.instance import Fact, Instance
from repro.errors import CompilationError, StoreError

#: The current version of the entry format; an entry of any other version is
#: damage.  Stored positions index ``instance.facts``, so a change to the fact
#: order an instance fingerprint stands for needs a new version.
FORMAT_VERSION = 2

MAGIC = b"RPROART1"

#: Payload codecs (the ``codec`` header field).
CODEC_COLUMNAR = 1
CODEC_JSON = 2

_CODEC_NAMES = {CODEC_COLUMNAR: "columnar", CODEC_JSON: "json"}

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
    meta = _json_value(
        bytes(buffer[header.meta_offset : header.meta_offset + header.meta_len]), "meta JSON"
    )
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
        meta = _json_value(
            bytes(buffer[header.meta_offset : header.meta_offset + header.meta_len]), "meta JSON"
        )
    except EntryDamage:
        return {}
    return meta if isinstance(meta, dict) else {}


def _json_value(data: bytes, what: str) -> Any:
    """The JSON value in ``data``; any decoding failure is damage.

    ``json.loads`` raises ``ValueError`` (``UnicodeDecodeError`` included)
    on malformed bytes and ``RecursionError`` on deeply nested ones.
    """
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as error:
        raise EntryDamage(f"corrupt {what}: {error}") from error


# -- columnar payload ----------------------------------------------------------

_SIDECAR_LEN = struct.Struct("<Q")
_POSITION = struct.calcsize("q")


def encode_columnar(columnar: ColumnarOBDD, instance: Instance) -> bytes:
    """Pack a columnar artifact: JSON sidecar, aligned columns, then the
    variable order as positions in ``instance.facts``.

    Raises :class:`~repro.errors.StoreError` when a variable is not a fact
    of ``instance``.
    """
    positions = array("q")
    for variable in columnar.order:
        position = None
        if isinstance(variable, Fact):
            position = instance.fact_positions(variable.relation).get(variable.arguments)
        if position is None:
            raise StoreError(f"variable {variable!r} is not a fact of the instance")
        positions.append(position)
    sidecar = json.dumps({"node_count": len(columnar), "root": columnar.root}).encode("ascii")
    columns_offset = _aligned(_SIDECAR_LEN.size + len(sidecar))
    order_offset = columns_offset + columnar.nbytes
    payload = bytearray(order_offset + _POSITION * len(positions))
    _SIDECAR_LEN.pack_into(payload, 0, len(sidecar))
    payload[_SIDECAR_LEN.size : _SIDECAR_LEN.size + len(sidecar)] = sidecar
    if columnar.nbytes:
        columnar.write_into(memoryview(payload)[columns_offset:order_offset])
    payload[order_offset:] = positions.tobytes()
    return bytes(payload)


def decode_columnar(
    payload: bytes | memoryview, facts: Sequence[Any] | None = None, retain: Any = None
) -> ColumnarOBDD:
    """The columnar artifact of a verified payload, its order read in ``facts``.

    ``facts`` is the ``instance.facts`` of the instance the entry key names;
    the order then holds that instance's own facts.  Without it (the verify
    sweep, which holds no instance) the order stays positions, which still
    checks every column's shape.  ``retain`` keeps the buffer's owner (a
    file mapping) alive as long as the columns view it.

    Only called after :func:`verify_entry` passed, so these are the bytes
    some writer packed; a sidecar that is not a JSON object with
    non-negative int ``node_count`` and ``root``, a payload that does not
    hold that many nodes plus whole positions, a position outside ``facts``
    or repeated, or columns that break the artifact's contract (a level
    past the order, a child id out of range) raise :class:`EntryDamage`.
    """
    if len(payload) < _SIDECAR_LEN.size:
        raise EntryDamage("columnar payload too short for its sidecar length")
    (sidecar_len,) = _SIDECAR_LEN.unpack_from(payload)
    columns_offset = _aligned(_SIDECAR_LEN.size + sidecar_len)
    if len(payload) < columns_offset:
        raise EntryDamage("columnar payload too short for its sidecar")
    sidecar = _json_value(
        bytes(payload[_SIDECAR_LEN.size : _SIDECAR_LEN.size + sidecar_len]), "columnar sidecar"
    )
    if not isinstance(sidecar, dict):
        raise EntryDamage("corrupt columnar sidecar: not an object")
    node_count, root = sidecar.get("node_count"), sidecar.get("root")
    for field, value in (("node_count", node_count), ("root", root)):
        if type(value) is not int or value < 0:
            raise EntryDamage(f"corrupt columnar sidecar: {field} is {value!r}")
    order_offset = columns_offset + 3 * _POSITION * node_count
    if len(payload) < order_offset or (len(payload) - order_offset) % _POSITION:
        raise EntryDamage(f"columnar payload does not hold {node_count} nodes and whole positions")
    column = array("q")
    column.frombytes(payload[order_offset:])
    positions = column.tolist()
    order: list[Any] = positions
    if facts is not None:
        if positions and not (0 <= min(positions) and max(positions) < len(facts)):
            raise EntryDamage(
                f"columnar order has a position outside the instance's {len(facts)} facts"
            )
        if len(set(positions)) != len(positions):
            raise EntryDamage("columnar order repeats a position")
        order = list(map(facts.__getitem__, positions))
    try:
        return columnar_from_buffer(
            {"node_count": node_count, "root": root, "order": order},
            payload[columns_offset:order_offset],
            retain=retain,
        )
    except CompilationError as error:
        raise EntryDamage(f"corrupt columnar columns: {error}") from error


# -- JSON payload --------------------------------------------------------------


def encode_json(value: Any) -> bytes:
    """Pack one JSON value (raises :class:`~repro.errors.StoreError` when
    ``value`` is not one)."""
    try:
        return json.dumps(value, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise StoreError(f"not a JSON value: {error}") from error


def decode_json(payload: bytes | memoryview) -> Any:
    """The JSON value of a verified :data:`CODEC_JSON` payload."""
    return _json_value(bytes(payload), "JSON payload")
