"""Tests for the persistent artifact store (repro.store).

Four layers, matching the store's contracts:

* the on-disk entry format — pack/verify round trips, every corruption an
  :class:`EntryDamage`, canonical query text that re-parses, and no module
  of the package that imports ``pickle``;
* the store itself — atomic commits, quarantine-on-damage, crash recovery,
  gc, verify/repair sweeps, lifecycle;
* the engine wiring — a *fresh* engine (a process restart, as far as the
  caches are concerned) answers from the store with zero compilations, and
  a corrupted entry costs a recompile but never exactness;
* the CLI — ``--store`` across invocations and the ``store`` maintenance
  subcommand, exit codes included.
"""

import ast
import glob
import hashlib
import json
import os
import pickle
import shutil
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store
from repro.booleans.columnar import ColumnarOBDD
from repro.cli import main
from repro.data.io import save_instance, tid_from_dict, tid_to_dict
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine, ParallelEngine
from repro.errors import StoreError
from repro.generators import directed_path_instance, labelled_partial_ktree_instance
from repro.generators.lines import rst_chain_instance
from repro.provenance.compile_obdd import CompiledOBDD
from repro.queries import (
    hierarchical_example,
    parse_ucq,
    two_incident_same_direction,
    unsafe_rst,
)
from repro.store import (
    CODEC_COLUMNAR,
    CODEC_JSON,
    FORMAT_VERSION,
    ArtifactStore,
    canonical_query_text,
    columnar_key,
)
from repro.store.format import (
    EntryDamage,
    best_effort_meta,
    encode_columnar,
    pack_entry,
    parse_header,
    verify_entry,
)

KEY_A = "a" * 64
KEY_B = "b" * 64
# The payload checksum's place in the header: after magic, version, codec
# and payload length.
CHECKSUM_OFFSET = 24


@pytest.fixture(scope="module")
def ktree_tid():
    instance = labelled_partial_ktree_instance(10, 2, seed=5)
    return ProbabilisticInstance.uniform(instance, Fraction(1, 2))


@pytest.fixture(scope="module")
def instance(ktree_tid):
    return ktree_tid.instance


@pytest.fixture(scope="module")
def artifact(ktree_tid):
    engine = CompilationEngine()
    return engine.columnar(unsafe_rst(), ktree_tid.instance)


def corrupt_last_byte(path: str) -> None:
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes((last[0] ^ 0xFF,)))


def entry_kinds(root: Path) -> list[str]:
    """The meta ``kind`` of every entry under a store directory."""
    paths = glob.glob(str(root / "objects" / "*" / "*.entry"))
    return sorted(verify_entry(Path(path).read_bytes())[1]["kind"] for path in paths)


def entry_files(store: ArtifactStore) -> list[str]:
    return sorted(glob.glob(str(store.root / "objects" / "*" / "*.entry")))


def tmp_files(store: ArtifactStore) -> list[str]:
    return sorted(glob.glob(str(store.root / "objects" / "*" / ".tmp-*")))


# -- entry format ---------------------------------------------------------------


class TestEntryFormat:
    def test_pack_verify_round_trip(self):
        blob = pack_entry(KEY_A, CODEC_JSON, {"kind": "x"}, b"payload")
        header, meta = verify_entry(blob, expected_key=KEY_A)
        assert header.codec == CODEC_JSON
        assert header.key == KEY_A
        assert meta == {"kind": "x"}
        assert blob[header.payload_offset : header.payload_offset + header.payload_len] == (
            b"payload"
        )

    def test_payload_is_eight_byte_aligned(self):
        for meta in ({}, {"kind": "columnar", "query": "R(x)"}):
            blob = pack_entry(KEY_A, CODEC_JSON, meta, b"p")
            assert parse_header(blob).payload_offset % 8 == 0

    def test_bad_magic_version_key_and_truncation_all_damage(self):
        blob = bytearray(pack_entry(KEY_A, CODEC_JSON, {}, b"payload"))
        with pytest.raises(EntryDamage, match="magic"):
            verify_entry(b"XXXXXXXX" + bytes(blob[8:]))
        versioned = bytearray(blob)
        versioned[8] = 99
        with pytest.raises(EntryDamage, match="version"):
            verify_entry(bytes(versioned))
        with pytest.raises(EntryDamage, match="key echo"):
            verify_entry(bytes(blob), expected_key=KEY_B)
        with pytest.raises(EntryDamage, match="truncated"):
            verify_entry(bytes(blob[:-3]))

    def test_flipped_payload_byte_fails_checksum(self):
        blob = bytearray(pack_entry(KEY_A, CODEC_JSON, {}, b"payload"))
        blob[-1] ^= 0x01
        with pytest.raises(EntryDamage, match="checksum"):
            verify_entry(bytes(blob))

    def test_best_effort_meta_survives_payload_damage(self):
        blob = bytearray(
            pack_entry(KEY_A, CODEC_JSON, {"kind": "columnar", "query": "R(x)"}, b"payload")
        )
        blob[-1] ^= 0x01
        assert best_effort_meta(bytes(blob)) == {"kind": "columnar", "query": "R(x)"}
        assert best_effort_meta(b"garbage") == {}

    def test_canonical_query_text_round_trips(self):
        for text in ("R(x), S(x, y)", "R(x) | S(x, y), T(y)"):
            query = parse_ucq(text)
            canonical = canonical_query_text(query)
            assert canonical_query_text(parse_ucq(canonical)) == canonical

    def test_keys_are_distinct_and_deterministic(self):
        query = parse_ucq("R(x), S(x, y)")
        assert columnar_key("f1", query, False) == columnar_key("f1", query, False)
        assert columnar_key("f1", query, False) != columnar_key("f1", query, True)
        assert columnar_key("f1", query, False) != columnar_key("f2", query, False)
        assert columnar_key("f1", query, False) != columnar_key("f1", parse_ucq("R(x)"), False)

    def test_format_version_is_2(self):
        assert FORMAT_VERSION == 2

    def test_no_store_module_imports_pickle(self):
        # Reading an entry must never deserialize a Python object, so the
        # package has no use for pickle at all.
        modules = sorted(Path(repro.store.__file__).parent.glob("*.py"))
        assert modules
        for module in modules:
            tree = ast.parse(module.read_text(), filename=str(module))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(
                    name.split(".")[0] in ("pickle", "_pickle") for name in names
                ), f"{module} imports {names}"


# -- the store ------------------------------------------------------------------


class TestArtifactStore:
    def test_columnar_round_trip(self, tmp_path, artifact, instance, ktree_tid):
        store = ArtifactStore(tmp_path / "store")
        assert store.put_columnar(KEY_A, artifact, instance, {"kind": "columnar"})
        loaded = store.get_columnar(KEY_A, instance)
        assert loaded is not None
        assert list(loaded.var) == list(artifact.var)
        assert list(loaded.lo) == list(artifact.lo)
        assert list(loaded.hi) == list(artifact.hi)
        assert loaded.root == artifact.root
        assert loaded.order == artifact.order
        # The order is read back as positions in the instance's own facts.
        facts = {id(fact) for fact in instance.facts}
        assert all(id(fact) in facts for fact in loaded.order)
        valuation = ktree_tid.valuation()
        assert loaded.probability(valuation) == artifact.probability(valuation)
        assert store.counters.writes == 1
        assert store.counters.hits == 1

    def test_object_round_trip_preserves_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_object(KEY_A, None, {"kind": "misc"})
        store.put_object(KEY_B, {"answer": [3, 7]}, {"kind": "misc"})
        assert store.get_object(KEY_A) == (True, None)
        assert store.get_object(KEY_B) == (True, {"answer": [3, 7]})
        assert store.get_object("c" * 64) == (False, None)
        # Objects are JSON values: anything else is refused before a write.
        with pytest.raises(StoreError, match="JSON"):
            store.put_object("c" * 64, Fraction(3, 7), {"kind": "misc"})
        assert store.counters.writes == 2

    def test_columnar_put_refuses_an_order_outside_the_instance(
        self, tmp_path, artifact, instance
    ):
        store = ArtifactStore(tmp_path / "store")
        other = directed_path_instance(3)
        with pytest.raises(StoreError, match="not a fact of the instance"):
            store.put_columnar(KEY_A, artifact, other, {"kind": "columnar"})
        assert not entry_files(store)

    def test_put_is_idempotent(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        assert store.put_columnar(KEY_A, artifact, instance, {})
        assert store.put_columnar(KEY_A, artifact, instance, {})
        assert store.counters.writes == 1
        assert len(entry_files(store)) == 1

    def test_corrupted_entry_quarantined_and_reported_as_miss(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {"kind": "columnar"})
        corrupt_last_byte(entry_files(store)[0])
        assert store.get_columnar(KEY_A, instance) is None
        assert store.counters.quarantines == 1
        assert not entry_files(store)
        records = store.quarantine_list()
        assert len(records) == 1
        assert records[0].key == KEY_A
        assert "checksum" in records[0].reason
        # The reason record is machine-readable JSON next to the entry.
        reason_files = list((store.root / "quarantine").glob("*.reason.json"))
        assert len(reason_files) == 1
        assert json.loads(reason_files[0].read_text())["key"] == KEY_A

    def test_deeply_nested_meta_is_a_quarantined_miss(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {"kind": "columnar"})
        # A meta region of 100,000 bytes, then overwritten with as many "[".
        meta = {"kind": "x" * (100_000 - len('{"kind": ""}'))}
        blob = bytearray(pack_entry(KEY_A, CODEC_COLUMNAR, meta, encode_columnar(artifact, instance)))
        start = parse_header(blob).meta_offset
        blob[start : start + 100_000] = b"[" * 100_000
        overwrite(entry_files(store)[0], bytes(blob))
        assert best_effort_meta(bytes(blob)) == {}
        assert store.get_columnar(KEY_A, instance) is None
        assert store.counters.quarantines == 1
        assert "corrupt meta JSON" in store.quarantine_list()[0].reason

    def test_wrong_codec_is_damage_not_crash(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        store.put_object(KEY_A, ["not", "columnar"], {"kind": "misc"})
        assert store.get_columnar(KEY_A, instance) is None
        store.put_columnar(KEY_B, artifact, instance, {"kind": "columnar"})
        assert store.get_object(KEY_B) == (False, None)
        assert store.counters.quarantines == 2

    def test_recover_sweeps_dead_pid_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        shard = store.root / "objects" / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        dead = shard / ".tmp-999999-1"
        dead.write_bytes(b"half a write")
        live = shard / f".tmp-{os.getpid() + 0}-7"
        # Our own pid is treated as dead (serials never recur), so fabricate
        # a live *other* pid with pid 1 (init, always running).
        other = shard / ".tmp-1-1"
        other.write_bytes(b"concurrent writer")
        live.write_bytes(b"stale own write")
        removed = store.recover()
        assert dead.name in removed
        assert live.name in removed
        assert other.exists()
        other.unlink()

    def test_startup_runs_recovery(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        shard = store.root / "objects" / "cd"
        shard.mkdir(parents=True, exist_ok=True)
        (shard / ".tmp-999998-3").write_bytes(b"orphan")
        reopened = ArtifactStore(root)
        assert reopened.counters.recovered == 1
        assert not tmp_files(reopened)

    def test_stats_snapshot(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {})
        store.put_object(KEY_B, [1, 2, 3], {})
        snapshot = store.stats()
        assert snapshot.entries == 2
        assert snapshot.total_bytes > 0
        assert snapshot.quarantined == 0
        assert snapshot.as_dict()["writes"] == 2

    def test_gc_by_age_size_and_quarantine(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {})
        store.put_object(KEY_B, list(range(100)), {})
        # Age: nothing is older than an hour.
        assert store.gc(max_age_seconds=3600.0) == []
        # Size: a zero-byte budget evicts everything, oldest first.
        removed = store.gc(max_bytes=0)
        assert sorted(removed) == sorted([KEY_A, KEY_B])
        assert not entry_files(store)
        # Quarantine: damaged entries can be purged too.
        store.put_object(KEY_A, "x", {})
        corrupt_last_byte(entry_files(store)[0])
        assert store.get_object(KEY_A) == (False, None)
        assert store.stats().quarantined == 1
        store.gc(clear_quarantine=True)
        assert store.stats().quarantined == 0
        assert store.quarantine_list() == []

    def test_verify_clean_and_damaged(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {"kind": "columnar"})
        report = store.verify()
        assert report.checked == 1 and report.ok == 1 and report.clean
        corrupt_last_byte(entry_files(store)[0])
        report = store.verify()
        assert report.checked == 1 and report.ok == 0
        assert [key for key, _ in report.damaged] == [KEY_A]
        assert report.quarantined == [KEY_A]
        assert report.clean  # quarantining handled the damage

    def test_verify_repair_rewrites_in_place(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {"kind": "columnar"})
        corrupt_last_byte(entry_files(store)[0])
        report = store.verify(recompile=lambda meta: (artifact, instance))
        assert report.repaired == [KEY_A]
        assert store.verify().ok == 1
        loaded = store.get_columnar(KEY_A, instance)
        assert loaded is not None and list(loaded.var) == list(artifact.var)

    def test_verify_repair_deletes_underivable(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {"kind": "columnar"})
        corrupt_last_byte(entry_files(store)[0])
        report = store.verify(recompile=lambda meta: None)
        assert [key for key, _ in report.deleted] == [KEY_A]
        assert report.clean
        assert not entry_files(store)

    def test_close_marks_store_but_keeps_loaded_artifacts(self, tmp_path, artifact, instance):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {})
        loaded = store.get_columnar(KEY_A, instance)
        store.close()
        with pytest.raises(StoreError):
            store.get_columnar(KEY_A, instance)
        # The artifact owns its mapping: still readable after close.
        assert list(loaded.var) == list(artifact.var)

    def test_context_manager_and_contains(self, tmp_path, artifact, instance):
        with ArtifactStore(tmp_path / "store") as store:
            store.put_columnar(KEY_A, artifact, instance, {})
            assert store.contains(KEY_A)
            assert not store.contains(KEY_B)
        with pytest.raises(StoreError):
            store.contains  # attribute still there...
            store.recover()  # ...but operations refuse

    def test_no_temp_files_after_traffic(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path / "store")
        for serial in range(4):
            store.put_object(f"{serial:02d}" + "e" * 62, serial, {})
        assert len(entry_files(store)) == 4
        assert tmp_files(store) == []


# -- engine wiring --------------------------------------------------------------


class TestEngineWiring:
    def test_fresh_engine_answers_from_store_with_zero_compilations(
        self, tmp_path, ktree_tid
    ):
        root = tmp_path / "store"
        cold = CompilationEngine(store=root)
        value = cold.probability(unsafe_rst(), ktree_tid, method="obdd")
        assert cold.stats["store"].misses == 1
        assert cold.store.counters.writes >= 1

        warm = CompilationEngine(store=root)
        again = warm.probability(unsafe_rst(), ktree_tid, method="obdd")
        assert again == value
        # The restart answered without touching the compilation pipeline:
        # the memory miss was a store hit, and no lineage was built.
        assert warm.stats["store"].hits == 1
        assert warm.stats["store"].misses == 0
        assert warm.stats["lineage"].misses == 0

    def test_auto_store_hit_enumerates_no_lineage(self, tmp_path):
        # The RST lineage of a larger ktree is not read-once shaped, so
        # ``auto`` answers it on the OBDD route: a fresh engine on a populated
        # store takes the compiled columns from the store and never asks for
        # the lineage.
        tid = ProbabilisticInstance.uniform(
            labelled_partial_ktree_instance(40, 2, seed=5), Fraction(1, 3)
        )
        root = tmp_path / "store"
        value = CompilationEngine(store=root).probability(unsafe_rst(), tid)
        warm = CompilationEngine(store=root)
        assert warm.probability(unsafe_rst(), tid) == value
        assert warm.last_decision.method == "obdd"
        assert warm.stats["lineage"].total == 0
        assert warm.stats["store"].total == warm.stats["store"].hits == 1

    def test_auto_read_once_lineage_is_still_answered_by_read_once(
        self, tmp_path, monkeypatch
    ):
        tid = ProbabilisticInstance.uniform(rst_chain_instance(8), Fraction(1, 3))
        expected = CompilationEngine().probability(unsafe_rst(), tid, method="obdd")
        sweeps = []
        original = ColumnarOBDD.probability

        def counting_probability(self, *arguments, **options):
            sweeps.append(self)
            return original(self, *arguments, **options)

        monkeypatch.setattr(ColumnarOBDD, "probability", counting_probability)
        root = tmp_path / "store"
        engine = CompilationEngine(store=root)
        assert engine.probability(unsafe_rst(), tid) == expected
        # One store miss, then the read-once shortcut: nothing compiled.
        assert engine.stats["store"].total == engine.stats["store"].misses == 1
        assert sweeps == [] and entry_kinds(root) == []
        # A lineage held in memory decides by its shape, even beside a
        # compiled OBDD in memory and in the store.
        engine.compile(unsafe_rst(), tid.instance)
        again = ProbabilisticInstance.uniform(tid.instance, Fraction(2, 5))
        assert engine.probability(unsafe_rst(), again) == engine.probability(
            unsafe_rst(), again, method="read_once"
        )
        assert sweeps == []
        assert engine.stats["store"].total == 2

    def test_store_hit_rebuilds_the_object_diagram_only_for_dnnf(
        self, tmp_path, ktree_tid, monkeypatch
    ):
        root = tmp_path / "store"
        value = CompilationEngine(store=root).probability(
            unsafe_rst(), ktree_tid, method="obdd"
        )
        rebuilds = []
        original = ColumnarOBDD.to_obdd

        def counting_to_obdd(self):
            rebuilds.append(self)
            return original(self)

        monkeypatch.setattr(ColumnarOBDD, "to_obdd", counting_to_obdd)
        warm = CompilationEngine(store=root)
        assert warm.probability(unsafe_rst(), ktree_tid, method="obdd") == value
        assert warm.stats["store"].hits == 1
        assert rebuilds == []
        # d-DNNF conversion needs the object diagram: rebuilt once, then kept.
        assert warm.probability(unsafe_rst(), ktree_tid, method="dnnf") == value
        assert len(rebuilds) == 1
        compiled = warm.compile(unsafe_rst(), ktree_tid.instance)
        assert compiled.manager is compiled.manager
        assert len(rebuilds) == 1

    def test_corrupted_entry_recompiles_exactly_and_surfaces_quarantine(
        self, tmp_path, ktree_tid
    ):
        root = tmp_path / "store"
        cold = CompilationEngine(store=root)
        value = cold.probability(unsafe_rst(), ktree_tid, method="obdd")
        store = ArtifactStore(root)
        corrupt_last_byte(entry_files(store)[0])

        warm = CompilationEngine(store=root)
        again = warm.probability(unsafe_rst(), ktree_tid, method="obdd")
        assert again == value  # corruption costs a recompile, never exactness
        assert warm.stats["store"].misses == 1
        assert warm.stats["store"].quarantines == 1
        assert "quarantined" in str(warm.cache_info()["store"])
        # The recompiled artifact was written behind again.
        assert CompilationEngine(store=root).probability(
            unsafe_rst(), ktree_tid, method="obdd"
        ) == value

    def test_store_holds_only_columnar_entries(self, tmp_path, ktree_tid):
        # Lifted plans and tree encodings are rebuilt by every engine: the
        # safe-plan route, the OBDD route and the automaton route leave only
        # compiled columns behind, and never read the store for a plan or an
        # encoding.  The two store lookups are the two ``auto`` requests on
        # the OBDD route: a request that holds no lineage asks the store
        # before it enumerates one, so the RST lineage on this ktree, which
        # is read-once shaped and never compiled, pays one miss.
        root = tmp_path / "store"
        engine = CompilationEngine(store=root)
        engine.probability(hierarchical_example(), ktree_tid)
        engine.probability(unsafe_rst(), ktree_tid)
        engine.probability(unsafe_rst(), ktree_tid, method="automaton")
        path_tid = ProbabilisticInstance.uniform(directed_path_instance(12), Fraction(1, 3))
        engine.probability(two_incident_same_direction(), path_tid)
        assert entry_kinds(root) == ["columnar"]
        assert engine.stats["store"].total == engine.stats["store"].misses == 2

    def test_lifted_plan_and_none_verdict_round_trip(self, tmp_path):
        # Plans are not persisted: a restarted engine on the same store
        # rebuilds an equal plan and the same None verdict without a lookup.
        root = tmp_path / "store"
        safe = parse_ucq("R(x), S(x, y)")
        first = CompilationEngine(store=root)
        plan = first.lifted_plan(safe)
        assert plan is not None
        assert first.lifted_plan(unsafe_rst()) is None
        assert entry_kinds(root) == []

        second = CompilationEngine(store=root)
        assert second.lifted_plan(safe) == plan
        assert second.lifted_plan(unsafe_rst()) is None
        assert second.stats["store"].total == 0
        assert second.stats["lifted_plan"].misses == 2

    def test_tree_encoding_round_trip(self, tmp_path, ktree_tid):
        # Encodings are not persisted: a restarted engine rebuilds an equal
        # encoding over the caller's instance without a lookup.
        root = tmp_path / "store"
        instance = ktree_tid.instance
        encoding = CompilationEngine(store=root).tree_encoding_of(instance)
        assert entry_kinds(root) == []

        second = CompilationEngine(store=root)
        rebuilt = second.tree_encoding_of(instance)
        assert second.stats["store"].total == 0
        assert rebuilt.instance is instance
        assert rebuilt.root == encoding.root
        assert rebuilt.nodes == encoding.nodes

    def test_store_hit_reads_the_order_in_the_callers_facts(self, tmp_path):
        query = two_incident_same_direction()
        tid = ProbabilisticInstance.uniform(directed_path_instance(12), Fraction(1, 3))
        root = tmp_path / "store"
        CompilationEngine(store=root).compile(query, tid.instance)
        # A restarted process loads its own, content-equal instance.
        loaded = tid_from_dict(tid_to_dict(tid))
        assert loaded.instance is not tid.instance
        warm = CompilationEngine(store=root)
        order = warm.compile(query, loaded.instance).order
        assert warm.stats["store"].hits == 1
        facts = {id(fact) for fact in loaded.instance.facts}
        assert order and all(id(fact) in facts for fact in order)
        fresh = CompilationEngine()
        for method in ("obdd", "dnnf", "auto"):
            assert warm.probability(query, loaded, method) == fresh.probability(
                query, tid, method
            )

    def test_only_store_backed_compiles_flatten(self, tmp_path, ktree_tid, monkeypatch):
        flattened = []
        original = CompiledOBDD.to_columnar

        def counting_to_columnar(self):
            flattened.append(self)
            return original(self)

        monkeypatch.setattr(CompiledOBDD, "to_columnar", counting_to_columnar)
        instance = ktree_tid.instance
        CompilationEngine().compile(unsafe_rst(), instance)
        assert flattened == []  # nothing to write behind, nothing to flatten

        CompilationEngine(store=tmp_path / "store").compile(unsafe_rst(), instance)
        assert len(flattened) == 1
        CompilationEngine().columnar(unsafe_rst(), instance)
        assert len(flattened) == 2

    def test_engine_accepts_store_instance_and_path(self, tmp_path, ktree_tid):
        root = tmp_path / "store"
        opened = ArtifactStore(root)
        by_instance = CompilationEngine(store=opened)
        assert by_instance.store is opened
        by_path = CompilationEngine(store=str(root))
        assert by_path.store is not None and by_path.store.root == root

    def test_clear_resets_store_counters_view(self, tmp_path, ktree_tid):
        engine = CompilationEngine(store=tmp_path / "store")
        engine.probability(unsafe_rst(), ktree_tid, method="obdd")
        engine.clear()
        assert engine.stats["store"].hits == 0
        assert engine.stats["store"].misses == 0
        assert engine.stats["store"].quarantines == 0

    def test_parallel_workers_share_one_store(self, tmp_path, ktree_tid):
        root = tmp_path / "store"
        queries = [unsafe_rst(), parse_ucq("R(x), S(x, y)"), parse_ucq("R(x)")]
        serial = CompilationEngine()
        expected = [
            serial.probability(query, ktree_tid, method="obdd") for query in queries
        ]
        with ParallelEngine(workers=2, store=root) as warmup:
            values = warmup.probability_many(queries, ktree_tid, method="obdd")
        assert values == expected
        assert ArtifactStore(root).stats().entries >= len(queries)

        # A second pool (fresh worker processes) reads everything back.
        with ParallelEngine(workers=2, store=root) as pool:
            again = pool.probability_many(queries, ktree_tid, method="obdd")
            report = pool.last_report
        assert again == expected
        merged = report.stats
        assert merged["store"].hits == len(queries)
        assert merged["lineage"].misses == 0

    def test_parallel_store_accepts_open_store(self, tmp_path, ktree_tid):
        opened = ArtifactStore(tmp_path / "store")
        with ParallelEngine(workers=1, store=opened) as pool:
            value = pool.probability_many([unsafe_rst()], ktree_tid, method="obdd")[0]
        assert value == CompilationEngine().probability(
            unsafe_rst(), ktree_tid, method="obdd"
        )
        assert opened.stats().entries >= 1

    def test_a_later_parallel_batch_reports_no_earlier_quarantine(self, tmp_path, ktree_tid):
        root = tmp_path / "store"
        CompilationEngine(store=root).probability(unsafe_rst(), ktree_tid, method="obdd")
        corrupt_last_byte(entry_files(ArtifactStore(root))[0])
        with ParallelEngine(workers=1, store=root) as parallel:
            parallel.probability_many([unsafe_rst()], ktree_tid, method="obdd")
            assert str(parallel.last_report.stats["store"]) == "0 hits / 1 misses / 1 quarantined"
            # The probability cache answers: this batch never reads the store.
            parallel.probability_many([unsafe_rst()], ktree_tid, method="obdd")
            assert str(parallel.last_report.stats["store"]) == "0 hits / 0 misses"


# -- checksum-valid entries with malformed contents ------------------------------


def columnar_payload(sidecar: bytes, columns: list[int], positions: list[int] | bytes) -> bytes:
    """A columnar payload laid out as the writer lays it out: the sidecar's
    length, the sidecar, padding to 8 bytes, the int64 ``var|lo|hi``
    columns, then the order's positions (raw bytes pass through)."""
    offset = (8 + len(sidecar) + 7) // 8 * 8
    head = bytearray(offset)
    struct.pack_into("<Q", head, 0, len(sidecar))
    head[8 : 8 + len(sidecar)] = sidecar
    if not isinstance(positions, bytes):
        positions = struct.pack(f"<{len(positions)}q", *positions)
    return bytes(head) + struct.pack(f"<{len(columns)}q", *columns) + positions


def sidecar(**fields) -> bytes:
    return json.dumps(fields).encode()


ONE_NODE = sidecar(node_count=1, root=2)

# Each is packed with pack_entry, so its checksum passes: only the contents
# are malformed.
MALFORMED_COLUMNAR = {
    "level past the order": (ONE_NODE, [5, 0, 1], [0]),
    "no root": (sidecar(node_count=1), [0, 0, 1], [0]),
    "node_count is None": (sidecar(node_count=None, root=2), [0, 0, 1], [0]),
    "root past the columns": (sidecar(node_count=1, root=9), [0, 0, 1], [0]),
    "position past the instance": (ONE_NODE, [0, 0, 1], [10**6]),
    "negative position": (ONE_NODE, [0, 0, 1], [-1]),
    "repeated position": (ONE_NODE, [0, 0, 1], [3, 3]),
    "ragged position column": (ONE_NODE, [0, 0, 1], struct.pack("<q", 0) + b"\0\0\0"),
    "malformed JSON sidecar": (b'{"node_count": 1, "root"', [0, 0, 1], [0]),
    "deeply nested JSON sidecar": (b"[" * 100_000 + b"]" * 100_000, [0, 0, 1], [0]),
    "sidecar is not an object": (b"[1, 2]", [0, 0, 1], [0]),
    "pickle bytes as the sidecar": (pickle.dumps({"node_count": 1, "root": 2}), [0, 0, 1], [0]),
}


def overwrite(path: str, blob: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(blob)


def plant(path: str, key: str, name: str) -> None:
    """Overwrite the entry file at ``path`` with a malformed columnar entry."""
    payload = columnar_payload(*MALFORMED_COLUMNAR[name])
    overwrite(path, pack_entry(key, CODEC_COLUMNAR, {"kind": "columnar"}, payload))


class TestMalformedColumnarEntries:
    @pytest.mark.parametrize("name", sorted(MALFORMED_COLUMNAR))
    def test_store_quarantines_and_misses(self, tmp_path, artifact, instance, name):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {"kind": "columnar"})
        plant(entry_files(store)[0], KEY_A, name)
        assert store.get_columnar(KEY_A, instance) is None
        assert store.counters.misses == 1
        assert store.counters.quarantines == 1
        assert not entry_files(store)
        assert "columnar" in store.quarantine_list()[0].reason

    @pytest.mark.parametrize("method", ["obdd", "auto"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_COLUMNAR))
    def test_engine_recompiles_exactly(self, tmp_path, name, method):
        # A lineage that is not read-once, so auto compiles the OBDD too.
        query = two_incident_same_direction()
        tid = ProbabilisticInstance.uniform(directed_path_instance(12), Fraction(1, 3))
        root = tmp_path / "store"
        value = CompilationEngine(store=root).probability(query, tid, method=method)
        (path,) = [
            path
            for path in entry_files(ArtifactStore(root))
            if parse_header(open(path, "rb").read()).codec == CODEC_COLUMNAR
        ]
        plant(path, os.path.basename(path).split(".")[0], name)
        for _ in range(2):
            engine = CompilationEngine(store=root)
            assert engine.probability(query, tid, method=method) == value
            if method == "auto":
                assert [a.route for a in engine.last_decision.attempts] == ["obdd"]
        # The first engine quarantined the entry and wrote the recompiled
        # artifact behind; the second read it back.
        assert ArtifactStore(root).stats().quarantined == 1
        assert engine.stats["store"].misses == engine.stats["store"].quarantines == 0


class _Announce:
    """Unpickles by calling ``print``: a store read must never run it."""

    def __reduce__(self):
        return (print, ("a store read ran code",))


# An entry written by an earlier version of the library (format version 1,
# whose sidecar pickled the variable order as Fact objects): the columnar
# artifact of unsafe_rst() on labelled_partial_ktree_instance(6, 2, seed=3).
FORMAT_V1_STORE = Path(__file__).parent / "data" / "store_format_v1"


class TestStoreReadsRunNoCode:
    def test_crafted_sidecar_is_a_quarantined_miss_that_prints_nothing(
        self, tmp_path, artifact, instance, capsys
    ):
        store = ArtifactStore(tmp_path / "store")
        store.put_columnar(KEY_A, artifact, instance, {"kind": "columnar"})
        pickled = pickle.dumps({"node_count": 1, "root": 2, "order": [_Announce()]})
        payload = columnar_payload(pickled, [0, 0, 1], [0])
        overwrite(entry_files(store)[0], pack_entry(KEY_A, CODEC_COLUMNAR, {}, payload))
        assert store.get_columnar(KEY_A, instance) is None
        assert capsys.readouterr().out == ""
        assert store.counters.quarantines == 1
        assert not entry_files(store)
        assert "corrupt columnar sidecar" in store.quarantine_list()[0].reason

    def test_crafted_object_entry_is_a_quarantined_miss(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "store")
        store.put_object(KEY_A, "placeholder", {"kind": "misc"})
        blob = pack_entry(KEY_A, CODEC_JSON, {"kind": "misc"}, pickle.dumps(_Announce()))
        overwrite(entry_files(store)[0], blob)
        assert store.get_object(KEY_A) == (False, None)
        assert capsys.readouterr().out == ""
        assert store.counters.quarantines == 1

    def test_verify_quarantines_a_crafted_entry(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "store")
        store.put_object(KEY_A, "placeholder", {"kind": "misc"})
        blob = pack_entry(KEY_A, CODEC_JSON, {"kind": "misc"}, pickle.dumps(_Announce()))
        overwrite(entry_files(store)[0], blob)
        report = store.verify()
        assert report.quarantined == [KEY_A]
        assert capsys.readouterr().out == ""

    def test_format_v1_columnar_entry_is_quarantined_then_rewritten(self, tmp_path):
        root = tmp_path / "store"
        shutil.copytree(FORMAT_V1_STORE, root)
        instance = labelled_partial_ktree_instance(6, 2, seed=3)
        tid = ProbabilisticInstance.uniform(instance, Fraction(1, 3))
        expected = CompilationEngine().probability(unsafe_rst(), tid, "obdd")
        engine = CompilationEngine(store=root)
        assert engine.probability(unsafe_rst(), tid, "obdd") == expected
        assert engine.stats["store"].misses == engine.stats["store"].quarantines == 1
        (record,) = engine.store.quarantine_list()
        assert "format version 1" in record.reason
        # The recompiled artifact was written behind in the current format.
        restarted = CompilationEngine(store=root)
        assert restarted.probability(unsafe_rst(), tid, "obdd") == expected
        assert restarted.stats["store"].hits == 1
        assert restarted.stats["store"].misses == restarted.stats["store"].quarantines == 0
        assert restarted.stats["lineage"].total == 0
        assert entry_kinds(root) == ["columnar"]


def _region(blob: bytes, name: str, node_count: int) -> tuple[int, int]:
    header = parse_header(blob)
    if name == "header":
        return 0, header.meta_offset
    if name == "meta":
        return header.meta_offset, header.meta_offset + header.meta_len
    (sidecar_len,) = struct.unpack_from("<Q", blob, header.payload_offset)
    if name == "sidecar":
        return header.payload_offset, header.payload_offset + 8 + sidecar_len
    # The positions fill the payload after the aligned var|lo|hi columns.
    columns = header.payload_offset + (8 + sidecar_len + 7) // 8 * 8
    return columns + 3 * 8 * node_count, header.payload_offset + header.payload_len


@settings(max_examples=150, deadline=None)
@given(
    region=st.sampled_from(["header", "meta", "sidecar", "positions"]),
    edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)), min_size=1, max_size=8),
    repack=st.booleans(),
)
def test_get_columnar_never_raises_on_overwritten_bytes(artifact, instance, region, edits, repack):
    """Random bytes over a valid entry's header, meta region, JSON sidecar
    or position column, with the payload checksum left as it was or
    recomputed: the read returns an artifact whose order is distinct facts
    of the instance, or a miss that quarantines the entry."""
    payload = encode_columnar(artifact, instance)
    blob = bytearray(pack_entry(KEY_A, CODEC_COLUMNAR, {"kind": "columnar"}, payload))
    header = parse_header(blob)
    start, stop = _region(bytes(blob), region, len(artifact))
    assert stop > start
    for where, value in edits:
        blob[start + int(where * (stop - start))] = value
    if repack:
        payload = blob[header.payload_offset : header.payload_offset + header.payload_len]
        blob[CHECKSUM_OFFSET : CHECKSUM_OFFSET + 32] = hashlib.sha256(payload).digest()
    with tempfile.TemporaryDirectory() as directory:
        store = ArtifactStore(directory)
        store.put_columnar(KEY_A, artifact, instance, {"kind": "columnar"})
        with open(entry_files(store)[0], "wb") as handle:
            handle.write(blob)
        loaded = store.get_columnar(KEY_A, instance)
        if loaded is None:
            assert store.counters.quarantines == 1
            assert not entry_files(store)
        else:
            assert isinstance(loaded, ColumnarOBDD)
            facts = {id(fact) for fact in instance.facts}
            order = [id(fact) for fact in loaded.order]
            assert set(order) <= facts and len(set(order)) == len(order)
        del loaded


# -- CLI ------------------------------------------------------------------------


@pytest.fixture()
def chain_json(tmp_path):
    tid = ProbabilisticInstance.uniform(rst_chain_instance(2), Fraction(1, 2))
    path = tmp_path / "chain.json"
    save_instance(tid, path)
    return path, tid


class TestCLI:
    def test_store_warm_start_across_invocations(self, chain_json, tmp_path, capsys):
        path, tid = chain_json
        root = str(tmp_path / "store")
        query = "R(x), S(x, y)"
        args = [
            "batch", str(path), "--query", query,
            "--method", "obdd", "--stats", "--store", root,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache[store]: 0 hits / 1 misses" in first
        # Second invocation: a fresh engine (the CLI builds one per call)
        # answers from the store with zero compilations.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache[store]: 1 hits / 0 misses" in second
        assert "cache[lineage]: 0 hits / 0 misses" in second
        value_line = first.splitlines()[0]
        assert second.splitlines()[0] == value_line

    def test_probability_store_corruption_still_exact(self, chain_json, tmp_path, capsys):
        from repro.probability.evaluation import probability

        path, tid = chain_json
        root = tmp_path / "store"
        query = "R(x), S(x, y)"
        expected = probability(parse_ucq(query), tid, method="obdd")
        args = [
            "probability", str(path), "--query", query,
            "--method", "obdd", "--store", str(root),
        ]
        assert main(args) == 0
        assert str(expected) in capsys.readouterr().out
        for entry in glob.glob(str(root / "objects" / "*" / "*.entry")):
            corrupt_last_byte(entry)
        assert main(args) == 0
        assert str(expected) in capsys.readouterr().out

    def test_store_stats_and_quarantine_list(self, chain_json, tmp_path, capsys):
        path, _ = chain_json
        root = str(tmp_path / "store")
        main([
            "probability", str(path), "--query", "R(x)",
            "--method", "obdd", "--store", root,
        ])
        capsys.readouterr()
        assert main(["store", "stats", root]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert main(["store", "quarantine-list", root]) == 0
        assert "quarantine is empty" in capsys.readouterr().out

    def test_store_verify_exit_codes_and_repair(self, chain_json, tmp_path, capsys):
        path, _ = chain_json
        root = str(tmp_path / "store")
        probability_args = [
            "probability", str(path), "--query", "R(x), S(x, y)",
            "--method", "obdd", "--store", root,
        ]
        main(probability_args)
        capsys.readouterr()
        assert main(["store", "verify", root]) == 0

        for entry in glob.glob(os.path.join(root, "objects", "*", "*.entry")):
            corrupt_last_byte(entry)
        assert main(["store", "verify", root]) == 1  # damage found -> failure code
        out = capsys.readouterr().out
        assert "damaged" in out and "quarantined" in out
        assert main(["store", "quarantine-list", root]) == 0
        assert "checksum" in capsys.readouterr().out

        # Recompile, corrupt again, repair from the source instance.
        main(probability_args)
        for entry in glob.glob(os.path.join(root, "objects", "*", "*.entry")):
            corrupt_last_byte(entry)
        capsys.readouterr()
        assert main(["store", "verify", root, "--repair", "--instance", str(path)]) == 0
        assert "repaired" in capsys.readouterr().out
        assert main(["store", "verify", root]) == 0

    def test_store_verify_repair_without_instance_deletes(
        self, chain_json, tmp_path, capsys
    ):
        path, _ = chain_json
        root = str(tmp_path / "store")
        main([
            "probability", str(path), "--query", "R(x)",
            "--method", "obdd", "--store", root,
        ])
        for entry in glob.glob(os.path.join(root, "objects", "*", "*.entry")):
            corrupt_last_byte(entry)
        capsys.readouterr()
        assert main(["store", "verify", root, "--repair"]) == 0
        assert "deleted" in capsys.readouterr().out
        assert main(["store", "verify", root]) == 0  # nothing damaged remains

    def test_store_gc_command(self, chain_json, tmp_path, capsys):
        path, _ = chain_json
        root = str(tmp_path / "store")
        main([
            "probability", str(path), "--query", "R(x)",
            "--method", "obdd", "--store", root,
        ])
        capsys.readouterr()
        assert main(["store", "gc", root, "--max-bytes", "0"]) == 0
        assert "evicted 1 entries" in capsys.readouterr().out

    def test_lineage_accepts_store(self, chain_json, tmp_path, capsys):
        path, _ = chain_json
        root = str(tmp_path / "store")
        assert main([
            "lineage", str(path), "--query", "R(x), S(x, y)", "--store", root,
        ]) == 0
        assert "OBDD size" in capsys.readouterr().out
