"""Tests for the indexed, cached compilation engine (repro.engine)."""

from fractions import Fraction

import pytest

from repro.data.instance import Instance, fact
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance
from repro.engine import ROUTES, CacheStats, CompilationEngine, default_engine
from repro.errors import CompilationError, ProbabilityError, SignatureError
from repro.generators import (
    directed_path_instance,
    labelled_partial_ktree_instance,
    rst_bipartite_instance,
)
from repro.probability.evaluation import probability
from repro.provenance.compile_obdd import compile_query_to_obdd
from repro.provenance.lineage import lineage_of
from repro.queries import parse_ucq, qp, unsafe_rst
from repro.queries.library import hierarchical_example


@pytest.fixture()
def ktree_tid():
    instance = labelled_partial_ktree_instance(12, 2, seed=3)
    return ProbabilisticInstance.uniform(instance, Fraction(1, 2))


def test_cached_compilation_identical_to_cold(ktree_tid):
    engine = CompilationEngine()
    instance = ktree_tid.instance
    cold = compile_query_to_obdd(unsafe_rst(), instance)
    warm_first = engine.compile(unsafe_rst(), instance)
    warm_second = engine.compile(unsafe_rst(), instance)
    assert warm_second is warm_first
    assert warm_first.size == cold.size
    assert warm_first.width == cold.width
    assert warm_first.order == cold.order
    valuation = ktree_tid.valuation()
    assert warm_first.probability(valuation) == cold.probability(valuation)


def test_cached_probability_identical_to_cold(ktree_tid):
    engine = CompilationEngine()
    for method in ("auto", "obdd", "dnnf"):
        cold = probability(unsafe_rst(), ktree_tid, method=method)
        warm = engine.probability(unsafe_rst(), ktree_tid, method=method)
        again = engine.probability(unsafe_rst(), ktree_tid, method=method)
        assert warm == cold == again, method
    assert engine.stats["probability"].hits > 0


def test_probability_entry_point_accepts_engine(ktree_tid):
    engine = CompilationEngine()
    value = probability(unsafe_rst(), ktree_tid, engine=engine)
    assert value == probability(unsafe_rst(), ktree_tid)
    assert engine.stats["probability"].misses == 1
    probability(unsafe_rst(), ktree_tid, engine=engine)
    assert engine.stats["probability"].hits == 1


def test_lineage_and_compile_entry_points_accept_engine(ktree_tid):
    engine = CompilationEngine()
    instance = ktree_tid.instance
    first = lineage_of(unsafe_rst(), instance, engine=engine)
    second = lineage_of(unsafe_rst(), instance, engine=engine)
    assert second is first
    compiled = compile_query_to_obdd(unsafe_rst(), instance, engine=engine)
    assert compile_query_to_obdd(unsafe_rst(), instance, engine=engine) is compiled


def test_fingerprint_is_content_based():
    left = Instance([fact("E", "a", "b")])
    right = Instance([fact("E", "a", "b")])
    assert left.fingerprint == right.fingerprint
    grown = left.with_facts([fact("E", "b", "c")])
    assert grown.fingerprint != left.fingerprint
    # TID fingerprints also depend on the probabilities.
    half = ProbabilisticInstance.uniform(left, Fraction(1, 2))
    third = ProbabilisticInstance.uniform(left, Fraction(1, 3))
    assert half.fingerprint != third.fingerprint
    assert half.fingerprint == ProbabilisticInstance.uniform(right, Fraction(1, 2)).fingerprint


def test_derived_instance_does_not_reuse_cache(ktree_tid):
    engine = CompilationEngine()
    instance = ktree_tid.instance
    engine.compile(unsafe_rst(), instance)
    grown = instance.with_facts([fact("S", "fresh-a", "fresh-b")])
    compiled = engine.compile(unsafe_rst(), grown)
    assert engine.stats["obdd"].misses == 2
    assert set(compiled.order) == set(grown.facts)


def test_structural_artifacts_cached(ktree_tid):
    engine = CompilationEngine()
    instance = ktree_tid.instance
    assert engine.gaifman(instance) is engine.gaifman(instance)
    assert engine.tree_decomposition_of(instance) is engine.tree_decomposition_of(instance)
    assert engine.path_decomposition_of(instance) is engine.path_decomposition_of(instance)
    assert engine.fact_order(instance) == engine.fact_order(instance)
    assert engine.stats["structure"].hits > 0
    with pytest.raises(CompilationError):
        engine.fact_order(instance, kind="zigzag")


def test_compile_many_and_probability_many(ktree_tid):
    engine = CompilationEngine()
    instance = ktree_tid.instance
    queries = [unsafe_rst(), qp(instance.signature), unsafe_rst()]
    compiled = engine.compile_many(queries, instance)
    assert len(compiled) == 3
    assert compiled[0] is compiled[2]
    values = engine.probability_many(queries, ktree_tid)
    assert values[0] == values[2] == probability(unsafe_rst(), ktree_tid)
    assert values[1] == probability(qp(instance.signature), ktree_tid)


def test_read_once_method_still_rejects_shared_facts():
    instance = rst_bipartite_instance(2)
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    engine = CompilationEngine()
    with pytest.raises(ProbabilityError):
        engine.probability(unsafe_rst(), tid, method="read_once")


def test_lru_eviction_bounds_live_instances():
    engine = CompilationEngine(max_instances=2)
    instances = [Instance([fact("E", f"a{i}", f"b{i}")]) for i in range(4)]
    for instance in instances:
        engine.gaifman(instance)
    assert len(engine._artifacts) == 2
    engine.clear()
    assert len(engine._artifacts) == 0
    assert engine.stats["structure"].total == 0
    with pytest.raises(CompilationError):
        CompilationEngine(max_instances=0)


def test_lru_eviction_bounds_queries_per_instance():
    engine = CompilationEngine(max_queries_per_instance=2)
    instance = Instance([fact("E", "a", "b"), fact("E", "b", "c"), fact("R", "a")])
    queries = [parse_ucq(text) for text in ("E(x, y)", "R(x)", "E(x, y), E(y, z)")]
    for query in queries:
        engine.compile(query, instance)
    slot = engine._artifacts[instance.fingerprint]
    assert len(slot.compiled) == 2
    assert len(slot.lineages) == 2
    # The evicted (oldest) query simply recompiles and stays correct.
    recompiled = engine.compile(queries[0], instance)
    assert engine.stats["obdd"].misses == 4
    assert recompiled.size == engine.compile(queries[0], instance).size
    with pytest.raises(CompilationError):
        CompilationEngine(max_queries_per_instance=0)


def test_lru_eviction_bounds_probability_entries(ktree_tid):
    engine = CompilationEngine(max_probability_entries=2)
    queries = [parse_ucq(text) for text in ("R(x)", "T(x)", "R(x), S(x, y)")]
    values = [engine.probability(q, ktree_tid) for q in queries]
    assert len(engine._probabilities) == 2
    # The evicted (oldest) entry recomputes to the same value: a miss, not a bug.
    assert engine.probability(queries[0], ktree_tid) == values[0]
    assert engine.stats["probability"].misses == 4
    with pytest.raises(CompilationError):
        CompilationEngine(max_probability_entries=0)


def test_lru_eviction_respects_recency(ktree_tid):
    engine = CompilationEngine(max_probability_entries=2)
    queries = [parse_ucq(text) for text in ("R(x)", "T(x)", "R(x), S(x, y)")]
    engine.probability(queries[0], ktree_tid)
    engine.probability(queries[1], ktree_tid)
    engine.probability(queries[0], ktree_tid)  # touch: [0] becomes most recent
    engine.probability(queries[2], ktree_tid)  # evicts [1], not [0]
    hits_before = engine.stats["probability"].hits
    engine.probability(queries[0], ktree_tid)
    assert engine.stats["probability"].hits == hits_before + 1


def test_clear_mid_batch_keeps_results_correct(ktree_tid):
    engine = CompilationEngine()
    queries = [unsafe_rst(), qp(ktree_tid.instance.signature)]
    before = engine.probability_many(queries, ktree_tid)
    engine.clear()
    assert len(engine._artifacts) == 0 and len(engine._probabilities) == 0
    assert all(stats.total == 0 for stats in engine.stats.values())
    after = engine.probability_many(queries, ktree_tid)
    assert after == before
    # The rerun was all misses (nothing survived the clear)...
    assert engine.stats["probability"].hits == 0
    # ...and the caches warmed back up.
    assert engine.probability_many(queries, ktree_tid) == before
    assert engine.stats["probability"].hits == len(queries)


# -- the probability cache holds the TID object, weakly ------------------------


def _lifted_tid(k: int = 6, width: int = 4) -> ProbabilisticInstance:
    facts = [fact("R", f"a{i}") for i in range(k)]
    facts += [fact("S", f"a{i}", f"b{j}") for i in range(k) for j in range(width)]
    return ProbabilisticInstance(
        Instance(facts), {f: Fraction(n % 9 + 1, 10) for n, f in enumerate(facts)}
    )


@pytest.mark.parametrize("method", ["auto", "safe_plan"])
@pytest.mark.parametrize("circuit_fact_limit", [20000, 1])
def test_safe_plan_request_computes_no_fingerprint(method, circuit_fact_limit):
    tid = _lifted_tid()
    engine = CompilationEngine(circuit_fact_limit=circuit_fact_limit)
    value = engine.probability(hierarchical_example(), tid, method)
    assert value == probability(hierarchical_example(), _lifted_tid(), "obdd")
    assert tid._fingerprint is None
    assert tid.instance._fingerprint is None
    if method == "auto":
        assert engine.route_mix() == {"safe_plan": 1}
        expected = ("obdd", "automaton") if circuit_fact_limit == 1 else ()
        assert engine.last_decision.infeasible == expected
    # An engine that already holds a compiled path: past the limit, its
    # circuit peeks tell the two instances apart by fact count.
    engine = CompilationEngine(circuit_fact_limit=circuit_fact_limit)
    path = directed_path_instance(20)
    engine.compile(parse_ucq("E(x, y), E(y, z)"), path)
    assert len(path) != len(tid.instance)
    assert engine.probability(hierarchical_example(), tid, method) == value
    assert tid._fingerprint is None
    assert tid.instance._fingerprint is None


def test_probability_cache_hits_the_same_tid_object_only(ktree_tid):
    engine = CompilationEngine()
    first = engine.probability(unsafe_rst(), ktree_tid)
    assert engine.probability(unsafe_rst(), ktree_tid) is first
    assert engine.stats["probability"].hits == 1
    twin = ProbabilisticInstance.uniform(ktree_tid.instance, Fraction(1, 2))
    assert twin.fingerprint == ktree_tid.fingerprint
    again = engine.probability(unsafe_rst(), twin)
    assert isinstance(again, Fraction) and again == first
    assert engine.stats["probability"].misses == 2
    # The twin recomputed its answer on the instance's cached circuit...
    assert engine.stats["obdd"].misses == 1
    # ...and so does a TID over a separately built, content-equal instance.
    rebuilt = labelled_partial_ktree_instance(12, 2, seed=3)
    assert rebuilt is not ktree_tid.instance
    assert engine.probability(unsafe_rst(), ProbabilisticInstance.uniform(rebuilt)) == first
    assert engine.stats["probability"].misses == 3
    assert engine.stats["obdd"].misses == 1
    # The rebuilt TID is gone; the next call drops its entry.
    assert engine.probability(unsafe_rst(), ktree_tid) is first
    assert len(engine._probabilities) == 2


def test_probability_entries_leave_with_their_tid(ktree_tid):
    import gc
    import weakref

    engine = CompilationEngine()
    tid = ProbabilisticInstance.uniform(ktree_tid.instance, Fraction(1, 3))
    engine.probability(unsafe_rst(), tid)
    engine.probability(unsafe_rst(), tid, "obdd")
    assert len(engine._probabilities) == 2
    dead = weakref.ref(tid)
    del tid
    gc.collect()
    assert dead() is None  # no cache entry kept it alive
    engine.probability(unsafe_rst(), ktree_tid)
    assert len(engine._probabilities) == 1
    assert engine._collected == []


def test_merged_parallel_stats_equal_sum_of_worker_stats(ktree_tid):
    from repro.engine import ParallelEngine, merge_cache_stats

    queries = [unsafe_rst(), qp(ktree_tid.instance.signature), unsafe_rst(), unsafe_rst()]
    with ParallelEngine(workers=2) as parallel:
        parallel.probability_many(queries, ktree_tid)
    report = parallel.last_report
    assert report.items == len(queries)
    merged = report.stats
    for name in merged:
        assert merged[name].hits == sum(stats[name].hits for stats in report.worker_stats)
        assert merged[name].misses == sum(
            stats[name].misses for stats in report.worker_stats
        )
    # Every item was evaluated exactly once across the fleet.
    assert merged["probability"].total == len(queries)
    assert merge_cache_stats(report.worker_stats)["probability"].total == len(queries)


def test_cache_stats_formatting():
    stats = CacheStats(hits=3, misses=1)
    assert stats.total == 4
    assert stats.hit_rate == 0.75
    assert "3 hits" in str(stats)
    assert (CacheStats(1, 2) + CacheStats(3, 4)) == CacheStats(4, 6)
    copied = stats.copy()
    copied.record(hit=True)
    assert stats.hits == 3 and copied.hits == 4


def test_default_engine_is_a_singleton():
    assert default_engine() is default_engine()
    assert isinstance(default_engine(), CompilationEngine)


# -- query atoms against the instance signature ---------------------------------


@pytest.fixture()
def unary_tid():
    instance = Instance([fact("R", "a"), fact("R", "b")], Signature.of(R=1))
    return ProbabilisticInstance.uniform(instance, Fraction(1, 2))


@pytest.mark.parametrize("method", list(ROUTES))
def test_query_arity_mismatch_is_a_signature_error_on_every_route(method, unary_tid):
    # With the degradation tier on, ``auto`` could otherwise fail over or
    # answer with bounds; the check runs before any route.
    engine = CompilationEngine(degradation="karp_luby")
    with pytest.raises(SignatureError, match=r"R\(x, y\).*R/1"):
        engine.probability(parse_ucq("R(x, y)"), unary_tid, method)
    assert engine.route_mix() == {}


def test_lineage_rejects_query_arity_mismatch(unary_tid):
    with pytest.raises(SignatureError, match="R/1"):
        CompilationEngine().lineage(parse_ucq("R(x), R(x, y)"), unary_tid.instance)


@pytest.mark.parametrize("method", list(ROUTES))
def test_relations_missing_from_the_signature_contribute_zero(method, unary_tid):
    assert CompilationEngine().probability(parse_ucq("R(x), T(x, y)"), unary_tid, method) == 0
