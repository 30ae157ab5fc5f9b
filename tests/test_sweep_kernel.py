"""Differential tests for the iterative compilation kernels (tier-1).

Three layers of cross-checking for the PR-4 rewrite:

* **property-based** (hypothesis): on random monotone DNFs, the trie-driven
  construction and the seed apply-fold produce the *same reduced root id* in
  the same manager, and the OBDD evaluation kernel (the columnar passes of
  :mod:`repro.booleans.columnar`) agrees with the seed recursive walks
  (probability, model count, width) on random dyadic probabilities;
* **workload-based**: the same equivalences on real lineages from the seeded
  ``random_workload`` families, plus a full :class:`ProbabilityOracle` sweep
  (brute force / OBDD / d-DNNF / auto / safe plans / bounds) running on the
  new kernels;
* **unit**: the manager-level restrict cache, the balanced n-ary combine,
  and the float pass with its exact fallback.

The exact kernels compute in scaled integers (the OBDD recurrence over the
columns, the read-once product and the lifted executor); the last group
checks them against ``Fraction`` references on mixed denominators,
probabilities 0 and 1, float inputs, levels the diagram skips and variables
it never tests, on in-process ``array('q')`` columns and on columns read back
from a packed buffer with and without numpy.
"""

import os
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans.columnar import columnar_from_buffer
from repro.booleans.obdd import FALSE_NODE, TRUE_NODE, OBDD
from repro.booleans.reference import (
    build_from_clauses_fold,
    model_count_recursive,
    probability_recursive,
    width_by_cuts,
)
from repro.data.instance import Instance, fact
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.errors import ProbabilityError
from repro.generators import directed_path_instance, rst_chain_instance
from repro.probability.brute_force import brute_force_probability
from repro.probability.evaluation import _probability_of_read_once, probability
from repro.probability.lifted import execute_plan, try_lifted_plan
from repro.probability.lifted.reference import execute_plan_reference
from repro.provenance.lineage import MonotoneDNFLineage, lineage_of
from repro.queries.library import two_incident_same_direction, unsafe_rst
from repro.testing import ProbabilityOracle, random_workload

VARIABLES = [f"v{i}" for i in range(8)]

clauses_strategy = st.lists(
    st.sets(st.sampled_from(VARIABLES), min_size=1, max_size=4).map(lambda s: tuple(sorted(s))),
    min_size=0,
    max_size=8,
)
probabilities_strategy = st.fixed_dictionaries(
    {v: st.integers(min_value=0, max_value=8).map(lambda k: Fraction(k, 8)) for v in VARIABLES}
)


@settings(max_examples=80, deadline=None)
@given(clauses=clauses_strategy)
def test_trie_and_fold_build_the_same_reduced_root(clauses):
    manager = OBDD(VARIABLES)
    fold_root = build_from_clauses_fold(manager, clauses)
    trie_root = manager.build_from_clauses(clauses)
    # Reduced OBDDs are canonical per (function, order); with hash-consing in
    # one shared manager the two constructions must intern the same node.
    assert trie_root == fold_root


@settings(max_examples=60, deadline=None)
@given(clauses=clauses_strategy, probabilities=probabilities_strategy)
def test_sweep_agrees_with_seed_recursive_walks(clauses, probabilities):
    manager = OBDD(VARIABLES)
    root = manager.build_from_clauses(clauses)
    result = manager.to_columnar(root).sweep(probabilities, model_count=True, width=True)
    if root > TRUE_NODE:
        assert result.probability == probability_recursive(manager, root, probabilities)
    else:
        assert result.probability == Fraction(1 if root == TRUE_NODE else 0)
    assert result.model_count == model_count_recursive(manager, root)
    assert result.width == width_by_cuts(manager, root)
    assert result.size == len(manager.reachable_nodes(root))


@settings(max_examples=40, deadline=None)
@given(clauses=clauses_strategy, probabilities=probabilities_strategy)
def test_float_fast_path_tracks_the_exact_kernel(clauses, probabilities):
    manager = OBDD(VARIABLES)
    root = manager.build_from_clauses(clauses)
    columnar = manager.to_columnar(root)
    exact = (
        probability_recursive(manager, root, probabilities)
        if root > TRUE_NODE
        else Fraction(root)
    )
    assert columnar.probability(probabilities) == exact
    fast = columnar.probability(probabilities, exact=False)
    assert isinstance(fast, float)
    assert abs(fast - float(exact)) < 1e-9


def test_trie_matches_fold_on_workload_lineages():
    engine = CompilationEngine()
    for case in random_workload(25, seed=20260727):
        lineage = engine.lineage(case.query, case.tid.instance)
        order = engine.fact_order(case.tid.instance)
        manager = OBDD(list(order))
        fold_root = build_from_clauses_fold(
            manager, [sorted(c, key=str) for c in lineage.clauses]
        )
        trie_root = manager.build_from_clauses(lineage.clauses)
        assert trie_root == fold_root
        valuation = case.tid.valuation()
        result = manager.to_columnar(trie_root).sweep(valuation, model_count=True, width=True)
        if trie_root > TRUE_NODE:
            assert result.probability == probability_recursive(manager, trie_root, valuation)
        assert result.model_count == model_count_recursive(manager, trie_root)
        assert result.width == width_by_cuts(manager, trie_root)


def test_probability_oracle_passes_on_the_new_kernels():
    oracle = ProbabilityOracle()
    reports = oracle.check_many(random_workload(15, seed=424242))
    assert len(reports) == 15
    for report in reports:
        assert not report.disagreements()


def test_restrict_uses_a_manager_level_cache():
    manager = OBDD(["a", "b", "c"])
    root = manager.build_from_clauses([("a", "b"), ("b", "c")])
    assert not manager._restrict_cache
    restricted = manager.restrict(root, "b", True)
    assert manager._restrict_cache
    entries = dict(manager._restrict_cache)
    assert manager.restrict(root, "b", True) == restricted
    assert manager._restrict_cache == entries  # served from cache, no growth
    # Semantics: the cofactor agrees with evaluation under the fixed value.
    for mask in range(4):
        valuation = {"a": bool(mask & 1), "c": bool(mask & 2), "b": True}
        assert manager.evaluate(restricted, valuation) == manager.evaluate(root, valuation)


def test_balanced_nary_combine_is_equivalent_to_folding():
    manager = OBDD([f"x{i}" for i in range(7)])
    literals = [manager.literal(f"x{i}") for i in range(7)]
    conj = manager.conjunction(literals)
    disj = manager.disjunction(literals)
    fold_and = TRUE_NODE
    fold_or = FALSE_NODE
    for literal in literals:
        fold_and = manager.apply_and(fold_and, literal)
        fold_or = manager.apply_or(fold_or, literal)
    assert conj == fold_and
    assert disj == fold_or
    assert manager.conjunction([]) == TRUE_NODE
    assert manager.disjunction([]) == FALSE_NODE


def test_dnnf_evaluate_short_circuits_partial_valuations():
    from repro.booleans.dnnf import DNNF

    dnnf = DNNF()
    x = dnnf.literal("x")
    y = dnnf.literal("y")
    either = dnnf.disjunction([x, y])
    dnnf.set_output(either)
    # The outcome never depends on y, so y may be absent from the valuation
    # (demand-driven left-to-right evaluation, as in the recursive original).
    assert dnnf.evaluate({"x": True})
    both = dnnf.conjunction([dnnf.literal("x"), dnnf.literal("y")])
    assert not dnnf.evaluate({"x": False}, both)
    with pytest.raises(KeyError):
        dnnf.evaluate({"y": False})  # here x is genuinely needed


def test_obdd_float_method_is_wired_end_to_end():
    case = random_workload(1, seed=99)[0]
    exact = probability(case.query, case.tid, method="obdd")
    fast = probability(case.query, case.tid, method="obdd_float")
    assert isinstance(fast, float)
    assert abs(fast - float(exact)) < 1e-9
    engine = CompilationEngine()
    cached = engine.probability(case.query, case.tid, method="obdd_float")
    assert isinstance(cached, float)
    assert cached == pytest.approx(fast)
    # Served from the probability cache on the second call.
    assert engine.probability(case.query, case.tid, method="obdd_float") == cached
    assert engine.stats["probability"].hits >= 1


# -- the scaled-integer kernels ---------------------------------------------------

MIXED_VARIABLES = [f"w{i}" for i in range(10)]
# Clauses use the first seven variables only: the last three sit in the
# order as variables the diagram never tests.
USED_VARIABLES = MIXED_VARIABLES[:7]
MIXED_PROBABILITIES = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 7),
    Fraction(5, 11),
    Fraction(999, 1000),
]

mixed_probability = st.one_of(
    st.sampled_from(MIXED_PROBABILITIES), st.floats(min_value=0.0, max_value=1.0)
)
mixed_map = st.fixed_dictionaries({v: mixed_probability for v in MIXED_VARIABLES})


@settings(max_examples=80, deadline=None)
@given(
    clauses=st.lists(
        st.sets(st.sampled_from(USED_VARIABLES), min_size=1, max_size=4),
        min_size=0,
        max_size=8,
    ),
    order=st.permutations(MIXED_VARIABLES),
    maps=st.lists(mixed_map, min_size=1, max_size=3),
)
def test_integer_sweep_agrees_across_artifacts_and_backends(clauses, order, maps):
    manager = OBDD(order)
    root = manager.build_from_clauses(clauses)
    in_process = manager.to_columnar(root)
    buffer = bytearray(in_process.nbytes)
    in_process.write_into(buffer)
    # Numpy views over the buffer where numpy is importable, arrays otherwise.
    from_buffer = columnar_from_buffer(in_process.meta(), buffer)
    with mock.patch.dict(os.environ, {"REPRO_NO_NUMPY": "1"}):
        copied = columnar_from_buffer(in_process.meta(), buffer)
    expected = [
        probability_recursive(manager, root, weights) if root > TRUE_NODE else Fraction(root)
        for weights in maps
    ]
    for artifact in (in_process, from_buffer, copied):
        values = [artifact.probability(weights) for weights in maps]
        assert all(isinstance(value, Fraction) for value in values)
        assert values == expected
        assert artifact.probability_many(maps, exact=True) == expected


def _thousandths(tid, generator):
    """The TID's instance with every fact at ``k/1000``, a third of them at
    probability 0 and a third at 1, so both zero short-circuits run."""
    return ProbabilisticInstance(
        tid.instance,
        {
            f: Fraction(generator.choice((0, 1000, generator.randint(1, 999))), 1000)
            for f in tid.instance.facts
        },
    )


def test_integer_read_once_matches_a_fraction_product():
    engine = CompilationEngine()
    generator = random.Random(20261017)
    checked = 0
    for case in random_workload(60, seed=31337):
        lineage = engine.lineage(case.query, case.tid.instance)
        if not lineage.is_read_once_shaped():
            continue
        for tid in (case.tid, _thousandths(case.tid, generator)):
            complement = Fraction(1)
            for clause in lineage.clauses:
                clause_probability = Fraction(1)
                for f in clause:
                    clause_probability *= tid.probability_of(f)
                complement *= 1 - clause_probability
            assert _probability_of_read_once(lineage, tid) == 1 - complement
        checked += 1
    assert checked >= 10


def test_read_once_maps_positions_into_an_equal_instance_built_apart(monkeypatch):
    # The TID's instance equals the lineage's but holds another fact tuple,
    # so the lineage's positions are mapped through its facts into the
    # TID's instance, without building the Fact view.
    lineage = lineage_of(unsafe_rst(), rst_chain_instance(6))
    apart = ProbabilisticInstance.uniform(rst_chain_instance(6), Fraction(1, 3))
    own = ProbabilisticInstance.uniform(lineage.instance, Fraction(1, 3))
    assert apart.instance == lineage.instance and apart.instance.facts is not lineage.instance.facts
    view = MonotoneDNFLineage.__dict__["clauses"]
    monkeypatch.setattr(view, "func", lambda lineage: pytest.fail("built the Fact view"))
    assert _probability_of_read_once(lineage, apart) == _probability_of_read_once(lineage, own)
    # A fact that sorts first shifts every position of the TID's instance.
    grown = lineage.instance.with_facts([fact("R", "0")])
    tid = ProbabilisticInstance(grown, {f: Fraction(1, 3) if f in own.instance else Fraction(1, 7) for f in grown})
    assert grown.facts.index(fact("R", "0")) == 0
    assert _probability_of_read_once(lineage, tid) == _probability_of_read_once(lineage, own)


def test_read_once_rejects_a_fact_the_tids_instance_lacks():
    instance = rst_chain_instance(3)
    lineage = lineage_of(unsafe_rst(), instance)
    missing = fact("S", "a1", "b1")
    smaller = Instance([f for f in instance.facts if f != missing], instance.signature)
    tid = ProbabilisticInstance.uniform(smaller, Fraction(1, 2))
    with pytest.raises(ProbabilityError, match=r"S\(a1, b1\) is not a fact"):
        _probability_of_read_once(lineage, tid)
    # Fact clauses naming a fact outside the lineage's own instance.
    foreign = MonotoneDNFLineage(instance, (frozenset({fact("R", "z")}),))
    assert foreign.clause_positions is None
    with pytest.raises(ProbabilityError, match=r"R\(z\) is not a fact"):
        _probability_of_read_once(foreign, ProbabilisticInstance.uniform(instance, Fraction(1, 2)))


def test_integer_executor_matches_the_fraction_reference_and_brute_force():
    generator = random.Random(17)
    checked = 0
    for case in random_workload(80, seed=9090):
        plan = try_lifted_plan(case.query)
        if plan is None:
            continue
        tid = _thousandths(case.tid, generator)
        value = execute_plan(plan, tid)
        assert isinstance(value, Fraction)
        assert value == execute_plan_reference(plan, tid)
        assert value == brute_force_probability(case.query, tid)
        checked += 1
    assert checked >= 20


@pytest.mark.timeout(5)
def test_float_probabilities_on_a_long_path_stay_fast():
    """Per-level scaling keeps float-derived denominators (up to 10^12,
    sharing few factors) cheap: milliseconds on this input, where one common
    denominator for every level took seconds."""
    instance = directed_path_instance(240)
    generator = random.Random(240)
    tid = ProbabilisticInstance(instance, {f: generator.random() for f in instance.facts})
    query = two_incident_same_direction()
    engine = CompilationEngine()
    value = engine.probability(query, tid, method="obdd")
    compiled = engine.compile(query, instance)
    assert value == probability_recursive(compiled.manager, compiled.root, tid.valuation())
