"""Tests for query matching (homomorphisms, matches, minimal matches)."""

from hypothesis import given, settings, strategies as st

from repro.data.instance import Fact, Instance, fact
from repro.data.signature import Signature
from repro.generators import rst_bipartite_instance, rst_chain_instance
from repro.generators.random_instances import random_instance
from repro.queries import (
    cq_homomorphisms,
    cq_matches,
    minimal_matches,
    parse_cq,
    parse_ucq,
    qd,
    satisfies,
    threshold_two_query,
    ucq_matches,
    unsafe_rst,
)
from repro.queries.atoms import Atom, Disequality, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.library import path_query, qp
from repro.queries.matching import cq_homomorphisms_naive
from repro.queries.reference import (
    cq_matches_reference,
    minimal_matches_reference,
    ucq_matches_reference,
)
from repro.queries.ucq import UnionOfConjunctiveQueries


def test_homomorphisms_of_rst_on_chain():
    instance = rst_chain_instance(3)
    homs = list(cq_homomorphisms(unsafe_rst(), instance))
    assert len(homs) == 3


def test_homomorphisms_of_rst_on_bipartite():
    instance = rst_bipartite_instance(2)
    homs = list(cq_homomorphisms(unsafe_rst(), instance))
    assert len(homs) == 4


def test_matches_deduplicate():
    # Two homomorphisms with the same image yield one match.
    instance = Instance([fact("E", "a", "a2"), fact("E", "a2", "a")])
    query = parse_cq("E(x, y), E(y, x)")
    matches = list(cq_matches(query, instance))
    assert len(matches) == 1
    assert matches[0] == frozenset(instance.facts)


def test_disequality_filters_homomorphisms():
    instance = Instance([fact("R", "a"), fact("R", "b")])
    query = threshold_two_query()
    matches = list(cq_matches(query, instance))
    assert len(matches) == 1
    single = Instance([fact("R", "a")])
    assert list(cq_matches(query, single)) == []


def test_ucq_matches_union_over_disjuncts():
    instance = Instance([fact("R", "a"), fact("T", "b")])
    query = parse_ucq("R(x) | T(x)")
    assert len(ucq_matches(query, instance)) == 2


def test_minimal_matches_drop_supersets():
    # E(x,y) on a world where a match with extra facts is not minimal.
    instance = Instance([fact("E", "a", "b"), fact("E", "b", "c")])
    query = parse_ucq("E(x, y) | E(x, y), E(y, z)")
    minimal = minimal_matches(query, instance)
    assert all(len(match) == 1 for match in minimal)
    assert len(minimal) == 2


def test_satisfies():
    instance = rst_chain_instance(2)
    assert satisfies(instance, unsafe_rst())
    empty_world = instance.subinstance([])
    assert not satisfies(empty_world, unsafe_rst())


def test_satisfies_with_disequality():
    query = parse_cq("E(x, y), x != y")
    loopish = Instance([fact("E", "a", "a")])
    assert not satisfies(loopish, query)
    proper = Instance([fact("E", "a", "b")])
    assert satisfies(proper, query)


def test_repeated_variable_atom():
    query = parse_cq("E(x, x)")
    assert satisfies(Instance([fact("E", "a", "a")]), query)
    assert not satisfies(Instance([fact("E", "a", "b")]), query)


def test_match_on_larger_instance_counts():
    instance = rst_bipartite_instance(3)
    assert len(ucq_matches(unsafe_rst(), instance)) == 9
    assert len(minimal_matches(unsafe_rst(), instance)) == 9


def _canonical(homomorphisms):
    return sorted(sorted((v.name, value) for v, value in h.items()) for h in homomorphisms)


def test_none_is_a_legal_domain_element():
    # Regression: None used to double as the "unbound" sentinel, silently
    # rebinding variables already mapped to a None element.
    instance = Instance([fact("E", None, "a")])
    query = parse_cq("E(x, x)")
    assert list(cq_homomorphisms(query, instance)) == []
    assert list(cq_homomorphisms_naive(query, instance)) == []
    loop = Instance([fact("E", None, None)])
    assert list(cq_homomorphisms(query, loop)) == [
        {v: None for v in query.variables()}
    ]


def test_indexed_homomorphisms_agree_with_naive_scan():
    # The indexed join path must enumerate exactly the homomorphisms of the
    # seed linear-scan path, on queries with self-joins, disequalities,
    # repeated variables, and across random instances.
    signature = Signature([("R", 1), ("S", 2), ("T", 1), ("E", 2)])
    queries = [
        unsafe_rst(),
        qd(),
        path_query(3),
        threshold_two_query(),
        parse_cq("E(x, x)"),
        parse_cq("E(x, y), E(y, x)"),
        *qp().disjuncts,
    ]
    for seed in range(12):
        instance = random_instance(signature, 6, 16, seed=seed)
        for query in queries:
            indexed = _canonical(cq_homomorphisms(query, instance))
            naive = _canonical(cq_homomorphisms_naive(query, instance))
            assert indexed == naive, (seed, str(query))


# -- set-at-a-time matches against the tuple-at-a-time reference --------------

SIGNATURE = Signature([("R", 1), ("S", 2), ("T", 1), ("U", 3)])
VARIABLES = [Variable(f"x{i}") for i in range(4)]


@st.composite
def instances(draw):
    # One element type per instance: the reference orders matches by the
    # renderings of the facts it builds, which are the instance's own
    # renderings exactly when no two equal elements differ in type.  The
    # strings render in another order than the instance stores its facts
    # (by ``repr``), so a match order taken from positions would show.
    elements = draw(st.sampled_from([[-1, 0, 2, 10], ["a", "a(", "b'", "c d"]]))
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        relation = draw(st.sampled_from(list(SIGNATURE)))
        arguments = tuple(draw(st.sampled_from(elements)) for _ in range(relation.arity))
        facts.append(Fact(relation.name, arguments))
    return Instance(facts, SIGNATURE)


@st.composite
def conjunctive_queries(draw):
    # Arguments are drawn from a small pool, so self-joins, repeated
    # variables and disconnected atoms all occur.
    pool = VARIABLES[: draw(st.integers(min_value=1, max_value=len(VARIABLES)))]
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        relation = draw(st.sampled_from(list(SIGNATURE)))
        atoms.append(Atom(relation.name, tuple(draw(st.sampled_from(pool)) for _ in range(relation.arity))))
    used = sorted({v for a in atoms for v in a.variables()})
    disequalities = []
    if len(used) >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            left, right = draw(st.permutations(used))[:2]
            disequalities.append(Disequality(left, right))
    return ConjunctiveQuery(tuple(atoms), tuple(disequalities))


@settings(max_examples=300, deadline=None)
@given(st.lists(conjunctive_queries(), min_size=1, max_size=3), instances())
def test_matches_equal_the_reference(disjuncts, instance):
    query = UnionOfConjunctiveQueries(tuple(disjuncts))
    assert ucq_matches(query, instance) == ucq_matches_reference(query, instance)
    assert minimal_matches(query, instance) == minimal_matches_reference(query, instance)
    for disjunct in disjuncts:
        assert list(cq_matches(disjunct, instance)) == list(cq_matches_reference(disjunct, instance))


def _rendered(matches):
    return [sorted(map(str, match)) for match in matches]


def test_matches_with_none_elements_equal_the_reference():
    instance = Instance([fact("E", None, "a"), fact("E", "a", None), fact("E", None, None)])
    query = parse_ucq("E(x, y), E(y, z) | E(x, x), x != y, E(y, y)")
    assert ucq_matches(query, instance) == ucq_matches_reference(query, instance)
    assert minimal_matches(query, instance) == minimal_matches_reference(query, instance)
    assert _rendered(minimal_matches(query, instance)) == [
        ["E(None, None)"],
        ["E(None, a)", "E(a, None)"],
    ]


def test_matches_join_equal_elements_of_different_types():
    # 1 and True are equal, so R(1) and S(True) join.  Matches hold the
    # instance's own facts and sort by their renderings; the reference
    # builds R(True) when S binds x first, which sorts after R(2).
    instance = Instance([fact("R", 1), fact("S", True), fact("R", 2), fact("S", 2)])
    expected = [["R(1)", "S(True)"], ["R(2)", "S(2)"]]
    for text in ("R(x), S(x)", "S(x), R(x)"):
        query = parse_ucq(text)
        matches = minimal_matches(query, instance)
        assert set(matches) == set(minimal_matches_reference(query, instance))
        assert _rendered(matches) == expected
        assert all(any(f is g for g in instance.facts) for match in matches for f in match)
    query = parse_ucq("R(x), S(x)")
    assert ucq_matches(query, instance) == ucq_matches_reference(query, instance)


def test_query_relation_without_facts_has_no_matches():
    instance = Instance([fact("R", "a")], Signature([("R", 1), ("T", 1)]))
    for text in ("R(x), T(x)", "T(x), R(x)", "R(x), Q(x, y)"):
        query = parse_ucq(text)
        assert ucq_matches(query, instance) == ucq_matches_reference(query, instance) == []
        assert minimal_matches(query, instance) == []


def test_two_atoms_mapped_to_one_fact_give_a_smaller_match():
    instance = Instance([fact("E", "a", "a"), fact("E", "a", "b")])
    query = parse_ucq("E(x, y), E(y, z)")
    assert ucq_matches(query, instance) == ucq_matches_reference(query, instance)
    assert _rendered(ucq_matches(query, instance)) == [["E(a, a)"], ["E(a, a)", "E(a, b)"]]
    assert minimal_matches(query, instance) == [frozenset({fact("E", "a", "a")})]


def test_disjunct_match_containing_another_is_not_minimal():
    instance = Instance([fact("E", "a", "b"), fact("E", "b", "c"), fact("F", "b")])
    query = parse_ucq("E(x, y), F(y) | E(x, y)")
    assert ucq_matches(query, instance) == ucq_matches_reference(query, instance)
    assert len(ucq_matches(query, instance)) == 3
    minimal = minimal_matches(query, instance)
    assert minimal == minimal_matches_reference(query, instance)
    assert _rendered(minimal) == [["E(a, b)"], ["E(b, c)"]]
