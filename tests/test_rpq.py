"""Tests for conjunctive two-way regular path queries (repro.queries.rpq)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.instance import Fact, Instance, fact
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance
from repro.errors import QueryError
from repro.generators.graphs import subdivided_instance
from repro.generators.grids import grid_instance
from repro.generators.lines import directed_path_instance
from repro.probability.brute_force import brute_force_property_probability
from repro.queries.atoms import Disequality, var
from repro.queries.reference import c2rpq_minimal_matches_reference
from repro.queries.rpq import (
    NFA,
    c2rpq,
    c2rpq_homomorphisms,
    c2rpq_lineage,
    c2rpq_matches,
    c2rpq_minimal_matches,
    c2rpq_satisfied,
    concat,
    epsilon,
    optional,
    parse_regex,
    path_atom,
    plus,
    reachability_query,
    regex_to_nfa,
    rpq_pairs,
    rpq_witness_paths,
    star,
    symbol,
    two_incident_paths_query,
    union,
)
from repro.structure.graph import Graph


# -- regular expressions and parsing -------------------------------------------------


def test_parse_regex_symbols_and_inverse():
    node = parse_regex("E")
    assert node.kind == "symbol"
    assert node.payload == ("E", False)
    node = parse_regex("E-")
    assert node.payload == ("E", True)


def test_parse_regex_operators_and_str_roundtrip():
    node = parse_regex("E.(F|G-)*")
    assert node.kind == "concat"
    text = str(node)
    reparsed = parse_regex(text.replace("ε", ""))
    assert str(reparsed) == text


def test_parse_regex_plus_and_optional():
    node = parse_regex("E+")
    assert node.kind == "concat"  # E . E*
    node = parse_regex("E?")
    assert node.kind == "union"


def test_parse_regex_implicit_concatenation():
    explicit = parse_regex("E.F")
    implicit = parse_regex("E F")
    assert str(explicit) == str(implicit)


def test_parse_regex_errors():
    with pytest.raises(QueryError):
        parse_regex("")
    with pytest.raises(QueryError):
        parse_regex("(E")
    with pytest.raises(QueryError):
        parse_regex("E)")
    with pytest.raises(QueryError):
        parse_regex("*E")
    with pytest.raises(QueryError):
        parse_regex("E @ F")


def test_constructor_helpers():
    assert concat().kind == "epsilon"
    assert concat(symbol("E")).kind == "symbol"
    assert union(symbol("E")).kind == "symbol"
    with pytest.raises(QueryError):
        union()
    assert optional(symbol("E")).kind == "union"
    assert str(epsilon()) == "ε"


# -- NFA construction ------------------------------------------------------------------


def test_nfa_accepts_simple_words():
    nfa = regex_to_nfa(parse_regex("E.F"))
    assert nfa.accepts_word([("E", False), ("F", False)])
    assert not nfa.accepts_word([("E", False)])
    assert not nfa.accepts_word([("F", False), ("E", False)])


def test_nfa_accepts_star_and_union():
    nfa = regex_to_nfa(parse_regex("(E|F)*"))
    assert nfa.accepts_word([])
    assert nfa.accepts_word([("E", False), ("F", False), ("E", False)])
    assert not nfa.accepts_word([("G", False)])


def test_nfa_inverse_symbols_are_distinct_letters():
    nfa = regex_to_nfa(parse_regex("E-"))
    assert nfa.accepts_word([("E", True)])
    assert not nfa.accepts_word([("E", False)])
    assert nfa.labels() == {("E", True)}


# -- path evaluation --------------------------------------------------------------------


def _path(n: int) -> Instance:
    """A directed path with n vertices a1..an (n - 1 edge facts)."""
    return directed_path_instance(n - 1)


def test_rpq_pairs_single_edge():
    instance = _path(3)  # a1 -> a2 -> a3
    pairs = rpq_pairs(instance, "E")
    assert ("a1", "a2") in pairs and ("a2", "a3") in pairs
    assert ("a1", "a3") not in pairs


def test_rpq_pairs_transitive_closure():
    instance = _path(4)
    pairs = rpq_pairs(instance, "E+")
    assert ("a1", "a4") in pairs
    assert ("a4", "a1") not in pairs
    # E* additionally contains the identity pairs.
    star_pairs = rpq_pairs(instance, "E*")
    assert all((element, element) in star_pairs for element in instance.domain)


def test_rpq_pairs_two_way_navigation():
    instance = _path(3)
    pairs = rpq_pairs(instance, "E-.E-")
    assert ("a3", "a1") in pairs
    both_ways = rpq_pairs(instance, "(E|E-)+")
    # The underlying undirected path is connected.
    assert ("a1", "a3") in both_ways and ("a3", "a1") in both_ways


def test_rpq_pairs_on_grid_respects_direction():
    instance = grid_instance(2, 2)
    forward = rpq_pairs(instance, "E.E")
    assert any(source != target for source, target in forward)


def test_rpq_witness_paths_are_fact_simple_and_correct():
    instance = _path(4)
    witnesses = list(rpq_witness_paths(instance, "E+", "a1", "a3"))
    assert len(witnesses) == 1
    only = witnesses[0]
    assert only == frozenset({fact("E", "a1", "a2"), fact("E", "a2", "a3")})


def test_rpq_witness_paths_respect_max_facts():
    instance = _path(5)
    assert list(rpq_witness_paths(instance, "E+", "a1", "a5", max_facts=2)) == []
    assert list(rpq_witness_paths(instance, "E+", "a1", "a3", max_facts=2))


def test_rpq_witness_paths_empty_path_when_nullable():
    instance = _path(3)
    witnesses = list(rpq_witness_paths(instance, "E*", "a2", "a2"))
    assert frozenset() in witnesses


# -- C2RPQ≠ queries ------------------------------------------------------------------------


def test_c2rpq_requires_atoms_and_valid_disequalities():
    with pytest.raises(QueryError):
        c2rpq([])
    with pytest.raises(QueryError):
        c2rpq([path_atom("E", "x", "y")], [Disequality(var("x"), var("z"))])


def test_c2rpq_variables_size_and_str():
    query = two_incident_paths_query()
    assert {v.name for v in query.variables()} == {"x", "y", "z"}
    assert query.size == 5
    assert "!=" in str(query)
    assert "(" in str(query.atoms[0])


def test_reachability_query_satisfaction():
    query = reachability_query()
    assert c2rpq_satisfied(_path(3), query)
    isolated = Instance([fact("E", "a", "a")], Signature([("E", 2)]))
    # Self-loop: x and y must differ, no pair of distinct reachable elements.
    assert not c2rpq_satisfied(isolated, query)


def test_c2rpq_homomorphisms_enumeration():
    query = reachability_query()
    assignments = list(c2rpq_homomorphisms(query, _path(3)))
    pairs = {(a[var("x")], a[var("y")]) for a in assignments}
    assert pairs == {("a1", "a2"), ("a2", "a3"), ("a1", "a3")}


def test_c2rpq_homomorphism_same_variable_loop():
    query = c2rpq([path_atom("E+", "x", "x")])
    assert not c2rpq_satisfied(_path(3), query)
    cycle = Instance(
        [fact("E", "a", "b"), fact("E", "b", "a")], Signature([("E", 2)])
    )
    assert c2rpq_satisfied(cycle, query)


def test_c2rpq_matches_and_minimal_matches():
    instance = _path(3)
    query = reachability_query()
    matches = c2rpq_matches(query, instance)
    minimal = c2rpq_minimal_matches(query, instance)
    assert frozenset({fact("E", "a1", "a2")}) in minimal
    assert all(any(m <= match for m in minimal) for match in matches)
    # The two-edge witness a1 -> a3 is *not* minimal: it strictly contains a single edge witness.
    assert frozenset({fact("E", "a1", "a2"), fact("E", "a2", "a3")}) not in minimal


def test_c2rpq_minimal_matches_equal_the_reference():
    # The cases of this file, plus a subdivided triangle with a pendant edge,
    # where most witness sets strictly contain a smaller one.
    graph = Graph()
    for u, v in [(0, 1), (1, 2), (2, 0), (2, 3)]:
        graph.add_edge(u, v)
    cycle = Instance([fact("E", "a", "b"), fact("E", "b", "a")], Signature([("E", 2)]))
    cases = [
        (_path(3), reachability_query(), None),
        (_path(4), reachability_query(), None),
        (_path(4), two_incident_paths_query(), None),
        (_path(4), c2rpq([path_atom("E*", "x", "y")]), None),
        (cycle, c2rpq([path_atom("E+", "x", "x")]), None),
        (grid_instance(2, 3), reachability_query(), None),
        (subdivided_instance(graph, 2), reachability_query(), None),
        (subdivided_instance(graph, 1), two_incident_paths_query(), 4),
    ]
    for instance, query, bound in cases:
        minimal = c2rpq_minimal_matches(query, instance, max_facts_per_atom=bound)
        assert minimal == c2rpq_minimal_matches_reference(
            query, instance, max_facts_per_atom=bound
        ), str(query)
    assert len(c2rpq_matches(two_incident_paths_query(), subdivided_instance(graph, 1), 4)) > len(minimal)


def test_c2rpq_empty_witness_absorbs_every_other():
    query = c2rpq([path_atom("E*", "x", "y")])
    assert len(c2rpq_matches(query, _path(4))) > 1
    assert c2rpq_minimal_matches(query, _path(4)) == [frozenset()]


def test_two_incident_paths_query_detects_incident_edges():
    path3 = _path(3)  # two incident edges
    assert c2rpq_satisfied(path3, two_incident_paths_query())
    single = _path(2)
    assert not c2rpq_satisfied(single, two_incident_paths_query())


def test_two_incident_paths_query_subdivision_invariance():
    # Subdividing each edge does not change whether two incident edges exist
    # (on a path, there are always two incident facts once there are >= 2 facts).
    subdivided = _path(5)
    assert c2rpq_satisfied(subdivided, two_incident_paths_query())


def test_c2rpq_lineage_agrees_with_boolean_semantics():
    instance = _path(4)
    query = reachability_query()
    lineage = c2rpq_lineage(query, instance)
    for world in instance.all_subinstances():
        expected = c2rpq_satisfied(world, query)
        assert lineage.evaluate(world.facts) == expected


def test_c2rpq_lineage_probability_matches_brute_force():
    instance = _path(4)
    query = two_incident_paths_query()
    lineage = c2rpq_lineage(query, instance)
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    expected = brute_force_property_probability(
        lambda world: c2rpq_satisfied(world, query), tid
    )
    circuit = lineage.to_circuit()
    total = Fraction(0)
    for world, weight in tid.possible_worlds():
        if circuit.evaluate({f: f in set(world.facts) for f in instance.facts}):
            total += weight
    assert total == expected


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=5))
def test_reachability_pairs_match_transitive_closure(n):
    """E+ pairs on a directed path are exactly the i<j pairs."""
    instance = directed_path_instance(n)  # vertices a1..a(n+1)
    pairs = rpq_pairs(instance, "E+")
    expected = {
        (f"a{i}", f"a{j}") for i in range(1, n + 2) for j in range(i + 1, n + 2)
    }
    assert pairs == expected


@settings(max_examples=20, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=6,
    )
)
def test_two_way_star_is_symmetric_connectivity(edges):
    """(E|E-)+ relates exactly the pairs in the same weakly-connected component."""
    facts = [fact("E", f"v{u}", f"v{v}") for u, v in edges if u != v]
    if not facts:
        return
    instance = Instance(facts, Signature([("E", 2)]))
    pairs = rpq_pairs(instance, "(E|E-)+")
    # Symmetry of the two-way closure.
    assert all((b, a) in pairs for a, b in pairs)
