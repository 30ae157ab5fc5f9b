"""Tests for lineage computation (DNF of matches, lineage circuits)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.data.instance import Fact, Instance, fact
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance
from repro.generators import rst_bipartite_instance, rst_chain_instance
from repro.probability import brute_force_probability, probability
from repro.provenance.lineage import (
    MonotoneDNFLineage,
    brute_force_lineage_table,
    lineage_circuit,
    lineage_of,
)
from repro.queries import (
    minimal_matches,
    parse_cq,
    parse_ucq,
    threshold_two_query,
    ucq_matches,
    unsafe_rst,
)
from repro.queries.atoms import Atom, Disequality, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries


def test_lineage_clauses_of_rst_chain():
    instance = rst_chain_instance(2)
    lineage = lineage_of(unsafe_rst(), instance)
    assert lineage.clause_count == 2
    assert all(len(clause) == 3 for clause in lineage.clauses)
    assert lineage.is_read_once_shaped()


def test_lineage_clauses_of_rst_bipartite_not_read_once():
    instance = rst_bipartite_instance(2)
    lineage = lineage_of(unsafe_rst(), instance)
    assert lineage.clause_count == 4
    assert not lineage.is_read_once_shaped()


def test_lineage_evaluation_matches_query_semantics():
    instance = rst_chain_instance(2)
    lineage = lineage_of(unsafe_rst(), instance)
    table = brute_force_lineage_table(unsafe_rst(), instance)
    for world, expected in table.items():
        assert lineage.evaluate(world) == expected


def test_lineage_circuit_is_monotone_and_equivalent():
    instance = rst_chain_instance(2)
    circuit = lineage_circuit(unsafe_rst(), instance)
    assert circuit.is_monotone()
    lineage = lineage_of(unsafe_rst(), instance)
    for world, expected in brute_force_lineage_table(unsafe_rst(), instance).items():
        valuation = {f: (f in world) for f in instance}
        assert circuit.evaluate(valuation) == expected
        assert lineage.evaluate(valuation) == expected


def test_lineage_of_threshold_query_is_threshold_function():
    instance = Instance([fact("R", "a"), fact("R", "b"), fact("R", "c")])
    lineage = lineage_of(threshold_two_query(), instance)
    assert lineage.clause_count == 3
    assert all(len(clause) == 2 for clause in lineage.clauses)
    assert lineage.evaluate([fact("R", "a"), fact("R", "b")])
    assert not lineage.evaluate([fact("R", "a")])


def test_lineage_false_when_no_match():
    instance = Instance([fact("R", "a")])
    lineage = lineage_of(unsafe_rst(), instance)
    assert lineage.clause_count == 0
    assert not lineage.evaluate(instance.facts)
    circuit = lineage.to_circuit()
    assert not circuit.evaluate({f: True for f in instance})


def test_minimal_versus_all_matches():
    instance = Instance([fact("E", "a", "b"), fact("E", "b", "c")])
    query = parse_ucq("E(x, y) | E(x, y), E(y, z)")
    minimal = lineage_of(query, instance, minimal=True)
    full = lineage_of(query, instance, minimal=False)
    assert minimal.clause_count <= full.clause_count
    for world, expected in brute_force_lineage_table(query, instance).items():
        assert minimal.evaluate(world) == expected
        assert full.evaluate(world) == expected


def test_lineage_variables_subset_of_instance():
    instance = rst_chain_instance(2)
    lineage = lineage_of(unsafe_rst(), instance)
    assert lineage.variables() <= set(instance.facts)


def test_ucq_with_disequality_lineage():
    instance = Instance([fact("E", "a", "b"), fact("E", "a", "a")])
    query = parse_cq("E(x, y), x != y")
    lineage = lineage_of(query, instance)
    assert lineage.clause_count == 1
    assert lineage.evaluate([fact("E", "a", "b")])
    assert not lineage.evaluate([fact("E", "a", "a")])


# -- position clauses against the Fact view -----------------------------------

SIGNATURE = Signature([("R", 1), ("S", 2), ("T", 1)])
VARIABLES = [Variable(f"x{i}") for i in range(3)]


@st.composite
def small_instances(draw):
    # Small enough for brute force.  The strings render in another order
    # than the instance stores its facts, so a view ordered by positions
    # would show.
    elements = draw(st.sampled_from([[-1, 0, 2, 10], ["a", "a(", "b'", "c d"]]))
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        relation = draw(st.sampled_from(list(SIGNATURE)))
        facts.append(Fact(relation.name, tuple(draw(st.sampled_from(elements)) for _ in range(relation.arity))))
    return Instance(facts, SIGNATURE)


@st.composite
def disjuncts(draw):
    # A small variable pool gives self-joins and repeated variables.
    pool = VARIABLES[: draw(st.integers(min_value=1, max_value=len(VARIABLES)))]
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        relation = draw(st.sampled_from(list(SIGNATURE)))
        atoms.append(Atom(relation.name, tuple(draw(st.sampled_from(pool)) for _ in range(relation.arity))))
    used = sorted({v for a in atoms for v in a.variables()})
    disequalities = []
    if len(used) >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            left, right = draw(st.permutations(used))[:2]
            disequalities.append(Disequality(left, right))
    return ConjunctiveQuery(tuple(atoms), tuple(disequalities))


def _shares_a_fact(clauses):
    seen = set()
    for clause in clauses:
        if clause & seen:
            return True
        seen |= clause
    return False


@settings(max_examples=120, deadline=None)
@given(
    st.lists(disjuncts(), min_size=1, max_size=3),
    small_instances(),
    st.lists(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]), min_size=8, max_size=8),
)
def test_position_clauses_and_the_fact_view_agree(disjuncts, instance, probabilities):
    query = UnionOfConjunctiveQueries(tuple(disjuncts))
    lineage = lineage_of(query, instance)
    positions = lineage.clause_positions
    facts = instance.facts
    assert all(list(clause) == sorted(set(clause)) for clause in positions)
    assert len(set(positions)) == len(positions) == lineage.clause_count
    view = lineage.clauses
    assert len(view) == len(positions)
    assert {frozenset(map(facts.__getitem__, clause)) for clause in positions} == set(view)
    assert list(view) == minimal_matches(query, instance)
    assert sorted(MonotoneDNFLineage(instance, view).clause_positions) == sorted(positions)
    assert list(lineage_of(query, instance, minimal=False).clauses) == ucq_matches(query, instance)
    assert lineage.is_read_once_shaped() == (not _shares_a_fact(view))

    tid = ProbabilisticInstance(instance, dict(zip(facts, probabilities)))
    expected = brute_force_probability(query, tid)
    assert probability(query, tid, method="obdd") == expected
    if lineage.is_read_once_shaped():
        assert probability(query, tid, method="read_once") == expected


def test_a_position_lineage_builds_its_fact_view_once_on_first_read():
    instance = rst_chain_instance(3)
    lineage = lineage_of(unsafe_rst(), instance)
    assert lineage.clause_positions == ((0, 3, 6), (1, 4, 7), (2, 5, 8))
    assert "clauses" not in vars(lineage)
    assert lineage.is_read_once_shaped() and "clauses" not in vars(lineage)
    assert repr(lineage) == "MonotoneDNFLineage(3 clauses over 9 facts)"
    assert lineage.clauses is lineage.clauses
    assert [sorted(map(str, clause)) for clause in lineage.clauses] == [
        [f"R(a{i})", f"S(a{i}, b{i})", f"T(b{i})"] for i in range(3)
    ]


def test_fact_clauses_keep_their_order_and_derive_positions():
    instance = rst_chain_instance(2)
    clauses = lineage_of(unsafe_rst(), instance).clauses[::-1]
    lineage = MonotoneDNFLineage(instance, clauses)
    assert lineage.clauses == clauses
    assert lineage.clause_positions == ((1, 3, 5), (0, 2, 4))
    foreign = MonotoneDNFLineage(instance, (frozenset({fact("R", "z")}),))
    assert foreign.clause_positions is None
    assert foreign.is_read_once_shaped()
