"""Tests for OBDD compilation of query lineages (Theorems 6.5 and 6.7)."""

from fractions import Fraction

import pytest

from repro.data.instance import Instance, fact
from repro.data.tid import ProbabilisticInstance
from repro.errors import CompilationError
from repro.generators import (
    directed_path_instance,
    grid_instance,
    rst_bipartite_instance,
    rst_chain_instance,
    s_grid_instance,
)
from repro.provenance.compile_obdd import (
    compile_circuit_to_obdd,
    compile_lineage_to_obdd,
    compile_query_to_dnnf,
    compile_query_to_obdd,
    obdd_width_of_query,
)
from repro.provenance.lineage import MonotoneDNFLineage, brute_force_lineage_table, lineage_of
from repro.provenance.variable_orders import default_fact_order
from repro.queries import parse_cq, qp, two_incident_same_direction, unsafe_rst
from repro.booleans.formula import threshold_2_circuit


def test_compiled_obdd_equivalent_to_lineage():
    instance = rst_bipartite_instance(2)
    compiled = compile_query_to_obdd(unsafe_rst(), instance)
    for world, expected in brute_force_lineage_table(unsafe_rst(), instance).items():
        valuation = {f: (f in world) for f in instance}
        assert compiled.evaluate(valuation) == expected


def test_compiled_obdd_probability_matches_brute_force():
    instance = rst_chain_instance(2)
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 3))
    compiled = compile_query_to_obdd(unsafe_rst(), instance)
    from repro.probability.brute_force import brute_force_probability

    assert compiled.probability(tid.valuation()) == brute_force_probability(unsafe_rst(), tid)


def test_obdd_constant_width_on_paths_for_qp():
    # Theorem 6.7 shape: constant width on a bounded-pathwidth family.
    widths = [
        obdd_width_of_query(qp(), directed_path_instance(n), use_path_decomposition=True)
        for n in (4, 8, 12)
    ]
    assert max(widths) == min(widths)


def test_obdd_width_grows_on_grids_for_qp():
    # Theorem 8.1 shape: width grows with the grid side.
    widths = [obdd_width_of_query(qp(), grid_instance(n, n)) for n in (2, 3, 4)]
    assert widths[0] < widths[1] < widths[2]


def test_rst_trivial_on_s_grids():
    # Section 8.2: the unsafe RST query has trivial OBDDs on S-grids.
    widths = [obdd_width_of_query(unsafe_rst(), s_grid_instance(n, n)) for n in (2, 3, 4)]
    assert max(widths) == 1


def test_compile_circuit_to_obdd():
    names = [f"x{i}" for i in range(5)]
    circuit = threshold_2_circuit(names)
    compiled = compile_circuit_to_obdd(circuit)
    assert compiled.width <= 3
    assert compiled.size <= 2 * len(names)


def test_compile_query_to_dnnf_agrees_with_obdd():
    instance = rst_bipartite_instance(2)
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    compiled = compile_query_to_obdd(unsafe_rst(), instance)
    dnnf = compile_query_to_dnnf(unsafe_rst(), instance)
    valuation = {f: Fraction(1, 2) for f in dnnf.variables()}
    assert dnnf.probability(valuation) == compiled.probability(tid.valuation())


def test_explicit_order_is_respected():
    instance = Instance([fact("R", "a"), fact("R", "b")])
    query = parse_cq("R(x)")
    order = list(reversed(instance.facts))
    compiled = compile_query_to_obdd(query, instance, order=order)
    assert compiled.order == tuple(order)


def test_empty_lineage_compiles_to_false():
    instance = Instance([fact("R", "a")])
    compiled = compile_query_to_obdd(unsafe_rst(), instance)
    assert compiled.size == 0
    assert not compiled.evaluate({f: True for f in instance})


def test_clause_order_does_not_reach_the_diagram():
    # The clauses become a set of level tuples, sorted before the build, so
    # compiling them in any order gives the same columns.
    cases = [
        (two_incident_same_direction(), directed_path_instance(40)),
        (unsafe_rst(), rst_chain_instance(30)),
        (qp(), grid_instance(3, 3)),
    ]
    for query, instance in cases:
        lineage = lineage_of(query, instance)
        order = default_fact_order(instance)
        forward = compile_lineage_to_obdd(lineage, order).to_columnar()
        shuffled = MonotoneDNFLineage(instance, lineage.clauses[1::2] + lineage.clauses[0::2][::-1])
        assert set(shuffled.clauses) == set(lineage.clauses)
        backward = compile_lineage_to_obdd(shuffled, order).to_columnar()
        assert forward.root == backward.root
        for column in ("var", "lo", "hi"):
            assert list(getattr(forward, column)) == list(getattr(backward, column))


def test_the_order_must_cover_every_clause_fact():
    instance = rst_chain_instance(3)
    lineage = lineage_of(unsafe_rst(), instance)
    order = default_fact_order(instance)
    unused = fact("R", "z")
    # Facts outside every clause may be missing from the order or extra in it.
    grown = instance.with_facts([unused])
    assert compile_lineage_to_obdd(lineage_of(unsafe_rst(), grown), order).size == (
        compile_lineage_to_obdd(lineage, [unused, *order]).size
    )
    for held in (lineage, MonotoneDNFLineage(instance, lineage.clauses)):
        with pytest.raises(CompilationError, match="does not cover"):
            compile_lineage_to_obdd(held, order[1:])
    foreign = MonotoneDNFLineage(instance, (frozenset({unused}),))
    assert foreign.clause_positions is None
    with pytest.raises(CompilationError, match="does not cover"):
        compile_lineage_to_obdd(foreign, order)
    assert compile_lineage_to_obdd(foreign, [unused]).model_count() == 1
