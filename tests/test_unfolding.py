"""Tests for the Section 9 unfolding construction."""

import pytest

from repro.data.gaifman import instance_pathwidth, instance_tree_depth, instance_treewidth
from repro.data.instance import Instance, fact
from repro.data.tid import ProbabilisticInstance
from repro.errors import UnfoldingError
from repro.generators import random_probabilities, random_ranked_instance
from repro.data.signature import Signature
from repro.probability.brute_force import brute_force_probability
from repro.queries import (
    hierarchical_example,
    inversion_free_example,
    parse_cq,
    unsafe_rst,
)
from repro.unfold import (
    is_valid_unfolding,
    lineage_preserved,
    respects_query,
    unfold_instance,
    verify_unfolding,
)

RST = Signature([("R", 1), ("S", 2), ("T", 1)])


def sample_instance(seed=0, facts=12):
    return random_ranked_instance(RST, 5, facts, seed=seed)


def test_unfolding_is_valid_and_respects_query():
    query = hierarchical_example()
    instance = sample_instance(seed=1)
    unfolding = unfold_instance(query, instance)
    assert is_valid_unfolding(unfolding)
    assert respects_query(unfolding, query)
    assert lineage_preserved(unfolding, query)


def test_unfolding_tree_depth_bounded_by_arity():
    query = inversion_free_example()
    for seed in (2, 3, 4):
        instance = sample_instance(seed=seed)
        unfolding = unfold_instance(query, instance)
        assert unfolding.tree_depth_bound <= 2
        assert instance_tree_depth(unfolding.unfolded) <= 2
        forest = unfolding.elimination_forest()
        from repro.data.gaifman import gaifman_graph

        forest.validate(gaifman_graph(unfolding.unfolded))


def test_unfolding_reduces_width_on_dense_instances():
    query = hierarchical_example()
    # A dense instance: many S facts sharing elements.
    facts = [fact("S", f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
    facts += [fact("R", f"a{i}") for i in range(4)]
    instance = Instance(facts, RST)
    unfolding = unfold_instance(query, instance)
    assert instance_treewidth(unfolding.unfolded) <= 1
    assert instance_pathwidth(unfolding.unfolded) <= 1
    assert instance_treewidth(instance) > 1


def test_unfolded_probability_equals_original():
    query = inversion_free_example()
    instance = sample_instance(seed=5, facts=8)
    unfolding = unfold_instance(query, instance)
    tid = random_probabilities(instance, seed=5)
    unfolded_tid = ProbabilisticInstance(
        unfolding.unfolded,
        {unfolding.unfolded_fact(f): tid.probability_of(f) for f in instance},
    )
    assert brute_force_probability(query, tid) == brute_force_probability(query, unfolded_tid)


def test_verify_unfolding_report():
    query = hierarchical_example()
    instance = sample_instance(seed=6, facts=8)
    unfolding = unfold_instance(query, instance)
    report = verify_unfolding(unfolding, query)
    assert all(report.values())


def test_non_inversion_free_query_rejected():
    with pytest.raises(UnfoldingError):
        unfold_instance(unsafe_rst(), sample_instance(seed=7))


def test_unranked_query_rejected():
    with pytest.raises(UnfoldingError):
        unfold_instance(parse_cq("S(x, y), S(y, x)"), sample_instance(seed=8))


def test_unranked_instance_rejected():
    cyclic = Instance([fact("S", "a", "b"), fact("S", "b", "a")], RST)
    with pytest.raises(UnfoldingError):
        unfold_instance(hierarchical_example(), cyclic)


def test_fact_map_round_trip():
    query = hierarchical_example()
    instance = sample_instance(seed=9, facts=6)
    unfolding = unfold_instance(query, instance)
    for f in instance:
        assert unfolding.original_fact(unfolding.unfolded_fact(f)) == f


def test_element_order_is_a_forest_preorder_of_the_unfolded_domain():
    query = inversion_free_example()
    for seed in (2, 3, 11):
        unfolding = unfold_instance(query, sample_instance(seed=seed, facts=20))
        order = unfolding.element_order()
        assert sorted(map(repr, order)) == sorted(map(repr, unfolding.unfolded.domain))
        assert len(order) == len(set(order))
        position = {element: i for i, element in enumerate(order)}
        forest = unfolding.elimination_forest()
        for element, parent in forest.parent.items():
            if parent is not None:
                assert position[parent] < position[element]
        # A preorder: every element's ancestors precede it, and each subtree is
        # one contiguous block of the order.
        for element in order:
            block = [e for e in order if element in forest.ancestors(e) or e == element]
            start = position[element]
            assert [position[e] for e in block] == list(range(start, start + len(block)))
        assert unfolding.element_order() == order
