"""Tests for repro.data.instance."""

import pytest

from repro.data.instance import Fact, Instance, fact, graph_instance
from repro.data.signature import Signature
from repro.errors import InstanceError, SignatureError


def make_instance():
    return Instance([fact("R", "a"), fact("S", "a", "b"), fact("T", "b")])


def test_size_and_domain():
    instance = make_instance()
    assert len(instance) == 3
    assert instance.domain == ("a", "b")
    assert instance.domain_size == 2


def test_signature_inferred():
    instance = make_instance()
    assert instance.signature.arity("R") == 1
    assert instance.signature.arity("S") == 2


def test_explicit_signature_checked():
    with pytest.raises(SignatureError):
        Instance([fact("R", "a", "b")], Signature.of(R=1))
    with pytest.raises(SignatureError):
        Instance([fact("Z", "a")], Signature.of(R=1))


def test_inconsistent_arity_detected():
    with pytest.raises(SignatureError):
        Instance([fact("R", "a"), fact("R", "a", "b")])


def test_facts_of_and_containing():
    instance = make_instance()
    assert instance.facts_of("S") == (fact("S", "a", "b"),)
    assert instance.facts_of("Z") == ()
    assert set(instance.facts_containing("a")) == {fact("R", "a"), fact("S", "a", "b")}


def test_duplicate_facts_collapse():
    instance = Instance([fact("R", "a"), fact("R", "a")])
    assert len(instance) == 1


def test_subinstance_and_membership():
    instance = make_instance()
    sub = instance.subinstance([fact("R", "a")])
    assert len(sub) == 1
    assert fact("R", "a") in instance
    assert sub.is_subinstance_of(instance)
    with pytest.raises(InstanceError):
        instance.subinstance([fact("R", "zzz")])


def test_restrict_domain():
    instance = make_instance()
    restricted = instance.restrict_domain({"a"})
    assert set(restricted.facts) == {fact("R", "a")}


def test_rename_with_dict_and_callable():
    instance = make_instance()
    renamed = instance.rename({"a": "x"})
    assert fact("S", "x", "b") in renamed
    renamed2 = instance.rename(lambda e: e.upper())
    assert fact("T", "B") in renamed2


def test_union_and_disjoint_union():
    left = Instance([fact("R", "a")])
    right = Instance([fact("R", "a"), fact("R", "b")])
    union = left.union(right)
    assert len(union) == 2
    disjoint = left.disjoint_union(right)
    assert len(disjoint) == 3
    assert disjoint.domain_size == 3


def test_all_subinstances_count():
    instance = make_instance()
    assert sum(1 for _ in instance.all_subinstances()) == 8


def test_all_subinstances_guard():
    big = Instance([fact("R", f"a{i}") for i in range(30)])
    with pytest.raises(InstanceError):
        list(big.all_subinstances())


def test_fact_helpers():
    f = fact("S", "a", "b")
    assert f.arity == 2
    assert f.elements() == ("a", "b")
    assert fact("S", "a", "a").elements() == ("a",)
    assert f.rename({"a": "z"}) == fact("S", "z", "b")
    assert str(f) == "S(a, b)"


def test_graph_instance_symmetric_and_loops():
    g = graph_instance([("u", "v")])
    assert len(g) == 2  # both orientations
    directed = graph_instance([("u", "v")], symmetric=False)
    assert len(directed) == 1
    with pytest.raises(InstanceError):
        graph_instance([("u", "u")])


def test_instance_equality_and_ordering_stability():
    a = Instance([fact("R", "a"), fact("R", "b")])
    b = Instance([fact("R", "b"), fact("R", "a")])
    assert a == b
    assert a.facts == b.facts


def test_fingerprint_stability_and_sensitivity():
    instance = make_instance()
    # Stable across construction order and processes (pure content digest).
    shuffled = Instance([fact("T", "b"), fact("R", "a"), fact("S", "a", "b")])
    assert instance.fingerprint == shuffled.fingerprint
    assert len(instance.fingerprint) == 64
    # Sensitive to facts and to the signature.
    assert instance.with_facts([fact("R", "b")]).fingerprint != instance.fingerprint
    wider = Instance(instance.facts, instance.signature.extend(Signature.of(U=1)))
    assert wider.fingerprint != instance.fingerprint


def test_facts_with_value_index():
    instance = Instance(
        [fact("S", "a", "b"), fact("S", "a", "c"), fact("S", "b", "c"), fact("R", "a")]
    )
    assert set(instance.facts_with_value("S", 0, "a")) == {
        fact("S", "a", "b"),
        fact("S", "a", "c"),
    }
    assert instance.facts_with_value("S", 1, "a") == ()
    assert instance.facts_with_value("missing", 0, "a") == ()


def test_facts_matching_joins_on_bound_positions():
    instance = Instance(
        [fact("S", "a", "b"), fact("S", "a", "c"), fact("S", "b", "c"), fact("R", "a")]
    )
    assert instance.facts_matching("S", {}) == instance.facts_of("S")
    assert set(instance.facts_matching("S", {0: "a"})) == {
        fact("S", "a", "b"),
        fact("S", "a", "c"),
    }
    assert instance.facts_matching("S", {0: "a", 1: "c"}) == (fact("S", "a", "c"),)
    assert instance.facts_matching("S", {0: "a", 1: "z"}) == ()
    assert instance.facts_matching("missing", {0: "a"}) == ()


def test_pickle_leaves_out_the_lazy_indexes_and_keeps_the_fingerprint():
    import pickle

    from repro.generators import labelled_partial_ktree_instance

    instance = labelled_partial_ktree_instance(120, 2)
    fingerprint = instance.fingerprint
    for f in instance.facts:
        assert instance.fact_positions(f.relation)[f.arguments] == instance.facts.index(f)
        assert f in instance.facts_with_value(f.relation, 0, f.arguments[0])
    # The indexes built above do not reach the pickle: it is byte for byte
    # that of a fresh instance whose fingerprint was computed.
    other = labelled_partial_ktree_instance(120, 2)
    assert other.fingerprint == fingerprint
    fresh = pickle.dumps(other)
    assert pickle.dumps(instance) == fresh
    copy = pickle.loads(fresh)
    assert copy.facts == instance.facts and copy.signature == instance.signature
    assert copy.domain == instance.domain
    assert copy._fingerprint == fingerprint  # carried over, not recomputed
    assert copy._positions is None and copy._position_index == {}
    for f in instance.facts[:: max(1, len(instance) // 40)]:
        relation, first = f.relation, f.arguments[0]
        assert copy.fact_positions(relation) == instance.fact_positions(relation)
        assert copy.facts_with_value(relation, 0, first) == instance.facts_with_value(
            relation, 0, first
        )
        assert copy.facts_matching(relation, {0: first}) == instance.facts_matching(
            relation, {0: first}
        )
    assert copy.block_start("S") == instance.block_start("S")
    # An instance whose fingerprint never ran pickles it as unset.
    unhashed = pickle.loads(pickle.dumps(labelled_partial_ktree_instance(12, 2)))
    assert unhashed._fingerprint is None
    assert unhashed.fingerprint == labelled_partial_ktree_instance(12, 2).fingerprint
