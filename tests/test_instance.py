"""Tests for repro.data.instance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- typed errors ---------------------------------------------------------------


def test_a_non_fact_is_a_typed_error():
    with pytest.raises(InstanceError, match="expected Fact, got list"):
        Instance([["R", "a"]])
    with pytest.raises(InstanceError, match="expected Fact, got tuple"):
        Instance([fact("R", "a"), ("R", ("b",))])


def test_an_unhashable_argument_is_a_typed_error_naming_the_fact():
    with pytest.raises(InstanceError, match=r"fact R\(\[1\]\) has an unhashable argument"):
        Instance([fact("R", "a"), Fact("R", ([1],))])
    # Mixed element types take the dict.fromkeys path, which hashes facts.
    with pytest.raises(InstanceError, match=r"fact S\(1, \{\}\) has an unhashable argument"):
        Instance([fact("R", "a"), Fact("S", (1, {}))])


def test_a_relation_name_that_is_not_a_string_is_a_signature_error():
    with pytest.raises(SignatureError, match="relation name must be a string"):
        Instance([fact("R", "a"), Fact(1, ("b",))])
    with pytest.raises(SignatureError, match="relation name must be a string"):
        Instance([Fact(["R"], ("a",))])


def test_signature_errors_name_the_relation_used_first():
    # Z is used before A; both are unknown to the signature.
    with pytest.raises(SignatureError, match=r"fact Z\(a\) uses relation not in signature"):
        Instance([fact("Z", "a"), fact("A", "b")], Signature.of(R=1))
    with pytest.raises(SignatureError, match="relation 'Z' used with arities 1 and 2"):
        Instance([fact("Z", "a"), fact("A", "b"), fact("A", "b", "c"), fact("Z", "a", "b")])


# -- which of several equal facts is kept ----------------------------------------


def _first_equal(facts):
    """What ``dict.fromkeys(facts)`` keeps: the first fact of each class of
    equal facts, by identity."""
    return {id(f) for f in dict.fromkeys(facts)}


def assert_keeps_the_first_equal_fact(facts):
    instance = Instance(facts)
    assert len(instance) == len(dict.fromkeys(facts))
    assert {id(f) for f in instance.facts} == _first_equal(facts)
    for f in instance.facts:
        assert next(g for g in facts if g == f) is f


single_type_facts = st.lists(
    st.builds(
        lambda relation, arguments: Fact(relation, tuple(arguments)),
        st.sampled_from(["R", "S"]),
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=2),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None, database=None)
@given(facts=single_type_facts, data=st.data())
def test_instance_keeps_the_first_equal_fact_of_shuffled_repeats(facts, data):
    # Repeats are new objects equal to an earlier fact, then all is shuffled.
    repeats = [Fact(f.relation, f.arguments) for f in facts]
    mixed = data.draw(st.permutations(facts + repeats))
    assert_keeps_the_first_equal_fact(mixed)


equal_elements = st.lists(
    st.builds(
        lambda relation, a, b: Fact(relation, (a, b)),
        st.sampled_from(["R", "S"]),
        st.sampled_from([1, True, 1.0, 0, False, 0.0, -0.0, "1"]),
        st.sampled_from([0.0, -0.0, 2, 2.0]),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None, database=None)
@given(facts=equal_elements)
def test_instance_keeps_the_first_equal_fact_of_equal_elements(facts):
    # 1, True and 1.0 are equal but of different types (the dict.fromkeys
    # path); 0.0 and -0.0 are equal floats of one type (the packed-rank path
    # when no other type occurs).
    assert_keeps_the_first_equal_fact(facts)
    floats = [f for f in facts if all(type(a) is float for a in f.arguments)]
    assert_keeps_the_first_equal_fact(floats)


def test_equal_floats_of_one_type_keep_the_first():
    first, second = Fact("R", (0.0,)), Fact("R", (-0.0,))
    assert Instance([first, second]).facts[0] is first
    assert Instance([second, first]).facts[0] is second


# -- the Fact record ----------------------------------------------------------------


def test_fact_behaves_as_a_frozen_ordered_dataclass():
    import copy
    from dataclasses import FrozenInstanceError

    f = Fact("R", ["a", "b"])
    assert f.arguments == ("a", "b")
    assert f == Fact(relation="R", arguments=("a", "b"))
    assert f != ("R", ("a", "b"))
    assert repr(f) == "Fact(relation='R', arguments=('a', 'b'))"
    assert Fact.__match_args__ == ("relation", "arguments")
    match f:
        case Fact(relation, (first, _)):
            assert (relation, first) == ("R", "a")
    assert sorted([fact("S", "a"), fact("R", "b"), fact("R", "a")]) == [
        fact("R", "a"),
        fact("R", "b"),
        fact("S", "a"),
    ]
    assert fact("R", "a") <= fact("R", "a") < fact("R", "b")
    assert fact("R", "b") >= fact("R", "b") > fact("R", "a")
    with pytest.raises(TypeError):
        fact("R", "a") < ("R", ("a",))
    with pytest.raises(FrozenInstanceError):
        f.relation = "S"
    with pytest.raises(FrozenInstanceError):
        del f.arguments
    assert not hasattr(f, "__dict__")
    assert copy.copy(f) == f and copy.deepcopy(f) == f


def test_fact_hash_is_cached_and_left_out_of_the_pickle():
    import pickle

    f = fact("S", "a", 1)
    before = pickle.dumps(f)
    assert hash(f) == hash(("S", ("a", 1))) == hash(f)
    assert f._hash == hash(f)
    assert pickle.dumps(f) == before
    copy = pickle.loads(before)
    assert copy == f and copy._hash is None
    assert hash(copy) == hash(f)
    # 1 == True, so the two facts are equal and must hash alike.
    assert hash(fact("R", 1)) == hash(fact("R", True))


def test_facts_from_columns_builds_the_same_facts():
    from repro.data.instance import facts_from_columns

    built = facts_from_columns(["R", "S"], [("a",), ("a", 1)])
    assert built == [fact("R", "a"), fact("S", "a", 1)]
    assert all(f._hash is None for f in built)
    assert {built[1]: 1}[fact("S", "a", 1)] == 1


# -- the cached hash across processes ---------------------------------------------------

_DUMP = """
import pickle, sys
from repro.generators import labelled_partial_ktree_instance
instance = labelled_partial_ktree_instance(40, 2)
assert len(set(instance.facts)) == len(instance)  # every fact hashes, and caches it
with open(sys.argv[1], "wb") as handle:
    pickle.dump(instance, handle)
"""

_LOAD = """
import pickle, sys
from collections import defaultdict
from fractions import Fraction
from repro.data.instance import Fact
from repro.data.tid import ProbabilisticInstance
from repro.errors import ProbabilityError
from repro.generators import labelled_partial_ktree_instance
with open(sys.argv[1], "rb") as handle:
    loaded = pickle.load(handle)
fresh = labelled_partial_ktree_instance(40, 2)
assert loaded == fresh and loaded.facts == fresh.facts
assert loaded.fingerprint == fresh.fingerprint
positions = {f: i for i, f in enumerate(loaded.facts)}
assert all(positions[Fact(f.relation, f.arguments)] == i for i, f in enumerate(fresh.facts))
assert all(f in fresh for f in loaded.facts)
# A complete valuation in another order goes through valuation.get per fact.
valuation = defaultdict(lambda: Fraction(1, 3))
valuation.update({f: Fraction(i % 7, 7) for i, f in reversed(list(enumerate(fresh.facts)))})
kept = dict(valuation)
tid = ProbabilisticInstance(loaded, valuation)
assert dict(valuation) == kept and len(valuation) == len(fresh)
assert tid.column() == tuple(Fraction(i % 7, 7) for i in range(len(fresh)))
unknown = dict(valuation)
del unknown[fresh.facts[0]]
unknown[Fact("Z", ("nowhere",))] = Fraction(1, 2)
try:
    ProbabilisticInstance(loaded, unknown)
except ProbabilityError as error:
    assert "Z(nowhere)" in str(error), error
else:
    raise AssertionError("an unknown fact was not reported")
print("hash travels correctly")
"""


def test_a_pickled_instance_finds_its_facts_under_another_hash_seed(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    pickled = tmp_path / "instance.pickle"
    for script, hash_seed in ((_DUMP, "0"), (_LOAD, "1")):
        env = dict(
            os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(filter(None, paths))
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(pickled)],
            env=env,
            capture_output=True,
            text=True,
            timeout=110,
        )
        assert result.returncode == 0, result.stdout + result.stderr
    assert "hash travels correctly" in result.stdout
