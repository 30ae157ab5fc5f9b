"""Tests for repro.data.tid (tuple-independent databases)."""

import pickle
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.instance import Fact, Instance, fact
from repro.data.io import load_instance, load_tid, save_instance
from repro.data.reference import tid_fingerprint_seed, valuation_seed
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance, as_probability
from repro.errors import ProbabilityError
from repro.generators import labelled_partial_ktree_instance
from repro.generators.random_instances import random_instance


def make_tid():
    instance = Instance([fact("R", "a"), fact("R", "b")])
    return ProbabilisticInstance(
        instance, {fact("R", "a"): Fraction(1, 2), fact("R", "b"): Fraction(1, 4)}
    )


def test_as_probability_conversions():
    assert as_probability(1) == 1
    assert as_probability("1/3") == Fraction(1, 3)
    assert as_probability((2, 4)) == Fraction(1, 2)
    assert as_probability(0.5) == Fraction(1, 2)
    with pytest.raises(ProbabilityError):
        as_probability(2)
    with pytest.raises(ProbabilityError):
        as_probability(-0.1)


def test_world_probability():
    tid = make_tid()
    world = [fact("R", "a")]
    assert tid.world_probability(world) == Fraction(1, 2) * Fraction(3, 4)
    assert tid.world_probability([]) == Fraction(1, 2) * Fraction(3, 4)
    assert tid.world_probability(tid.instance) == Fraction(1, 2) * Fraction(1, 4)


def test_possible_worlds_sum_to_one():
    tid = make_tid()
    total = sum(p for _, p in tid.possible_worlds())
    assert total == 1


def test_unknown_fact_rejected():
    tid = make_tid()
    with pytest.raises(ProbabilityError):
        tid.probability_of(fact("R", "zzz"))
    with pytest.raises(ProbabilityError):
        tid.world_probability([fact("R", "zzz")])
    with pytest.raises(ProbabilityError):
        ProbabilisticInstance(tid.instance, {fact("R", "zzz"): 1})


def test_uniform_and_default():
    instance = Instance([fact("R", "a"), fact("R", "b")])
    uniform = ProbabilisticInstance.uniform(instance)
    assert uniform.probability_of(fact("R", "a")) == Fraction(1, 2)
    certain = ProbabilisticInstance(instance)
    assert certain.probability_of(fact("R", "b")) == 1
    assert certain.certain_facts() == instance.facts


def test_condition():
    tid = make_tid()
    conditioned = tid.condition(kept=[fact("R", "a")], removed=[fact("R", "b")])
    assert conditioned.probability_of(fact("R", "a")) == 1
    assert conditioned.probability_of(fact("R", "b")) == 0
    assert conditioned.impossible_facts() == (fact("R", "b"),)


def test_from_pairs():
    tid = ProbabilisticInstance.from_pairs([(fact("R", "a"), Fraction(1, 3))])
    assert len(tid) == 1
    assert tid.probability_of(fact("R", "a")) == Fraction(1, 3)


def test_from_ratios_equals_the_valuation_build():
    tid = make_tid()
    rebuilt = ProbabilisticInstance.from_ratios(tid.instance, *tid.ratios())
    assert rebuilt.valuation() == tid.valuation()
    assert rebuilt.fingerprint == tid.fingerprint
    assert rebuilt.column() == (Fraction(1, 2), Fraction(1, 4))


def test_in_order_valuation_converts_each_value_like_as_probability():
    instance = make_tid().instance
    rebuilt = ProbabilisticInstance(instance, dict(zip(instance.facts, [0.1, (1, 3)])))
    assert rebuilt.column() == (Fraction(1, 10), Fraction(1, 3))
    assert rebuilt.ratios() == ((1, 1), (10, 3))
    with pytest.raises(ProbabilityError, match="outside"):
        ProbabilisticInstance(instance, dict(zip(instance.facts, [Fraction(1, 2), Fraction(3, 2)])))


# -- integer columns -------------------------------------------------------------------------

_INSTANCE = random_instance(Signature([("R", 1), ("S", 2)]), 4, 8, seed=3)
_OUTSIDE = [fact("R", "zz"), fact("S", "zz", "e0")]
_VALID = [
    st.builds(Fraction, st.integers(0, 7), st.just(7)),
    st.sampled_from([0, 1]),
    st.sampled_from([0.0, 0.1, 0.25, 1.0]),
    st.sampled_from(["0", "1", "1/3", "0.5", " 2/4 "]),
    st.sampled_from([(0, 1), (1, 2), (2, 6), (5, 5)]),
]
_INVALID = st.sampled_from([Fraction(3, 2), -1, 2, 1.5, "5/4", "x", (1, 0), (3, 2), None])


@st.composite
def valuations(draw):
    """A valuation over ``_INSTANCE``: in fact order, shuffled or partial,
    with values of every accepted type, and sometimes invalid values (one
    or several, so that which one is reported matters) or a fact outside
    the instance."""
    facts = list(_INSTANCE.facts)
    layout = draw(st.sampled_from(["in order", "shuffled", "partial"]))
    if layout == "shuffled":
        facts = draw(st.permutations(facts))
    elif layout == "partial":
        facts = draw(st.lists(st.sampled_from(facts), unique=True))
    invalid = draw(st.sampled_from([0, 0, 1, 3]))
    values = [
        draw(_INVALID if draw(st.integers(0, 7)) < invalid else st.one_of(_VALID))
        for _ in facts
    ]
    if draw(st.integers(0, 5)) == 0:
        facts.insert(draw(st.integers(0, len(facts))), draw(st.sampled_from(_OUTSIDE)))
        values.append(draw(st.one_of(_VALID)))
    default = draw(st.one_of(st.just(1), st.sampled_from([Fraction(1, 2), 0, "1/3"])))
    return dict(zip(facts, values)), default


def _dict_keyed(instance, valuation, default):
    """The fact-keyed build that the integer columns replaced: the default
    is converted first, facts outside the instance are reported next, then
    each given value is converted in valuation order."""
    default_prob = as_probability(default)
    merged = dict.fromkeys(instance.facts, default_prob)
    merged.update(valuation)
    if len(merged) != len(instance):
        unknown = sorted(map(str, islice(merged, len(instance), None)))
        raise ProbabilityError(f"valuation mentions facts not in the instance: {unknown[:3]}")
    for f, given in valuation.items():
        merged[f] = as_probability(given)
    return merged


def _outcome(build):
    try:
        return build()
    except Exception as error:  # the type and message are what is compared
        return type(error), str(error)


@settings(max_examples=300, deadline=None)
@given(case=valuations())
def test_a_tid_from_any_valuation_reads_as_the_fact_keyed_build(case):
    valuation, default = case
    tid = _outcome(lambda: ProbabilisticInstance(_INSTANCE, valuation, default))
    expected = _outcome(lambda: _dict_keyed(_INSTANCE, valuation, default))
    if isinstance(expected, tuple):
        assert tid == expected
        return
    seed = valuation_seed(_INSTANCE.facts, valuation, default)
    assert expected == seed
    assert tid.valuation() == seed
    assert tid.column() == tuple(seed.values())
    assert [tid.probability_of(f) for f in _INSTANCE.facts] == list(seed.values())
    for relation in ("R", "S", "T"):
        assert tid.probabilities_of(relation) == tuple(
            seed[f] for f in _INSTANCE.facts_of(relation)
        )
    assert tid.ratios() == (
        tuple(p.numerator for p in seed.values()),
        tuple(p.denominator for p in seed.values()),
    )
    assert tid.fingerprint == tid_fingerprint_seed(_INSTANCE.fingerprint, _INSTANCE.facts, seed)
    rebuilt = ProbabilisticInstance(_INSTANCE, dict(zip(_INSTANCE.facts, tid.column())))
    assert rebuilt.ratios() == tid.ratios()


def test_from_ratios_reduces_each_pair_to_lowest_terms():
    instance = make_tid().instance
    tid = ProbabilisticInstance.from_ratios(instance, [2, 0], [4, 5])
    assert tid.ratios() == ((1, 0), (2, 1))
    assert tid.column() == (Fraction(1, 2), Fraction(0))
    in_order = ProbabilisticInstance(instance, dict(zip(instance.facts, ["1/2", 0])))
    assert tid.fingerprint == in_order.fingerprint
    assert ProbabilisticInstance.from_ratios(instance, *make_tid().ratios()).valuation() == (
        make_tid().valuation()
    )


@pytest.mark.parametrize(
    "numerators, denominators",
    [
        ([-1, 1], [2, 2]),
        ([3, 1], [2, 2]),
        ([1, 0], [0, 1]),
        ([], []),
        ([1], [2]),
        ([1, 1], [2]),
        ([1] * 3, [2] * 3),
    ],
    ids=["negative", "above one", "zero denominator", "empty", "short", "ragged", "long"],
)
def test_from_ratios_rejects_what_is_no_probability_column(numerators, denominators):
    with pytest.raises(ProbabilityError):
        ProbabilisticInstance.from_ratios(make_tid().instance, numerators, denominators)


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``Fact.__hash__`` calls and ``Fraction`` constructions."""
    counts = {"hash": 0, "fraction": 0}
    fact_hash, fraction_new = Fact.__hash__, Fraction.__new__

    def hashed(self):
        counts["hash"] += 1
        return fact_hash(self)

    def built(cls, *args, **kwargs):
        counts["fraction"] += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fact, "__hash__", hashed)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(built))
    return counts


def test_an_in_order_valuation_hashes_no_fact_and_builds_no_fraction(counted):
    instance = labelled_partial_ktree_instance(30, 2, seed=1)
    generator = random.Random(0)
    valuation = {f: Fraction(generator.randint(1, 999), 1000) for f in instance}
    counted.update(hash=0, fraction=0)
    tid = ProbabilisticInstance(instance, valuation)
    assert counted == {"hash": 0, "fraction": 0}
    assert tid.column() == tuple(valuation.values())


def test_loading_a_saved_tid_hashes_no_fact_beyond_the_instance(tmp_path, counted):
    instance = labelled_partial_ktree_instance(30, 2, seed=1)
    generator = random.Random(0)
    saved = ProbabilisticInstance(
        instance, {f: Fraction(generator.randint(1, 999), 1000) for f in instance}
    )
    path = tmp_path / "tid.json"
    save_instance(saved, path)
    counted.update(hash=0, fraction=0)
    load_instance(path)
    instance_hashes = counted["hash"]
    counted.update(hash=0, fraction=0)
    loaded = load_tid(path)
    assert counted == {"hash": instance_hashes, "fraction": 0}
    assert loaded.ratios() == saved.ratios()
    assert loaded.fingerprint == saved.fingerprint


def test_a_pickled_tid_carries_no_lazy_cache():
    tid = make_tid()
    assert tid.valuation() and tid.fingerprint
    restored = pickle.loads(pickle.dumps(tid))
    assert restored._fractions is None and restored._by_fact is None
    assert restored._fingerprint == tid.fingerprint
    assert restored.ratios() == tid.ratios()
    assert restored.valuation() == tid.valuation()
    bare = ProbabilisticInstance.from_ratios(tid.instance, *tid.ratios())
    assert bare.fingerprint == tid.fingerprint
    assert len(pickle.dumps(bare)) == len(pickle.dumps(tid))
