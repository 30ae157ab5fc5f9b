"""Tests for repro.data.tid (tuple-independent databases)."""

from fractions import Fraction

import pytest

from repro.data.instance import Instance, fact
from repro.data.tid import ProbabilisticInstance, as_probability
from repro.errors import ProbabilityError


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


def test_from_column_equals_the_valuation_build():
    tid = make_tid()
    rebuilt = ProbabilisticInstance.from_column(tid.instance, tid.column())
    assert rebuilt.valuation() == tid.valuation()
    assert rebuilt.fingerprint == tid.fingerprint
    assert rebuilt.column() == (Fraction(1, 2), Fraction(1, 4))


def test_from_column_converts_each_value_like_init():
    instance = make_tid().instance
    rebuilt = ProbabilisticInstance.from_column(instance, [0.1, (1, 3)])
    assert rebuilt.column() == (Fraction(1, 10), Fraction(1, 3))
    assert rebuilt.valuation() == ProbabilisticInstance(
        instance, dict(zip(instance.facts, [0.1, (1, 3)]))
    ).valuation()
    with pytest.raises(ProbabilityError, match="outside"):
        ProbabilisticInstance.from_column(instance, [Fraction(1, 2), Fraction(3, 2)])


@pytest.mark.parametrize("column", [[], [Fraction(1, 2)], [1, 1, 1]])
def test_from_column_rejects_a_column_of_the_wrong_length(column):
    with pytest.raises(ProbabilityError, match="facts"):
        ProbabilisticInstance.from_column(make_tid().instance, column)
