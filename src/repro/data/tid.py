"""Tuple-independent probabilistic databases (TID), Definition 3.1.

A :class:`ProbabilisticInstance` pairs a relational instance with a
*probability valuation* mapping each fact to a probability in [0, 1].  The
semantics is the product distribution over subinstances where each fact is
kept independently with its probability.

Probabilities are stored as :class:`fractions.Fraction` so that all
computations in the library are exact, matching the paper's "ra-linear"
cost model (rational arithmetic of polynomial size).  Floats are accepted as
the nearest fraction with a denominator of at most ``10**12``
(:func:`as_probability`), so ``0.1`` is ``1/10``; every later operation is
exact.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.data.instance import Fact, Instance
from repro.errors import ProbabilityError

ProbabilityLike = Fraction | float | int | str | tuple[int, int]


def as_probability(value: ProbabilityLike) -> Fraction:
    """Convert a user-supplied probability to an exact Fraction in [0, 1].

    The range check compares the normalized numerator and denominator as
    integers (a ``Fraction`` always has a positive denominator), which is
    what keeps validating an already-exact valuation cheap.
    """
    if isinstance(value, Fraction):
        prob = value
    elif isinstance(value, tuple):
        prob = Fraction(value[0], value[1])
    elif isinstance(value, (int, str)):
        prob = Fraction(value)
    elif isinstance(value, float):
        prob = Fraction(value).limit_denominator(10**12)
    else:
        raise ProbabilityError(f"cannot interpret {value!r} as a probability")
    if not 0 <= prob.numerator <= prob.denominator:
        raise ProbabilityError(f"probability {prob} outside [0, 1]")
    return prob


class ProbabilisticInstance:
    """An instance together with a probability valuation on its facts.

    Parameters
    ----------
    instance:
        The underlying relational instance.
    valuation:
        Mapping from facts to probabilities.  Facts not mentioned get the
        ``default`` probability (1 by default, i.e. certain facts).
    default:
        Probability assigned to unmentioned facts.
    """

    # ``__weakref__``: the engine's probability cache holds TIDs weakly.
    __slots__ = ("_instance", "_valuation", "_fingerprint", "__weakref__")

    def __init__(
        self,
        instance: Instance,
        valuation: Mapping[Fact, ProbabilityLike] | None = None,
        default: ProbabilityLike = 1,
    ) -> None:
        """Validate ``valuation`` against ``instance`` in one pass.

        The stored valuation starts as every fact of ``instance`` (in its
        order) at ``default``; ``valuation`` is merged over it, which reuses
        the hashes a ``dict`` valuation already stores.  Any fact the merge
        appends is unknown to the instance, so :class:`ProbabilityError`
        names up to three of them; this check comes before any probability
        is validated.  Then each given probability goes through
        :func:`as_probability`, once.
        """
        default_prob = as_probability(default)
        probabilities: dict[Fact, Any] = dict.fromkeys(instance.facts, default_prob)
        if valuation:
            size = len(probabilities)
            probabilities.update(valuation)
            if len(probabilities) != size:
                unknown = map(str, islice(probabilities, size, None))
                raise ProbabilityError(
                    f"valuation mentions facts not in the instance: {sorted(unknown)[:3]}"
                )
            for f, given in valuation.items():
                probability = as_probability(given)
                if probability is not given:
                    probabilities[f] = probability
        self._instance = instance
        self._valuation: dict[Fact, Fraction] = probabilities
        self._fingerprint: str | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def uniform(cls, instance: Instance, probability: ProbabilityLike = Fraction(1, 2)) -> "ProbabilisticInstance":
        """All facts get the same probability (1/2 by default).

        With probability 1/2 on every fact, query probability times ``2^|I|``
        is exactly the model count of the query lineage (footnote 3 of the
        paper), which is how the reductions of Sections 4 and 5 operate.
        """
        return cls(instance, {}, default=probability)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Fact, ProbabilityLike]], signature=None
    ) -> "ProbabilisticInstance":
        """Build both the instance and the valuation from (fact, probability) pairs."""
        pair_list = list(pairs)
        instance = Instance([f for f, _ in pair_list], signature)
        return cls(instance, dict(pair_list))

    @classmethod
    def from_column(
        cls, instance: Instance, probabilities: Sequence[ProbabilityLike]
    ) -> "ProbabilisticInstance":
        """The TID in which ``instance.facts[i]`` has ``probabilities[i]``.

        The inverse of :meth:`column`, for callers that already hold the
        probabilities in fact order (a pool worker, a file that lists its
        facts in that order): no valuation is merged and no fact is looked
        up.  A column whose length differs from the instance's raises
        :class:`ProbabilityError`; then each value goes through
        :func:`as_probability`, as in ``__init__``.
        """
        facts = instance.facts
        if len(probabilities) != len(facts):
            raise ProbabilityError(
                f"{len(probabilities)} probabilities for {len(facts)} facts"
            )
        tid = cls.__new__(cls)
        tid._instance = instance
        tid._valuation = dict(zip(facts, map(as_probability, probabilities)))
        tid._fingerprint = None
        return tid

    # -- accessors ------------------------------------------------------------

    @property
    def instance(self) -> Instance:
        return self._instance

    @property
    def signature(self):
        return self._instance.signature

    @property
    def fingerprint(self) -> str:
        """A content fingerprint of the TID instance (SHA-256 hex digest).

        Extends the underlying instance's fingerprint with the probability
        valuation (in the instance's deterministic fact order), so two TID
        instances share a fingerprint exactly when they have the same facts,
        signature, and probabilities.  It is computed on first use only:
        :class:`repro.engine.CompilationEngine` keys probability results on
        the TID object, not on this digest, so a content-equal TID built
        elsewhere recomputes its answer (on the instance's cached lineages
        and circuits), and a parallel batch groups and ships its TIDs
        without it.  The probabilities are rendered as
        ``numerator/denominator;`` and hashed after the instance fingerprint
        in a single update.
        """
        if self._fingerprint is None:
            rendered = "".join([f"{p.numerator}/{p.denominator};" for p in self._valuation.values()])
            self._fingerprint = hashlib.sha256(
                (self._instance.fingerprint + rendered).encode()
            ).hexdigest()
        return self._fingerprint

    def probability_of(self, f: Fact) -> Fraction:
        try:
            return self._valuation[f]
        except KeyError:
            raise ProbabilityError(f"{f} is not a fact of this instance") from None

    def probabilities_of(self, relation: str) -> tuple[Fraction, ...]:
        """The probabilities of ``instance.facts_of(relation)``, in that order.

        The valuation holds one entry per fact in ``instance.facts`` order, so
        this is a slice of its values at the relation's block: no fact is
        hashed and no dict is copied.
        """
        start = self._instance.block_start(relation)
        stop = start + len(self._instance.facts_of(relation))
        return tuple(islice(self._valuation.values(), start, stop))

    def column(self) -> tuple[Fraction, ...]:
        """The probabilities of ``instance.facts``, in that order (what
        :meth:`from_column` takes)."""
        return tuple(self._valuation.values())

    def valuation(self) -> dict[Fact, Fraction]:
        """A copy of the full fact-to-probability mapping."""
        return dict(self._valuation)

    def __len__(self) -> int:
        return len(self._instance)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._instance)

    def __repr__(self) -> str:
        return f"ProbabilisticInstance({len(self)} facts)"

    # -- semantics ------------------------------------------------------------

    def world_probability(self, world: Instance | Iterable[Fact]) -> Fraction:
        """The probability pi(I') of a possible world ``I' ⊆ I`` (Definition 3.1)."""
        if isinstance(world, Instance):
            chosen = set(world.facts)
        else:
            chosen = set(world)
        unknown = chosen - set(self._instance.facts)
        if unknown:
            raise ProbabilityError("world contains facts not in the instance")
        probability = Fraction(1)
        for f in self._instance:
            p = self._valuation[f]
            probability *= p if f in chosen else 1 - p
        return probability

    def possible_worlds(self) -> Iterator[tuple[Instance, Fraction]]:
        """Enumerate all possible worlds with their probabilities (small instances)."""
        for world in self._instance.all_subinstances():
            yield world, self.world_probability(world)

    def certain_facts(self) -> tuple[Fact, ...]:
        """Facts with probability exactly 1."""
        return tuple(f for f in self._instance if self._valuation[f] == 1)

    def impossible_facts(self) -> tuple[Fact, ...]:
        """Facts with probability exactly 0."""
        return tuple(f for f in self._instance if self._valuation[f] == 0)

    def condition(self, kept: Iterable[Fact], removed: Iterable[Fact] = ()) -> "ProbabilisticInstance":
        """A new probabilistic instance where ``kept`` facts get probability 1
        and ``removed`` facts get probability 0 (used in reductions)."""
        new_valuation = dict(self._valuation)
        for f in kept:
            new_valuation[Fact(f.relation, f.arguments)] = Fraction(1)
        for f in removed:
            new_valuation[Fact(f.relation, f.arguments)] = Fraction(0)
        return ProbabilisticInstance(self._instance, new_valuation)
