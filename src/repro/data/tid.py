"""Tuple-independent probabilistic databases (TID), Definition 3.1.

A :class:`ProbabilisticInstance` pairs a relational instance with a
*probability valuation* mapping each fact to a probability in [0, 1].  The
semantics is the product distribution over subinstances where each fact is
kept independently with its probability.

Probabilities are exact rationals, matching the paper's "ra-linear" cost
model (rational arithmetic of polynomial size).  A TID stores them as two
columns of Python ints aligned with ``instance.facts``: the numerators and
the denominators, in lowest terms, each denominator at least 1
(:meth:`ProbabilisticInstance.ratios`).  The exact kernels read those
columns by position.  :class:`fractions.Fraction` values and a fact-keyed
map are built only when a caller asks for them (:meth:`~ProbabilisticInstance.column`,
:meth:`~ProbabilisticInstance.valuation`, ...), and a valuation given as
``Fraction`` values is kept as given.  Floats are accepted as the nearest
fraction with a denominator of at most ``10**12`` (:func:`as_probability`),
so ``0.1`` is ``1/10``; every later operation is exact.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import compress, islice, repeat
from math import gcd
from operator import eq, floordiv, is_, le, not_
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.data.instance import Fact, Instance
from repro.errors import ProbabilityError

ProbabilityLike = Fraction | float | int | str | tuple[int, int]

# The getters of the public ``numerator`` and ``denominator`` properties:
# mapped over a column, they skip the attribute lookup that ``attrgetter``
# repeats for every value.
_NUMERATOR = Fraction.numerator.fget
_DENOMINATOR = Fraction.denominator.fget
#: The default probability of an unmentioned fact, built once.
_CERTAIN = Fraction(1)
#: What ``valuation.get`` returns for a fact the valuation does not name.
_MISSING = object()
#: What :func:`as_probability` raises on a value it cannot take.
_CONVERSION_ERRORS = (ProbabilityError, ArithmeticError, LookupError, TypeError, ValueError)


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

    What is stored: the instance, and two tuples of Python ints in
    ``instance.facts`` order, the numerators and the denominators of the
    probabilities in lowest terms (:meth:`ratios`).  A valuation given as
    ``Fraction`` values is kept too, as given.  What is built on demand,
    once: the ``Fraction`` column (when no ``Fraction`` values were given),
    the fact-to-probability map that :meth:`valuation` copies, and the
    :attr:`fingerprint`.  A pickle carries the instance, the two columns and
    the fingerprint, never the ``Fraction`` column or the map.

    A valuation that lists exactly ``instance.facts``, in that order (any
    valuation built by iterating the instance does), is read as a column:
    no fact is hashed.  A valuation of every fact in another order is read
    with one lookup per fact; a partial one is merged by fact.
    """

    # ``__weakref__``: the engine's probability cache holds TIDs weakly.
    __slots__ = (
        "_instance",
        "_numerators",
        "_denominators",
        "_fractions",
        "_by_fact",
        "_fingerprint",
        "__weakref__",
    )

    def __init__(
        self,
        instance: Instance,
        valuation: Mapping[Fact, ProbabilityLike] | None = None,
        default: ProbabilityLike = 1,
    ) -> None:
        """Validate ``valuation`` against ``instance`` in one pass.

        When ``valuation`` lists exactly ``instance.facts`` in order (the
        keys are the instance's own fact objects), its values are the
        column, and no fact is hashed.  When it names as many facts as the
        instance has, in another order, the column is one
        ``valuation.get(fact)`` per fact of the instance, which hashes each
        fact once (a :class:`~repro.data.instance.Fact` caches its hash)
        and never inserts into the valuation, so a ``defaultdict`` is left
        as it was.  Otherwise, or when one of those lookups misses, every
        fact of ``instance`` starts at ``default`` and ``valuation`` is
        merged over it.  Any fact the merge appends is unknown to the
        instance, so :class:`ProbabilityError` names up to three of them;
        this check comes before any probability is validated.
        ``Fraction`` values are range-checked in bulk; other values go
        through :func:`as_probability`.  An invalid value raises the error
        :func:`as_probability` raises for the first invalid value in
        ``valuation`` order.
        """
        default_prob = (
            _CERTAIN if type(default) is int and default == 1 else as_probability(default)
        )
        facts = instance.facts
        self._instance = instance
        self._by_fact: dict[Fact, Fraction] | None = None
        self._fingerprint: str | None = None
        if not valuation:
            count = len(facts)
            self._numerators = (default_prob.numerator,) * count
            self._denominators = (default_prob.denominator,) * count
            self._fractions: tuple[Fraction, ...] | None = (default_prob,) * count
            return
        values: Iterable[Any] | None = None
        if len(valuation) == len(facts):
            if all(map(is_, valuation, facts)):
                values = valuation.values()
            else:
                # Each fact's own value, or _MISSING when the valuation
                # names a fact the instance lacks in its place.
                found = list(map(valuation.get, facts, repeat(_MISSING)))
                if not any(map(is_, found, repeat(_MISSING))):
                    values = found
        if values is None:
            merged: dict[Fact, Any] = dict.fromkeys(facts, default_prob)
            merged.update(valuation)
            if len(merged) != len(facts):
                unknown = map(str, islice(merged, len(facts), None))
                raise ProbabilityError(
                    f"valuation mentions facts not in the instance: {sorted(unknown)[:3]}"
                )
            values = merged.values()
        self._numerators, self._denominators, self._fractions = _checked_column(
            tuple(values), valuation.values()
        )

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
    def from_ratios(
        cls, instance: Instance, numerators: Sequence[int], denominators: Sequence[int]
    ) -> "ProbabilisticInstance":
        """The TID in which ``instance.facts[i]`` has probability
        ``numerators[i] / denominators[i]``: the inverse of :meth:`ratios`.

        No ``Fraction`` is built and no fact is looked up.  Columns whose
        lengths differ from the instance's, a denominator below 1, or a
        pair outside ``0 <= n <= d`` raise :class:`ProbabilityError`.  The
        pairs are reduced to lowest terms only when some pair is not.
        """
        facts = instance.facts
        if not len(numerators) == len(denominators) == len(facts):
            raise ProbabilityError(
                f"{len(numerators)} numerators and {len(denominators)} denominators "
                f"for {len(facts)} facts"
            )
        numerators, denominators = tuple(numerators), tuple(denominators)
        if numerators and (
            min(numerators) < 0
            or min(denominators) < 1
            or not all(map(le, numerators, denominators))
        ):
            for numerator, denominator in zip(numerators, denominators):
                if denominator < 1:
                    raise ProbabilityError(
                        f"probability {numerator}/{denominator}: denominator below 1"
                    )
                if not 0 <= numerator <= denominator:
                    raise ProbabilityError(
                        f"probability {Fraction(numerator, denominator)} outside [0, 1]"
                    )
        divisors = list(map(gcd, numerators, denominators))
        if divisors.count(1) != len(divisors):
            numerators = tuple(map(floordiv, numerators, divisors))
            denominators = tuple(map(floordiv, denominators, divisors))
        return cls._from_columns(instance, numerators, denominators)

    @classmethod
    def _from_columns(
        cls,
        instance: Instance,
        numerators: tuple[int, ...],
        denominators: tuple[int, ...],
        fractions: tuple[Fraction, ...] | None = None,
    ) -> "ProbabilisticInstance":
        """A TID over already checked, reduced columns."""
        tid = cls.__new__(cls)
        tid._instance = instance
        tid._numerators = numerators
        tid._denominators = denominators
        tid._fractions = fractions
        tid._by_fact = None
        tid._fingerprint = None
        return tid

    def __getstate__(self) -> tuple:
        # The Fraction column and the fact map are rebuilt on demand, so a
        # pickle leaves them out; the fingerprint is content-derived.
        return (self._instance, self._numerators, self._denominators, self._fingerprint)

    def __setstate__(self, state: tuple) -> None:
        self._instance, self._numerators, self._denominators, self._fingerprint = state
        self._fractions = None
        self._by_fact = None

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
        without it.  The probabilities are rendered from the columns as
        ``numerator/denominator;`` and hashed after the instance fingerprint
        in a single update.
        """
        if self._fingerprint is None:
            rendered = "".join(map("%d/%d;".__mod__, zip(self._numerators, self._denominators)))
            self._fingerprint = hashlib.sha256(
                (self._instance.fingerprint + rendered).encode()
            ).hexdigest()
        return self._fingerprint

    def ratios(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The numerators and the denominators of the probabilities of
        ``instance.facts``, in that order and in lowest terms (what
        :meth:`from_ratios` takes)."""
        return self._numerators, self._denominators

    def probability_of(self, f: Fact) -> Fraction:
        position = self._position(f)
        if position is None:
            raise ProbabilityError(f"{f} is not a fact of this instance")
        return self.column()[position]

    def probabilities_of(self, relation: str) -> tuple[Fraction, ...]:
        """The probabilities of ``instance.facts_of(relation)``, in that order:
        a slice of :meth:`column` at the relation's block."""
        start = self._instance.block_start(relation)
        return self.column()[start : start + len(self._instance.facts_of(relation))]

    def column(self) -> tuple[Fraction, ...]:
        """The probabilities of ``instance.facts``, in that order.  Built
        from :meth:`ratios` on first use, unless the valuation was given as
        ``Fraction`` values."""
        if self._fractions is None:
            self._fractions = tuple(map(Fraction, self._numerators, self._denominators))
        return self._fractions

    def valuation(self) -> dict[Fact, Fraction]:
        """A copy of the full fact-to-probability mapping."""
        if self._by_fact is None:
            self._by_fact = dict(zip(self._instance.facts, self.column()))
        return dict(self._by_fact)

    def __len__(self) -> int:
        return len(self._instance)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._instance)

    def __repr__(self) -> str:
        return f"ProbabilisticInstance({len(self)} facts)"

    # -- semantics ------------------------------------------------------------

    def world_probability(self, world: Instance | Iterable[Fact]) -> Fraction:
        """The probability pi(I') of a possible world ``I' ⊆ I`` (Definition 3.1)."""
        chosen = set(world.facts if isinstance(world, Instance) else world)
        positions = set(map(self._position, chosen))
        if None in positions:
            raise ProbabilityError("world contains facts not in the instance")
        numerator = denominator = 1
        for position, (n, d) in enumerate(zip(self._numerators, self._denominators)):
            numerator *= n if position in positions else d - n
            denominator *= d
        return Fraction(numerator, denominator)

    def possible_worlds(self) -> Iterator[tuple[Instance, Fraction]]:
        """Enumerate all possible worlds with their probabilities (small instances)."""
        for world in self._instance.all_subinstances():
            yield world, self.world_probability(world)

    def certain_facts(self) -> tuple[Fact, ...]:
        """Facts with probability exactly 1."""
        return tuple(compress(self._instance.facts, map(eq, self._numerators, self._denominators)))

    def impossible_facts(self) -> tuple[Fact, ...]:
        """Facts with probability exactly 0."""
        return tuple(compress(self._instance.facts, map(not_, self._numerators)))

    def condition(self, kept: Iterable[Fact], removed: Iterable[Fact] = ()) -> "ProbabilisticInstance":
        """A new probabilistic instance where ``kept`` facts get probability 1
        and ``removed`` facts get probability 0 (used in reductions)."""
        numerators, denominators = list(self._numerators), list(self._denominators)
        unknown: dict[Fact, None] = {}
        for facts, value in ((kept, 1), (removed, 0)):
            for f in facts:
                f = Fact(f.relation, f.arguments)
                position = self._position(f)
                if position is None:
                    unknown[f] = None
                else:
                    numerators[position], denominators[position] = value, 1
        if unknown:
            raise ProbabilityError(
                f"valuation mentions facts not in the instance: {sorted(map(str, unknown))[:3]}"
            )
        return self._from_columns(self._instance, tuple(numerators), tuple(denominators))

    def _position(self, f: Any) -> int | None:
        """Where ``f`` sits in ``instance.facts``, or None."""
        if not isinstance(f, Fact):
            return None
        return self._instance.fact_positions(f.relation).get(f.arguments)


def _checked_column(
    values: tuple[Any, ...], given: Iterable[Any]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[Fraction, ...]]:
    """The numerators, denominators and ``Fraction`` values of ``values``.

    ``Fraction`` values are read in two attribute passes and range-checked
    in bulk; any other value goes through :func:`as_probability`.  On an
    invalid value, ``given`` (the caller's values, in the caller's order) is
    walked through :func:`as_probability`, so the error names the first
    invalid value the caller gave."""
    try:
        if not all(map(isinstance, values, repeat(Fraction))):
            values = tuple(map(as_probability, values))
        numerators = tuple(map(_NUMERATOR, values))
        denominators = tuple(map(_DENOMINATOR, values))
        if numerators and (min(numerators) < 0 or not all(map(le, numerators, denominators))):
            raise ProbabilityError("probability outside [0, 1]")
    except _CONVERSION_ERRORS:
        for value in given:
            as_probability(value)
        raise
    return numerators, denominators, values
