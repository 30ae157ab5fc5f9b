"""Commutative semirings for provenance evaluation.

A commutative semiring (K, +, *, 0, 1) has two associative and commutative
operations with identities 0 and 1, * distributing over +, and 0 annihilating
for *.  Provenance semirings additionally interpret + as "alternative use of
facts" and * as "joint use of facts" (Green et al., PODS 2007).

The classical examples shipped here:

=============  =====================  ===========================  =========
Name           Carrier                (+, *)                       Use
=============  =====================  ===========================  =========
``BOOLEAN``    {False, True}          (or, and)                    lineage / PosBool[X] after valuation
``COUNTING``   natural numbers        (+, *)                       number of derivations (bag semantics)
``TROPICAL``   N ∪ {∞}                (min, +)                     cost of the cheapest derivation
``VITERBI``    [0, 1]                 (max, *)                     confidence of the best derivation
``SECURITY``   clearance levels       (min, max)                   minimum clearance needed
``WHY``        sets of fact sets      (∪, pairwise ∪)              why-provenance (witness sets)
``N[X]``       provenance polynomials (poly +, poly *)             most general (universal) provenance
=============  =====================  ===========================  =========
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterable, TypeVar

K = TypeVar("K")


@dataclass(frozen=True)
class Semiring(Generic[K]):
    """A commutative semiring given by its two operations and identities.

    ``name`` is informational; ``is_idempotent_plus`` records whether
    ``a + a == a`` (used by tests and by algorithms that may exploit
    absorption).
    """

    name: str
    zero: K
    one: K
    plus: Callable[[K, K], K]
    times: Callable[[K, K], K]
    is_idempotent_plus: bool = False

    def sum(self, values: Iterable[K]) -> K:
        result = self.zero
        for value in values:
            result = self.plus(result, value)
        return result

    def product(self, values: Iterable[K]) -> K:
        result = self.one
        for value in values:
            result = self.times(result, value)
        return result

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


BOOLEAN: Semiring[bool] = Semiring(
    name="Boolean",
    zero=False,
    one=True,
    plus=lambda a, b: a or b,
    times=lambda a, b: a and b,
    is_idempotent_plus=True,
)

COUNTING: Semiring[int] = Semiring(
    name="Counting",
    zero=0,
    one=1,
    plus=lambda a, b: a + b,
    times=lambda a, b: a * b,
)

TROPICAL: Semiring[float] = Semiring(
    name="Tropical",
    zero=math.inf,
    one=0.0,
    plus=min,
    times=lambda a, b: a + b,
    is_idempotent_plus=True,
)

VITERBI: Semiring[float] = Semiring(
    name="Viterbi",
    zero=0.0,
    one=1.0,
    plus=max,
    times=lambda a, b: a * b,
    is_idempotent_plus=True,
)

# Security semiring over integer clearance levels: 0 = public (most permissive),
# larger = more restricted; "+" keeps the least restrictive alternative and "*"
# needs the most restrictive of the jointly used facts.
SECURITY: Semiring[int] = Semiring(
    name="Security",
    zero=10**9,
    one=0,
    plus=min,
    times=max,
    is_idempotent_plus=True,
)


def _why_plus(left: frozenset, right: frozenset) -> frozenset:
    return left | right


def _why_times(left: frozenset, right: frozenset) -> frozenset:
    return frozenset(a | b for a in left for b in right)


WHY: Semiring[frozenset] = Semiring(
    name="Why",
    zero=frozenset(),
    one=frozenset({frozenset()}),
    plus=_why_plus,
    times=_why_times,
    is_idempotent_plus=True,
)


def why_provenance(witnesses: Iterable[Iterable[Hashable]]) -> frozenset:
    """A Why-semiring value from an iterable of witness fact sets."""
    return frozenset(frozenset(witness) for witness in witnesses)


def polynomial_semiring() -> "Semiring":
    """The free provenance semiring N[X] over monomials on fact variables.

    Values are :class:`repro.semirings.polynomials.ProvenancePolynomial`
    instances.  N[X] is universal: any assignment of the variables into a
    commutative semiring K extends uniquely to a homomorphism N[X] -> K
    (see :meth:`ProvenancePolynomial.specialize`).
    """
    from repro.semirings.polynomials import ProvenancePolynomial

    return Semiring(
        name="N[X]",
        zero=ProvenancePolynomial.zero(),
        one=ProvenancePolynomial.one(),
        plus=lambda a, b: a + b,
        times=lambda a, b: a * b,
    )


def check_semiring_laws(
    semiring: Semiring[K], samples: Iterable[K], equal: Callable[[K, K], bool] | None = None
) -> None:
    """Check the commutative-semiring axioms on a finite sample of values.

    Raises :class:`AssertionError` on the first violated law.  Used by the
    test suite (including property-based tests) to validate both the built-in
    semirings and user-defined ones.
    """
    values = list(samples)
    eq = equal if equal is not None else (lambda a, b: a == b)
    zero, one = semiring.zero, semiring.one
    plus, times = semiring.plus, semiring.times
    for a in values:
        assert eq(plus(a, zero), a), f"{semiring.name}: 0 is not neutral for +"
        assert eq(times(a, one), a), f"{semiring.name}: 1 is not neutral for *"
        assert eq(times(a, zero), zero), f"{semiring.name}: 0 does not annihilate"
        for b in values:
            assert eq(plus(a, b), plus(b, a)), f"{semiring.name}: + not commutative"
            assert eq(times(a, b), times(b, a)), f"{semiring.name}: * not commutative"
            for c in values:
                assert eq(
                    plus(plus(a, b), c), plus(a, plus(b, c))
                ), f"{semiring.name}: + not associative"
                assert eq(
                    times(times(a, b), c), times(a, times(b, c))
                ), f"{semiring.name}: * not associative"
                assert eq(
                    times(a, plus(b, c)), plus(times(a, b), times(a, c))
                ), f"{semiring.name}: * does not distribute over +"
