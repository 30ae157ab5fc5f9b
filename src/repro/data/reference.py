"""Seed input stage, kept as a differential oracle.

:class:`~repro.data.instance.Instance` interns each distinct element once,
ranks the elements by their ``(type name, repr)`` rendering, and sorts facts
by ``(relation, element ranks)``; its fingerprint renders each element once
and hashes in a single update.  :class:`~repro.data.tid.ProbabilisticInstance`
validates its valuation in one pass over the facts.  This module preserves the
*seed* forms of those steps — the per-occurrence ``(type name, repr)`` sort
key, the domain built by a scan of every argument, both per-occurrence
fingerprint loops, the two-set valuation check, and the rich-comparison range
check — for two purposes:

* **identity testing**: ``tests/test_data_identity.py`` checks that the
  interned build yields the same fact order, domain and fingerprints, byte
  for byte, under two hash seeds (store keys, cache keys and OBDD variable
  orders all depend on them);
* **benchmarking**: ``benchmarks/bench_lifted.py`` times the input stage of
  the lifted family against :func:`input_stage_seed` and gates CI on the
  speedup.

:func:`tid_from_dict_seed` keeps the two-pass JSON TID loader (each fact
built from both lists, each string cell through the ``Fraction`` parser) that
``tests/test_io.py`` checks :func:`repro.data.io.tid_from_dict` against.

Do not use these from production code paths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from repro.data.instance import Fact
from repro.data.io import _fact_from_entry, instance_from_dict
from repro.data.signature import Signature
from repro.data.tid import ProbabilisticInstance, ProbabilityLike, as_probability
from repro.errors import InstanceError, ProbabilityError, SignatureError

__all__ = [
    "SeedInput",
    "as_probability_seed",
    "domain_seed",
    "fact_order_seed",
    "input_stage_seed",
    "instance_fingerprint_seed",
    "signature_seed",
    "tid_fingerprint_seed",
    "tid_from_dict_seed",
    "valuation_seed",
]


def _element_key(element: Any) -> tuple[str, str]:
    return (type(element).__name__, repr(element))


def signature_seed(fact_set: Iterable[Fact], signature: Signature | None = None) -> Signature:
    """Infer (or check the facts against) the signature, one fact at a time."""
    facts = list(fact_set)
    for f in facts:
        if not isinstance(f, Fact):
            raise InstanceError(f"expected Fact, got {type(f).__name__}")
    if signature is None:
        arities: dict[str, int] = {}
        for f in facts:
            prev = arities.setdefault(f.relation, f.arity)
            if prev != f.arity:
                raise SignatureError(
                    f"relation {f.relation!r} used with arities {prev} and {f.arity}"
                )
        return Signature(sorted(arities.items()))
    for f in facts:
        if f.relation not in signature:
            raise SignatureError(f"fact {f} uses relation not in signature {signature!r}")
        if signature.arity(f.relation) != f.arity:
            raise SignatureError(
                f"fact {f} has arity {f.arity}, signature says {signature.arity(f.relation)}"
            )
    return signature


def fact_order_seed(fact_set: Iterable[Fact]) -> tuple[Fact, ...]:
    """The seed fact order: sorted by relation, then by ``(type name, repr)``
    of every argument occurrence."""
    return tuple(
        sorted(
            fact_set,
            key=lambda f: (f.relation, tuple(_element_key(a) for a in f.arguments)),
        )
    )


def domain_seed(facts: Sequence[Fact]) -> tuple[Any, ...]:
    """The seed active domain: every argument scanned, first occurrence kept,
    sorted by ``(type name, repr)``."""
    domain: dict[Any, None] = {}
    for f in facts:
        for a in f.arguments:
            domain.setdefault(a, None)
    return tuple(sorted(domain, key=_element_key))


def instance_fingerprint_seed(signature: Signature, facts: Sequence[Fact]) -> str:
    """The seed instance fingerprint: one ``update`` per argument occurrence."""
    hasher = hashlib.sha256()
    for relation in signature:
        hasher.update(f"{relation.name}/{relation.arity};".encode())
    hasher.update(b"|")
    for f in facts:
        hasher.update(f.relation.encode())
        for argument in f.arguments:
            kind, rendering = _element_key(argument)
            hasher.update(b"\x00" + kind.encode() + b"\x1f" + rendering.encode())
        hasher.update(b"\x01")
    return hasher.hexdigest()


def as_probability_seed(value: ProbabilityLike) -> Fraction:
    """The seed probability conversion, range-checked by ``Fraction`` comparisons."""
    if isinstance(value, tuple):
        prob = Fraction(value[0], value[1])
    elif isinstance(value, Fraction):
        prob = value
    elif isinstance(value, (int, str)):
        prob = Fraction(value)
    elif isinstance(value, float):
        prob = Fraction(value).limit_denominator(10**12)
    else:
        raise ProbabilityError(f"cannot interpret {value!r} as a probability")
    if not 0 <= prob <= 1:
        raise ProbabilityError(f"probability {prob} outside [0, 1]")
    return prob


def valuation_seed(
    facts: Sequence[Fact],
    valuation: Mapping[Fact, ProbabilityLike] | None = None,
    default: ProbabilityLike = 1,
) -> dict[Fact, Fraction]:
    """The seed valuation: a two-set check for unknown facts, then one
    conversion per fact."""
    valuation = valuation or {}
    unknown = set(valuation) - set(facts)
    if unknown:
        raise ProbabilityError(
            f"valuation mentions facts not in the instance: {sorted(map(str, unknown))[:3]}"
        )
    default_prob = as_probability_seed(default)
    return {f: as_probability_seed(valuation.get(f, default_prob)) for f in facts}


def tid_fingerprint_seed(
    instance_fingerprint: str, facts: Sequence[Fact], valuation: Mapping[Fact, Fraction]
) -> str:
    """The seed TID fingerprint: one ``update`` per fact."""
    hasher = hashlib.sha256(instance_fingerprint.encode())
    for f in facts:
        p = valuation[f]
        hasher.update(f"{p.numerator}/{p.denominator};".encode())
    return hasher.hexdigest()


@dataclass(frozen=True)
class SeedInput:
    """Everything the seed input stage derives from a fact list."""

    signature: Signature
    facts: tuple[Fact, ...]
    domain: tuple[Any, ...]
    fingerprint: str
    valuation: dict[Fact, Fraction]
    tid_fingerprint: str


def input_stage_seed(
    facts: Iterable[Fact],
    valuation: Mapping[Fact, ProbabilityLike] | None = None,
    default: ProbabilityLike = 1,
    signature: Signature | None = None,
) -> SeedInput:
    """The seed ``ProbabilisticInstance(Instance(facts, signature), valuation,
    default)`` plus both fingerprints, step for step."""
    fact_set = set(facts)
    signature = signature_seed(fact_set, signature)
    ordered = fact_order_seed(fact_set)
    fingerprint = instance_fingerprint_seed(signature, ordered)
    probabilities = valuation_seed(ordered, valuation, default)
    return SeedInput(
        signature=signature,
        facts=ordered,
        domain=domain_seed(ordered),
        fingerprint=fingerprint,
        valuation=probabilities,
        tid_fingerprint=tid_fingerprint_seed(fingerprint, ordered, probabilities),
    )


def tid_from_dict_seed(data: Mapping[str, Any]) -> ProbabilisticInstance:
    """The two-pass :func:`repro.data.io.tid_from_dict`: every probability
    entry builds its fact anew, every string cell goes through
    ``Fraction(cell)``, and the valuation is merged as a dict."""
    instance = instance_from_dict(data)
    valuation: dict[Fact, Fraction] = {}
    try:
        for entry in data.get("probabilities", []):
            f = _fact_from_entry(entry, "probability")
            cell = entry["probability"]
            if isinstance(cell, str):
                cell = Fraction(cell)
            elif isinstance(cell, bool) or not isinstance(cell, (int, float)):
                raise InstanceError(
                    f"probability entry {entry!r}: probability must be a number or a string"
                )
            valuation[f] = as_probability(cell)
    except (
        KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError, OverflowError
    ) as error:
        raise InstanceError(f"malformed probability description: {error}") from error
    return ProbabilisticInstance(instance, valuation)
