"""Relational instances: finite sets of ground facts (Section 2 of the paper).

Instances follow the active-domain semantics: the domain of an instance is the
set of elements that occur in its facts.  A *subinstance* is any subset of the
facts.  Instances over arity-2 signatures can be viewed as (labeled) graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import add, attrgetter, mul
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.data.signature import Relation, Signature
from repro.errors import InstanceError, SignatureError


@dataclass(frozen=True, order=True)
class Fact:
    """A ground fact ``R(a_1, ..., a_k)``.

    Domain elements can be any hashable, orderable values (we use strings and
    integers throughout the library).
    """

    relation: str
    arguments: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.arguments, tuple):
            object.__setattr__(self, "arguments", tuple(self.arguments))

    @property
    def arity(self) -> int:
        return len(self.arguments)

    def elements(self) -> tuple[Any, ...]:
        """The distinct elements occurring in this fact, in order of appearance."""
        seen: dict[Any, None] = {}
        for arg in self.arguments:
            seen.setdefault(arg, None)
        return tuple(seen)

    def rename(self, mapping: Mapping[Any, Any]) -> "Fact":
        """The fact obtained by applying ``mapping`` to every argument."""
        return Fact(self.relation, tuple(mapping.get(a, a) for a in self.arguments))

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(map(str, self.arguments))})"


def fact(relation: str, *arguments: Any) -> Fact:
    """Convenience constructor: ``fact("R", "a", "b") == Fact("R", ("a", "b"))``."""
    return Fact(relation, tuple(arguments))


class Instance:
    """A finite set of facts over a signature.

    The signature may be given explicitly; otherwise it is inferred from the
    facts (each relation gets the arity of its first fact).  Facts are stored
    in a deterministic (sorted) order so that iteration, variable orders, and
    generated lineages are reproducible.

    The order is by relation, then by the ``(type name, repr)`` rendering of
    each argument.  Construction interns each distinct element once, keyed by
    ``(type(element), element)`` because ``1``, ``True`` and ``1.0`` are equal
    but render differently, ranks the interned elements by their rendering,
    and sorts each relation's facts by their packed element ranks.  For the
    order to be well defined, ``repr`` must be faithful to equality within
    each element type (see :attr:`fingerprint`).
    """

    __slots__ = (
        "_facts",
        "_signature",
        "_domain",
        "_by_relation",
        "_fingerprint",
        "_position_index",
        "_positions",
    )

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        signature: Signature | None = None,
    ) -> None:
        # A dict keeps the first of several equal facts, as a set would.
        by_relation: dict[str, list[Fact]] = {}
        for f in dict.fromkeys(facts):
            if not isinstance(f, Fact):
                raise InstanceError(f"expected Fact, got {type(f).__name__}")
            by_relation.setdefault(f.relation, []).append(f)
        self._signature = _checked_signature(by_relation, signature)
        relations = sorted(by_relation)
        # Every argument occurrence, relation by relation: arity-strided.
        grouped = chain.from_iterable(map(by_relation.get, relations))
        arguments = list(chain.from_iterable(map(_ARGUMENTS, grouped)))
        # Each distinct element is rendered and ranked once.
        keys, distinct, renderings = _interned(arguments)
        order = sorted(range(len(distinct)), key=renderings.__getitem__)
        ranked = list(map(distinct.__getitem__, order))
        base = len(ranked)
        rank = dict(zip(ranked, range(base)))
        ranks = list(map(rank.__getitem__, keys))
        ordered: list[Fact] = []
        self._by_relation: dict[str, tuple[Fact, ...]] = {}
        start = 0
        for relation in relations:
            group = by_relation[relation]
            arity = self._signature.arity(relation)
            stop = start + arity * len(group)
            # One integer per fact: its element ranks as base-`base` digits.
            packed = ranks[start:stop:arity]
            for position in range(1, arity):
                digits = ranks[start + position : stop : arity]
                packed = list(map(add, map(mul, packed, repeat(base)), digits))
            order = sorted(range(len(group)), key=packed.__getitem__)
            block = self._by_relation[relation] = tuple(map(group.__getitem__, order))
            ordered.extend(block)
            start = stop
        self._facts: tuple[Fact, ...] = tuple(ordered)
        if keys is arguments:
            self._domain = tuple(ranked)
        else:
            # Equal elements of different types (1, True, 1.0) share one
            # domain entry: the one that occurs first in fact order.
            first = dict.fromkeys(chain.from_iterable(map(_ARGUMENTS, self._facts)))
            self._domain = tuple(sorted(first, key=_element_key))
        self._fingerprint: str | None = None
        self._position_index: dict[str, dict[tuple[int, Any], tuple[Fact, ...]]] = {}
        self._positions: dict[str, dict[tuple[Any, ...], int]] | None = None

    # -- basic protocol -----------------------------------------------------

    def __len__(self) -> int:
        """The size |I| of the instance, i.e. its number of facts."""
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __contains__(self, f: object) -> bool:
        return isinstance(f, Fact) and f.arguments in self.fact_positions(f.relation)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._facts == other._facts and self._signature == other._signature

    def __hash__(self) -> int:
        return hash((self._facts, self._signature))

    def __getstate__(self) -> tuple:
        # The hash indexes are rebuilt lazily, so a pickle leaves them out and
        # does not grow with what ran before it.  The fingerprint is
        # content-derived and process-stable: it travels, and saves the
        # receiving process the re-hash.
        return (self._facts, self._signature, self._domain, self._by_relation, self._fingerprint)

    def __setstate__(self, state: tuple) -> None:
        self._facts, self._signature, self._domain, self._by_relation, self._fingerprint = state
        self._position_index = {}
        self._positions = None

    def __repr__(self) -> str:
        return f"Instance({len(self)} facts, domain size {len(self._domain)})"

    def __str__(self) -> str:
        return "{" + ", ".join(str(f) for f in self._facts) + "}"

    # -- accessors ----------------------------------------------------------

    @property
    def signature(self) -> Signature:
        return self._signature

    @property
    def facts(self) -> tuple[Fact, ...]:
        return self._facts

    @property
    def domain(self) -> tuple[Any, ...]:
        """The active domain: all elements occurring in facts, sorted."""
        return self._domain

    @property
    def domain_size(self) -> int:
        return len(self._domain)

    def facts_of(self, relation: str) -> tuple[Fact, ...]:
        """All facts of the given relation (empty tuple if none)."""
        return self._by_relation.get(relation, ())

    def block_start(self, relation: str) -> int:
        """Where the facts of ``relation`` start in :attr:`facts`.

        Facts are stored relation by relation, so ``facts_of(relation)`` is
        ``facts[start : start + len(facts_of(relation))]``; a relation without
        facts has the empty block at the end.
        """
        start = 0
        for name, group in self._by_relation.items():
            if name == relation:
                break
            start += len(group)
        return start

    def facts_containing(self, element: Any) -> tuple[Fact, ...]:
        """All facts in which ``element`` occurs."""
        return tuple(f for f in self._facts if element in f.arguments)

    # -- content fingerprint and hash indexes --------------------------------

    @property
    def fingerprint(self) -> str:
        """A content fingerprint of the instance (SHA-256 hex digest).

        Two instances have the same fingerprint exactly when they have the
        same facts and the same signature; unlike :func:`hash` it is stable
        across processes, which makes it usable as a persistent cache key.
        :class:`repro.engine.CompilationEngine` keys all of its per-instance
        caches on this value, so any derived instance (``with_facts``,
        ``rename``, ``subinstance``, ...) naturally invalidates them.

        Domain elements enter the digest as ``(type name, repr)`` — the same
        rendering that orders facts deterministically.  This requires ``repr``
        to be faithful to equality within each element type (equal iff equal
        repr), which holds for the strings, ints, and tuples used throughout
        the library; custom element types with identity-based equality and a
        non-injective ``repr`` would alias fingerprints and must not be used
        as cache-keyed domain elements.  ``1``, ``True`` and ``1.0`` are equal
        but of different types, so each keeps its own rendering.  Equal
        elements of one type that render differently — tuples such as
        ``(1, "a")`` and ``(True, "a")``, or ``0.0`` and ``-0.0`` — are outside
        this contract: an instance renders all occurrences of such an element
        one way, so its fingerprint and fact order may differ from those of
        an instance that uses the other form.

        Each distinct element is rendered once, and the whole digest input is
        hashed in a single update.
        """
        if self._fingerprint is None:
            arguments = list(chain.from_iterable(map(_ARGUMENTS, self._facts)))
            keys, distinct, renderings = _interned(arguments)
            rendered = dict(zip(distinct, map(str.encode, map("\x00%s\x1f%s".__mod__, renderings))))
            chunks = list(map(rendered.__getitem__, keys))
            header = "".join(f"{relation.name}/{relation.arity};" for relation in self._signature)
            parts = [header.encode(), b"|"]
            start = 0
            for relation, group in self._by_relation.items():
                arity = self._signature.arity(relation)
                stop = start + arity * len(group)
                block = iter(chunks[start:stop])
                name = relation.encode()
                # Each fact is ``name + chunks + \x01``: join the facts on
                # ``\x01 + name`` and add the outer two.
                facts = map(b"".join, zip(*[block] * arity))
                parts += (name, (b"\x01" + name).join(facts), b"\x01")
                start = stop
            self._fingerprint = hashlib.sha256(b"".join(parts)).hexdigest()
        return self._fingerprint

    def facts_with_value(self, relation: str, position: int, value: Any) -> tuple[Fact, ...]:
        """All facts of ``relation`` whose argument at ``position`` is ``value``.

        Backed by a per-relation, per-position hash index built lazily on
        first use (the instance is immutable, so the index never goes stale).
        """
        return self._index_for(relation).get((position, value), ())

    def facts_matching(self, relation: str, bindings: Mapping[int, Any]) -> tuple[Fact, ...]:
        """Facts of ``relation`` agreeing with ``bindings`` (position -> value).

        With an empty binding this is :meth:`facts_of`; otherwise the most
        selective bound position is probed through the hash index and only its
        bucket is filtered on the remaining positions, so enumeration joins on
        already-bound variables cost O(bucket) rather than O(|relation|).
        """
        if not bindings:
            return self.facts_of(relation)
        index = self._index_for(relation)
        best: tuple[Fact, ...] | None = None
        for position, value in bindings.items():
            bucket = index.get((position, value), ())
            if not bucket:
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        if len(bindings) == 1:
            return best
        return tuple(
            f
            for f in best
            if all(f.arguments[position] == value for position, value in bindings.items())
        )

    def fact_positions(self, relation: str) -> Mapping[tuple[Any, ...], int]:
        """The ``arguments -> position in facts`` index of ``relation``.

        Built lazily for every relation at once, on first use (the instance is
        immutable, so the index never goes stale); empty for a relation
        without facts.
        """
        if self._positions is None:
            self._positions = {
                name: dict(zip(map(_ARGUMENTS, group), count(self.block_start(name))))
                for name, group in self._by_relation.items()
            }
        return self._positions.get(relation, {})

    def _index_for(self, relation: str) -> dict[tuple[int, Any], tuple[Fact, ...]]:
        table = self._position_index.get(relation)
        if table is None:
            buckets: dict[tuple[int, Any], list[Fact]] = {}
            for f in self._by_relation.get(relation, ()):
                for position, value in enumerate(f.arguments):
                    buckets.setdefault((position, value), []).append(f)
            table = {key: tuple(fs) for key, fs in buckets.items()}
            self._position_index[relation] = table
        return table

    # -- construction -------------------------------------------------------

    def with_facts(self, facts: Iterable[Fact]) -> "Instance":
        """A new instance with the given facts added."""
        return Instance(list(self._facts) + list(facts), self._signature)

    def subinstance(self, facts: Iterable[Fact]) -> "Instance":
        """The subinstance consisting of the given subset of facts.

        Raises :class:`InstanceError` if a fact is not part of this instance.
        """
        chosen = list(facts)
        for f in chosen:
            if f not in self:
                raise InstanceError(f"{f} is not a fact of this instance")
        return Instance(chosen, self._signature)

    def restrict_domain(self, elements: Iterable[Any]) -> "Instance":
        """The subinstance of facts whose arguments all lie in ``elements``."""
        allowed = set(elements)
        return Instance(
            [f for f in self._facts if all(a in allowed for a in f.arguments)],
            self._signature,
        )

    def rename(self, mapping: Mapping[Any, Any] | Callable[[Any], Any]) -> "Instance":
        """The instance obtained by renaming domain elements.

        ``mapping`` may be a dict (missing elements are kept) or a callable.
        """
        if callable(mapping) and not isinstance(mapping, Mapping):
            mapper: Callable[[Any], Any] = mapping
            table = {a: mapper(a) for a in self._domain}
        else:
            table = {a: mapping.get(a, a) for a in self._domain}
        return Instance([f.rename(table) for f in self._facts], self._signature)

    def union(self, other: "Instance") -> "Instance":
        """The union of two instances over a merged signature."""
        merged = self._signature.extend(other.signature)
        return Instance(list(self._facts) + list(other.facts), merged)

    def disjoint_union(self, other: "Instance", tags: tuple[str, str] = ("l", "r")) -> "Instance":
        """The disjoint union: domains are made disjoint by tagging elements."""
        left = self.rename(lambda a: (tags[0], a))
        right = other.rename(lambda a: (tags[1], a))
        return left.union(right)

    # -- subsets ------------------------------------------------------------

    def all_subinstances(self) -> Iterator["Instance"]:
        """All 2^|I| subinstances.  Only usable on small instances."""
        n = len(self._facts)
        if n > 25:
            raise InstanceError(
                f"refusing to enumerate 2^{n} subinstances; instance too large"
            )
        for mask in range(1 << n):
            chosen = [self._facts[i] for i in range(n) if mask >> i & 1]
            yield Instance(chosen, self._signature)

    def is_subinstance_of(self, other: "Instance") -> bool:
        return set(self._facts) <= set(other.facts)


_ARGUMENTS = attrgetter("arguments")
_TYPE_NAME = attrgetter("__name__")


def _checked_signature(
    by_relation: Mapping[str, Sequence[Fact]], signature: Signature | None
) -> Signature:
    """The signature inferred from (or checked against) facts grouped by relation."""
    arities = {
        relation: dict.fromkeys(map(len, map(_ARGUMENTS, group)))
        for relation, group in by_relation.items()
    }
    if signature is None:
        for relation, used in arities.items():
            if len(used) > 1:
                first, second = list(used)[:2]
                raise SignatureError(
                    f"relation {relation!r} used with arities {first} and {second}"
                )
        return Signature((relation, next(iter(used))) for relation, used in arities.items())
    for relation, used in arities.items():
        group = by_relation[relation]
        if relation not in signature:
            raise SignatureError(
                f"fact {group[0]} uses relation not in signature {signature!r}"
            )
        declared = signature.arity(relation)
        if list(used) != [declared]:
            f = next(f for f in group if f.arity != declared)
            raise SignatureError(f"fact {f} has arity {f.arity}, signature says {declared}")
    return signature


def _element_key(element: Any) -> tuple[str, str]:
    """A total order on heterogeneous domain elements (by type name, then repr)."""
    return (type(element).__name__, repr(element))


def _interned(arguments: list[Any]) -> tuple[list[Any], list[Any], list[tuple[str, str]]]:
    """Intern argument occurrences: the key of every occurrence, the distinct
    keys, and the :func:`_element_key` rendering of each distinct key.

    The key is ``(type(element), element)``: ``1``, ``True`` and ``1.0`` are
    equal but render differently.  When every occurrence has the same type,
    the element itself is an equivalent and cheaper key, and ``arguments`` is
    returned as the keys.
    """
    if len(set(map(type, arguments))) > 1:
        keys = list(zip(map(type, arguments), arguments))
        distinct = list(set(keys))
        elements = [element for _, element in distinct]
    else:
        keys = arguments
        distinct = elements = list(set(arguments))
    renderings = list(zip(map(_TYPE_NAME, map(type, elements)), map(repr, elements)))
    return keys, distinct, renderings


def graph_instance(
    edges: Iterable[tuple[Any, Any]],
    relation: str = "E",
    symmetric: bool = True,
) -> Instance:
    """Build a graph instance from an edge list.

    Following the paper's convention, graphs are undirected and simple: by
    default each edge ``(u, v)`` produces both ``E(u, v)`` and ``E(v, u)`` and
    self-loops are rejected.  Set ``symmetric=False`` to store directed edges.
    """
    facts: list[Fact] = []
    for u, v in edges:
        if u == v:
            raise InstanceError(f"self-loop on {u!r} not allowed in a graph instance")
        facts.append(Fact(relation, (u, v)))
        if symmetric:
            facts.append(Fact(relation, (v, u)))
    return Instance(facts, Signature([(relation, 2)]))
