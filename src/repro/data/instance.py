"""Relational instances: finite sets of ground facts (Section 2 of the paper).

Instances follow the active-domain semantics: the domain of an instance is the
set of elements that occur in its facts.  A *subinstance* is any subset of the
facts.  Instances over arity-2 signatures can be viewed as (labeled) graphs.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import FrozenInstanceError
from itertools import chain, count, groupby, repeat
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.data.signature import Relation, Signature
from repro.errors import InstanceError, ReproError, SignatureError
from repro.structure.graph import element_key


class Fact:
    """A ground fact ``R(a_1, ..., a_k)``.

    Domain elements can be any hashable, orderable values (we use strings and
    integers throughout the library).

    A slotted, immutable record: equality, ordering, ``repr`` and
    ``__match_args__`` are those of a frozen, ordered dataclass with the
    fields ``relation`` and ``arguments``, and assigning or deleting an
    attribute raises :class:`dataclasses.FrozenInstanceError`.  The hash is
    computed on first use and cached on the fact, so a fact that is never
    put in a set or used as a dict key is never hashed, and one that is
    hashes its arguments once.  A pickle carries the two fields only:
    string hashes differ between processes, so the cache does not travel.
    """

    __slots__ = ("relation", "arguments", "_hash")
    __match_args__ = ("relation", "arguments")

    relation: str
    arguments: tuple[Any, ...]

    def __init__(self, relation: str, arguments: Iterable[Any]) -> None:
        if not isinstance(arguments, tuple):
            arguments = tuple(arguments)
        _SET_RELATION(self, relation)
        _SET_ARGUMENTS(self, arguments)
        _SET_HASH(self, None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.relation, self.arguments))
            _SET_HASH(self, cached)
        return cached

    def __reduce__(self) -> tuple[Any, ...]:
        return (type(self), (self.relation, self.arguments))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(relation={self.relation!r}, "
            f"arguments={self.arguments!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (self.relation, self.arguments) == (other.relation, other.arguments)
        return NotImplemented

    def __lt__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (self.relation, self.arguments) < (other.relation, other.arguments)
        return NotImplemented

    def __le__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (self.relation, self.arguments) <= (other.relation, other.arguments)
        return NotImplemented

    def __gt__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (self.relation, self.arguments) > (other.relation, other.arguments)
        return NotImplemented

    def __ge__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (self.relation, self.arguments) >= (other.relation, other.arguments)
        return NotImplemented

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


# The slots' own setters: they write past ``Fact.__setattr__``.
_SET_RELATION = Fact.__dict__["relation"].__set__
_SET_ARGUMENTS = Fact.__dict__["arguments"].__set__
_SET_HASH = Fact.__dict__["_hash"].__set__


def facts_from_columns(
    relations: Sequence[str], arguments: Sequence[tuple[Any, ...]]
) -> list[Fact]:
    """``[Fact(r, a) for r, a in zip(relations, arguments)]``, built a column
    at a time: no Python-level call per fact.  ``arguments`` must hold
    tuples, and both columns must have the same length."""
    facts = list(map(object.__new__, repeat(Fact, len(relations))))
    deque(map(_SET_RELATION, facts, relations), maxlen=0)
    deque(map(_SET_ARGUMENTS, facts, arguments), maxlen=0)
    deque(map(_SET_HASH, facts, repeat(None)), maxlen=0)
    return facts


def fact_key(f: Fact) -> tuple[str, tuple[str, ...]]:
    """A process-stable order on facts: by relation, then argument reprs.

    Fact orders, lineage clauses and bag contents are sorted by this key.
    """
    return (f.relation, tuple(repr(a) for a in f.arguments))


def fact(relation: str, *arguments: Any) -> Fact:
    """Convenience constructor: ``fact("R", "a", "b") == Fact("R", ("a", "b"))``."""
    return Fact(relation, tuple(arguments))


class Instance:
    """A finite set of facts over a signature.

    The signature may be given explicitly; otherwise it is inferred from the
    facts (each relation gets the arity of its first fact).  Facts are stored
    in a deterministic (sorted) order so that iteration, variable orders, and
    generated lineages are reproducible.  Of several equal facts, the first
    one given is kept, as ``dict.fromkeys(facts)`` keeps it.

    The order is by relation, then by the ``(type name, repr)`` rendering of
    each argument.  Construction works a column at a time: it checks that
    every item is a :class:`Fact` in bulk, groups the facts by relation with
    one stable sort, interns each distinct element once, ranks the interned
    elements by their rendering (by ``repr`` alone when every element has
    one type, which gives the same order), and sorts each relation's facts
    by their packed element ranks.  Equal facts have equal packed ranks, so
    duplicates are dropped by rank, the first one given kept, and no fact is
    hashed.  When the elements have several types, the key is
    ``(type(element), element)``, because ``1``, ``True`` and ``1.0`` are
    equal but render differently, and duplicates are dropped by
    ``dict.fromkeys``, which hashes each fact once.  For the order to be
    well defined, ``repr`` must be faithful to equality within each element
    type (see :attr:`fingerprint`).
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
        given = list(facts)
        if not all(map(isinstance, given, repeat(Fact))):
            item = next(item for item in given if not isinstance(item, Fact))
            raise InstanceError(f"expected Fact, got {type(item).__name__}")
        names = list(map(_RELATION, given))
        try:
            # A stable sort: each relation's facts stay in the given order.
            sorted_names = sorted(names)
            grouped = given if sorted_names == names else sorted(given, key=_RELATION)
            relations = [name for name, _ in groupby(sorted_names)]
            if not all(map(isinstance, relations, repeat(str))):
                raise TypeError("relation names must be strings")
            tuples = list(map(_ARGUMENTS, grouped))
            # Every argument occurrence, relation by relation: arity-strided.
            arguments = list(chain.from_iterable(tuples))
            mixed = len(set(map(type, arguments))) > 1
            if mixed:
                grouped = list(dict.fromkeys(grouped))
                sorted_names = list(map(_RELATION, grouped))
                tuples = list(map(_ARGUMENTS, grouped))
                arguments = list(chain.from_iterable(tuples))
                keys, distinct, renderings = _interned(arguments)
            else:
                # One type: the (type name, repr) order is the repr order.
                keys, distinct = arguments, list(set(arguments))
                renderings = list(map(repr, distinct))
            order = sorted(range(len(distinct)), key=renderings.__getitem__)
            ranked = list(map(distinct.__getitem__, order))
        except TypeError as error:
            raise _rejected(given, error) from error
        bounds = {
            name: slice(bisect_left(sorted_names, name), bisect_right(sorted_names, name))
            for name in relations
        }
        lengths = list(map(len, tuples))
        arities = {name: dict.fromkeys(lengths[block]) for name, block in bounds.items()}
        by_relation = {name: grouped[block] for name, block in bounds.items()}
        try:
            self._signature = _checked_signature(by_relation, arities, signature)
        except SignatureError:
            # Name the relation the facts use first, as a fact-by-fact
            # check would.
            first_used = {name: arities[name] for name in dict.fromkeys(names)}
            _checked_signature(by_relation, first_used, signature)
            raise
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
                packed = [number * base + digit for number, digit in zip(packed, digits)]
            # Equal facts have equal packed ranks: the first one given wins
            # (the dict is filled back to front), and the rest are dropped.
            first = dict(zip(reversed(packed), reversed(group)))
            block = self._by_relation[relation] = tuple(map(first.__getitem__, sorted(first)))
            ordered.extend(block)
            start = stop
        self._facts: tuple[Fact, ...] = tuple(ordered)
        if not mixed:
            self._domain = tuple(ranked)
        else:
            # Equal elements of different types (1, True, 1.0) share one
            # domain entry: the one that occurs first in fact order.
            first = dict.fromkeys(chain.from_iterable(map(_ARGUMENTS, self._facts)))
            self._domain = tuple(sorted(first, key=element_key))
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
_RELATION = attrgetter("relation")
_TYPE_NAME = attrgetter("__name__")


def _checked_signature(
    by_relation: Mapping[str, Sequence[Fact]],
    arities: Mapping[str, Mapping[int, None]],
    signature: Signature | None,
) -> Signature:
    """The signature inferred from (or checked against) facts grouped by
    relation.  ``arities`` maps each relation to the argument counts its
    facts use, in order of first use; the relations are checked in its
    order."""
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


def _interned(arguments: list[Any]) -> tuple[list[Any], list[Any], list[tuple[str, str]]]:
    """Intern argument occurrences: the key of every occurrence, the distinct
    keys, and the :func:`element_key` rendering of each distinct key.

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


def _rejected(facts: Sequence[Fact], error: TypeError) -> ReproError:
    """The typed error for the first of ``facts`` whose relation is not a
    string or whose arguments cannot be hashed (a list, say), or ``error``
    itself as an :class:`InstanceError` when there is no such fact."""
    for f in facts:
        if not isinstance(f.relation, str):
            return SignatureError(f"fact {f}: relation name must be a string, got {f.relation!r}")
        try:
            hash(f.arguments)
        except TypeError as cause:
            return InstanceError(f"fact {f} has an unhashable argument: {cause}")
    return InstanceError(str(error))


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
