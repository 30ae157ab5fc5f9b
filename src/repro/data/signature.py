"""Relational signatures.

A signature is a finite set of relation names with arities (Section 2 of the
paper).  Signatures are immutable and hashable so they can be shared between
instances, queries, and generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import SignatureError


@dataclass(frozen=True, order=True)
class Relation:
    """A relation symbol with a name and a positive arity."""

    name: str
    arity: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SignatureError(f"relation name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.arity, int) or isinstance(self.arity, bool):
            raise SignatureError(
                f"relation {self.name!r} must have an integer arity, got {self.arity!r}"
            )
        if self.arity < 1:
            raise SignatureError(
                f"relation {self.name!r} must have arity >= 1, got {self.arity}"
            )

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Signature:
    """An immutable set of relation symbols indexed by name.

    Parameters
    ----------
    relations:
        Either :class:`Relation` objects or ``(name, arity)`` pairs.
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: Iterable[Relation | tuple[str, int]]) -> None:
        by_name: dict[str, Relation] = {}
        for rel in relations:
            if not isinstance(rel, Relation):
                name, arity = rel
                rel = Relation(name, arity)
            if rel.name in by_name and by_name[rel.name] != rel:
                raise SignatureError(
                    f"relation {rel.name!r} declared twice with different arities"
                )
            by_name[rel.name] = rel
        self._relations: Mapping[str, Relation] = dict(sorted(by_name.items()))

    @classmethod
    def of(cls, **arities: int) -> "Signature":
        """Build a signature from keyword arguments, e.g. ``Signature.of(R=2, L=1)``."""
        return cls([(name, arity) for name, arity in arities.items()])

    @classmethod
    def graph(cls, name: str = "E") -> "Signature":
        """The graph signature: a single binary relation (default ``E``)."""
        return cls([(name, 2)])

    # -- container protocol -------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SignatureError(f"unknown relation {name!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return dict(self._relations) == dict(other._relations)

    def __hash__(self) -> int:
        return hash(tuple(self._relations.values()))

    def __repr__(self) -> str:
        rels = ", ".join(str(r) for r in self)
        return f"Signature({rels})"

    # -- queries ------------------------------------------------------------

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def arity(self, name: str) -> int:
        """The arity of relation ``name``."""
        return self[name].arity

    @property
    def max_arity(self) -> int:
        """The maximum arity of any relation (``arity(sigma)`` in the paper)."""
        return max(rel.arity for rel in self)

    def is_arity_two(self) -> bool:
        """True when the signature is arity-2 (all relations of arity <= 2).

        The dichotomy results of Sections 4, 5, and 8 apply to such signatures.
        """
        return self.max_arity <= 2

    def binary_relations(self) -> tuple[Relation, ...]:
        """The relations of arity exactly 2, in name order."""
        return tuple(rel for rel in self if rel.arity == 2)

    def unary_relations(self) -> tuple[Relation, ...]:
        """The relations of arity exactly 1, in name order."""
        return tuple(rel for rel in self if rel.arity == 1)

    def extend(self, relations: Iterable[Relation | tuple[str, int]]) -> "Signature":
        """A new signature with the given relations added."""
        return Signature(list(self) + list(relations))

    def restrict(self, names: Iterable[str]) -> "Signature":
        """A new signature containing only the named relations."""
        wanted = set(names)
        missing = wanted - set(self.relation_names)
        if missing:
            raise SignatureError(f"unknown relations {sorted(missing)}")
        return Signature([rel for rel in self if rel.name in wanted])


#: The plain (unlabeled) graph signature used throughout Sections 4, 5 and 8.
GRAPH_SIGNATURE = Signature.graph()
