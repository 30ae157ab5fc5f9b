"""Unions of conjunctive queries with disequalities (UCQ and UCQ≠, Section 2).

A :class:`UnionOfConjunctiveQueries` is a disjunction of CQ≠ disjuncts.  It is
the query language of the second main dichotomy result (Theorem 8.1) and of
the meta-dichotomy on intricate queries (Theorem 8.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.signature import Signature
from repro.errors import QueryError, SignatureError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.atoms import Variable


@dataclass(frozen=True)
class UnionOfConjunctiveQueries:
    """A Boolean UCQ≠: a disjunction of CQ≠ disjuncts."""

    disjuncts: tuple[ConjunctiveQuery, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.disjuncts, tuple):
            object.__setattr__(self, "disjuncts", tuple(self.disjuncts))
        if not self.disjuncts:
            raise QueryError("a UCQ needs at least one disjunct")

    # -- measures ----------------------------------------------------------------

    @property
    def size(self) -> int:
        """|q|: total number of atoms over all disjuncts (Section 2)."""
        return sum(d.size for d in self.disjuncts)

    def relations(self) -> tuple[str, ...]:
        names: set[str] = set()
        for d in self.disjuncts:
            names.update(d.relations())
        return tuple(sorted(names))

    def signature(self) -> Signature:
        arities: dict[str, int] = {}
        for disjunct in self.disjuncts:
            for a in disjunct.atoms:
                previous = arities.setdefault(a.relation, a.arity)
                if previous != a.arity:
                    raise QueryError(f"relation {a.relation!r} used with two arities")
        return Signature(sorted(arities.items()))

    def check_arities(self, signature: Signature) -> None:
        """Reject an atom whose arity disagrees with ``signature``.

        Raises :class:`~repro.errors.SignatureError` naming the atom and the
        declared relation.  A relation missing from ``signature`` is legal:
        its atoms match no fact, so they contribute probability 0.
        """
        for disjunct in self.disjuncts:
            for atom in disjunct.atoms:
                if atom.relation in signature and signature.arity(atom.relation) != atom.arity:
                    raise SignatureError(
                        f"query atom {atom} has arity {atom.arity}, but the instance "
                        f"declares {signature[atom.relation]}"
                    )

    def variables(self) -> tuple[Variable, ...]:
        seen: dict[Variable, None] = {}
        for d in self.disjuncts:
            for v in d.variables():
                seen.setdefault(v, None)
        return tuple(seen)

    # -- properties -----------------------------------------------------------------

    def has_disequalities(self) -> bool:
        return any(d.has_disequalities() for d in self.disjuncts)

    def is_ucq(self) -> bool:
        """A plain UCQ (no disequality atoms)."""
        return not self.has_disequalities()

    def is_connected(self) -> bool:
        """Connected in the sense of Definition 8.3: every disjunct is connected."""
        return all(d.is_connected() for d in self.disjuncts)

    def is_self_join_free(self) -> bool:
        return all(d.is_self_join_free() for d in self.disjuncts)

    def __str__(self) -> str:
        return " ∨ ".join(f"({d})" for d in self.disjuncts)

    def __iter__(self):
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)


def ucq(disjuncts: Sequence[ConjunctiveQuery] | ConjunctiveQuery) -> UnionOfConjunctiveQueries:
    """Convenience constructor: accepts a single CQ or a sequence of CQs."""
    if isinstance(disjuncts, ConjunctiveQuery):
        disjuncts = (disjuncts,)
    return UnionOfConjunctiveQueries(tuple(disjuncts))


def as_ucq(query: "UnionOfConjunctiveQueries | ConjunctiveQuery") -> UnionOfConjunctiveQueries:
    """Normalize a CQ≠ or UCQ≠ into a UCQ≠."""
    if isinstance(query, UnionOfConjunctiveQueries):
        return query
    if isinstance(query, ConjunctiveQuery):
        return UnionOfConjunctiveQueries((query,))
    raise QueryError(f"expected a CQ or UCQ, got {type(query).__name__}")
