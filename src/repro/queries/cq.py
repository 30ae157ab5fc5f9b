"""Conjunctive queries with disequalities (CQ and CQ≠, Section 2).

A :class:`ConjunctiveQuery` is a Boolean, constant-free, existentially
quantified conjunction of relational atoms, optionally with disequality atoms
between variables occurring in relational atoms.  The plain-CQ case is the
one with no disequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.data.signature import Signature
from repro.errors import QueryError
from repro.queries.atoms import Atom, Disequality, Variable
from repro.structure.graph import Graph


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A Boolean CQ≠: relational atoms plus disequality atoms."""

    atoms: tuple[Atom, ...]
    disequalities: tuple[Disequality, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not isinstance(self.disequalities, tuple):
            object.__setattr__(self, "disequalities", tuple(self.disequalities))
        if not self.atoms:
            raise QueryError("a conjunctive query needs at least one relational atom")
        atom_variables = set()
        for a in self.atoms:
            atom_variables.update(a.variables())
        for d in self.disequalities:
            for v in d.variables():
                if v not in atom_variables:
                    raise QueryError(
                        f"disequality variable {v} does not occur in any relational atom"
                    )

    # -- measures ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """|q|: the total number of atoms (relational + disequality)."""
        return len(self.atoms) + len(self.disequalities)

    def variables(self) -> tuple[Variable, ...]:
        """Distinct variables, in order of first occurrence."""
        seen: dict[Variable, None] = {}
        for a in self.atoms:
            for v in a.variables():
                seen.setdefault(v, None)
        return tuple(seen)

    def relations(self) -> tuple[str, ...]:
        return tuple(sorted({a.relation for a in self.atoms}))

    def has_disequalities(self) -> bool:
        return bool(self.disequalities)

    def signature(self) -> Signature:
        """The minimal signature containing the query's relations."""
        arities: dict[str, int] = {}
        for a in self.atoms:
            previous = arities.setdefault(a.relation, a.arity)
            if previous != a.arity:
                raise QueryError(f"relation {a.relation!r} used with two arities")
        return Signature(sorted(arities.items()))

    # -- structure ----------------------------------------------------------------

    def atom_graph(self) -> Graph:
        """The graph on relational atoms connecting atoms that share a variable
        (Definition 8.3; disequality atoms are ignored)."""
        graph = Graph()
        for index, _ in enumerate(self.atoms):
            graph.add_vertex(index)
        for i, a in enumerate(self.atoms):
            for j in range(i + 1, len(self.atoms)):
                if set(a.variables()) & set(self.atoms[j].variables()):
                    graph.add_edge(i, j)
        return graph

    def is_connected(self) -> bool:
        """Connected in the sense of Definition 8.3."""
        return self.atom_graph().is_connected()

    def connected_components(self) -> list["ConjunctiveQuery"]:
        """Split into connected sub-queries (disequalities go with the component
        containing both their variables; cross-component disequalities are
        rejected as they make the query non-decomposable)."""
        components = self.atom_graph().connected_components()
        result = []
        for component in components:
            atoms = tuple(self.atoms[i] for i in sorted(component))
            component_vars = set()
            for a in atoms:
                component_vars.update(a.variables())
            disequalities = tuple(
                d for d in self.disequalities if set(d.variables()) <= component_vars
            )
            result.append(ConjunctiveQuery(atoms, disequalities))
        covered = sum(len(q.disequalities) for q in result)
        if covered != len(self.disequalities):
            raise QueryError("cross-component disequality atoms cannot be decomposed")
        return result

    def variable_occurrences(self, variable: Variable) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if variable in a.variables())

    def is_self_join_free(self) -> bool:
        """No relation name appears in two different atoms."""
        names = [a.relation for a in self.atoms]
        return len(names) == len(set(names))

    def rename_variables(self, mapping: dict[Variable, Variable]) -> "ConjunctiveQuery":
        atoms = tuple(
            Atom(a.relation, tuple(mapping.get(v, v) for v in a.arguments)) for a in self.atoms
        )
        disequalities = tuple(
            Disequality(mapping.get(d.left, d.left), mapping.get(d.right, d.right))
            for d in self.disequalities
        )
        return ConjunctiveQuery(atoms, disequalities)

    def __str__(self) -> str:
        parts = [str(a) for a in self.atoms] + [str(d) for d in self.disequalities]
        return ", ".join(parts)


def cq(atoms: Sequence[Atom], disequalities: Iterable[Disequality] = ()) -> ConjunctiveQuery:
    """Convenience constructor for a conjunctive query."""
    return ConjunctiveQuery(tuple(atoms), tuple(disequalities))
