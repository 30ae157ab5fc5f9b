"""Lineage computation for UCQ≠ queries (Definition 6.1).

The lineage of a monotone query on an instance is the monotone Boolean
function, over one variable per fact, that is true exactly on the
subinstances satisfying the query.  For UCQ≠ queries the lineage is the
disjunction, over all matches, of the conjunction of the facts of the match —
which we materialize both as a monotone DNF object and as a monotone
:class:`BooleanCircuit` (a *lineage circuit*, Definition 6.2).

The matches come from :func:`repro.queries.matching.minimal_matches`: one
hash join per atom over positions in ``instance.facts``, then a match of k
facts is kept when none of its at most 2^k - 2 proper non-empty subsets is a
match.  For a fixed query that is linear in |I| plus the number of matches,
which is at most ``|I|^{|vars(q)|}``.  Clauses hold the instance's own facts,
ordered by size and then by their facts' ``str`` renderings, an order that
does not depend on how the matches were enumerated (seeded sampling picks
clauses by index).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from repro.booleans.circuit import BooleanCircuit
from repro.data.instance import Fact, Instance
from repro.queries.cq import ConjunctiveQuery
from repro.queries.matching import minimal_matches, ucq_matches
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq


@dataclass(frozen=True)
class MonotoneDNFLineage:
    """The lineage of a monotone query as a set of matches (monotone DNF).

    ``clauses`` are the minimal matches; the function is true on a world iff
    the world contains all facts of some clause.
    """

    instance: Instance
    clauses: tuple[frozenset[Fact], ...]

    def evaluate(self, world: Iterable[Fact] | Mapping[Fact, bool]) -> bool:
        if isinstance(world, Mapping):
            present = {f for f, kept in world.items() if kept}
        else:
            present = set(world)
        return any(clause <= present for clause in self.clauses)

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def variables(self) -> set[Fact]:
        used: set[Fact] = set()
        for clause in self.clauses:
            used |= clause
        return used

    def is_read_once_shaped(self) -> bool:
        """True when no fact appears in two clauses (the clauses are independent).

        This is a sufficient condition for the lineage to be read-once, which
        makes probability evaluation a simple product/union computation.  The
        verdict is computed once per lineage object: an engine asks it on
        every ``auto`` request it serves from a cached lineage.
        """
        return self._read_once_shaped

    @cached_property
    def _read_once_shaped(self) -> bool:
        seen: set[Fact] = set()
        for clause in self.clauses:
            if clause & seen:
                return False
            seen |= clause
        return True

    def to_circuit(self) -> BooleanCircuit:
        """A monotone lineage circuit (OR of ANDs of fact variables)."""
        circuit = BooleanCircuit()
        terms = [
            circuit.conjunction([circuit.variable(f) for f in sorted(clause, key=_fact_key)])
            for clause in self.clauses
        ]
        circuit.set_output(circuit.disjunction(terms))
        return circuit


def lineage_of(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    instance: Instance,
    minimal: bool = True,
    engine=None,
) -> MonotoneDNFLineage:
    """The lineage of a UCQ≠ on an instance, as a monotone DNF of matches.

    With ``minimal=True`` only inclusion-minimal matches are kept (the Boolean
    function is unchanged; the representation is smaller).  Passing a
    :class:`repro.engine.CompilationEngine` serves the minimal lineage from
    the engine's cache.
    """
    query = as_ucq(query)
    if engine is not None and minimal:
        return engine.lineage(query, instance)
    matches = minimal_matches(query, instance) if minimal else ucq_matches(query, instance)
    return MonotoneDNFLineage(instance, tuple(matches))


def lineage_circuit(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance
) -> BooleanCircuit:
    """A monotone lineage circuit of the query on the instance (Definition 6.2)."""
    return lineage_of(query, instance).to_circuit()


def brute_force_lineage_table(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance
) -> dict[frozenset[Fact], bool]:
    """The full truth table of the lineage, by evaluating the query on every
    subinstance (exponential; used as a testing oracle)."""
    from repro.queries.matching import satisfies

    query = as_ucq(query)
    table: dict[frozenset[Fact], bool] = {}
    for world in instance.all_subinstances():
        table[frozenset(world.facts)] = satisfies(world, query)
    return table


def _fact_key(f: Fact) -> tuple:
    return (f.relation, tuple(repr(a) for a in f.arguments))
