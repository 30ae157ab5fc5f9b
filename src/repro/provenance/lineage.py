"""Lineage computation for UCQ≠ queries (Definition 6.1).

The lineage of a monotone query on an instance is the monotone Boolean
function, over one variable per fact, that is true exactly on the
subinstances satisfying the query.  For UCQ≠ queries the lineage is the
disjunction, over all matches, of the conjunction of the facts of the match —
which we materialize both as a monotone DNF object and as a monotone
:class:`BooleanCircuit` (a *lineage circuit*, Definition 6.2).

The matches come from :func:`repro.queries.matching.match_positions`: one
hash join per atom over positions in ``instance.facts``, then a match of k
facts is kept when none of its at most 2^k - 2 proper non-empty subsets is a
match.  For a fixed query that is linear in |I| plus the number of matches,
which is at most ``|I|^{|vars(q)|}``.  A lineage holds its clauses as those
positions (:attr:`MonotoneDNFLineage.clause_positions`), sorted within each
clause and in the order the join reached them, and the engine's kernels read
nothing else: the read-once shape, the read-once probability and the OBDD
build.  The clauses as sets of the instance's facts
(:attr:`MonotoneDNFLineage.clauses`) are a view derived on first read,
ordered by size and then by their facts' ``str`` renderings, an order that
does not depend on how the matches were enumerated (seeded sampling picks
clauses by index).  A lineage built from fact clauses (pattern and C2RPQ
lineages) keeps them as given and derives the positions instead.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from repro.booleans.circuit import BooleanCircuit
from repro.data.instance import Fact, Instance, fact_key
from repro.queries.cq import ConjunctiveQuery
from repro.queries.matching import fact_sets, match_positions
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq


class MonotoneDNFLineage:
    """The lineage of a monotone query as a set of matches (monotone DNF).

    The clauses are the minimal matches; the function is true on a world iff
    the world contains all facts of some clause.  A lineage holds one form
    of its clauses and derives the other on first read: ``clauses``, sets of
    facts, or ``clause_positions``, sorted tuples of positions in
    ``instance.facts`` (:meth:`from_positions`).
    """

    def __init__(self, instance: Instance, clauses: Iterable[frozenset[Fact]]) -> None:
        self.instance = instance
        self.clauses = tuple(clauses)
        self.clause_count = len(self.clauses)

    @classmethod
    def from_positions(
        cls, instance: Instance, positions: Iterable[tuple[int, ...]]
    ) -> MonotoneDNFLineage:
        """The lineage whose clauses are the sorted position tuples
        ``positions`` into ``instance.facts``."""
        lineage = cls.__new__(cls)
        lineage.instance = instance
        lineage.clause_positions = tuple(positions)
        lineage.clause_count = len(lineage.clause_positions)
        return lineage

    def __repr__(self) -> str:
        return f"MonotoneDNFLineage({self.clause_count} clauses over {len(self.instance)} facts)"

    @cached_property
    def clauses(self) -> tuple[frozenset[Fact], ...]:
        """The clauses as sets of the instance's facts, sorted by size and
        then by their facts' ``str`` renderings; built once, on first read,
        from the positions."""
        return tuple(fact_sets(self.clause_positions, self.instance))

    @cached_property
    def clause_positions(self) -> tuple[tuple[int, ...], ...] | None:
        """The clauses as sorted positions in ``instance.facts``; for a
        lineage built from fact clauses, derived once, and None when a clause
        names a fact the instance lacks."""
        fact_positions = self.instance.fact_positions
        try:
            return tuple(
                tuple(sorted(fact_positions(f.relation)[f.arguments] for f in clause))
                for clause in self.clauses
            )
        except KeyError:
            return None

    def evaluate(self, world: Iterable[Fact] | Mapping[Fact, bool]) -> bool:
        if isinstance(world, Mapping):
            present = {f for f, kept in world.items() if kept}
        else:
            present = set(world)
        return any(clause <= present for clause in self.clauses)

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
        clauses = self.clause_positions
        if clauses is None:
            clauses = self.clauses
        # Each clause lists distinct items, so no item is shared exactly
        # when the union is as large as the sizes add up to.
        return len(set().union(*clauses)) == sum(map(len, clauses))

    def to_circuit(self) -> BooleanCircuit:
        """A monotone lineage circuit (OR of ANDs of fact variables)."""
        circuit = BooleanCircuit()
        terms = [
            circuit.conjunction([circuit.variable(f) for f in sorted(clause, key=fact_key)])
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
    return MonotoneDNFLineage.from_positions(instance, match_positions(query, instance, minimal))


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
