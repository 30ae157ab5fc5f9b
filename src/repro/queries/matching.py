"""Query matching: homomorphisms from queries to instances, matches, and
minimal matches (Section 2 of the paper).

A homomorphism from a CQ≠ to an instance maps variables to domain elements so
that every relational atom maps to a fact and every disequality is satisfied.
A *match* is the set of facts in the image of a homomorphism; a *minimal
match* is a match minimal under inclusion.  The lineage of a UCQ≠ is exactly
the disjunction, over matches, of the conjunction of the facts of the match
(monotone queries), which is what :mod:`repro.provenance.lineage` builds.

Homomorphisms are enumerated one at a time by backtracking
(:func:`cq_homomorphisms`), and :func:`satisfies` stops at the first one.
Matches are enumerated set-at-a-time over positions in ``instance.facts``:
one hash join per atom, so for a fixed query the cost is linear in |I| plus
the number of matches.  A match of k facts is minimal exactly when none of
its proper non-empty subsets is a match, which is at most 2^k - 2 set
lookups.  The tuple-at-a-time forms are kept in :mod:`repro.queries.reference`.
"""

from __future__ import annotations

from itertools import combinations, compress, repeat
from operator import itemgetter, ne
from typing import Any, Collection, Iterable, Iterator, Sequence

from repro.data.instance import Fact, Instance
from repro.queries.atoms import Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq


# Sentinel for "variable not bound yet": domain elements may legitimately be
# None ("any hashable, orderable values"), so None cannot mark unboundness.
_UNBOUND = object()


def _atom_order(query: ConjunctiveQuery) -> list:
    """Atoms ordered to maximize joins with already-bound variables."""
    ordered: list = []
    bound: set[Variable] = set()
    remaining = list(query.atoms)
    while remaining:
        remaining.sort(key=lambda a: (-len(set(a.variables()) & bound), -a.arity))
        chosen = remaining.pop(0)
        ordered.append(chosen)
        bound.update(chosen.variables())
    return ordered


def _enumerate_homomorphisms(query: ConjunctiveQuery, fetch) -> Iterator[dict[Variable, Any]]:
    """Shared backtracking core: ``fetch(atom, bindings)`` supplies candidates.

    ``bindings`` maps argument positions of the atom to the values their
    variables are already bound to; the fetcher may use them (index lookup) or
    ignore them (full scan) — the consistency and disequality checks below
    hold either way.
    """
    ordered = _atom_order(query)
    disequalities = [d.normalized() for d in query.disequalities]

    def violates_disequalities(assignment: dict[Variable, Any]) -> bool:
        for d in disequalities:
            if d.left in assignment and d.right in assignment:
                if assignment[d.left] == assignment[d.right]:
                    return True
        return False

    # repro-analysis: allow(REC001): backtracking depth <= |query atoms|, and queries are tiny relative to instances
    def extend(index: int, assignment: dict[Variable, Any]) -> Iterator[dict[Variable, Any]]:
        if index == len(ordered):
            yield dict(assignment)
            return
        current = ordered[index]
        bindings: dict[int, Any] = {}
        for position, variable in enumerate(current.arguments):
            if variable in assignment:
                bindings[position] = assignment[variable]
        for candidate in fetch(current, bindings):
            additions: dict[Variable, Any] = {}
            consistent = True
            for variable, value in zip(current.arguments, candidate.arguments):
                expected = assignment.get(variable, additions.get(variable, _UNBOUND))
                if expected is _UNBOUND:
                    additions[variable] = value
                elif expected != value:
                    consistent = False
                    break
            if not consistent:
                continue
            assignment.update(additions)
            if not violates_disequalities(assignment):
                yield from extend(index + 1, assignment)
            for variable in additions:
                del assignment[variable]

    yield from extend(0, {})


def cq_homomorphisms(query: ConjunctiveQuery, instance: Instance) -> Iterator[dict[Variable, Any]]:
    """Enumerate all homomorphisms from ``query`` to ``instance``.

    Backtracking over the query atoms, in an order chosen to maximize joins
    with already-bound variables.  Candidate facts for each atom are fetched
    through the instance's per-relation, per-position hash indexes
    (:meth:`repro.data.instance.Instance.facts_matching`), so a join on a
    bound variable costs one bucket lookup instead of a scan over every fact
    of the relation.
    """
    return _enumerate_homomorphisms(
        query, lambda atom, bindings: instance.facts_matching(atom.relation, bindings)
    )


def cq_homomorphisms_naive(
    query: ConjunctiveQuery, instance: Instance
) -> Iterator[dict[Variable, Any]]:
    """Reference enumeration scanning every fact of each atom's relation.

    Semantically identical to :func:`cq_homomorphisms` but with the seed
    linear-scan candidate fetcher instead of the hash indexes; kept as the
    cross-check oracle for the indexing layer and as the baseline of
    ``benchmarks/bench_engine.py``.
    """
    return _enumerate_homomorphisms(
        query, lambda atom, bindings: instance.facts_of(atom.relation)
    )


def _disjunct_matches(query: ConjunctiveQuery, instance: Instance) -> Iterator[frozenset[int]]:
    """The matches of a CQ≠ as sets of positions in ``instance.facts``, with
    repeats, in the order backtracking over :func:`_atom_order` reaches them.

    Set-at-a-time over columns: the partial matches are one list per bound
    variable (its values) and one per joined atom (its facts' positions).
    Each atom's relation is scanned once into a chained hash table keyed by
    the atom's already-bound variables (a repeated variable filters the
    scan), one probe per partial match lists its extensions, and every
    column is gathered through them; a disequality is checked once both of
    its variables are bound.
    """
    columns: list[list] = []
    slot: dict[Variable, int] = {}
    position_slots: list[int] = []
    disequalities = list(query.disequalities)
    count = 1
    for current in _atom_order(query):
        first: dict[Variable, int] = {}
        for index, variable in enumerate(current.arguments):
            first.setdefault(variable, index)
        repeats = [
            (first[variable], index)
            for index, variable in enumerate(current.arguments)
            if first[variable] != index
        ]
        block = instance.facts_of(current.relation)
        start = instance.block_start(current.relation)
        arguments = [f.arguments for f in block]
        scanned: Sequence[int] = range(start, start + len(block))
        if repeats:
            scanned = [
                start + k
                for k, args in enumerate(arguments)
                if all(args[i] == args[j] for i, j in repeats)
            ]
            arguments = [arguments[position - start] for position in scanned]
        bound = [variable for variable in first if variable in slot]
        fresh = [variable for variable in first if variable not in slot]
        parents: list[int] = []
        children: list[int] = []
        if bound:
            # head[key] is the first scanned fact with that key and chain[j]
            # the next one after fact j (-1 ends a chain), in relation order.
            keys = list(map(itemgetter(*[first[variable] for variable in bound]), arguments))
            head: dict[Any, int] = {}
            chain = [-1] * len(keys)
            for j in range(len(keys) - 1, -1, -1):
                chain[j] = head.get(keys[j], -1)
                head[keys[j]] = j
            if len(bound) == 1:
                probes: Iterable[Any] = columns[slot[bound[0]]]
            else:
                probes = zip(*[columns[slot[variable]] for variable in bound])
            for parent, key in enumerate(probes):
                j = head.get(key, -1)
                while j >= 0:
                    parents.append(parent)
                    children.append(j)
                    j = chain[j]
        else:
            for parent in range(count):
                parents += repeat(parent, len(arguments))
                children += range(len(arguments))
        columns = _gathered(columns, parents)
        picked = list(map(arguments.__getitem__, children))
        for variable in fresh:
            slot[variable] = len(columns)
            columns.append(list(map(itemgetter(first[variable]), picked)))
        position_slots.append(len(columns))
        columns.append(list(map(scanned.__getitem__, children)))
        count = len(children)
        ready = [d for d in disequalities if d.left in slot and d.right in slot]
        for d in ready:
            disequalities.remove(d)
            kept = list(compress(range(count), map(ne, columns[slot[d.left]], columns[slot[d.right]])))
            columns = _gathered(columns, kept)
            count = len(kept)
    if len(position_slots) == 1:
        return (frozenset((position,)) for position in columns[position_slots[0]])
    return map(frozenset, zip(*[columns[index] for index in position_slots]))


def _gathered(columns: list[list], rows: list[int]) -> list[list]:
    """Each column restricted to (and repeated along) ``rows``."""
    return [list(map(column.__getitem__, rows)) for column in columns]


def _match_positions(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance
) -> dict[frozenset[int], None]:
    """The matches of a UCQ≠ as position sets, in order of first occurrence."""
    query = as_ucq(query)
    query.check_arities(instance.signature)
    matches: dict[frozenset[int], None] = {}
    for disjunct in query.disjuncts:
        matches.update(dict.fromkeys(_disjunct_matches(disjunct, instance)))
    return matches


def _minimal(matches: dict[frozenset[int], None]) -> list[frozenset[int]]:
    """The matches none of whose proper non-empty subsets is a match.

    A match of k facts is tested with at most 2^k - 2 set lookups, one per
    subset whose size some match has; k is at most the largest disjunct's
    atom count.
    """
    sizes = sorted(set(map(len, matches)))
    smaller = {size: [s for s in sizes if s < size] for size in sizes}
    minimal = []
    for match in matches:
        below = smaller[len(match)]
        if below and any(
            frozenset(subset) in matches for size in below for subset in combinations(match, size)
        ):
            continue
        minimal.append(match)
    return minimal


def _as_facts(matches: Collection[frozenset[int]], instance: Instance) -> list[frozenset[Fact]]:
    """Position sets as fact sets, sorted by size and then by the sorted
    ``str`` renderings of their facts; each fact is rendered once."""
    facts = instance.facts
    rendered = {position: str(facts[position]) for position in set().union(*matches)}
    ordered = sorted(matches, key=lambda match: (len(match), sorted(map(rendered.__getitem__, match))))
    return [frozenset(map(facts.__getitem__, match)) for match in ordered]


def cq_matches(query: ConjunctiveQuery, instance: Instance) -> Iterator[frozenset[Fact]]:
    """Enumerate the matches of a CQ≠ (images of homomorphisms), deduplicated.

    Matches come in the order backtracking over the atoms would first reach
    them, and hold the instance's own facts.
    """
    facts = instance.facts
    for match in _match_positions(query, instance):
        yield frozenset(map(facts.__getitem__, match))


def ucq_matches(query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance) -> list[frozenset[Fact]]:
    """All matches of a UCQ≠ on an instance (deduplicated across disjuncts),
    sorted by size and then by the sorted ``str`` renderings of their facts.

    Matches hold the instance's own facts.  So where the instance has equal
    elements of different types (``1`` and ``True``), a fact renders as it
    is stored, not through the value its variable was first bound to.
    """
    return _as_facts(_match_positions(query, instance), instance)


def minimal_matches(query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance) -> list[frozenset[Fact]]:
    """The inclusion-minimal matches of a UCQ≠ on an instance (Section 2), in
    the order of :func:`ucq_matches`."""
    return _as_facts(_minimal(_match_positions(query, instance)), instance)


def satisfies(instance: Instance, query: UnionOfConjunctiveQueries | ConjunctiveQuery) -> bool:
    """Model checking: does the instance satisfy the (U)CQ≠ query?"""
    query = as_ucq(query)
    for disjunct in query.disjuncts:
        for _ in cq_homomorphisms(disjunct, instance):
            return True
    return False


def is_monotone_witnessed(query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance, subset: Instance) -> bool:
    """Check (by brute force) that satisfaction on ``subset`` implies it on ``instance``."""
    return not satisfies(subset, query) or satisfies(instance, query)
