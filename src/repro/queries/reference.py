"""Tuple-at-a-time match enumeration and quadratic minimality, kept as oracles.

:mod:`repro.queries.matching` enumerates matches set-at-a-time over fact
positions and keeps a match as minimal when none of its proper subsets is a
match; :func:`repro.queries.rpq.c2rpq_minimal_matches` compares a witness
set only with the smaller minimal sets that share a fact with it.  This
module preserves the former forms:

* ``cq_matches_reference`` — one backtracking walk per homomorphism
  (:func:`~repro.queries.matching.cq_homomorphisms`), each match built from
  fresh :class:`~repro.data.instance.Fact` objects;
* ``ucq_matches_reference`` — the union over disjuncts, sorted by size and
  then by the sorted ``str`` renderings of each match's facts;
* ``minimal_matches_reference`` and ``c2rpq_minimal_matches_reference`` —
  a match is kept when no other match is a proper subset of it, checked
  against every other match (quadratic in the number of matches).

They exist for two purposes:

* **differential testing**: ``tests/test_matching.py`` and
  ``tests/test_rpq.py`` check that the production functions return the same
  lists, in the same order;
* **benchmarking**: ``benchmarks/bench_lineage.py`` times lineage against
  ``minimal_matches_reference`` and gates CI on the speed-up.

Do not use these from production code paths.
"""

from __future__ import annotations

from typing import Iterator

from repro.data.instance import Fact, Instance
from repro.queries.cq import ConjunctiveQuery
from repro.queries.matching import cq_homomorphisms
from repro.queries.rpq import ConjunctiveRPQ, c2rpq_matches
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq


def cq_matches_reference(query: ConjunctiveQuery, instance: Instance) -> Iterator[frozenset[Fact]]:
    """Enumerate the matches of a CQ≠ (images of homomorphisms), deduplicated."""
    seen: set[frozenset[Fact]] = set()
    for assignment in cq_homomorphisms(query, instance):
        match = frozenset(
            Fact(a.relation, tuple(assignment[v] for v in a.arguments)) for a in query.atoms
        )
        if match not in seen:
            seen.add(match)
            yield match


def ucq_matches_reference(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance
) -> list[frozenset[Fact]]:
    """All matches of a UCQ≠ on an instance (deduplicated across disjuncts)."""
    query = as_ucq(query)
    result: set[frozenset[Fact]] = set()
    for disjunct in query.disjuncts:
        result.update(cq_matches_reference(disjunct, instance))
    return sorted(result, key=lambda match: (len(match), sorted(map(str, match))))


def minimal_matches_reference(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery, instance: Instance
) -> list[frozenset[Fact]]:
    """The inclusion-minimal matches of a UCQ≠ on an instance (Section 2)."""
    matches = ucq_matches_reference(query, instance)
    return [match for match in matches if not any(other < match for other in matches)]


def c2rpq_minimal_matches_reference(
    query: ConjunctiveRPQ,
    instance: Instance,
    max_facts_per_atom: int | None = None,
) -> list[frozenset[Fact]]:
    """The inclusion-minimal witness fact sets of the query on the instance."""
    matches = c2rpq_matches(query, instance, max_facts_per_atom=max_facts_per_atom)
    minimal: list[frozenset[Fact]] = []
    for candidate in matches:
        if not any(other < candidate for other in matches):
            minimal.append(candidate)
    return minimal
