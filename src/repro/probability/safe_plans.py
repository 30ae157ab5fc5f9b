"""Recursive lifted-inference reference (safe plans).

The query-based tractability route of [18, 19, 36], used in Section 9 of the
paper as the point of comparison with the instance-based route.  This module
is the *differential reference* for the compiled lifted tier
(:mod:`repro.probability.lifted`), in the same spirit as
:mod:`repro.booleans.reference`: a direct recursive transcription of the
independence rules, kept deliberately close to the textbook presentation and
cross-checked term by term against the iterative plan executor by the
oracle and the differential tests.

The rules, applied to each minimized inclusion–exclusion conjunction:

* *independent project*: if a root variable x occurs in every atom, the
  fact sets touched by distinct values of x are disjoint, so
  ``P(q) = 1 - prod_a (1 - P(q[x := a]))`` where ``a`` ranges over the
  values occurring in x's columns (the per-relation hash indexes — never
  the whole active domain);
* *independent join*: if the query splits into sub-queries sharing no
  unbound variable and no relation symbol, ``P(q1 ∧ q2) = P(q1) * P(q2)``;
* *ground atom*: the probability of a fully instantiated atom is its TID
  probability (0 if the fact is absent), looked up in one valuation
  mapping built per evaluation.

Both tiers share the minimization front end
(:mod:`repro.probability.lifted.minimize`): disjuncts are replaced by their
homomorphism cores, redundant disjuncts are dropped, and every
inclusion–exclusion conjunction is cored with equivalent terms cancelled
Möbius-style — so ``R(x) ∨ R(y)`` evaluates (its conjunction collapses to
``R(x)``) instead of raising on an unminimized self-join.

Scope: the projection rule is conservative (it requires pairwise-distinct
relation symbols in the projected component), so some safe queries outside
the hierarchical self-join-free fragment — e.g. inversion-free unions whose
minimized conjunctions retain self-joins — are rejected.  Rejection is
always an explicit :class:`~repro.errors.UnsafeQueryError`, never a wrong
value, and the verdict is shared with the compiled tier: ``is_liftable``
(re-exported here) is decided by plan construction and agrees with both
evaluators by construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

from repro.data.instance import Fact, Instance
from repro.data.tid import ProbabilisticInstance
from repro.errors import UnsafeQueryError
from repro.probability.lifted.minimize import (
    inclusion_exclusion_terms,
    minimize_disjuncts,
)
from repro.probability.lifted.plan import is_liftable
from repro.queries.atoms import Atom, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.structure.graph import element_key

__all__ = ["UnsafeQueryError", "is_liftable", "safe_plan_probability"]


def safe_plan_probability(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    probabilistic_instance: ProbabilisticInstance,
) -> Fraction:
    """Exact probability by recursive lifted inference.

    Raises :class:`UnsafeQueryError` exactly when ``is_liftable`` is False:
    some minimized inclusion–exclusion conjunction is not hierarchical or
    needs a projection across a self-join.
    """
    query = as_ucq(query)
    if query.has_disequalities():
        raise UnsafeQueryError("lifted inference implemented for UCQs without disequalities")
    disjuncts = minimize_disjuncts(query)
    terms = inclusion_exclusion_terms(disjuncts)
    # One membership/probability structure per evaluation, shared by every
    # recursive call (the seed rebuilt a set of all facts per ground step).
    valuation = probabilistic_instance.valuation()
    instance = probabilistic_instance.instance
    # Validate every term structurally before evaluating anything: safety
    # must not depend on the instance (an empty projection column would
    # otherwise skip — and silently accept — an unsafe subquery).
    for _, conjunction in terms:
        _validate([(a, frozenset()) for a in conjunction.atoms])
    total = Fraction(0)
    for coefficient, conjunction in terms:
        atoms = [(a, {}) for a in conjunction.atoms]
        total += coefficient * _evaluate(atoms, instance, valuation)
    return total


_Binding = Mapping[Variable, Any]


def _validate(atoms: list[tuple[Atom, frozenset[Variable]]]) -> None:
    """Recursive structural safety check: the value-free mirror of
    :func:`_evaluate` (and an independent transcription of the plan
    builder's decomposition).  Decomposition depends only on *which*
    variables are bound, never on values, so this raises
    :class:`UnsafeQueryError` exactly when evaluation would on some
    instance — making the verdict instance-independent."""
    if not atoms:
        return
    ground = [(a, bound) for a, bound in atoms if all(v in bound for v in a.variables())]
    rest = [(a, bound) for a, bound in atoms if not all(v in bound for v in a.variables())]
    if not rest:
        return
    if ground:
        ground_relations = {a.relation for a, _ in ground}
        if any(a.relation in ground_relations for a, _ in rest):
            raise UnsafeQueryError(
                "ground atom shares a relation with an open atom: "
                "the factors are not independent"
            )
    components = _components(rest)
    if len(components) > 1 or ground:
        for component in components:
            _validate(component)
        return
    unbound_per_atom = [
        frozenset(v for v in a.variables() if v not in bound) for a, bound in rest
    ]
    shared = frozenset.intersection(*unbound_per_atom)
    if not shared:
        raise UnsafeQueryError(
            "no root variable: the query is not hierarchical (unsafe for lifted inference)"
        )
    if not _distinct_relations(rest):
        raise UnsafeQueryError(
            "self-join across the root variable: lifted inference does not apply"
        )
    root = min(shared, key=lambda v: v.name)
    _validate([(a, bound | {root}) for a, bound in rest])


def _evaluate(
    atoms: list[tuple[Atom, _Binding]],
    instance: Instance,
    valuation: dict[Fact, Fraction],
) -> Fraction:
    """Recursive lifted evaluation of a conjunction of partially bound atoms."""
    if not atoms:
        return Fraction(1)

    # Ground atoms: all variables bound -> multiply the fact probability in.
    ground = [
        (a, binding) for a, binding in atoms if all(v in binding for v in a.variables())
    ]
    if ground:
        remaining = [(a, binding) for a, binding in atoms if (a, binding) not in ground]
        probability = Fraction(1)
        ground_facts: set[Fact] = set()
        for a, binding in ground:
            ground_facts.add(Fact(a.relation, tuple(binding[v] for v in a.arguments)))
        for ground_fact in ground_facts:
            fact_probability = valuation.get(ground_fact)
            if fact_probability is None:
                return Fraction(0)
            probability *= fact_probability
        return probability * _evaluate(remaining, instance, valuation)

    # Independent join: split into connected components sharing no unbound variable.
    components = _components(atoms)
    if len(components) > 1:
        probability = Fraction(1)
        for component in components:
            probability *= _evaluate(component, instance, valuation)
        return probability

    # Independent project on a root variable: an unbound variable occurring in
    # every atom of the component.
    unbound_per_atom = [
        {v for v in a.variables() if v not in binding} for a, binding in atoms
    ]
    shared = set.intersection(*unbound_per_atom) if unbound_per_atom else set()
    if not shared:
        raise UnsafeQueryError(
            "no root variable: the query is not hierarchical (unsafe for lifted inference)"
        )
    if not _distinct_relations(atoms):
        raise UnsafeQueryError("self-join across the root variable: lifted inference does not apply")
    root = min(shared, key=lambda v: v.name)
    probability_none = Fraction(1)
    for value in _root_values(atoms, root, instance):
        bound = [(a, {**binding, root: value}) for a, binding in atoms]
        probability_none *= 1 - _evaluate(bound, instance, valuation)
    return 1 - probability_none


def _root_values(
    atoms: list[tuple[Atom, _Binding]], root: Variable, instance: Instance
) -> list[Any]:
    """Candidate root values: per atom, the values occurring in the root's
    positions among the facts matching the atom's bound positions (via the
    instance's hash indexes), intersected across atoms.  The seed swept the
    whole active domain here — O(domain) recursive calls each returning 0."""
    candidates: set[Any] | None = None
    for a, binding in atoms:
        positions = [i for i, v in enumerate(a.arguments) if v == root]
        bound = {i: binding[v] for i, v in enumerate(a.arguments) if v in binding}
        facts = (
            instance.facts_matching(a.relation, bound)
            if bound
            else instance.facts_of(a.relation)
        )
        values = {
            f.arguments[positions[0]]
            for f in facts
            if all(f.arguments[p] == f.arguments[positions[0]] for p in positions[1:])
        }
        candidates = values if candidates is None else candidates & values
        if not candidates:
            return []
    return sorted(candidates or set(), key=element_key)


def _components(atoms: list[tuple[Atom, _Binding]]) -> list[list[tuple[Atom, _Binding]]]:
    """Connected components of atoms linked by shared *unbound* variables or by a
    shared relation symbol (two atoms over the same relation are never
    independent, so splitting them would be unsound)."""
    n = len(atoms)
    adjacency = {i: set() for i in range(n)}
    unbound = [
        {v for v in a.variables() if v not in binding} for a, binding in atoms
    ]
    for i in range(n):
        for j in range(i + 1, n):
            if unbound[i] & unbound[j] or atoms[i][0].relation == atoms[j][0].relation:
                adjacency[i].add(j)
                adjacency[j].add(i)
    seen: set[int] = set()
    components: list[list[tuple[Atom, _Binding]]] = []
    for start in range(n):
        if start in seen:
            continue
        stack = [start]
        component = []
        seen.add(start)
        while stack:
            current = stack.pop()
            component.append(atoms[current])
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        components.append(component)
    return components


def _distinct_relations(atoms: list[tuple[Atom, _Binding]]) -> bool:
    names = [a.relation for a, _ in atoms]
    return len(names) == len(set(names))
