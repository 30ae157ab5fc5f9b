"""Top-level probability evaluation for UCQ≠ queries on TID instances.

This is the user-facing entry point implementing the upper bound of
Theorem 4.2: on treelike instances, probability evaluation runs in one pass
over a tree encoding (the ``automaton`` route) or through a compiled lineage
(``obdd`` / ``dnnf``); ``safe_plan`` is the query-based
lifted-inference route of Section 9 (compiled plans,
:mod:`repro.probability.lifted`).  The routes are the records of
:data:`repro.engine.session.ROUTES`; this one-shot helper evaluates on a
throwaway :class:`~repro.engine.CompilationEngine`, so it shares the
engine's single ``auto`` policy and its failover.

Every route advertised as exact returns an exact
:class:`fractions.Fraction`, and the routes agree with each other — the
test suite checks this systematically against the references in
:mod:`repro.testing`.  ``obdd_float`` is the deliberate exception: the float
pass of the OBDD evaluation kernel, computed in hardware arithmetic (falling
back to the exact kernel whenever the float pass degenerates).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from repro.data.instance import Instance
from repro.data.tid import ProbabilisticInstance
from repro.errors import ProbabilityError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries

if TYPE_CHECKING:
    from repro.engine import CompilationEngine, ProbabilityBounds
    from repro.resilience import ResourceBudget


def probability(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    probabilistic_instance: ProbabilisticInstance,
    method: str = "auto",
    engine: CompilationEngine | None = None,
    budget: ResourceBudget | None = None,
) -> Fraction | float | ProbabilityBounds:
    """The probability that the TID instance satisfies the UCQ≠ (Definition 3.1).

    ``method`` names a route of :data:`repro.engine.session.ROUTES`.
    Passing a :class:`repro.engine.CompilationEngine` routes the evaluation
    through the engine's caches (lineages and OBDDs are memoized across calls
    by instance content fingerprint, probability results per TID object);
    without one, a throwaway engine recomputes everything from scratch.

    Passing a :class:`repro.resilience.ResourceBudget` activates its node/row
    caps and wall-clock deadline around the evaluation (the kernels
    checkpoint cooperatively and raise :class:`~repro.errors.BudgetExceeded`
    / :class:`~repro.errors.DeadlineExceeded`); ``method="auto"``
    additionally fails over between routes on a blowout.
    """
    from repro.engine import CompilationEngine  # the engine imports this package

    if engine is None:
        engine = CompilationEngine()
    return engine.probability(query, probabilistic_instance, method, budget=budget)


def _probability_of_read_once(lineage, probabilistic_instance: ProbabilisticInstance) -> Fraction:
    """P(OR of independent ANDs) = 1 - prod(1 - prod(p(fact))), in integers.

    A clause with probability ``n/d`` misses with ``(d - n)/d``; the misses
    and the denominators multiply as balanced product trees, and the answer
    is the one :class:`~fractions.Fraction` ``(D - M)/D``.  Each clause's
    ``n`` and ``d`` are products of the TID's integer columns at the
    clause's fact positions.
    """
    numerators, denominators = probabilistic_instance.ratios()
    misses: list[int] = []
    clause_denominators: list[int] = []
    for clause in _clause_positions(lineage, probabilistic_instance.instance):
        numerator = denominator = 1
        for position in clause:
            numerator *= numerators[position]
            denominator *= denominators[position]
        misses.append(denominator - numerator)
        clause_denominators.append(denominator)
    denominator = balanced_product(clause_denominators)
    return Fraction(denominator - balanced_product(misses), denominator)


def _clause_positions(lineage, instance: Instance) -> Sequence[Sequence[int]]:
    """The lineage's clauses as positions in ``instance.facts``: the
    lineage's own when ``instance`` holds its fact tuple, else each fact they
    name looked up once in ``instance``, an unknown one raising
    :class:`ProbabilityError`."""
    clauses = lineage.clause_positions
    if clauses is not None and instance.facts is lineage.instance.facts:
        return clauses
    fact_positions = instance.fact_positions

    def located(fact) -> int:
        position = fact_positions(fact.relation).get(fact.arguments)
        if position is None:
            raise ProbabilityError(f"{fact} is not a fact of this instance")
        return position

    if clauses is None:
        # Fact clauses naming a fact outside the lineage's own instance.
        return [list(map(located, clause)) for clause in lineage.clauses]
    facts = lineage.instance.facts
    moved = {position: located(facts[position]) for position in set().union(*clauses)}
    return [list(map(moved.__getitem__, clause)) for clause in clauses]


def balanced_product(factors: list[int]) -> int:
    """The product of integers, multiplied pairwise as a balanced tree.

    A left fold multiplies a growing accumulator by one small factor at a
    time, which is quadratic in the digits of the result; merging adjacent
    pairs keeps both operands of every multiplication about the same size.
    """
    while len(factors) > 1:
        paired = [factors[i] * factors[i + 1] for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1
