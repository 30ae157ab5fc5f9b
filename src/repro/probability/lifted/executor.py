"""Iterative execution of compiled safe plans on TID instances.

One explicit frame stack, no Python recursion (the plan depth is bounded by
the query, but the REC001 contract holds the whole lifted kernel to the
same iterative standard as the circuit sweeps).  All arithmetic is exact
integer arithmetic (EXACT001): every value is an unnormalized
``(numerator, denominator)`` pair, each frame multiplies its factors as
balanced product trees, and :func:`execute_plan` builds one
:class:`~fractions.Fraction` per inclusion–exclusion term of the answer.
The ``Fraction`` form this replaced is
:func:`repro.probability.lifted.reference.execute_plan_reference`.

The executor touches the instance only through its per-relation hash
indexes: a :class:`~repro.probability.lifted.plan.ProjectNode` enumerates
the candidate root values as the intersection, over the component's atoms,
of the values occurring in that atom's root columns among the facts
matching the already-bound positions
(:meth:`repro.data.instance.Instance.facts_matching`).  The global active
domain is never swept, and both product rules short-circuit (a zero factor
for joins, a certain branch for projections).

A :class:`~repro.probability.lifted.plan.GroundNode` finds each ground atom
in the instance's ``arguments -> position`` index
(:meth:`repro.data.instance.Instance.fact_positions`) and reads the TID's
probability of the fact at that position: no ``Fact`` is built per binding,
and the valuation is never copied.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterator, Mapping

from repro import resilience as _resilience
from repro.data.instance import Instance
from repro.data.tid import ProbabilisticInstance
from repro.probability.evaluation import balanced_product
from repro.probability.lifted.plan import (
    GroundNode,
    JoinNode,
    LiftedPlan,
    PlanNode,
    ProjectNode,
)

Binding = Mapping[Any, Any]
#: An exact value ``numerator / denominator``, not reduced to lowest terms.
Pair = tuple[int, int]

_EMPTY: tuple[tuple[PlanNode, dict[Any, Any]], ...] = ()


def execute_plan(plan: LiftedPlan, tid: ProbabilisticInstance) -> Fraction:
    """The exact probability of the plan's query on ``tid``.

    Each inclusion–exclusion term is reduced to lowest terms on its own and
    the terms are added as fractions, so no reduction works on the product
    of every term's denominator."""
    return sum(
        (coefficient * Fraction(*pair) for coefficient, pair in execute_plan_terms(plan, tid)),
        Fraction(0),
    )


def execute_plan_terms(plan: LiftedPlan, tid: ProbabilisticInstance) -> list[tuple[int, Pair]]:
    """The inclusion–exclusion terms of :func:`execute_plan`: each
    coefficient with its term's ``(numerator, denominator)`` pair, not yet
    reduced to lowest terms (at decimal probabilities, that reduction is a
    large share of the executor's time)."""
    return [(coefficient, _evaluate(node, tid)) for coefficient, node in plan.root.terms]


class _Frame:
    """One in-flight product node: ``join`` is ``Π v``, a projection is
    ``1 - Π (1 - v)``.  ``numerators`` and ``denominators`` collect the
    factors, and ``children`` yields the remaining ``(node, binding)``
    factors."""

    __slots__ = ("join", "numerators", "denominators", "children")

    def __init__(
        self, join: bool, children: Iterator[tuple[PlanNode, dict[Any, Any]]]
    ) -> None:
        self.join = join
        self.numerators: list[int] = []
        self.denominators: list[int] = []
        self.children = children

    def absorb(self, numerator: int, denominator: int) -> None:
        factor = numerator if self.join else denominator - numerator
        if factor == 0:
            # Short-circuit: a zero product is final (a zero factor for
            # joins, a certain branch for projections).
            self.numerators = [0]
            self.denominators = []
            self.children = iter(_EMPTY)
            return
        self.numerators.append(factor)
        self.denominators.append(denominator)

    def finalize(self) -> Pair:
        numerator = balanced_product(self.numerators)
        denominator = balanced_product(self.denominators)
        return (numerator, denominator) if self.join else (denominator - numerator, denominator)


def _evaluate(root: PlanNode, tid: ProbabilisticInstance) -> Pair:
    if isinstance(root, GroundNode):
        return _ground_probability(root, {}, tid)
    instance = tid.instance
    frames = [_open_frame(root, {}, instance)]
    result: Pair = (0, 1)
    while frames:
        frame = frames[-1]
        pending = next(frame.children, None)
        if pending is not None:
            child, binding = pending
            if isinstance(child, GroundNode):
                frame.absorb(*_ground_probability(child, binding, tid))
            else:
                frames.append(_open_frame(child, binding, instance))
            continue
        value = frame.finalize()
        frames.pop()
        if frames:
            frames[-1].absorb(*value)
        else:
            result = value
    return result


def _open_frame(node: PlanNode, binding: dict[Any, Any], instance: Instance) -> _Frame:
    if isinstance(node, JoinNode):
        return _Frame(True, ((child, binding) for child in node.children))
    assert isinstance(node, ProjectNode)
    values = _root_candidates(node, instance, binding)
    return _Frame(
        False, ((node.child, {**binding, node.variable: value}) for value in values)
    )


def _ground_probability(
    node: GroundNode, binding: Binding, tid: ProbabilisticInstance
) -> Pair:
    """Product of the fact probabilities; 0 when any fact is absent.

    Each atom's ground arguments are looked up in the instance's
    ``arguments -> position`` index, and the fact's probability is read by
    position; no :class:`~repro.data.instance.Fact` is built.  Duplicate
    facts (possible only in degenerate plans) are counted once:
    ``P(A ∧ A) = P(A)``.
    """
    instance = tid.instance
    positions: dict[int, None] = {}
    for a in node.atoms:
        arguments = tuple(map(binding.__getitem__, a.arguments))
        position = instance.fact_positions(a.relation).get(arguments)
        if position is None:
            return (0, 1)
        positions[position] = None
    facts = instance.facts
    numerator = denominator = 1
    for position in positions:
        fact_numerator, fact_denominator = tid.probability_of(facts[position]).as_integer_ratio()
        numerator *= fact_numerator
        denominator *= fact_denominator
    return (numerator, denominator)


def _root_candidates(
    node: ProjectNode, instance: Instance, binding: Binding
) -> list[Any]:
    """Values of the root variable that can match *every* atom of the
    component: per atom, the root-column values among the facts matching
    the bound positions (via the instance's hash indexes), intersected
    across atoms.  Values outside the intersection contribute probability
    zero, so skipping them is exact."""
    candidates: set[Any] | None = None
    budget = _resilience.ACTIVE
    for spec in node.atom_specs:
        if spec.bound_positions:
            bindings = {
                position: binding[variable]
                for position, variable in spec.bound_positions
            }
            facts = instance.facts_matching(spec.relation, bindings)
        else:
            facts = instance.facts_of(spec.relation)
        first = spec.root_positions[0]
        values: set[Any] = set()
        rows = 0
        for ground_fact in facts:
            rows += 1
            value = ground_fact.arguments[first]
            if all(
                ground_fact.arguments[position] == value
                for position in spec.root_positions[1:]
            ):
                values.add(value)
        if budget is not None and rows:
            # One charge per enumerated index scan: the row cap bounds the
            # total rows the executor touches, and the charge's periodic
            # deadline tick keeps long plans wall-clock interruptible.
            budget.charge_rows(rows)
        candidates = values if candidates is None else candidates & values
        if not candidates:
            return []
    assert candidates is not None
    return sorted(candidates, key=_value_key)


def _value_key(value: Any) -> tuple[str, str]:
    """The library's structural total order on domain elements."""
    return (type(value).__name__, repr(value))
