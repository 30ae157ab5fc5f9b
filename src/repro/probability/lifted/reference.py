"""The tuple-at-a-time ``Fraction`` form of the safe-plan executor, kept as
a reference.

:mod:`repro.probability.lifted.executor` evaluates a plan set-at-a-time: one
table per plan node, integer ``(numerator, denominator)`` pairs, one
:class:`~fractions.Fraction` per inclusion–exclusion term.  This module keeps
an independent algorithm for the same answer: one explicit frame stack walks
the plan once per binding, a projection enumerates its candidate root values
from the instance's hash indexes (:func:`_root_candidates`), a ground atom is
looked up in the ``arguments -> position`` index, and every product is a
``Fraction`` operation that reduces to lowest terms.  It serves as the
differential baseline (``tests/test_sweep_kernel.py``,
``tests/test_lifted.py``) and as the baseline side of
``benchmarks/bench_lifted.py``.  Do not use it from production code paths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterator, Mapping

from repro import resilience as _resilience
from repro.data.instance import Instance
from repro.data.tid import ProbabilisticInstance
from repro.probability.lifted.plan import (
    GroundNode,
    JoinNode,
    LiftedPlan,
    PlanNode,
    ProjectNode,
)
from repro.structure.graph import element_key

__all__ = ["execute_plan_reference"]

Binding = Mapping[Any, Any]
_EMPTY: tuple[tuple[PlanNode, dict[Any, Any]], ...] = ()
_ONE = Fraction(1)


def execute_plan_reference(plan: LiftedPlan, tid: ProbabilisticInstance) -> Fraction:
    """The exact probability of the plan's query on ``tid``, in ``Fraction``s."""
    total = Fraction(0)
    for coefficient, node in plan.root.terms:
        total += coefficient * _evaluate(node, tid)
    return total


class _Frame:
    """One in-flight product node: ``kind`` is "join" (``Π v``) or
    "project" (``1 - Π (1 - v)``); ``accumulator`` is the running product,
    and ``children`` yields the remaining ``(node, binding)`` factors."""

    __slots__ = ("kind", "accumulator", "children")

    def __init__(
        self, kind: str, children: Iterator[tuple[PlanNode, dict[Any, Any]]]
    ) -> None:
        self.kind = kind
        self.accumulator = Fraction(1)
        self.children = children

    def absorb(self, value: Fraction) -> None:
        factor = value if self.kind == "join" else 1 - value
        self.accumulator *= factor
        if self.accumulator == 0:
            self.children = iter(_EMPTY)

    def finalize(self) -> Fraction:
        return self.accumulator if self.kind == "join" else 1 - self.accumulator


def _evaluate(root: PlanNode, tid: ProbabilisticInstance) -> Fraction:
    if isinstance(root, GroundNode):
        return _ground_probability(root, {}, tid)
    instance = tid.instance
    frames = [_open_frame(root, {}, instance)]
    result = Fraction(0)
    while frames:
        frame = frames[-1]
        pending = next(frame.children, None)
        if pending is not None:
            child, binding = pending
            if isinstance(child, GroundNode):
                frame.absorb(_ground_probability(child, binding, tid))
            else:
                frames.append(_open_frame(child, binding, instance))
            continue
        value = frame.finalize()
        frames.pop()
        if frames:
            frames[-1].absorb(value)
        else:
            result = value
    return result


def _open_frame(node: PlanNode, binding: dict[Any, Any], instance: Instance) -> _Frame:
    if isinstance(node, JoinNode):
        return _Frame("join", ((child, binding) for child in node.children))
    assert isinstance(node, ProjectNode)
    values = _root_candidates(node, instance, binding)
    return _Frame(
        "project",
        ((node.child, {**binding, node.variable: value}) for value in values),
    )


def _ground_probability(
    node: GroundNode, binding: Binding, tid: ProbabilisticInstance
) -> Fraction:
    """Product of the fact probabilities; 0 when any fact is absent."""
    instance = tid.instance
    positions: dict[int, None] = {}
    for a in node.atoms:
        arguments = tuple(map(binding.__getitem__, a.arguments))
        position = instance.fact_positions(a.relation).get(arguments)
        if position is None:
            return Fraction(0)
        positions[position] = None
    facts = instance.facts
    factors = (tid.probability_of(facts[position]) for position in positions)
    probability = next(factors, _ONE)
    for factor in factors:
        probability *= factor
    return probability


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
            budget.charge_rows(rows)
        candidates = values if candidates is None else candidates & values
        if not candidates:
            return []
    assert candidates is not None
    return sorted(candidates, key=element_key)
