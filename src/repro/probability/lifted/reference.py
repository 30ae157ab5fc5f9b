"""The ``Fraction`` form of the safe-plan executor, kept as a reference.

:mod:`repro.probability.lifted.executor` multiplies unnormalized integer
``(numerator, denominator)`` pairs and builds one
:class:`~fractions.Fraction` per answer.  This module keeps the form it
replaced: the same frame stack and the same candidate enumeration
(:func:`~repro.probability.lifted.executor._root_candidates`), but every
product is a ``Fraction`` operation that reduces to lowest terms.  It serves
as the differential baseline (``tests/test_sweep_kernel.py``) and as the
baseline side of ``benchmarks/bench_lifted.py``.  Do not use it from
production code paths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterator

from repro.data.instance import Instance
from repro.data.tid import ProbabilisticInstance
from repro.probability.lifted.executor import Binding, _root_candidates
from repro.probability.lifted.plan import (
    GroundNode,
    JoinNode,
    LiftedPlan,
    PlanNode,
    ProjectNode,
)

__all__ = ["execute_plan_reference"]

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
