"""Set-at-a-time execution of compiled safe plans on TID instances.

Every plan node computes one table, ``{key: (numerator, denominator)}``, in
one pass.  The key is the tuple of values of the variables bound by the
enclosing projections, in binding order.  Every atom below a node contains
all of those variables (a projected component's root occurs in every atom of
the component, queries are constant-free, and nullary atoms only ground at a
term's root), so every table below a node is keyed the same way:

* a :class:`~repro.probability.lifted.plan.GroundNode` scans the facts of
  each atom's relation together with their probabilities, the relation's
  block of the TID's integer columns
  (:meth:`repro.data.tid.ProbabilisticInstance.ratios`), and picks
  each fact's key out of its arguments by position.  A repeated variable
  (``U(x, y, x)``) is an equality filter on the scanned facts, and a fact
  that two atoms of the node share is counted once (``P(A ∧ A) = P(A)``);
* a :class:`~repro.probability.lifted.plan.JoinNode` intersects its
  children's tables and multiplies the values of each common key;
* a :class:`~repro.probability.lifted.plan.ProjectNode` groups its child's
  table by the key minus its last value and takes ``1 - Π (1 - v)`` per
  group.

Tables hold only nonzero values: a fact at probability 0 is skipped, and a
key missing from a table means 0.  The global active domain is never swept.

Sideways filter: a join evaluates its children in plan order (the ground
child, when there is one, comes first) and hands each later child the keys
of the product so far; a projection hands its own filter to its child; a
ground scan keeps only the facts whose key starts with a filter key.  So a
large relation is grouped only where a smaller one left a candidate.

All arithmetic is exact integer arithmetic (EXACT001): every value is an
unnormalized ``(numerator, denominator)`` pair, a projection multiplies its
group's factors as balanced product trees, and :func:`execute_plan` builds
one :class:`~fractions.Fraction` per inclusion–exclusion term of the answer.
The plan is walked with an explicit stack (REC001).  Under an ambient
:class:`~repro.resilience.ResourceBudget`, every ground-atom scan charges one
row per fact of its relation before the scan, and the deadline is polled
once per plan node.  The tuple-at-a-time ``Fraction`` executor, an
independent algorithm for the same answer that the differential tests and
``benchmarks/bench_lifted.py`` compare against, is
:func:`repro.probability.lifted.reference.execute_plan_reference`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, groupby, repeat
from operator import attrgetter, itemgetter, sub
from typing import Any, Iterable

from repro import resilience as _resilience
from repro.data.tid import ProbabilisticInstance
from repro.probability.evaluation import balanced_product
from repro.probability.lifted.plan import (
    GroundNode,
    JoinNode,
    LiftedPlan,
    PlanNode,
    ProjectNode,
)
from repro.queries.atoms import Atom, Variable
from repro.resilience import ResourceBudget

#: An exact value ``numerator / denominator``, not reduced to lowest terms.
Pair = tuple[int, int]
#: The values of the bound variables, in binding order.
Key = tuple[Any, ...]
#: One plan node's nonzero values.
Table = dict[Key, Pair]
#: A sideways filter: a key set and the key length it constrains.
Filter = tuple[Table, int]

_ARGUMENTS = attrgetter("arguments")
_FIRST = itemgetter(0)
_SECOND = itemgetter(1)
_ALL_BUT_LAST = itemgetter(slice(0, -1))


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
    """A join or projection waiting for its children's tables.

    ``variables`` are the variables bound above the node; a join folds each
    finished child into ``product`` before it starts the child at ``index``,
    filtered by the product's keys."""

    __slots__ = ("node", "variables", "product", "index")

    def __init__(self, node: JoinNode | ProjectNode, variables: tuple[Variable, ...]) -> None:
        self.node = node
        self.variables = variables
        self.product: Table | None = None
        self.index = 0


def _evaluate(root: PlanNode, tid: ProbabilisticInstance) -> Pair:
    """One term's value: its root table at the empty key."""
    budget = _resilience.ACTIVE
    frames: list[_Frame] = []
    node: PlanNode = root
    variables: tuple[Variable, ...] = ()
    keep: Filter | None = None
    while True:
        # Descend along first children to a ground node.
        while True:
            if budget is not None:
                budget.checkpoint()
            if isinstance(node, GroundNode):
                table = _ground_table(node, variables, keep, tid, budget)
                break
            if isinstance(node, ProjectNode):
                frames.append(_Frame(node, variables))
                variables = (*variables, node.variable)
                node = node.child
            else:
                frames.append(_Frame(node, variables))
                node = node.children[0]
        # Fold the finished table upward until a join has a child left.
        while frames:
            frame = frames[-1]
            if isinstance(frame.node, ProjectNode):
                table = _project(zip(map(_ALL_BUT_LAST, table), table.values()))
                frames.pop()
                continue
            product = table if frame.product is None else _join(frame.product, table)
            frame.product = product
            frame.index += 1
            children = frame.node.children
            if product and frame.index < len(children):
                node, variables = children[frame.index], frame.variables
                keep = (product, len(variables)) if variables else None
                break
            table = product
            frames.pop()
        else:
            return table.get((), (0, 1))


def _join(left: Table, right: Table) -> Table:
    """The product of two tables on their common keys."""
    joined: Table = {}
    for key, (numerator, denominator) in right.items():
        other = left.get(key)
        if other is not None:
            joined[key] = (other[0] * numerator, other[1] * denominator)
    return joined


def _project(rows: Iterable[tuple[Key, Pair]]) -> Table:
    """``1 - Π (1 - v)`` per group of ``(prefix, value)`` rows with equal
    prefixes.

    Rows are read in runs of equal prefixes (facts are stored sorted, so a
    run is usually a whole group): each run's factors are multiplied as it
    ends, and the runs of one group are multiplied at the end, so no row
    outlives its run and the per-row work stays in C.  A group whose rows
    are all 0 is 0, so it is left out of the table."""
    runs: dict[Key, list[Pair]] = {}
    for prefix, run in groupby(rows, key=_FIRST):
        numerators, denominators = zip(*map(_SECOND, run))
        denominator = balanced_product(list(denominators))
        complement = balanced_product(list(map(sub, denominators, numerators)))
        group = runs.get(prefix)
        if group is None:
            runs[prefix] = [(complement, denominator)]
        else:
            group.append((complement, denominator))
    projected: Table = {}
    for prefix, group in runs.items():
        complement, denominator = group[0]
        if len(group) > 1:
            complements, denominators = zip(*group)
            complement = balanced_product(list(complements))
            denominator = balanced_product(list(denominators))
        if complement != denominator:
            projected[prefix] = (denominator - complement, denominator)
    return projected


def _ground_table(
    node: GroundNode,
    variables: tuple[Variable, ...],
    keep: Filter | None,
    tid: ProbabilisticInstance,
    budget: ResourceBudget | None,
) -> Table:
    """The product of the node's atoms' fact probabilities, per key.

    Each atom is scanned once; a later atom is filtered by the keys the
    earlier ones left.  When two atoms of one relation name the same fact
    under a key, the later one contributes the factor 1."""
    table: Table | None = None
    scanned: dict[str, list[tuple[int, ...]]] = {}
    for atom in dict.fromkeys(node.atoms):
        keys, numerators, denominators = _scan(atom, variables, keep, tid, budget)
        rows = dict(compress(zip(keys, zip(numerators, denominators)), numerators))
        layout = tuple(map(variables.index, atom.arguments))
        for earlier in scanned.get(atom.relation, ()):
            for key in rows:
                if [key[i] for i in earlier] == [key[i] for i in layout]:
                    rows[key] = (1, 1)
        scanned.setdefault(atom.relation, []).append(layout)
        table = rows if table is None else _join(table, rows)
        if not table:
            return {}
        if variables:
            keep = (table, len(variables))
    return table if table is not None else {}


def _scan(
    atom: Atom,
    variables: tuple[Variable, ...],
    keep: Filter | None,
    tid: ProbabilisticInstance,
    budget: ResourceBudget | None,
) -> tuple[Iterable[Key], list[int], list[int]]:
    """One pass over the facts of ``atom``'s relation.

    Keeps each fact that matches the atom's repeated variables and whose
    key starts with a ``keep`` key, and returns, in fact order, each kept
    fact's key with the numerator and the denominator of its probability
    (zero probabilities included), sliced from the TID's integer columns at
    the relation's block."""
    instance = tid.instance
    facts = instance.facts_of(atom.relation)
    if not facts:
        return (), [], []
    if budget is not None:
        budget.charge_rows(len(facts))
    arguments = atom.arguments
    arity = len(arguments)
    columns: list[tuple[Any, ...]] = list(map(_ARGUMENTS, facts))
    start = instance.block_start(atom.relation)
    all_numerators, all_denominators = tid.ratios()
    numerators = all_numerators[start : start + len(facts)]
    denominators = all_denominators[start : start + len(facts)]
    first = list(map(arguments.index, arguments))
    repeats = [(position, at) for position, at in enumerate(first) if position != at]
    if repeats:
        equal = [all(row[position] == row[at] for position, at in repeats) for row in columns]
        columns = list(compress(columns, equal))
        numerators = list(compress(numerators, equal))
        denominators = list(compress(denominators, equal))
    positions = list(map(arguments.index, variables))
    keys = _picked(columns, positions, arity)
    if keep is not None:
        kept, length = keep
        mask = list(map(kept.__contains__, _picked(columns, positions[:length], arity)))
        keys = compress(keys, mask)
        numerators = list(compress(numerators, mask))
        denominators = list(compress(denominators, mask))
    return keys, numerators, denominators


def _picked(columns: list[tuple[Any, ...]], positions: list[int], arity: int) -> Iterable[Key]:
    """Each row's values at ``positions``, as tuples, lazily."""
    if positions == list(range(arity)):
        return columns
    if not positions:
        return repeat((), len(columns))
    return zip(*[map(itemgetter(position), columns) for position in positions])
