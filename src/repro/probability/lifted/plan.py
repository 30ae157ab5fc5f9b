"""Safe-plan representation and construction for the lifted tier.

A :class:`LiftedPlan` is compiled once per query — independently of any
instance — and then executed set-at-a-time by
:mod:`repro.probability.lifted.executor` on any TID instance, one table per
plan node.  The plan tree mirrors the Dalvi–Suciu independence rules:

* :class:`GroundNode` — a conjunction whose variables are all bound by
  enclosing projections; its probability is the product of the fact
  probabilities (0 when a fact is absent);
* :class:`JoinNode` — an independent join: sub-conjunctions sharing no
  unbound variable and no relation symbol, so ``P = Π P(child)``;
* :class:`ProjectNode` — an independent project on a root variable
  occurring in every atom of the component: the fact sets touched by
  distinct root values are disjoint, so ``P = 1 - Π_a (1 - P(q[x := a]))``
  where ``a`` ranges over the values occurring in the root variable's
  columns (never the whole active domain);
* :class:`InclusionExclusionNode` — the plan root: the signed, minimized
  inclusion–exclusion terms of the union
  (:func:`repro.probability.lifted.minimize.inclusion_exclusion_terms`).

Construction (:func:`lifted_plan`) is where safety is decided: it raises
:class:`~repro.errors.UnsafeQueryError` exactly when some minimized
conjunction has no root variable (not hierarchical) or needs a projection
across a self-join.  The decomposition depends only on which variables are
bound — never on instance values — so a query with a plan evaluates
successfully on *every* instance: :func:`is_liftable` is plan construction,
and cannot disagree with evaluation.

The self-join rule is deliberately conservative (a projected component must
use pairwise-distinct relation symbols), matching the recursive reference:
some safe queries beyond this fragment are rejected, but rejection is
always an explicit error, never a wrong value.

All construction is worklist-driven (REC001: no recursion), and every plan
node is a frozen, slotted dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsafeQueryError
from repro.probability.lifted.minimize import (
    inclusion_exclusion_terms,
    minimize_disjuncts,
)
from repro.queries.atoms import Atom, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq


@dataclass(frozen=True, slots=True)
class AtomSpec:
    """How one atom of a projected component reads the instance indexes.

    ``root_positions`` are the argument positions holding the root variable
    (several when the root repeats inside the atom); ``bound_positions``
    pairs each position holding an ancestor-bound variable with that
    variable, ready to become a ``facts_matching`` binding.  The
    tuple-at-a-time reference executor
    (:mod:`repro.probability.lifted.reference`) enumerates root candidates
    from them; the set-at-a-time executor reads the atoms of the ground
    nodes instead.
    """

    relation: str
    root_positions: tuple[int, ...]
    bound_positions: tuple[tuple[int, Variable], ...]


@dataclass(frozen=True, slots=True)
class GroundNode:
    """Leaf: atoms fully bound by enclosing projections."""

    atoms: tuple[Atom, ...]


@dataclass(frozen=True, slots=True)
class JoinNode:
    """Independent join: children touch disjoint fact sets."""

    children: tuple["PlanNode", ...]


@dataclass(frozen=True, slots=True)
class ProjectNode:
    """Independent project on ``variable`` over one connected component."""

    variable: Variable
    atom_specs: tuple[AtomSpec, ...]
    child: "PlanNode"


PlanNode = GroundNode | JoinNode | ProjectNode


@dataclass(frozen=True, slots=True)
class InclusionExclusionNode:
    """Plan root: ``P = Σ coefficient · P(term)`` over minimized terms."""

    terms: tuple[tuple[int, PlanNode], ...]


@dataclass(frozen=True, slots=True)
class LiftedPlan:
    """A compiled safe plan: the minimized query and its plan tree."""

    query: UnionOfConjunctiveQueries
    disjuncts: tuple[ConjunctiveQuery, ...]
    root: InclusionExclusionNode

    @property
    def term_count(self) -> int:
        return len(self.root.terms)

    def node_count(self) -> int:
        """Total plan nodes (iterative walk; a cheap size/cost measure)."""
        count = 0
        pending: list[PlanNode] = [node for _, node in self.root.terms]
        while pending:
            node = pending.pop()
            count += 1
            if isinstance(node, JoinNode):
                pending.extend(node.children)
            elif isinstance(node, ProjectNode):
                pending.append(node.child)
        return count


def lifted_plan(query: UnionOfConjunctiveQueries | ConjunctiveQuery) -> LiftedPlan:
    """Compile a UCQ into a safe plan, or raise :class:`UnsafeQueryError`.

    The union is minimized first (disjunct cores, redundant disjuncts
    dropped, inclusion–exclusion conjunctions cored with cancelled terms
    removed), then every surviving term is compiled by the independence
    rules.
    """
    normalized = as_ucq(query)
    if normalized.has_disequalities():
        raise UnsafeQueryError(
            "lifted inference is implemented for UCQs without disequalities"
        )
    disjuncts = minimize_disjuncts(normalized)
    terms = inclusion_exclusion_terms(disjuncts)
    plan_terms = tuple(
        (coefficient, build_cq_plan(conjunction)) for coefficient, conjunction in terms
    )
    return LiftedPlan(
        query=normalized, disjuncts=disjuncts, root=InclusionExclusionNode(plan_terms)
    )


def try_lifted_plan(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
) -> LiftedPlan | None:
    """:func:`lifted_plan`, with unsafety reported as None instead of raised."""
    try:
        return lifted_plan(query)
    except UnsafeQueryError:
        return None


def is_liftable(query: UnionOfConjunctiveQueries | ConjunctiveQuery) -> bool:
    """Does the lifted tier evaluate this query?

    Decided by attempting plan construction, so the verdict agrees with
    evaluation by construction: True means ``safe_plan`` evaluation
    succeeds on every instance, False means it raises
    :class:`~repro.errors.UnsafeQueryError`.
    """
    return try_lifted_plan(query) is not None


def build_cq_plan(conjunction: ConjunctiveQuery) -> PlanNode:
    """Compile one (minimized) conjunction into a plan tree.

    Worklist version of the usual recursion: ``expand`` tasks decompose a
    sub-conjunction under a set of bound variables, and ``join``/``project``
    tasks (pushed *below* their children, so they pop after them) assemble
    the frozen nodes once every child slot is filled.
    """
    if conjunction.disequalities:
        raise UnsafeQueryError(
            "lifted inference is implemented for UCQs without disequalities"
        )
    holder: list[PlanNode | None] = [None]
    stack: list[tuple[str, tuple]] = [
        ("expand", (tuple(conjunction.atoms), frozenset(), holder, 0))
    ]
    while stack:
        kind, payload = stack.pop()
        if kind == "join":
            children, slot, index = payload
            slot[index] = JoinNode(tuple(children))
            continue
        if kind == "project":
            root, specs, child_holder, slot, index = payload
            slot[index] = ProjectNode(root, specs, child_holder[0])
            continue
        atoms, bound, slot, index = payload
        ground = tuple(a for a in atoms if all(v in bound for v in a.arguments))
        rest = tuple(a for a in atoms if not all(v in bound for v in a.arguments))
        if not rest:
            slot[index] = GroundNode(ground)
            continue
        if ground:
            # Unreachable under the distinct-relations projection rule (an
            # atom only grounds after a projection, where its component used
            # pairwise-distinct relations), but guard the independence
            # assumption explicitly rather than rely on it.
            ground_relations = {a.relation for a in ground}
            if any(a.relation in ground_relations for a in rest):
                raise UnsafeQueryError(
                    "ground atom shares a relation with an open atom: "
                    "the factors are not independent"
                )
        components = _components(rest, bound)
        if len(components) == 1 and not ground:
            root, specs = _project_component(components[0], bound)
            child_holder: list[PlanNode | None] = [None]
            stack.append(("project", (root, specs, child_holder, slot, index)))
            stack.append(("expand", (components[0], bound | {root}, child_holder, 0)))
            continue
        offset = 1 if ground else 0
        children: list[PlanNode | None] = [None] * (offset + len(components))
        if ground:
            children[0] = GroundNode(ground)
        stack.append(("join", (children, slot, index)))
        for position, component in enumerate(components):
            stack.append(("expand", (component, bound, children, offset + position)))
    built = holder[0]
    if built is None:  # pragma: no cover - the worklist always fills the root
        raise UnsafeQueryError("plan construction produced no root node")
    return built


def _components(
    atoms: tuple[Atom, ...], bound: frozenset[Variable]
) -> list[tuple[Atom, ...]]:
    """Connected components of atoms linked by a shared *unbound* variable
    or a shared relation symbol (two atoms over the same relation can touch
    the same fact, so splitting them into independent factors is unsound).
    Component order follows the first atom's position, atoms keep query
    order — both deterministic."""
    count = len(atoms)
    unbound = [frozenset(v for v in a.arguments if v not in bound) for a in atoms]
    adjacency: list[list[int]] = [[] for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            if unbound[i] & unbound[j] or atoms[i].relation == atoms[j].relation:
                adjacency[i].append(j)
                adjacency[j].append(i)
    seen: set[int] = set()
    components: list[tuple[Atom, ...]] = []
    for start in range(count):
        if start in seen:
            continue
        seen.add(start)
        frontier = [start]
        members = []
        while frontier:
            current = frontier.pop()
            members.append(current)
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        components.append(tuple(atoms[i] for i in sorted(members)))
    return components


def _project_component(
    atoms: tuple[Atom, ...], bound: frozenset[Variable]
) -> tuple[Variable, tuple[AtomSpec, ...]]:
    """Pick the root variable of one connected component and precompute the
    per-atom index-access specs, or raise when no safe projection exists."""
    shared: frozenset[Variable] | None = None
    for a in atoms:
        unbound = frozenset(v for v in a.arguments if v not in bound)
        shared = unbound if shared is None else shared & unbound
    if not shared:
        raise UnsafeQueryError(
            "no root variable: the query is not hierarchical "
            "(unsafe for lifted inference)"
        )
    relations = [a.relation for a in atoms]
    if len(relations) != len(set(relations)):
        raise UnsafeQueryError(
            "self-join across the root variable: lifted inference does not apply"
        )
    root = min(shared, key=lambda v: v.name)
    specs = tuple(
        AtomSpec(
            relation=a.relation,
            root_positions=tuple(
                position for position, v in enumerate(a.arguments) if v == root
            ),
            bound_positions=tuple(
                (position, v) for position, v in enumerate(a.arguments) if v in bound
            ),
        )
        for a in atoms
    )
    return root, specs
