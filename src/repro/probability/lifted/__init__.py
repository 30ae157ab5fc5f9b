"""The lifted (extensional, safe-plan) inference tier.

The query-based tractability route of the Dalvi–Suciu dichotomy (refs [18,
19, 36] of the paper), contrasted in Section 9 with the instance-based
treelike route: for safe queries, the probability is computed directly on
the TID instance — no lineage, no circuit — so this is the route that
reaches instances far beyond what any compilation can touch.

Pipeline: :func:`lifted_plan` minimizes the union (homomorphism cores,
redundant disjuncts, Möbius-cancelled inclusion–exclusion terms — see
:mod:`~repro.probability.lifted.minimize`) and compiles each surviving term
into an explicit plan of independent-project / independent-join /
ground-lookup nodes (:mod:`~repro.probability.lifted.plan`); the plan is
instance-independent and is executed set-at-a-time on any instance, one
table per plan node (:mod:`~repro.probability.lifted.executor`), always
returning an exact :class:`~fractions.Fraction`.

The library's query language is constant-free by definition
(:mod:`repro.queries.atoms`), so the shattering/ranking preprocessing of the
general dichotomy — splitting relations on the constants appearing in the
query — is vacuous here: every query is already shattered, and minimization
plus plan construction are the complete pipeline.

Safety is decided at plan construction and nowhere else: ``is_liftable(q)``
is True exactly when ``lifted_probability(q, tid)`` succeeds (on every
instance), and False exactly when it raises
:class:`~repro.errors.UnsafeQueryError`.  The recursive differential
reference lives in :mod:`repro.probability.safe_plans`; the dichotomy
router that picks between this tier and the circuit routes lives in
:meth:`repro.engine.CompilationEngine.choose_route`.
"""

from fractions import Fraction

from repro.data.tid import ProbabilisticInstance
from repro.errors import UnsafeQueryError
from repro.probability.lifted.executor import execute_plan
from repro.probability.lifted.minimize import (
    are_equivalent,
    conjoin,
    core,
    homomorphism_exists,
    implies,
    inclusion_exclusion_terms,
    minimize_disjuncts,
)
from repro.probability.lifted.plan import (
    AtomSpec,
    GroundNode,
    InclusionExclusionNode,
    JoinNode,
    LiftedPlan,
    PlanNode,
    ProjectNode,
    build_cq_plan,
    is_liftable,
    lifted_plan,
    try_lifted_plan,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries


def lifted_probability(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    probabilistic_instance: ProbabilisticInstance,
) -> Fraction:
    """Exact probability by lifted inference (compile a plan, execute it).

    Raises :class:`~repro.errors.UnsafeQueryError` — at plan construction,
    before touching the instance — exactly when ``is_liftable`` is False.
    """
    return execute_plan(lifted_plan(query), probabilistic_instance)


__all__ = [
    "AtomSpec",
    "GroundNode",
    "InclusionExclusionNode",
    "JoinNode",
    "LiftedPlan",
    "PlanNode",
    "ProjectNode",
    "UnsafeQueryError",
    "are_equivalent",
    "build_cq_plan",
    "conjoin",
    "core",
    "execute_plan",
    "homomorphism_exists",
    "implies",
    "inclusion_exclusion_terms",
    "is_liftable",
    "lifted_plan",
    "lifted_probability",
    "minimize_disjuncts",
    "try_lifted_plan",
]
