"""Dichotomy router support: route decisions and degraded answers.

The paper's two tractability routes — query-based lifted inference and
instance-based circuit compilation — meet in
:meth:`repro.engine.CompilationEngine.choose_route`: given a query and a
TID instance, pick the evaluation route for ``method="auto"``.  The routes
themselves are the records of :data:`repro.engine.session.ROUTES`, and the
choice is a function of the query's liftability, the instance's size, the
engine's cached artifacts and its recorded route failures; no timing enters
it.  This module holds the passive data around that choice:

* :class:`RouteDecision` — the chosen route plus everything that went
  into it (liftability, instance size, the feasible routes, which routes
  were gated infeasible, the rule that fired), recorded so the CLI and
  tests can explain routing;
* :class:`RouteAttempt` — one try of the failover chain;
* :class:`ProbabilityBounds` and :func:`degraded_probability_bounds` — the
  labelled result of the opt-in ``karp_luby`` degradation tier.  The
  exactness contract: an exact route either returns an exact
  :class:`~fractions.Fraction` or raises a typed error; when every exact
  route is exhausted and the engine was constructed with
  ``degradation="karp_luby"``, the caller receives this explicit bounds
  object — never a bare float masquerading as exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.data.tid import ProbabilisticInstance
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries

#: The name under which the degradation tier is recorded in the route mix
#: and on :class:`RouteDecision`.
DEGRADED_ROUTE = "karp_luby"


@dataclass(frozen=True, slots=True)
class RouteAttempt:
    """One try in a ``method="auto"`` failover chain.

    ``error`` is empty on success, else a one-line description of the
    typed failure (budget blowout, deadline, route-specific error) that
    pushed the engine to the next route.
    """

    route: str
    error: str
    seconds: float

    @property
    def succeeded(self) -> bool:
        return not self.error


@dataclass(frozen=True, slots=True)
class RouteDecision:
    """One ``method="auto"`` routing decision, with its evidence.

    ``feasible`` names every route ``auto`` may run, in route-table order;
    ``infeasible`` names the routes gated out by the circuit fact limit.
    ``method`` is the first feasible route without a recorded failure, the
    first feasible route when all of them have failed, and the best-effort
    ``obdd`` when none is feasible; ``reason`` names the rule that fired.

    After an evaluation the engine re-publishes the decision with
    ``method`` set to the route that answered and ``attempts`` recording
    the failover chain actually walked; ``degraded`` marks answers served
    by the opt-in ``karp_luby`` degradation tier after every exact route
    failed.
    """

    method: str
    liftable: bool
    instance_facts: int
    feasible: tuple[str, ...]
    infeasible: tuple[str, ...]
    reason: str
    attempts: tuple[RouteAttempt, ...] = ()
    degraded: bool = False


@dataclass(frozen=True, slots=True)
class ProbabilityBounds:
    """A labelled approximate answer: guaranteed interval plus point estimate.

    ``lower``/``upper`` are the exact dissociation bounds (theorems — the
    true probability always lies inside); ``estimate`` is the seeded
    Karp–Luby point estimate with its sampling effort.  Returned *only* by
    the opt-in degradation tier, so a caller can never mistake it for an
    exact :class:`~fractions.Fraction`.
    """

    lower: Fraction
    upper: Fraction
    estimate: float
    samples: int
    method: str = DEGRADED_ROUTE

    def contains(self, value: Fraction | float) -> bool:
        """Whether ``value`` lies in the guaranteed interval."""
        if isinstance(value, float):
            return float(self.lower) - 1e-12 <= value <= float(self.upper) + 1e-12
        return self.lower <= value <= self.upper

    @property
    def gap(self) -> Fraction:
        return self.upper - self.lower

    def __float__(self) -> float:
        return float(self.estimate)


def degraded_probability_bounds(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    tid: ProbabilisticInstance,
    samples: int = 2000,
    seed: int = 0,
) -> ProbabilityBounds:
    """The ``karp_luby`` degradation tier: bounds, never a silent approximation.

    One DNF lineage (polynomial in the instance even when the compiled
    circuits explode) feeds both the guaranteed dissociation interval and
    the Karp–Luby estimator; the estimate is clamped into the interval so
    the three numbers are always mutually consistent.
    """
    from repro.probability.approximation import karp_luby_with_bounds

    estimate, bounds = karp_luby_with_bounds(query, tid, samples=samples, seed=seed)
    point = min(max(estimate.estimate, float(bounds.lower)), float(bounds.upper))
    return ProbabilityBounds(
        lower=bounds.lower,
        upper=bounds.upper,
        estimate=point,
        samples=estimate.samples,
    )
