"""Dichotomy router support: route decisions, cost models, degraded answers.

The paper's two tractability routes — query-based lifted inference and
instance-based circuit compilation — meet in
:meth:`repro.engine.CompilationEngine.choose_route`: given a query and a
TID instance, pick the evaluation route for ``method="auto"``.  The routes
themselves are the records of :data:`repro.engine.session.ROUTES`; this
module holds the passive data around that choice:

* :class:`RouteDecision` — the chosen route plus everything that went
  into it (liftability, instance size, per-route cost estimates, which
  routes were gated infeasible, a human-readable reason), recorded so the
  CLI and tests can explain routing;
* :class:`RouteAttempt` — one try of the failover chain;
* :class:`RouteCostModel` — per-route cost rates in seconds per fact,
  seeded with the route table's priors and updated from measured
  evaluations (exponentially weighted moving average), so a session learns
  the actual relative costs of its routes on its own workload;
* :class:`ProbabilityBounds` and :func:`degraded_probability_bounds` — the
  labelled result of the opt-in ``karp_luby`` degradation tier.  The
  exactness contract: an exact route either returns an exact
  :class:`~fractions.Fraction` or raises a typed error; when every exact
  route is exhausted and the engine was constructed with
  ``degradation="karp_luby"``, the caller receives this explicit bounds
  object — never a bare float masquerading as exact.

Cost estimates are deliberately ``float`` seconds: they steer which exact
route runs, they never enter a probability computation.
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

    ``estimates`` holds ``(route, predicted_seconds)`` for every feasible
    route (in preference order); ``infeasible`` names the routes gated out
    by the circuit fact limit.  ``method`` is always one of the estimate
    routes when any route is feasible, else the best-effort fallback.

    After an evaluation, ``attempts`` records the failover chain actually
    walked (the engine re-publishes the decision with them filled in);
    ``degraded`` marks answers served by the opt-in ``karp_luby``
    degradation tier after every exact route failed.
    """

    method: str
    liftable: bool
    instance_facts: int
    estimates: tuple[tuple[str, float], ...]
    infeasible: tuple[str, ...]
    reason: str
    attempts: tuple[RouteAttempt, ...] = ()
    degraded: bool = False


class RouteCostModel:
    """EWMA per-route cost rates (seconds per fact).

    ``observe`` folds a measured evaluation into the route's rate;
    ``predict`` extrapolates to an instance size.  Rates start at the
    route table's priors (``Route.prior``), so the router is usable from the
    first call and simply gets sharper as the session measures its own
    workload.

    Failed attempts (budget blowouts, route-specific errors) are recorded
    by :meth:`record_failure` as a *penalty* — a separate multiplier of
    ``2**failures`` (capped) on the route's prediction — never as a fake
    timing observation, so blowouts steer the router away from a route
    without poisoning the EWMA rate that successful runs keep sharpening.
    Each subsequent success halves the penalty back down
    (:meth:`decay_failures`).
    """

    #: Cap on the failure-penalty exponent: at most a ``2**6 = 64``-fold
    #: prediction inflation, so a recovered route can win again after a
    #: handful of successes elsewhere rather than being exiled forever.
    MAX_FAILURE_PENALTY_EXPONENT = 6

    def __init__(
        self,
        priors: dict[str, float] | None = None,
        smoothing: float = 0.3,
    ) -> None:
        if priors is None:
            # The priors live on the route table, next to the engine.
            from repro.engine.session import ROUTES

            priors = {name: route.prior for name, route in ROUTES.items() if route.auto}
        self._rates: dict[str, float] = dict(priors)
        self._unseen_rate = max(priors.values(), default=0.0)
        self._smoothing = smoothing
        self._failures: dict[str, int] = {}

    def observe(self, route: str, facts: int, seconds: float) -> None:
        """Fold one measured evaluation into the route's rate."""
        if seconds < 0.0:
            return
        rate = seconds / max(facts, 1)
        previous = self._rates.get(route)
        if previous is None:
            self._rates[route] = rate
        else:
            self._rates[route] = (
                previous + self._smoothing * (rate - previous)
            )
        # A success is evidence the route recovered: decay the penalty.
        self.decay_failures(route)

    def decay_failures(self, route: str) -> None:
        """Halve a route's failure count, as one of its successes does."""
        failures = self._failures.get(route, 0)
        if failures > 1:
            self._failures[route] = failures // 2
        elif failures:
            del self._failures[route]

    def record_failure(self, route: str) -> None:
        """Record one failed attempt (blowout or error) on a route."""
        self._failures[route] = self._failures.get(route, 0) + 1

    def failure_count(self, route: str) -> int:
        """Current (decayed) failure count for a route."""
        return self._failures.get(route, 0)

    def failure_counts(self) -> dict[str, int]:
        """A copy of every route's current failure count."""
        return dict(self._failures)

    def predict(self, route: str, facts: int) -> float:
        """Predicted evaluation cost in seconds at ``facts`` facts.

        Routes with recorded failures are penalized by ``2**failures``
        (exponent capped) on top of the measured rate.
        """
        rate = self._rates.get(route, self._unseen_rate)
        exponent = min(
            self._failures.get(route, 0), self.MAX_FAILURE_PENALTY_EXPONENT
        )
        return rate * max(facts, 1) * (1 << exponent)

    def rate(self, route: str) -> float | None:
        """The current rate for a route (None when never seen)."""
        return self._rates.get(route)

    def snapshot(self) -> dict[str, float]:
        """A copy of every route's current rate."""
        return dict(self._rates)


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
