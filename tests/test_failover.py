"""Direct engine tests for the ``method="auto"`` failover chain.

The dense ktree case is the one the CLI resilience tests use: the RST
lineage is not read-once shaped, so with a five-node cap every circuit route
blows its budget and the engine has to walk the whole chain.
"""

from fractions import Fraction

import pytest

from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine, ProbabilityBounds
from repro.errors import BudgetExceeded, DeadlineExceeded
from repro.generators import labelled_partial_ktree_instance
from repro.queries.library import unsafe_rst
from repro.resilience import ResourceBudget


@pytest.fixture()
def dense_tid():
    return ProbabilisticInstance.uniform(
        labelled_partial_ktree_instance(8, 2, seed=1), Fraction(1, 2)
    )


def _tight_budget() -> ResourceBudget:
    return ResourceBudget(node_limit=5)


def test_failover_attempts_every_feasible_route_and_labels_each_failure(dense_tid):
    engine = CompilationEngine()
    with pytest.raises(BudgetExceeded):
        engine.probability(unsafe_rst(), dense_tid, budget=_tight_budget())
    decision = engine.last_decision
    assert decision is not None and not decision.degraded
    attempted = [attempt.route for attempt in decision.attempts]
    assert sorted(attempted) == sorted(route for route, _ in decision.estimates)
    assert attempted == ["obdd", "columnar", "automaton"]
    for attempt in decision.attempts:
        assert not attempt.succeeded
        assert attempt.error.startswith("BudgetExceeded")


def test_each_failed_attempt_adds_a_cost_model_penalty(dense_tid):
    engine = CompilationEngine()
    with pytest.raises(BudgetExceeded):
        engine.probability(unsafe_rst(), dense_tid, budget=_tight_budget())
    attempted = [attempt.route for attempt in engine.last_decision.attempts]
    assert attempted
    for route in attempted:
        assert engine.route_costs.failure_count(route) == 1
    assert engine.route_costs.failure_counts() == {route: 1 for route in attempted}
    assert engine.route_mix() == {}


def test_deadline_exceeded_stops_after_one_attempt(dense_tid):
    engine = CompilationEngine()
    with pytest.raises(DeadlineExceeded):
        engine.probability(unsafe_rst(), dense_tid, budget=ResourceBudget(timeout=1e-9))
    attempts = engine.last_decision.attempts
    assert len(attempts) == 1
    assert attempts[0].error.startswith("DeadlineExceeded")
    assert engine.route_costs.failure_count(attempts[0].route) == 1


def test_degraded_bounds_are_never_cached(dense_tid):
    engine = CompilationEngine(degradation="karp_luby")
    degraded = engine.probability(unsafe_rst(), dense_tid, budget=_tight_budget())
    assert isinstance(degraded, ProbabilityBounds)
    assert engine.last_decision.degraded
    assert engine.route_mix() == {"karp_luby": 1}
    exact = engine.probability(unsafe_rst(), dense_tid)
    assert isinstance(exact, Fraction)
    assert degraded.contains(exact)
    # The bounds never entered the probability cache: both calls missed.
    assert engine.stats["probability"].hits == 0
    assert engine.stats["probability"].misses == 2


def test_probability_cache_hit_bypasses_the_budget(dense_tid):
    engine = CompilationEngine()
    exact = engine.probability(unsafe_rst(), dense_tid)
    expired = ResourceBudget(node_limit=1, timeout=1e-9)
    assert engine.probability(unsafe_rst(), dense_tid, budget=expired) == exact
    assert engine.stats["probability"].hits == 1
    assert expired.usage() == {"nodes": 0, "rows": 0}
