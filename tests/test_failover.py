"""Direct engine tests for the ``method="auto"`` failover chain.

The dense ktree case is the one the CLI resilience tests use: the RST
lineage is not read-once shaped, so with a five-node cap every circuit route
blows its budget and the engine has to walk the whole chain.
"""

import time
from fractions import Fraction

import pytest

import repro.engine.session as session
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine, ProbabilityBounds
from repro.errors import BudgetExceeded, DeadlineExceeded
from repro.generators import labelled_partial_ktree_instance, rst_chain_instance
from repro.queries.library import hierarchical_example, unsafe_rst
from repro.resilience import ResourceBudget, active_budget


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
    assert sorted(attempted) == sorted(decision.feasible)
    assert attempted == ["obdd", "automaton"]
    for attempt in decision.attempts:
        assert not attempt.succeeded
        assert attempt.error.startswith("BudgetExceeded")


def test_each_failed_attempt_adds_a_route_failure(dense_tid):
    engine = CompilationEngine()
    with pytest.raises(BudgetExceeded):
        engine.probability(unsafe_rst(), dense_tid, budget=_tight_budget())
    attempted = [attempt.route for attempt in engine.last_decision.attempts]
    assert attempted
    for route in attempted:
        assert engine.route_failures.get(route, 0) == 1
    assert engine.route_failures == {route: 1 for route in attempted}
    assert engine.route_mix() == {}


def test_deadline_exceeded_stops_after_one_attempt(dense_tid):
    engine = CompilationEngine()
    with pytest.raises(DeadlineExceeded):
        engine.probability(unsafe_rst(), dense_tid, budget=ResourceBudget(timeout=1e-9))
    attempts = engine.last_decision.attempts
    assert len(attempts) == 1
    assert attempts[0].error.startswith("DeadlineExceeded")
    # The deadline expired before the route started: not the route's failure.
    assert engine.route_failures.get(attempts[0].route, 0) == 0


def test_deadline_expiring_inside_a_route_is_charged(dense_tid, monkeypatch):
    def slow_obdd(engine, query, tid):
        time.sleep(0.1)
        active_budget().checkpoint()
        raise AssertionError("the deadline should have expired")

    engine = CompilationEngine()
    assert engine.choose_route(unsafe_rst(), dense_tid).method == "obdd"
    monkeypatch.setitem(session._AUTO, "obdd", slow_obdd)
    with pytest.raises(DeadlineExceeded):
        engine.probability(unsafe_rst(), dense_tid, budget=ResourceBudget(timeout=0.05))
    assert [attempt.route for attempt in engine.last_decision.attempts] == ["obdd"]
    assert engine.route_failures.get("obdd", 0) == 1


def test_safe_plan_rule_survives_an_expired_deadline():
    engine = CompilationEngine()
    query = hierarchical_example()
    tid = ProbabilisticInstance.uniform(rst_chain_instance(60), Fraction(1, 2))
    with pytest.raises(DeadlineExceeded):
        engine.probability(query, tid, budget=ResourceBudget(timeout=1e-9))
    assert [attempt.route for attempt in engine.last_decision.attempts] == ["safe_plan"]
    decision = engine.choose_route(query, tid)
    assert decision.method == "safe_plan"
    assert decision.reason == "liftable query: safe_plan by rule"


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
