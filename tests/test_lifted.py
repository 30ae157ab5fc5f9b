"""Tests for the compiled lifted-inference tier and the dichotomy router.

Covers UCQ minimization (cores, redundant disjuncts, Möbius cancellation),
plan construction and the is_liftable iff-contract, the set-at-a-time
executor against brute force and the recursive reference, and the engine's
routing: ``method="auto"`` picking the lifted plan on safe queries
(including past the circuit fact limit) and a circuit route on unsafe ones.
Past brute force, the executor is checked against a closed form,
metamorphic relations, the tuple-at-a-time reference executor and the OBDD
route.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from repro.data.instance import Fact, Instance, fact
from repro.data.tid import ProbabilisticInstance
import repro.engine.session as session
from repro.engine import CompilationEngine, ParallelEngine
from repro.errors import UnsafeQueryError
from repro.generators.lines import rst_chain_instance
from repro.probability.brute_force import brute_force_probability
from repro.probability.evaluation import probability
from repro.probability.lifted import (
    AtomSpec,
    GroundNode,
    InclusionExclusionNode,
    JoinNode,
    LiftedPlan,
    ProjectNode,
    are_equivalent,
    core,
    execute_plan,
    homomorphism_exists,
    implies,
    inclusion_exclusion_terms,
    is_liftable,
    lifted_plan,
    lifted_probability,
    minimize_disjuncts,
    try_lifted_plan,
)
from repro.probability.lifted.reference import execute_plan_reference
from repro.probability.safe_plans import safe_plan_probability
from repro.queries import as_ucq, hierarchical_example, parse_cq, parse_ucq, unsafe_rst
from repro.resilience import ResourceBudget
from repro.testing import ProbabilityOracle, random_safe_workload, random_workload


# -- minimization -------------------------------------------------------------


def test_homomorphism_exists_basic():
    # R(x),S(x,y) maps into R(a),S(a,b) shapes and vice versa.
    assert homomorphism_exists(parse_cq("R(x)"), parse_cq("R(x), R(y)"))
    assert homomorphism_exists(parse_cq("R(x), R(y)"), parse_cq("R(x)"))
    # S(x,y) maps into S(x,x) (merge both variables onto x)...
    assert homomorphism_exists(parse_cq("S(x, y)"), parse_cq("S(x, x)"))
    # ...but S(x,x) has no image inside S(x,y) (no repeated-argument atom).
    assert not homomorphism_exists(parse_cq("S(x, x)"), parse_cq("S(x, y)"))
    assert not homomorphism_exists(parse_cq("R(x)"), parse_cq("T(x)"))


def test_implies_and_equivalence():
    assert implies(parse_cq("R(x), S(x, y)"), parse_cq("R(x)"))
    assert not implies(parse_cq("R(x)"), parse_cq("R(x), S(x, y)"))
    assert are_equivalent(parse_cq("R(x), R(y)"), parse_cq("R(x)"))
    assert not are_equivalent(parse_cq("R(x)"), parse_cq("S(x, y)"))


def test_core_drops_redundant_atoms():
    cored = core(parse_cq("R(x), R(y)"))
    assert len(cored.atoms) == 1
    assert cored.atoms[0].relation == "R"
    # S(x,y), S(y,z) has no proper core (the two atoms are not collapsible).
    assert len(core(parse_cq("S(x, y), S(y, z)")).atoms) == 2
    # S(x,y), S(x,z) collapses: map z to y.
    assert len(core(parse_cq("S(x, y), S(x, z)")).atoms) == 1


def test_minimize_disjuncts_drops_implied():
    disjuncts = minimize_disjuncts(parse_ucq("R(x) | R(y)"))
    assert len(disjuncts) == 1
    # The stronger disjunct R(x),S(x,y) implies R(x): only R(x) survives.
    disjuncts = minimize_disjuncts(parse_ucq("R(x), S(x, y) | R(x)"))
    assert len(disjuncts) == 1
    assert disjuncts[0].atoms == parse_cq("R(x)").atoms


def test_inclusion_exclusion_cancellation():
    # R(x) | T(y): three terms (R, T, R∧T with coefficient -1).
    terms = inclusion_exclusion_terms(minimize_disjuncts(parse_ucq("R(x) | T(y)")))
    coefficients = sorted(coefficient for coefficient, _ in terms)
    assert coefficients == [-1, 1, 1]
    # R(x) | R(y) minimizes to one disjunct: a single +1 term.
    terms = inclusion_exclusion_terms(minimize_disjuncts(parse_ucq("R(x) | R(y)")))
    assert len(terms) == 1
    assert terms[0][0] == 1


# -- plans --------------------------------------------------------------------


def test_plan_shape_hierarchical():
    plan = lifted_plan(hierarchical_example())
    assert isinstance(plan.root, InclusionExclusionNode)
    assert plan.term_count == 1
    coefficient, node = plan.root.terms[0]
    assert coefficient == 1
    assert isinstance(node, ProjectNode)  # project on x
    assert plan.node_count() >= 3


def test_plan_shape_ground_after_binding():
    plan = lifted_plan(parse_cq("R(x)"))
    (_, node), = plan.root.terms
    assert isinstance(node, ProjectNode)
    assert isinstance(node.child, GroundNode)


def test_plan_join_of_independent_components():
    plan = lifted_plan(parse_cq("R(x), T(y)"))
    (_, node), = plan.root.terms
    assert isinstance(node, JoinNode)
    assert len(node.children) == 2


def test_unsafe_queries_have_no_plan():
    assert try_lifted_plan(unsafe_rst()) is None
    with pytest.raises(UnsafeQueryError):
        lifted_plan(unsafe_rst())


# -- the is_liftable iff-contract --------------------------------------------


def test_redundant_disjunct_regression_family():
    """The PR 8 bugfix family: homomorphically-redundant UCQs are legal and
    both the verdict and both evaluators agree on them."""
    instance = Instance(
        [fact("R", "a"), fact("R", "b"), fact("S", "a", "b"), fact("S", "b", "b")]
    )
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    for text in (
        "R(x), R(y)",
        "R(x) | R(y)",
        "R(x), S(x, y) | R(u), S(u, v)",
        "R(x) | R(x), S(x, y)",
        "S(x, y), S(x, z)",
    ):
        query = parse_ucq(text) if "|" in text else parse_cq(text)
        assert is_liftable(query), text
        expected = brute_force_probability(query, tid)
        assert lifted_probability(query, tid) == expected, text
        assert safe_plan_probability(query, tid) == expected, text


def test_verdict_agrees_with_evaluation_on_random_workload():
    """is_liftable(q) is True iff both lifted evaluators succeed — the
    acceptance criterion of ISSUE 8, swept over the random workload."""
    for case in random_workload(40, seed=11):
        liftable = is_liftable(case.query)
        for evaluate in (lifted_probability, safe_plan_probability):
            if liftable:
                value = evaluate(case.query, case.tid)
                assert value == brute_force_probability(case.query, case.tid), str(case)
            else:
                with pytest.raises(UnsafeQueryError):
                    evaluate(case.query, case.tid)


def test_verdict_is_instance_independent():
    """Regression: the seed's recursive evaluator discovered unsafety only
    during recursion, so an empty candidate column could silently skip an
    unsafe subquery.  Both evaluators must raise even on instances whose
    data never reaches the unsafe branch."""
    query = parse_cq("R(x), S(x, y), T(x, z), U(x, y, z)")
    assert not is_liftable(query)
    sparse = Instance(
        [fact("R", "a"), fact("S", "a", "b")], signature=query.signature()
    )
    tid = ProbabilisticInstance.uniform(sparse, Fraction(1, 2))
    with pytest.raises(UnsafeQueryError):
        lifted_probability(query, tid)
    with pytest.raises(UnsafeQueryError):
        safe_plan_probability(query, tid)


def test_oracle_over_safe_workload():
    """Every safe-workload query runs through every exact route plus both
    lifted routes; the generator's liftability guarantee is asserted too."""
    cases = random_safe_workload(20, seed=5)
    assert all(is_liftable(case.query) for case in cases)
    oracle = ProbabilityOracle(karp_luby_samples=0)
    reports = oracle.check_many(cases)
    assert all("safe_plan" in r.exact_values for r in reports)
    assert all("safe_plan_reference" in r.exact_values for r in reports)


# -- engine routing -----------------------------------------------------------


def _small_tid():
    facts = [fact("R", "a"), fact("R", "b"), fact("S", "a", "x"), fact("S", "b", "y")]
    return ProbabilisticInstance.uniform(Instance(facts), Fraction(1, 2))


def _unsafe_tid():
    instance = Instance(
        [fact("R", "a"), fact("S", "a", "b"), fact("T", "b")],
        signature=unsafe_rst().signature(),
    )
    return ProbabilisticInstance.uniform(instance, Fraction(1, 3))


def test_auto_routes_safe_query_through_lifted_plan():
    engine = CompilationEngine()
    tid = _small_tid()
    query = hierarchical_example()
    decision = engine.choose_route(query, tid)
    assert decision.liftable
    assert decision.method == "safe_plan"
    value = engine.probability(query, tid, "auto")
    assert value == brute_force_probability(query, tid)
    assert engine.route_mix() == {"safe_plan": 1}
    # The cached entry does not re-route.
    engine.probability(query, tid, "auto")
    assert engine.route_mix() == {"safe_plan": 1}


def test_auto_routes_unsafe_query_to_circuit():
    engine = CompilationEngine()
    tid = _unsafe_tid()
    decision = engine.choose_route(unsafe_rst(), tid)
    assert not decision.liftable
    assert decision.method in ("obdd", "automaton")
    value = engine.probability(unsafe_rst(), tid, "auto")
    assert value == brute_force_probability(unsafe_rst(), tid)
    assert engine.route_mix() == {decision.method: 1}


def test_circuit_routes_gated_past_fact_limit():
    engine = CompilationEngine(circuit_fact_limit=2)
    tid = _small_tid()
    decision = engine.choose_route(hierarchical_example(), tid)
    assert decision.method == "safe_plan"
    assert set(decision.infeasible) == {"obdd", "automaton"}
    assert decision.feasible == ("safe_plan",)


def test_cached_artifact_unlocks_gated_circuit_route():
    engine = CompilationEngine(circuit_fact_limit=2)
    tid = _unsafe_tid()
    # Unsafe query on a too-big instance: nothing feasible, best-effort OBDD.
    decision = engine.choose_route(unsafe_rst(), tid)
    assert decision.method == "obdd"
    assert decision.feasible == ()
    # Once the OBDD is compiled and cached, the route becomes feasible.
    engine.compile(unsafe_rst(), tid.instance)
    decision = engine.choose_route(unsafe_rst(), tid)
    assert "obdd" not in decision.infeasible
    assert "obdd" in decision.feasible


def test_engine_safe_plan_method_and_plan_cache():
    engine = CompilationEngine()
    tid = _small_tid()
    query = hierarchical_example()
    value = engine.probability(query, tid, "safe_plan")
    assert value == brute_force_probability(query, tid)
    assert engine.stats["lifted_plan"].misses == 1
    engine.probability(parse_cq("R(x), S(x, y)"), tid, "safe_plan")
    # Same UCQ content -> probability-cache hit, no second plan build.
    assert engine.stats["lifted_plan"].misses == 1
    with pytest.raises(UnsafeQueryError):
        engine.probability(unsafe_rst(), tid, "safe_plan")
    # The unsafe verdict is cached as None.
    assert engine.lifted_plan(unsafe_rst()) is None
    assert engine.stats["lifted_plan"].hits >= 1


def test_engine_clear_resets_router_state():
    engine = CompilationEngine()
    engine.probability(hierarchical_example(), _small_tid(), "auto")
    assert engine.route_mix()
    engine.clear()
    assert engine.route_mix() == {}
    assert engine.stats["lifted_plan"].total == 0
    # A recorded failure goes too: the cleared engine routes like a fresh one.
    query = hierarchical_example()
    tid = ProbabilisticInstance.uniform(rst_chain_instance(60), Fraction(1, 2))
    engine.probability(query, tid, budget=ResourceBudget(row_limit=1))
    assert engine.route_failures == {"safe_plan": 1}
    engine.clear()
    assert engine.route_failures == {}
    decision = engine.choose_route(query, tid)
    assert decision == CompilationEngine().choose_route(query, tid)
    assert decision.reason == "liftable query: safe_plan by rule"


def test_liftable_query_takes_safe_plan_by_rule_until_it_fails():
    """A liftable query takes safe_plan by rule; a recorded safe-plan failure
    passes the head of the chain to the next feasible route."""
    engine = CompilationEngine()
    tid = ProbabilisticInstance.uniform(rst_chain_instance(60), Fraction(1, 2))
    decision = engine.choose_route(hierarchical_example(), tid)
    assert decision.method == "safe_plan"
    assert "rule" in decision.reason
    engine.route_failures["safe_plan"] = 1
    decision = engine.choose_route(hierarchical_example(), tid)
    assert decision.method == "obdd"
    assert decision.feasible == ("safe_plan", "obdd", "automaton")


def test_safe_plan_rule_returns_once_another_route_answers():
    """A safe-plan failure hands the next liftable query to the next feasible
    route; once that route has answered it, the rule picks safe_plan again."""
    engine = CompilationEngine()
    query = hierarchical_example()
    first, second = (
        ProbabilisticInstance.uniform(rst_chain_instance(n), Fraction(1, 2))
        for n in (60, 61)
    )
    # A row cap fails safe_plan; obdd answers in the same call, which does
    # not forgive the failure it just saw.
    value = engine.probability(query, first, budget=ResourceBudget(row_limit=1))
    assert value == safe_plan_probability(query, first)
    assert [a.route for a in engine.last_decision.attempts] == ["safe_plan", "obdd"]
    assert engine.route_failures.get("safe_plan", 0) == 1
    decision = engine.choose_route(query, second)
    assert decision.method == "obdd"
    assert decision.reason == "recorded failure on safe_plan: obdd by rule"
    # The next route answers the next liftable query: the failure decays and
    # the rule is back.
    assert engine.probability(query, second) == safe_plan_probability(query, second)
    assert engine.last_decision.method == "obdd"
    assert engine.route_failures.get("safe_plan", 0) == 0
    decision = engine.choose_route(query, second)
    assert decision.reason == "liftable query: safe_plan by rule"


def _routing_cases():
    """One liftable, one unsafe, one past the fact limit, one cached artifact,
    for an engine with ``circuit_fact_limit=100``."""
    small, cached = (
        ProbabilisticInstance.uniform(rst_chain_instance(n), Fraction(1, 2)) for n in (20, 40)
    )
    large = ProbabilisticInstance.uniform(rst_chain_instance(60), Fraction(1, 2))
    return [
        (hierarchical_example(), small),
        (unsafe_rst(), small),
        (hierarchical_example(), large),
        (unsafe_rst(), cached),
    ]


def _routing_engine(cases):
    engine = CompilationEngine(circuit_fact_limit=100)
    # Past the limit, the OBDD route is feasible on the last case because its
    # circuit is cached.
    query, tid = cases[-1]
    engine.compile(query, tid.instance)
    return engine


def test_auto_routes_by_rule_whatever_the_clock(monkeypatch):
    """A clock that jumps one second per reading steers no route: after auto
    ran every case, and a row cap failed safe_plan, the engine decides as a
    fresh engine holding the same failure counts."""
    monkeypatch.setattr(session, "perf_counter", itertools.count(0.0).__next__)
    cases = _routing_cases()
    engine = _routing_engine(cases)
    for query, tid in cases:
        engine.probability(query, tid)
    query, tid = cases[0]
    capped = ProbabilisticInstance.uniform(tid.instance, Fraction(1, 3))
    engine.probability(query, capped, budget=ResourceBudget(row_limit=1))
    assert engine.route_failures == {"safe_plan": 1}
    assert [attempt.seconds for attempt in engine.last_decision.attempts] == [1.0, 1.0]

    fresh = _routing_engine(cases)
    fresh.route_failures.update(engine.route_failures)

    def routing(engine):
        return [
            (d.method, d.feasible, d.infeasible, d.reason)
            for d in (engine.choose_route(query, tid) for query, tid in cases)
        ]

    assert routing(engine) == routing(fresh)
    assert [method for method, *_ in routing(engine)] == ["obdd", "obdd", "safe_plan", "obdd"]


def test_pool_workers_route_like_one_engine(monkeypatch):
    monkeypatch.setattr(session, "perf_counter", itertools.count(0.0).__next__)
    # A fresh TID per pair: every pair is evaluated, none is a cache hit.
    pairs = [
        (query, ProbabilisticInstance.uniform(tid.instance, Fraction(1, n)))
        for query, tid in _routing_cases()[:3]
        for n in (2, 3, 4)
    ]
    mixes = []
    for workers in (1, 2):
        with ParallelEngine(workers=workers) as parallel:
            mixes.append(parallel.map_probability(pairs).route_mix)
    assert mixes[0] == mixes[1] == {"safe_plan": 6, "obdd": 3}


def test_parallel_report_carries_route_mix():
    with ParallelEngine(workers=1) as parallel:
        report = parallel.map_probability(
            [
                (hierarchical_example(), _small_tid()),
                (unsafe_rst(), _unsafe_tid()),
            ]
        )
        mix = report.route_mix
        assert mix.get("safe_plan") == 1
        assert sum(mix.values()) == 2


def test_one_shot_auto_prefers_lifted_plan():
    tid = _small_tid()
    value = probability(hierarchical_example(), tid, method="auto")
    assert value == brute_force_probability(hierarchical_example(), tid)
    # Unsafe queries still flow through the circuit path.
    value = probability(unsafe_rst(), _unsafe_tid(), method="auto")
    assert value == brute_force_probability(unsafe_rst(), _unsafe_tid())


def test_lifted_scales_past_circuit_limit():
    """A mid-size version of BENCH_lifted's gate inside tier-1: the router
    picks the lifted plan unaided above the circuit fact limit and the value
    matches the closed form."""
    k, m = 40, 30
    facts = [Fact("R", (f"a{i}",)) for i in range(k)]
    facts.extend(Fact("S", (f"a{i}", f"b{j}")) for i in range(k) for j in range(m))
    tid = ProbabilisticInstance.uniform(Instance(facts), Fraction(1, 2))
    engine = CompilationEngine(circuit_fact_limit=100)
    decision = engine.choose_route(hierarchical_example(), tid)
    assert decision.method == "safe_plan"
    assert set(decision.infeasible) == {"obdd", "automaton"}
    p = Fraction(1, 2)
    expected = 1 - (1 - p * (1 - (1 - p) ** m)) ** k
    assert engine.probability(hierarchical_example(), tid, "auto") == expected
    assert engine.route_mix() == {"safe_plan": 1}


# -- the safe-plan route past brute force ---------------------------------------
#
# Sizes no oracle reaches: checked against a closed form, metamorphic
# relations, the tuple-at-a-time reference executor and the OBDD route.  The
# lifted family is R(a_i) for i < k plus S(a_i, b_j) for j < m, one seeded
# k/1000 probability per fact; tier-1 runs 3,060 facts, --runslow 100,400.

LIFTED_FAMILY = [
    pytest.param(60, 50, id="3060-facts"),
    pytest.param(400, 250, id="100400-facts", marks=pytest.mark.slow),
]


def _lifted_family(k, m, seed=0):
    generator = random.Random(seed)
    facts = [fact("R", f"a{i}") for i in range(k)]
    facts += [fact("S", f"a{i}", f"b{j}") for i in range(k) for j in range(m)]
    valuation = {f: Fraction(generator.randint(1, 999), 1000) for f in facts}
    return facts, valuation


def _safe_plan(tid):
    return probability(hierarchical_example(), tid, method="safe_plan")


@pytest.mark.parametrize("k, m", LIFTED_FAMILY)
def test_safe_plan_matches_the_closed_form(k, m):
    """1 - Π_i (1 - p_R(a_i) · (1 - Π_j (1 - p_S(a_i, b_j)))), in integers:
    each factor's numerator and denominator multiplied separately."""
    facts, valuation = _lifted_family(k, m)
    outer_numerators, outer_denominators = [], []
    for i in range(k):
        none_numerator = none_denominator = 1
        for j in range(m):
            p = valuation[fact("S", f"a{i}", f"b{j}")]
            none_numerator *= p.denominator - p.numerator
            none_denominator *= p.denominator
        r = valuation[fact("R", f"a{i}")]
        # 1 - r · (1 - none) over the denominator r.denominator · none_denominator.
        denominator = r.denominator * none_denominator
        outer_numerators.append(denominator - r.numerator * (none_denominator - none_numerator))
        outer_denominators.append(denominator)
    numerator = denominator = 1
    for factor_numerator, factor_denominator in zip(outer_numerators, outer_denominators):
        numerator *= factor_numerator
        denominator *= factor_denominator
    value = _safe_plan(ProbabilisticInstance(Instance(facts), valuation))
    assert value.numerator * denominator == (denominator - numerator) * value.denominator


@pytest.mark.parametrize("k, m", LIFTED_FAMILY)
def test_safe_plan_satisfies_shannon_conditioning(k, m):
    facts, valuation = _lifted_family(k, m, seed=1)
    tid = ProbabilisticInstance(Instance(facts), valuation)
    value = _safe_plan(tid)
    for f in (fact("R", f"a{k // 3}"), fact("S", f"a{k // 2}", f"b{m // 2}")):
        p = tid.probability_of(f)
        kept = _safe_plan(tid.condition([f]))
        removed = _safe_plan(tid.condition([], [f]))
        assert value == p * kept + (1 - p) * removed


@pytest.mark.parametrize("k, m", LIFTED_FAMILY)
def test_safe_plan_is_invariant_under_renaming_and_fact_order(k, m):
    """Renaming reorders each relation's facts, so the probabilities are
    read at new positions; a shuffled fact list with a reversed valuation
    dict builds the same TID from differently ordered inputs."""
    facts, valuation = _lifted_family(k, m, seed=2)
    tid = ProbabilisticInstance(Instance(facts), valuation)
    value = _safe_plan(tid)

    generator = random.Random(3)
    elements = list(tid.instance.domain)
    names = [f"e{n}" for n in range(len(elements))]
    generator.shuffle(names)
    mapping = dict(zip(elements, names))
    renamed = ProbabilisticInstance(
        tid.instance.rename(mapping), {f.rename(mapping): p for f, p in valuation.items()}
    )
    assert renamed.fingerprint != tid.fingerprint
    assert renamed.instance.facts != tuple(f.rename(mapping) for f in tid.instance.facts)
    assert _safe_plan(renamed) == value

    shuffled = list(facts)
    generator.shuffle(shuffled)
    reordered = ProbabilisticInstance(Instance(shuffled), dict(reversed(valuation.items())))
    assert reordered.fingerprint == tid.fingerprint
    assert _safe_plan(reordered) == value


HAND_SHAPED = (
    "R(x), S(y, x)",
    "S(x, x)",
    "U(x, y, x), S(x, y)",
    "R(x), S(x, y) | T(z)",
    "R(x) | S(x, y)",
    "R(x), T(y)",
)


@pytest.mark.parametrize("text", HAND_SHAPED)
def test_executor_matches_the_reference_on_hand_shaped_queries(text):
    """About 1,000 facts over 30 elements, a third of them at probability 0
    and a third at 1: repeated variables, swapped argument order, joins of
    disconnected components and inclusion–exclusion."""
    generator = random.Random(text)
    elements = [f"c{n}" for n in range(30)]
    facts = {fact("R", element) for element in elements[::2]}
    facts |= {fact("T", element) for element in elements[1::3]}
    facts |= {fact("S", *generator.sample(elements, 2)) for _ in range(500)}
    facts |= {fact("S", element, element) for element in elements[::4]}
    facts |= {fact("U", a, b, a) for a, b in (generator.sample(elements, 2) for _ in range(300))}
    facts |= {fact("U", *generator.sample(elements, 3)) for _ in range(200)}
    tid = ProbabilisticInstance(
        Instance(facts),
        {
            f: Fraction(generator.choice((0, 1000, generator.randint(1, 999))), 1000)
            for f in facts
        },
    )
    plan = lifted_plan(parse_ucq(text))
    assert execute_plan(plan, tid) == execute_plan_reference(plan, tid)


def test_executor_matches_the_reference_on_a_skewed_instance():
    """Ten R facts beside 20,000 S facts over 400 roots: the sideways
    filter keeps the S facts of the ten roots only."""
    generator = random.Random(10)
    facts = [fact("R", f"a{i}") for i in range(0, 400, 40)]
    facts += [fact("S", f"a{i}", f"b{j}") for i in range(400) for j in range(50)]
    tid = ProbabilisticInstance(
        Instance(facts), {f: Fraction(generator.randint(1, 999), 1000) for f in facts}
    )
    plan = lifted_plan(hierarchical_example())
    assert execute_plan(plan, tid) == execute_plan_reference(plan, tid)



def test_executor_counts_a_fact_two_ground_atoms_share_once():
    """A hand-built plan ``∃x ∃y [S(x, y) ∧ S(y, x)]`` whose ground node
    holds two atoms of one relation (``build_cq_plan`` keeps a ground node's
    relations distinct): at ``x = y`` both atoms name the fact ``S(a, a)``,
    which contributes its probability once, ``P(A ∧ A) = P(A)``."""
    generator = random.Random(5)
    elements = [f"c{n}" for n in range(12)]
    pairs = [generator.sample(elements, 2) for _ in range(40)]
    facts = {fact("S", a, b) for a, b in pairs}
    facts |= {fact("S", b, a) for a, b in pairs[:15]}
    loops = {fact("S", element, element) for element in elements[::2]}
    valuation = {f: Fraction(generator.randint(1, 999), 1000) for f in facts | loops}
    tid = ProbabilisticInstance(Instance(facts | loops), valuation)
    query = parse_cq("S(x, y), S(y, x)")
    forward, backward = query.atoms
    x, y = forward.arguments
    node = ProjectNode(
        x,
        (AtomSpec("S", (0,), ()), AtomSpec("S", (1,), ())),
        ProjectNode(
            y,
            (AtomSpec("S", (1,), ((0, x),)), AtomSpec("S", (0,), ((1, x),))),
            GroundNode((forward, backward)),
        ),
    )
    plan = LiftedPlan(as_ucq(query), (query,), InclusionExclusionNode(((1, node),)))
    assert execute_plan(plan, tid) == execute_plan_reference(plan, tid)
    only_loops = ProbabilisticInstance(Instance(loops), {f: valuation[f] for f in loops})
    assert execute_plan(plan, only_loops) == 1 - math.prod(1 - valuation[f] for f in loops)

def test_safe_plan_matches_the_obdd_route_on_a_long_rst_line():
    instance = rst_chain_instance(480)
    generator = random.Random(480)
    tid = ProbabilisticInstance(
        instance, {f: Fraction(generator.randint(1, 999), 1000) for f in instance.facts}
    )
    engine = CompilationEngine()
    query = hierarchical_example()
    assert engine.probability(query, tid, method="safe_plan") == engine.probability(
        query, tid, method="obdd"
    )


def test_executor_charges_one_row_per_scanned_fact():
    """A ground atom's scan charges its relation's facts once: R and S here,
    whatever the number of roots."""
    facts, valuation = _lifted_family(20, 5)
    tid = ProbabilisticInstance(Instance(facts), valuation)
    budget = ResourceBudget()
    with budget.activate():
        execute_plan(lifted_plan(hierarchical_example()), tid)
    assert budget.usage()["rows"] == len(facts)
