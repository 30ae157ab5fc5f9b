"""LIFTED — the dichotomy router's safe-plan route beyond circuit scale.

The query-based side of the dichotomy: on a safe query, lifted inference
computes the exact probability directly on the TID instance — no lineage,
no OBDD — so it reaches instance sizes where every circuit route is gated
infeasible.  This benchmark drives the whole stack end to end:

* family: ``R(a_i)`` for ``i < k`` plus ``S(a_i, b_j)`` for ``i < k, j < m``
  (``k + k*m`` facts), uniform probability 1/2, query ``R(x), S(x, y)``
  (:func:`repro.queries.library.hierarchical_example`);
* at the largest size (>= 10^5 facts, past the engine's default
  ``circuit_fact_limit``) the router must pick the safe-plan route *unaided*
  — ``method="auto"``, no hints — with every circuit route gated infeasible;
* the value must equal the independently computed closed form
  ``1 - (1 - p*(1 - (1-p)^m))^k`` exactly, as a Fraction;
* at a small size the lifted value must also agree with the OBDD route and
  with the brute-force and recursive safe-plan references (self-validation
  of the family's closed form).

Results go to ``BENCH_lifted.json``; the CI step fails on any gate.
"""

import time
from fractions import Fraction
from pathlib import Path

from repro.data.instance import Fact, Instance
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.experiments import ScalingSeries, format_table, write_benchmark_json
from repro.probability import brute_force_probability, probability, safe_plan_probability
from repro.queries import hierarchical_example

# k values; each size is k + k*M facts.  The largest must clear 10^5 facts.
K_SIZES = (50, 100, 200, 400)
M_PER_K = 300
PROBABILITY = Fraction(1, 2)
SMALL_K, SMALL_M = (3, 2)
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_lifted.json"
MINIMUM_LARGEST_FACTS = 100_000
MAXIMUM_LARGEST_SECONDS = 60.0


def _family_tid(k, m):
    facts = [Fact("R", (f"a{i}",)) for i in range(k)]
    facts.extend(Fact("S", (f"a{i}", f"b{j}")) for i in range(k) for j in range(m))
    return ProbabilisticInstance.uniform(Instance(facts), PROBABILITY)


def _closed_form(k, m):
    """P(exists x y: R(x) & S(x,y)) under independence, computed without the
    lifted machinery: per value a_i the branch succeeds with probability
    p * (1 - (1-p)^m), and the k branches are independent."""
    p = PROBABILITY
    branch = p * (1 - (1 - p) ** m)
    return 1 - (1 - branch) ** k


def run_benchmark():
    query = hierarchical_example()

    # Self-validation at a size every route can handle.
    small = _family_tid(SMALL_K, SMALL_M)
    expected_small = _closed_form(SMALL_K, SMALL_M)
    evaluators = {
        "brute_force": brute_force_probability,
        "obdd": lambda q, tid: probability(q, tid, method="obdd"),
        "safe_plan": lambda q, tid: probability(q, tid, method="safe_plan"),
        "safe_plan_reference": safe_plan_probability,
    }
    for method, evaluate in evaluators.items():
        value = evaluate(query, small)
        assert value == expected_small, (
            f"{method} returned {value} on the small family, closed form says "
            f"{expected_small}"
        )

    series = ScalingSeries("lifted: auto route (s)")
    checks = []
    largest_decision = None
    largest_facts = 0
    largest_seconds = 0.0
    for k in K_SIZES:
        tid = _family_tid(k, M_PER_K)
        facts = len(tid.instance)
        engine = CompilationEngine()
        decision = engine.choose_route(query, tid)
        start = time.perf_counter()
        value = engine.probability(query, tid, "auto")
        elapsed = time.perf_counter() - start
        series.add(facts, elapsed)
        expected = _closed_form(k, M_PER_K)
        assert value == expected, (
            f"auto route returned a wrong value at k={k}: {value} != closed form"
        )
        assert engine.route_mix() == {"safe_plan": 1}, (
            f"auto did not route through the lifted plan at k={k}: "
            f"{engine.route_mix()}"
        )
        checks.append(
            {
                "k": k,
                "m": M_PER_K,
                "facts": facts,
                "seconds": elapsed,
                "route": decision.method,
                "infeasible_routes": list(decision.infeasible),
            }
        )
        largest_decision = decision
        largest_facts = facts
        largest_seconds = elapsed

    assert largest_facts >= MINIMUM_LARGEST_FACTS, (
        f"largest family has only {largest_facts} facts; the benchmark must "
        f"demonstrate the lifted route at >= {MINIMUM_LARGEST_FACTS}"
    )
    assert largest_decision.method == "safe_plan", (
        f"router picked {largest_decision.method!r} at {largest_facts} facts; "
        "the lifted route must win unaided"
    )
    missing = set(largest_decision.infeasible) ^ {"obdd", "columnar", "automaton"}
    assert not missing, (
        f"circuit routes not all gated infeasible at {largest_facts} facts: "
        f"{largest_decision.infeasible}"
    )
    assert largest_seconds <= MAXIMUM_LARGEST_SECONDS, (
        f"lifted evaluation took {largest_seconds:.1f}s at {largest_facts} "
        f"facts (limit {MAXIMUM_LARGEST_SECONDS}s)"
    )

    write_benchmark_json(
        RESULT_FILE,
        "Lifted inference (safe plans) at circuit-infeasible instance sizes",
        [series],
        extra={
            "family": (
                f"R(a_i) + S(a_i, b_j), m={M_PER_K} per root, k in {list(K_SIZES)}, "
                f"uniform p={PROBABILITY}"
            ),
            "query": str(hierarchical_example()),
            "closed_form": "1 - (1 - p*(1 - (1-p)^m))^k",
            "checks": checks,
            "largest_facts": largest_facts,
            "largest_seconds": largest_seconds,
            "largest_route": largest_decision.method,
            "largest_infeasible_routes": list(largest_decision.infeasible),
            "minimum_largest_facts": MINIMUM_LARGEST_FACTS,
            "maximum_largest_seconds": MAXIMUM_LARGEST_SECONDS,
        },
    )
    return series, checks


def report(series, checks):
    rows = [
        (check["k"], check["facts"], round(check["seconds"], 4), check["route"])
        for check in checks
    ]
    print()
    print(format_table(["k", "facts", "auto route (s)", "route"], rows))
    largest = checks[-1]
    print(
        f"largest: {largest['facts']} facts via {largest['route']} in "
        f"{largest['seconds']:.3f}s; circuit routes gated: "
        f"{', '.join(largest['infeasible_routes'])} (results in {RESULT_FILE.name})"
    )


def test_lifted_route_at_scale(benchmark):
    series, checks = run_benchmark()
    small = _family_tid(SMALL_K, SMALL_M)
    benchmark(probability, hierarchical_example(), small, method="safe_plan")
    report(series, checks)


if __name__ == "__main__":
    series, checks = run_benchmark()
    report(series, checks)
