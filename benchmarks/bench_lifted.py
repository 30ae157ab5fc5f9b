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
* at every size that evaluation must leave both content fingerprints
  (instance and TID) uncomputed: the safe-plan route reads no content hash,
  so its cost stays the plan's linear pass.  Each size keeps the minimum
  over ``INPUT_REPEATS`` evaluations, each on a fresh engine, and every one
  of them is checked;
* at a small size the lifted value must also agree with the OBDD route and
  with the brute-force and recursive safe-plan references (self-validation
  of the family's closed form);
* the input stage — building ``Instance`` and ``ProbabilisticInstance`` and
  both fingerprints from an in-memory fact list — is timed at every size
  against the seed forms in :mod:`repro.data.reference`, at p=1/2 (the
  uniform default) and at p=k/1000 (one seeded ``k/1000`` per fact, an
  explicit valuation).  The two sides run interleaved, each keeps its minimum
  over ``INPUT_REPEATS`` runs, their fact orders, domains and digests must be
  identical, and the interned build must be at least
  ``MINIMUM_INPUT_SPEEDUP`` times faster at the largest size;
* the executor at the largest size: the set-at-a-time integer executor
  (:func:`~repro.probability.lifted.execute_plan`) against the
  tuple-at-a-time ``Fraction`` reference executor, at both probability
  settings.  The two sides run interleaved, each keeps its minimum over
  ``INPUT_REPEATS`` runs, their values must be equal, and the executor must
  be at least ``MINIMUM_EXECUTOR_SPEEDUP[setting]`` times faster: 4x at
  p=1/2, where a walk per binding measured 1.7–2.0x, and 1.5x at p=k/1000,
  where reducing the answer to lowest terms bounds the ratio.  That share
  of its time (one ``Fraction(numerator, denominator)`` per
  inclusion–exclusion term; the query has one) is recorded too.

Results go to ``BENCH_lifted.json``; the CI step fails on any gate.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from repro.data.instance import Fact, Instance
from repro.data.reference import input_stage_seed
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.experiments import ScalingSeries, format_table, write_benchmark_json
from repro.probability import brute_force_probability, probability, safe_plan_probability
from repro.probability.lifted import execute_plan, lifted_plan
from repro.probability.lifted.executor import execute_plan_terms
from repro.probability.lifted.reference import execute_plan_reference
from repro.queries import hierarchical_example

# k values; each size is k + k*M facts.  The largest must clear 10^5 facts.
K_SIZES = (50, 100, 200, 400)
M_PER_K = 300
PROBABILITY = Fraction(1, 2)
SMALL_K, SMALL_M = (3, 2)
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_lifted.json"
MINIMUM_LARGEST_FACTS = 100_000
MAXIMUM_LARGEST_SECONDS = 60.0
INPUT_REPEATS = 3
MINIMUM_INPUT_SPEEDUP = 1.5
MINIMUM_EXECUTOR_SPEEDUP = {"p=1/2": 4.0, "p=k/1000": 1.5}


def _family_facts(k, m):
    facts = [Fact("R", (f"a{i}",)) for i in range(k)]
    facts.extend(Fact("S", (f"a{i}", f"b{j}")) for i in range(k) for j in range(m))
    return facts


def _family_tid(k, m):
    return ProbabilisticInstance.uniform(Instance(_family_facts(k, m)), PROBABILITY)


def _valuations(facts, k):
    """The input stage's two probability settings: ``(valuation, default)``."""
    generator = random.Random(k)
    return {
        "p=1/2": (None, PROBABILITY),
        "p=k/1000": ({f: Fraction(generator.randint(1, 999), 1000) for f in facts}, 1),
    }


def _input_stage(facts, valuation, default):
    """What a library caller pays before evaluation starts."""
    tid = ProbabilisticInstance(Instance(facts), valuation, default)
    tid.fingerprint  # also computes the instance fingerprint
    return tid


def _seconds(build, *arguments):
    start = time.perf_counter()
    result = build(*arguments)
    return time.perf_counter() - start, result


def run_input_stage_benchmark():
    """Seed vs interned input stage per family size and probability setting."""
    series = {}
    for k in K_SIZES:
        facts = _family_facts(k, M_PER_K)
        for setting, (valuation, default) in _valuations(facts, k).items():
            seed_best = interned_best = float("inf")
            for _ in range(INPUT_REPEATS):
                seed_seconds, seed = _seconds(input_stage_seed, facts, valuation, default)
                interned_seconds, tid = _seconds(_input_stage, facts, valuation, default)
                seed_best = min(seed_best, seed_seconds)
                interned_best = min(interned_best, interned_seconds)
            instance = tid.instance
            assert instance.facts == seed.facts, f"fact order differs at k={k}, {setting}"
            assert instance.domain == seed.domain, f"domain differs at k={k}, {setting}"
            assert instance.fingerprint == seed.fingerprint, f"fingerprint differs at k={k}"
            assert tid.fingerprint == seed.tid_fingerprint, (
                f"TID fingerprint differs at k={k}, {setting}"
            )
            for side, seconds in (("seed reference", seed_best), ("interned", interned_best)):
                name = f"input stage, {side}, {setting} (s)"
                series.setdefault(name, ScalingSeries(name)).add(len(facts), seconds)
            del seed, tid
    speedups = {
        setting: series[f"input stage, seed reference, {setting} (s)"].values[-1]
        / series[f"input stage, interned, {setting} (s)"].values[-1]
        for setting in ("p=1/2", "p=k/1000")
    }
    return list(series.values()), speedups


def run_executor_benchmark():
    """Set-at-a-time integer vs tuple-at-a-time ``Fraction`` executor at the
    largest size, per setting."""
    k = K_SIZES[-1]
    facts = _family_facts(k, M_PER_K)
    instance = Instance(facts)
    plan = lifted_plan(hierarchical_example())
    series = []
    summary = {}
    for setting, (valuation, default) in _valuations(facts, k).items():
        tid = ProbabilisticInstance(instance, valuation, default)
        terms = execute_plan_terms(plan, tid)
        reference_best = integer_best = reduction_best = float("inf")
        # Interleaved, so the reduction's share compares minima taken under
        # the same load.
        for _ in range(INPUT_REPEATS):
            reference_seconds, expected = _seconds(execute_plan_reference, plan, tid)
            integer_seconds, value = _seconds(execute_plan, plan, tid)
            reduction_seconds, reduced = _seconds(_reduce_terms, terms)
            assert value == expected, f"executors disagree at k={k}, {setting}"
            assert reduced == value, f"reduced root pair differs at k={k}, {setting}"
            reference_best = min(reference_best, reference_seconds)
            integer_best = min(integer_best, integer_seconds)
            reduction_best = min(reduction_best, reduction_seconds)
        for side, seconds in (("Fraction reference", reference_best), ("integer", integer_best)):
            name = f"executor, {side}, {setting} (s)"
            series.append(ScalingSeries(name))
            series[-1].add(len(facts), seconds)
        summary[setting] = {
            "reference_seconds": reference_best,
            "integer_seconds": integer_best,
            "speedup": reference_best / integer_best,
            "reduction_seconds": reduction_best,
            "reduction_share": reduction_best / integer_best,
        }
        del tid, terms
    return series, summary


def _reduce_terms(terms):
    """What ``execute_plan`` does after its integer pass: one ``Fraction``
    per term, summed."""
    return sum((coefficient * Fraction(*pair) for coefficient, pair in terms), Fraction(0))


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
        expected = _closed_form(k, M_PER_K)
        elapsed = float("inf")
        for _ in range(INPUT_REPEATS):
            engine = CompilationEngine()
            decision = engine.choose_route(query, tid)
            start = time.perf_counter()
            value = engine.probability(query, tid, "auto")
            elapsed = min(elapsed, time.perf_counter() - start)
            assert value == expected, (
                f"auto route returned a wrong value at k={k}: {value} != closed form"
            )
            assert engine.route_mix() == {"safe_plan": 1}, (
                f"auto did not route through the lifted plan at k={k}: "
                f"{engine.route_mix()}"
            )
            assert tid._fingerprint is None and tid.instance._fingerprint is None, (
                f"the safe-plan route computed a content fingerprint at k={k}"
            )
        series.add(facts, elapsed)
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
    missing = set(largest_decision.infeasible) ^ {"obdd", "automaton"}
    assert not missing, (
        f"circuit routes not all gated infeasible at {largest_facts} facts: "
        f"{largest_decision.infeasible}"
    )
    assert largest_seconds <= MAXIMUM_LARGEST_SECONDS, (
        f"lifted evaluation took {largest_seconds:.1f}s at {largest_facts} "
        f"facts (limit {MAXIMUM_LARGEST_SECONDS}s)"
    )

    input_series, input_speedups = run_input_stage_benchmark()
    executor_series, executor = run_executor_benchmark()
    write_benchmark_json(
        RESULT_FILE,
        "Lifted inference (safe plans) at circuit-infeasible instance sizes",
        [series, *input_series, *executor_series],
        extra={
            "family": (
                f"R(a_i) + S(a_i, b_j), m={M_PER_K} per root, k in {list(K_SIZES)}, "
                f"uniform p={PROBABILITY}"
            ),
            "query": str(hierarchical_example()),
            "closed_form": "1 - (1 - p*(1 - (1-p)^m))^k",
            "auto_repeats": INPUT_REPEATS,
            "checks": checks,
            "largest_facts": largest_facts,
            "largest_seconds": largest_seconds,
            "largest_route": largest_decision.method,
            "largest_infeasible_routes": list(largest_decision.infeasible),
            "minimum_largest_facts": MINIMUM_LARGEST_FACTS,
            "maximum_largest_seconds": MAXIMUM_LARGEST_SECONDS,
            "input_stage": {
                "stage": "Instance() + ProbabilisticInstance() + both fingerprints",
                "probabilities": {
                    "p=1/2": "uniform default, no valuation",
                    "p=k/1000": "one seeded k/1000 per fact, explicit valuation",
                },
                "repeats": INPUT_REPEATS,
                "largest_speedups": input_speedups,
                "minimum_largest_speedup": MINIMUM_INPUT_SPEEDUP,
            },
            "executor": {
                "stage": "execute_plan on the largest family, instance and TID prebuilt",
                "reference": "repro.probability.lifted.reference.execute_plan_reference",
                "reduction": "Fraction(numerator, denominator) per unreduced term pair, summed",
                "repeats": INPUT_REPEATS,
                "settings": executor,
                "minimum_speedup": MINIMUM_EXECUTOR_SPEEDUP,
            },
        },
    )
    slow = {s: x for s, x in input_speedups.items() if x < MINIMUM_INPUT_SPEEDUP}
    assert not slow, (
        f"input stage at {largest_facts} facts only {slow} faster than the seed "
        f"reference; expected >= {MINIMUM_INPUT_SPEEDUP}x"
    )
    slow = {
        s: x["speedup"]
        for s, x in executor.items()
        if x["speedup"] < MINIMUM_EXECUTOR_SPEEDUP[s]
    }
    assert not slow, (
        f"executor at {largest_facts} facts only {slow} faster than the "
        f"Fraction reference; expected at least {MINIMUM_EXECUTOR_SPEEDUP}"
    )
    return series, checks, input_speedups, executor


def report(series, checks, input_speedups, executor):
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
    for setting, ratio in input_speedups.items():
        print(f"input stage at {largest['facts']} facts, {setting}: {ratio:.2f}x over the seed")
    for setting, result in executor.items():
        print(
            f"executor at {largest['facts']} facts, {setting}: "
            f"{result['reference_seconds']:.3f}s -> {result['integer_seconds']:.3f}s "
            f"({result['speedup']:.2f}x over the Fraction reference; reducing the root "
            f"pair is {result['reduction_share']:.0%} of it)"
        )


def test_lifted_route_at_scale(benchmark):
    results = run_benchmark()
    small = _family_tid(SMALL_K, SMALL_M)
    benchmark(probability, hierarchical_example(), small, method="safe_plan")
    report(*results)


if __name__ == "__main__":
    report(*run_benchmark())
