"""DATA — the instance build, the TID build and the JSON TID loader against
their seed forms.

``Instance()`` works a column at a time and hashes no fact when its elements
have one type.  A :class:`~repro.data.tid.ProbabilisticInstance` stores its
probabilities as two integer columns in ``instance.facts`` order.  A
valuation that lists the instance's facts in order is read as a column, with
no fact hashed and ``Fraction`` values range-checked in bulk;
:func:`repro.data.io.tid_from_dict` reads both lists of the file a column at
a time, splits each ``digits/digits`` cell into two ints and checks the
ranges once, in bulk.  This benchmark times all three against the seed forms
kept in :mod:`repro.data.reference`, on two perfbench instances (a 2-tree of
250 nodes and an RST chain of 480 links), each with one seeded ``k/1000``
probability per fact:

* instance build: ``Instance(facts)`` against the seed build
  (:func:`~repro.data.reference.signature_seed`,
  :func:`~repro.data.reference.fact_order_seed` and
  :func:`~repro.data.reference.domain_seed` over ``set(facts)``), on the
  facts in the order a saved file lists them;
* TID build: ``ProbabilisticInstance(instance, valuation)`` against
  :func:`~repro.data.reference.valuation_seed` (a two-set check, then one
  conversion per fact), on a valuation built by iterating the instance;
* loader: :func:`~repro.data.io.tid_from_dict` against
  :func:`~repro.data.reference.tid_from_dict_seed` (every fact built from
  both lists, every cell through the ``Fraction`` parser), on the JSON
  description :func:`~repro.data.io.save_instance` writes.

Before timing, the fact orders, domains and signatures, the columns and both
fingerprints (instance and TID) of each pair of sides must be equal.  The
two sides alternate, call by call, and each keeps its minimum over
``ROUNDS`` samples of ``CALLS`` calls, so a noisy stretch of the host hits
both.  CI fails below ``MINIMUM_INSTANCE_SPEEDUP`` (3x) on the instance
build, ``MINIMUM_BUILD_SPEEDUP`` (5x) on the TID build or
``MINIMUM_LOAD_SPEEDUP`` (1.7x) on the loader, at either size.  Results go
to ``BENCH_data.json``.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from repro.data.instance import Fact, Instance
from repro.data.io import tid_from_dict, tid_to_dict
from repro.data.reference import (
    domain_seed,
    fact_order_seed,
    signature_seed,
    tid_fingerprint_seed,
    tid_from_dict_seed,
    valuation_seed,
)
from repro.data.tid import ProbabilisticInstance
from repro.experiments import format_table, write_benchmark_json
from repro.generators import labelled_partial_ktree_instance, rst_chain_instance

RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_data.json"
ROUNDS = 41
CALLS = 5
MINIMUM_INSTANCE_SPEEDUP = 3.0
MINIMUM_BUILD_SPEEDUP = 5.0
MINIMUM_LOAD_SPEEDUP = 1.7


def build_cases():
    """(label, instance, in-order valuation, saved JSON description, facts
    as new objects in that order) per case."""
    cases = []
    for label, instance in (
        ("ktree-250", labelled_partial_ktree_instance(250, 2)),
        ("rst-line-480", rst_chain_instance(480)),
    ):
        generator = random.Random(label)
        valuation = {f: Fraction(generator.randint(1, 999), 1000) for f in instance}
        description = json.loads(json.dumps(tid_to_dict(ProbabilisticInstance(instance, valuation))))
        facts = [Fact(f.relation, f.arguments) for f in instance.facts]
        cases.append((label, instance, valuation, description, facts))
    return cases


def instance_seed(facts):
    """The seed instance build: signature, fact order and domain."""
    fact_set = set(facts)
    ordered = fact_order_seed(fact_set)
    return signature_seed(fact_set), ordered, domain_seed(ordered)


def check_agreement(cases):
    """Each side must give the seed's instance, columns and both fingerprints."""
    for label, instance, valuation, description, facts in cases:
        built = Instance(facts)
        signature, ordered, domain = instance_seed(facts)
        assert built.facts == ordered == instance.facts, f"fact order diverged on {label}"
        assert built.domain == domain == instance.domain, f"domain diverged on {label}"
        assert built.signature == signature == instance.signature, label
        tid = ProbabilisticInstance(instance, valuation)
        seed = valuation_seed(instance.facts, valuation)
        assert tid.column() == tuple(seed.values()), f"TID column diverged on {label}"
        assert tid.ratios() == (
            tuple(p.numerator for p in seed.values()),
            tuple(p.denominator for p in seed.values()),
        ), f"TID integer columns diverged on {label}"
        assert tid.fingerprint == tid_fingerprint_seed(
            instance.fingerprint, instance.facts, seed
        ), f"TID fingerprint diverged on {label}"
        loaded, reference = tid_from_dict(description), tid_from_dict_seed(description)
        assert loaded.instance.facts == reference.instance.facts == instance.facts, label
        assert loaded.ratios() == reference.ratios() == tid.ratios(), label
        assert loaded.instance.fingerprint == reference.instance.fingerprint, label
        assert loaded.fingerprint == reference.fingerprint == tid.fingerprint, label


def _sample(function, *args):
    start = time.perf_counter()
    for _ in range(CALLS):
        function(*args)
    return (time.perf_counter() - start) / CALLS


def run_benchmark(rounds: int = ROUNDS):
    cases = build_cases()
    check_agreement(cases)
    results = {}
    for label, instance, valuation, description, facts in cases:
        build = build_seed = load = load_seed = float("inf")
        instance_build = instance_build_seed = float("inf")
        for _ in range(rounds):
            instance_build = min(instance_build, _sample(Instance, facts))
            instance_build_seed = min(instance_build_seed, _sample(instance_seed, facts))
            build = min(build, _sample(ProbabilisticInstance, instance, valuation))
            build_seed = min(build_seed, _sample(valuation_seed, instance.facts, valuation))
            load = min(load, _sample(tid_from_dict, description))
            load_seed = min(load_seed, _sample(tid_from_dict_seed, description))
        results[label] = {
            "facts": len(instance),
            "instance_build_seconds": instance_build,
            "instance_build_seed_seconds": instance_build_seed,
            "instance_build_speedup": instance_build_seed / instance_build,
            "tid_build_seconds": build,
            "tid_build_seed_seconds": build_seed,
            "tid_build_speedup": build_seed / build,
            "load_seconds": load,
            "load_seed_seconds": load_seed,
            "load_speedup": load_seed / load,
        }
    write_benchmark_json(
        RESULT_FILE,
        "Instance build, TID build and JSON TID loader against their seed forms",
        [],
        extra={
            "workload": (
                "one seeded k/1000 probability per fact, facts and valuation in fact order"
            ),
            "rounds": rounds,
            "calls_per_sample": CALLS,
            "cases": results,
            "minimum_required_instance_speedup": MINIMUM_INSTANCE_SPEEDUP,
            "minimum_required_build_speedup": MINIMUM_BUILD_SPEEDUP,
            "minimum_required_load_speedup": MINIMUM_LOAD_SPEEDUP,
        },
    )
    return results


def report(results):
    rows = [
        (
            label,
            case["facts"],
            round(case["instance_build_seconds"] * 1e3, 4),
            round(case["instance_build_seed_seconds"] * 1e3, 4),
            round(case["instance_build_speedup"], 2),
            round(case["tid_build_seconds"] * 1e3, 4),
            round(case["tid_build_seed_seconds"] * 1e3, 4),
            round(case["tid_build_speedup"], 2),
            round(case["load_seconds"] * 1e3, 4),
            round(case["load_seed_seconds"] * 1e3, 4),
            round(case["load_speedup"], 2),
        )
        for label, case in results.items()
    ]
    print()
    print(
        format_table(
            [
                "case", "facts", "instance ms", "seed ms", "x",
                "TID ms", "seed ms", "x", "load ms", "seed ms", "x",
            ],
            rows,
        )
    )
    print(f"(results in {RESULT_FILE.name})")


def gate_failures(results):
    """The messages of the gates this run fails (empty when it passes)."""
    failures = []
    for label, case in results.items():
        if case["instance_build_speedup"] < MINIMUM_INSTANCE_SPEEDUP:
            failures.append(
                f"{label}: Instance() only {case['instance_build_speedup']:.2f}x over the seed"
                f" build; expected >= {MINIMUM_INSTANCE_SPEEDUP}x"
            )
        if case["tid_build_speedup"] < MINIMUM_BUILD_SPEEDUP:
            failures.append(
                f"{label}: TID build only {case['tid_build_speedup']:.2f}x over the seed"
                f" valuation; expected >= {MINIMUM_BUILD_SPEEDUP}x"
            )
        if case["load_speedup"] < MINIMUM_LOAD_SPEEDUP:
            failures.append(
                f"{label}: tid_from_dict only {case['load_speedup']:.2f}x over the seed"
                f" loader; expected >= {MINIMUM_LOAD_SPEEDUP}x"
            )
    return failures


def test_data_layer_speedup(benchmark):
    results = run_benchmark()
    label, instance, valuation, _, _ = build_cases()[0]
    benchmark(ProbabilisticInstance, instance, valuation)
    report(results)
    assert not gate_failures(results)


if __name__ == "__main__":
    results = run_benchmark()
    report(results)
    failures = gate_failures(results)
    if failures:
        raise SystemExit("REGRESSION: " + "; ".join(failures))
