"""LINEAGE — minimal-match lineage in time linear in the instance.

The paper's tractability results are one linear pass over a bounded-width
lineage, so building the lineage must not be the super-linear stage.
:func:`~repro.provenance.lineage.lineage_of` enumerates matches with one hash
join per atom over fact positions and keeps a match as minimal when none of
its proper non-empty subsets is a match.  This benchmark times it end to end
(matches, minimality, clause order and the ``Fact`` clauses):

* families: the RST chain (``R(a_i), S(a_i, b_i), T(b_i)``) under the unsafe
  query ``R(x), S(x, y), T(y)``, and directed paths under
  ``E(x, y), E(y, z)``, each at ``SIZES`` facts, from about 10^3 up to the
  engine's default ``circuit_fact_limit`` (20,000), the largest instance the
  circuit routes build a lineage for;
* each point is the minimum of ``REPEATS`` runs, taken in rounds over all
  sizes so that a burst of load on a shared machine slows one run of
  several sizes rather than every run of one size; each run starts after a
  full ``gc.collect()`` so that no run inherits the previous run's
  collector state, and still pays for every collection its own
  allocations trigger;
* the log–log slope of each family's series must be at most
  ``MAXIMUM_SLOPE``;
* up to ``REFERENCE_MAX_FACTS`` facts, the tuple-at-a-time walk with the
  quadratic minimality filter
  (:func:`repro.queries.reference.minimal_matches_reference`) runs
  interleaved in the first ``REFERENCE_REPEATS`` rounds (minimum kept), its
  clauses must equal the lineage's
  (same list, same order), and at its largest size the lineage must be at
  least ``MINIMUM_SPEEDUP`` times faster.  Beyond that size the reference's
  quadratic filter alone takes seconds.

Results go to ``BENCH_lineage.json``; the CI step fails on any gate.
"""

import gc
import time
from pathlib import Path

from repro.experiments import ScalingSeries, format_table, write_benchmark_json
from repro.generators import directed_path_instance, rst_chain_instance
from repro.provenance.lineage import lineage_of
from repro.queries.library import two_incident_same_direction, unsafe_rst
from repro.queries.reference import minimal_matches_reference

SIZES = (1_200, 2_400, 4_800, 9_600, 19_200)
FAMILIES = {
    "rst chain": (lambda facts: rst_chain_instance(facts // 3), unsafe_rst()),
    "directed path": (directed_path_instance, two_incident_same_direction()),
}
REPEATS = 41
REFERENCE_REPEATS = 3
REFERENCE_MAX_FACTS = 4_800
MAXIMUM_SLOPE = 1.15
MINIMUM_SPEEDUP = 3.0
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_lineage.json"


def _seconds(build, *arguments):
    gc.collect()
    start = time.perf_counter()
    result = build(*arguments)
    return time.perf_counter() - start, result


def run_benchmark():
    series = []
    summary = {}
    for family, (make, query) in FAMILIES.items():
        instances = {size: make(size) for size in SIZES}
        for size, instance in instances.items():
            assert len(instance) == size, f"{family} built {len(instance)} facts, not {size}"
        best = dict.fromkeys(SIZES, float("inf"))
        reference_best = {size: float("inf") for size in SIZES if size <= REFERENCE_MAX_FACTS}
        for repeat in range(REPEATS):
            for size, instance in instances.items():
                seconds, lineage = _seconds(lineage_of, query, instance)
                best[size] = min(best[size], seconds)
                if size in reference_best and repeat < REFERENCE_REPEATS:
                    seconds, clauses = _seconds(minimal_matches_reference, query, instance)
                    reference_best[size] = min(reference_best[size], seconds)
                    assert list(lineage.clauses) == clauses, (
                        f"{family} at {size} facts: clauses differ from the reference"
                    )
                del lineage
        lineage_series = ScalingSeries(f"lineage_of, {family} (s)")
        reference_series = ScalingSeries(f"reference minimal matches, {family} (s)")
        for size, seconds in best.items():
            lineage_series.add(size, seconds)
        for size, seconds in reference_best.items():
            reference_series.add(size, seconds)
        largest = reference_series.sizes[-1]
        summary[family] = {
            "query": str(query),
            "loglog_slope": lineage_series.loglog_slope(),
            "reference_largest_facts": int(largest),
            "reference_seconds": reference_series.values[-1],
            "lineage_seconds": lineage_series.values[lineage_series.sizes.index(largest)],
        }
        summary[family]["speedup"] = (
            summary[family]["reference_seconds"] / summary[family]["lineage_seconds"]
        )
        series += [lineage_series, reference_series]
    write_benchmark_json(
        RESULT_FILE,
        "Minimal-match lineage: linear-time scaling and speed-up over the reference",
        series,
        extra={
            "lineage": {
                "stage": "lineage_of(query, instance): matches, minimality, clause order, Fact clauses",
                "reference": "repro.queries.reference.minimal_matches_reference",
                "repeats": REPEATS,
                "reference_repeats": REFERENCE_REPEATS,
                "gc": "gc.collect() before every timed run",
                "reference_max_facts": REFERENCE_MAX_FACTS,
                "families": summary,
                "maximum_slope": MAXIMUM_SLOPE,
                "minimum_speedup": MINIMUM_SPEEDUP,
            }
        },
    )
    steep = {f: round(s["loglog_slope"], 3) for f, s in summary.items() if s["loglog_slope"] > MAXIMUM_SLOPE}
    assert not steep, f"lineage grows faster than linear: log-log slopes {steep} > {MAXIMUM_SLOPE}"
    slow = {f: round(s["speedup"], 2) for f, s in summary.items() if s["speedup"] < MINIMUM_SPEEDUP}
    assert not slow, (
        f"lineage only {slow} times faster than the reference at its largest size; "
        f"expected >= {MINIMUM_SPEEDUP}x"
    )
    return series, summary


def report(series, summary):
    for family, result in summary.items():
        timings = next(s for s in series if s.name == f"lineage_of, {family} (s)")
        rows = [(int(size), round(seconds * 1000, 2)) for size, seconds in zip(timings.sizes, timings.values)]
        print()
        print(f"{family}: {result['query']}")
        print(format_table(["facts", "lineage_of (ms)"], rows))
        print(
            f"log-log slope {result['loglog_slope']:.3f} (gate <= {MAXIMUM_SLOPE}); at "
            f"{result['reference_largest_facts']} facts {result['reference_seconds'] * 1000:.1f} ms -> "
            f"{result['lineage_seconds'] * 1000:.2f} ms, {result['speedup']:.1f}x over the reference "
            f"(gate >= {MINIMUM_SPEEDUP}x)"
        )
    print(f"(results in {RESULT_FILE.name})")


def test_lineage_scales_linearly(benchmark):
    results = run_benchmark()
    benchmark(lineage_of, unsafe_rst(), rst_chain_instance(400))
    report(*results)


if __name__ == "__main__":
    report(*run_benchmark())
