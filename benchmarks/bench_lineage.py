"""LINEAGE — minimal-match lineage in time linear in the instance.

The paper's tractability results are one linear pass over a bounded-width
lineage, so building the lineage must not be the super-linear stage.
:func:`~repro.provenance.lineage.lineage_of` enumerates matches with one hash
join per atom over fact positions, keeps a match as minimal when none of its
proper non-empty subsets is a match, and holds the minimal matches as sorted
tuples of positions.  This benchmark times it end to end (matches,
minimality, position clauses), and times the first read of
:attr:`~repro.provenance.lineage.MonotoneDNFLineage.clauses`, the ``Fact``
view derived from those positions in the reference order, as its own
series:

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
* the log–log slope of each family's two series (``lineage_of`` and the
  first ``.clauses`` read) must be at most ``MAXIMUM_SLOPE``;
* up to ``REFERENCE_MAX_FACTS`` facts, the tuple-at-a-time walk with the
  quadratic minimality filter
  (:func:`repro.queries.reference.minimal_matches_reference`) runs
  interleaved in the first ``REFERENCE_REPEATS`` rounds (minimum kept), the
  lineage's ``.clauses`` must equal its clauses (same list, same order), and
  at its largest size ``lineage_of`` plus the first ``.clauses`` read, which
  return the same list, must be at least ``MINIMUM_SPEEDUP`` times faster.
  Beyond that size the reference's quadratic filter alone takes seconds.

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
        view_best = dict.fromkeys(SIZES, float("inf"))
        reference_best = {size: float("inf") for size in SIZES if size <= REFERENCE_MAX_FACTS}
        for repeat in range(REPEATS):
            for size, instance in instances.items():
                seconds, lineage = _seconds(lineage_of, query, instance)
                best[size] = min(best[size], seconds)
                seconds, clauses = _seconds(getattr, lineage, "clauses")
                view_best[size] = min(view_best[size], seconds)
                if size in reference_best and repeat < REFERENCE_REPEATS:
                    seconds, reference_clauses = _seconds(minimal_matches_reference, query, instance)
                    reference_best[size] = min(reference_best[size], seconds)
                    assert list(clauses) == reference_clauses, (
                        f"{family} at {size} facts: clauses differ from the reference"
                    )
                del lineage, clauses
        lineage_series = ScalingSeries(f"lineage_of, {family} (s)")
        view_series = ScalingSeries(f"first .clauses read, {family} (s)")
        reference_series = ScalingSeries(f"reference minimal matches, {family} (s)")
        for size in SIZES:
            lineage_series.add(size, best[size])
            view_series.add(size, view_best[size])
        for size, seconds in reference_best.items():
            reference_series.add(size, seconds)
        largest = reference_series.sizes[-1]
        at_largest = lineage_series.sizes.index(largest)
        summary[family] = {
            "query": str(query),
            "loglog_slope": lineage_series.loglog_slope(),
            "view_loglog_slope": view_series.loglog_slope(),
            "reference_largest_facts": int(largest),
            "reference_seconds": reference_series.values[-1],
            "lineage_seconds": lineage_series.values[at_largest],
            "view_seconds": view_series.values[at_largest],
        }
        summary[family]["speedup"] = summary[family]["reference_seconds"] / (
            summary[family]["lineage_seconds"] + summary[family]["view_seconds"]
        )
        series += [lineage_series, view_series, reference_series]
    write_benchmark_json(
        RESULT_FILE,
        "Minimal-match lineage: linear-time scaling and speed-up over the reference",
        series,
        extra={
            "lineage": {
                "stage": "lineage_of(query, instance): matches, minimality, position clauses",
                "view_stage": "first lineage.clauses read: Fact clauses in the reference order",
                "speedup": "reference over lineage_of plus the first .clauses read",
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
    steep = {
        f"{family}, {stage}": round(result[key], 3)
        for family, result in summary.items()
        for stage, key in (("lineage_of", "loglog_slope"), (".clauses", "view_loglog_slope"))
        if result[key] > MAXIMUM_SLOPE
    }
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
        views = next(s for s in series if s.name == f"first .clauses read, {family} (s)")
        rows = [
            (int(size), round(seconds * 1000, 2), round(view * 1000, 2))
            for size, seconds, view in zip(timings.sizes, timings.values, views.values)
        ]
        print()
        print(f"{family}: {result['query']}")
        print(format_table(["facts", "lineage_of (ms)", "first .clauses read (ms)"], rows))
        print(
            f"log-log slopes {result['loglog_slope']:.3f} and {result['view_loglog_slope']:.3f} "
            f"(gate <= {MAXIMUM_SLOPE}); at {result['reference_largest_facts']} facts "
            f"{result['reference_seconds'] * 1000:.1f} ms -> "
            f"{(result['lineage_seconds'] + result['view_seconds']) * 1000:.2f} ms, "
            f"{result['speedup']:.1f}x over the reference (gate >= {MINIMUM_SPEEDUP}x)"
        )
    print(f"(results in {RESULT_FILE.name})")


def test_lineage_scales_linearly(benchmark):
    results = run_benchmark()
    benchmark(lineage_of, unsafe_rst(), rst_chain_instance(400))
    report(*results)


if __name__ == "__main__":
    report(*run_benchmark())
