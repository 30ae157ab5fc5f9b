"""COMPILE — the iterative compilation kernels vs the seed recursive core.

Two families exercise the DNF→OBDD compile path end to end (clauses →
reduced OBDD → probability + size + width + model count):

* **line**: the two-consecutive-edges query on directed paths — the
  pathwidth-1 regime of Theorem 6.7, where the seed's clause-by-clause
  ``apply`` fold is quadratic in the path length (the accumulator is rebuilt
  per clause) and its per-cut width loop is quadratic too;
* **ktree**: the labelled partial k-tree workload of ``bench_engine`` — the
  bounded-treewidth regime of Theorem 6.5.

The *seed path* uses :mod:`repro.booleans.reference`: the recursive
apply-fold with tuple cache keys, then one recursive walk per measurement.
The *kernel path* uses the trie-driven :meth:`OBDD.build_from_clauses`, then
flattens the diagram and runs one :meth:`ColumnarOBDD.sweep` over the columns
(the flatten is inside the timed window).  Both run on fresh managers per
repetition and
must produce identical root ids and identical exact values.  The total
speedup must be at least 3x; results go to ``BENCH_compile.json``.
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

from repro.booleans.obdd import OBDD
from repro.booleans.reference import (
    build_from_clauses_fold,
    model_count_recursive,
    probability_recursive,
    width_by_cuts,
)
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.experiments import ScalingSeries, format_table, speedup, write_benchmark_json
from repro.generators import labelled_partial_ktree_instance
from repro.generators.lines import directed_path_instance
from repro.queries import hierarchical_example, unsafe_rst
from repro.queries.parser import parse_ucq

LINE_SIZES = (75, 150, 300, 600)
KTREE_SIZES = (10, 14, 18, 22)
KTREE_WIDTH = 2
REPEATS = 3
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_compile.json"
MINIMUM_SPEEDUP = 3.0

# The seed path is recursive: depth tracks the variable-order length, so the
# largest line sizes need headroom beyond CPython's default limit (this is
# exactly the limitation the iterative kernels remove).
_RECURSION_HEADROOM = 10_000


def _line_case(n):
    instance = directed_path_instance(n)
    query = parse_ucq("E(x,y), E(y,z)")
    engine = CompilationEngine()
    lineage = engine.lineage(query, instance)
    order = sorted(instance.facts, key=lambda f: int(f.arguments[0][1:]))
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    return lineage.clauses, order, tid.valuation()


def _ktree_cases(n):
    instance = labelled_partial_ktree_instance(n, KTREE_WIDTH, seed=n)
    engine = CompilationEngine()
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    cases = []
    for query in (unsafe_rst(), hierarchical_example()):
        lineage = engine.lineage(query, instance)
        order = engine.fact_order(instance)
        cases.append((lineage.clauses, order, tid.valuation()))
    return cases


def seed_path(clauses, order, valuation):
    """Seed pipeline: apply-fold compile, then one recursive walk per measure."""
    manager = OBDD(list(order))
    root = build_from_clauses_fold(manager, [sorted(c, key=str) for c in clauses])
    prob = probability_recursive(manager, root, valuation) if root > 1 else Fraction(root)
    return root, prob, len(manager.reachable_nodes(root)), width_by_cuts(manager, root), model_count_recursive(manager, root)


def kernel_path(clauses, order, valuation):
    """New pipeline: trie compile, then one sweep over the flattened columns."""
    manager = OBDD(list(order))
    root = manager.build_from_clauses(clauses)
    result = manager.to_columnar(root).sweep(valuation, model_count=True, width=True)
    return root, result.probability, result.size, result.width, result.model_count


def _measure(series_pair, size, cases):
    seed_series, kernel_series = series_pair
    start = time.perf_counter()
    for _ in range(REPEATS):
        for clauses, order, valuation in cases:
            seed_outcome = seed_path(clauses, order, valuation)
    seed_series.add(size, time.perf_counter() - start)
    start = time.perf_counter()
    for _ in range(REPEATS):
        for clauses, order, valuation in cases:
            kernel_outcome = kernel_path(clauses, order, valuation)
    kernel_series.add(size, time.perf_counter() - start)
    # Exactness: identical probability / size / width / model count (root ids
    # are manager-relative, so they are compared in one shared manager below).
    assert seed_outcome[1:] == kernel_outcome[1:], (
        f"seed and kernel paths disagree at size {size}: {seed_outcome[1:]} vs {kernel_outcome[1:]}"
    )
    clauses, order, _ = cases[0]
    shared = OBDD(list(order))
    fold_root = build_from_clauses_fold(shared, [sorted(c, key=str) for c in clauses])
    assert shared.build_from_clauses(clauses) == fold_root, (
        f"trie and fold intern different reduced roots at size {size}"
    )


def run_benchmark():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _RECURSION_HEADROOM))
    try:
        line_seed = ScalingSeries("line: seed path (s)")
        line_kernel = ScalingSeries("line: kernel path (s)")
        for n in LINE_SIZES:
            _measure((line_seed, line_kernel), n, [_line_case(n)])
        ktree_seed = ScalingSeries("ktree: seed path (s)")
        ktree_kernel = ScalingSeries("ktree: kernel path (s)")
        for n in KTREE_SIZES:
            _measure((ktree_seed, ktree_kernel), n, _ktree_cases(n))
    finally:
        sys.setrecursionlimit(limit)
    total_seed = sum(line_seed.values) + sum(ktree_seed.values)
    total_kernel = sum(line_kernel.values) + sum(ktree_kernel.values)
    ratio = total_seed / total_kernel if total_kernel else float("inf")
    write_benchmark_json(
        RESULT_FILE,
        "Trie-driven DNF→OBDD compilation + fused sweep vs seed apply-fold path",
        [line_seed, line_kernel, ktree_seed, ktree_kernel],
        extra={
            "families": {
                "line": f"directed paths, E(x,y),E(y,z), sizes {list(LINE_SIZES)}",
                "ktree": f"labelled partial k-trees, width {KTREE_WIDTH}, sizes {list(KTREE_SIZES)}",
            },
            "repeats_per_instance": REPEATS,
            "end_to_end": "clauses -> reduced OBDD -> probability + size + width + model count",
            "speedup": ratio,
            "speedup_line": speedup(line_seed, line_kernel),
            "speedup_ktree": speedup(ktree_seed, ktree_kernel),
            "minimum_required_speedup": MINIMUM_SPEEDUP,
        },
    )
    return (line_seed, line_kernel, ktree_seed, ktree_kernel), ratio


def report(series, ratio):
    line_seed, line_kernel, ktree_seed, ktree_kernel = series
    for label, seed_series, kernel_series in (
        ("line", line_seed, line_kernel),
        ("ktree", ktree_seed, ktree_kernel),
    ):
        rows = [
            (int(n), round(s, 5), round(k, 5))
            for n, s, k in zip(seed_series.sizes, seed_series.values, kernel_series.values)
        ]
        print()
        print(format_table([f"{label} n", "seed path (s)", "kernel path (s)"], rows))
    print(f"total speedup: {ratio:.1f}x (results in {RESULT_FILE.name})")


def test_compile_kernel_speedup(benchmark):
    series, ratio = run_benchmark()
    clauses, order, valuation = _line_case(LINE_SIZES[-1])
    benchmark(kernel_path, clauses, order, valuation)
    report(series, ratio)
    assert ratio >= MINIMUM_SPEEDUP, (
        f"kernel path only {ratio:.2f}x faster than the seed apply-fold path; "
        f"expected >= {MINIMUM_SPEEDUP}x"
    )


if __name__ == "__main__":
    series, ratio = run_benchmark()
    report(series, ratio)
    if ratio < MINIMUM_SPEEDUP:
        raise SystemExit(
            f"kernel path only {ratio:.2f}x faster than the seed apply-fold path; "
            f"expected >= {MINIMUM_SPEEDUP}x"
        )
