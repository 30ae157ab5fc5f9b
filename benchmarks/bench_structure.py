"""STRUCTURE — the fused structural front-end vs the seed construction.

Three families exercise the decomposition→encoding→provenance front-end of
the paper end to end (instance → Gaifman graph → elimination ordering →
tree decomposition → binary tree encoding → automaton provenance d-DNNF):

* **line**: directed paths with the two-consecutive-edges UCQ — the
  pathwidth-1 regime of Theorem 6.7 and the regime where the seed front-end
  is most clearly quadratic (its encoding builder scans every bag per fact
  and replays a full validation pass over all elements × all nodes);
* **grid**: n×n grids with the same query — growing-treewidth inputs where
  the automaton state sets per node are larger;
* **ktree**: the labelled partial k-tree workload of ``bench_engine`` with
  the unsafe RST query — the bounded-treewidth regime of Theorem 6.5.

The *seed path* uses :mod:`repro.structure.reference` and
:mod:`repro.provenance.reference`: the linear-scan min-degree / full-rescan
min-fill heuristics, the ordering-replay decomposition builder with its
validation pass, the recursive encoding builder, and the provenance
construction that enumerates the child-state product twice around
``sorted(..., key=repr)``.  The *kernel path* uses the heap-driven
elimination sweep fused into :func:`repro.provenance.tree_encoding.
fused_tree_encoding` plus the dense-state provenance kernel of
:mod:`repro.provenance.automaton_provenance`.

Both paths must produce extensionally equal d-DNNFs (same probability under
the uniform valuation) and identical reachable-state counts.  The line
family — the largest — must be at least 3x faster end to end.

A second series times the cold *path-order* stages behind
``default_fact_order`` (Theorem 6.7's order along a path decomposition) on
lines up to 600 edges and on width-2 partial k-trees: the seed greedy order
that re-scores every remaining vertex per step, its bag-scan validation and
the bag-scan fact placements (path and tree), against the lazy-heap greedy
order, the interval validation and the first-bag-index placements.  The
Gaifman graph and the tree decomposition are built outside the timed window
(neither side changes them).  Both sides must produce identical bags and
identical fact orders; the largest line must be at least 10x faster.
Results go to ``BENCH_structure.json``.
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

from repro.data.gaifman import gaifman_graph
from repro.data.tid import ProbabilisticInstance
from repro.experiments import ScalingSeries, format_table, speedup, write_benchmark_json
from repro.generators import (
    directed_path_instance,
    grid_instance,
    labelled_partial_ktree_instance,
)
from repro.provenance.automaton_provenance import provenance
from repro.provenance.reference import (
    fact_order_from_path_decomposition_seed,
    fact_order_from_tree_decomposition_seed,
    provenance_seed,
    tree_encoding_seed,
)
from repro.provenance.tree_encoding import fused_tree_encoding
from repro.provenance.ucq_automaton import ucq_automaton
from repro.provenance.variable_orders import (
    fact_order_from_path_decomposition,
    fact_order_from_tree_decomposition,
)
from repro.queries import unsafe_rst
from repro.queries.parser import parse_ucq
from repro.structure.path_decomposition import path_decomposition
from repro.structure.reference import path_decomposition_seed
from repro.structure.tree_decomposition import tree_decomposition

LINE_SIZES = (150, 300, 600, 1200)
GRID_SIZES = (3, 4)
KTREE_SIZES = (12, 18, 24)
KTREE_WIDTH = 2
REPEATS = 3
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_structure.json"
MINIMUM_SPEEDUP = 3.0
# The path-order series stops at 600: the seed greedy order is quadratic in
# the vertex count (over 0.5 s per run at 600 already).
PATH_ORDER_LINE_SIZES = (150, 300, 600)
PATH_ORDER_KTREE_SIZES = (60, 120, 250)
PATH_ORDER_MINIMUM_SPEEDUP = 10.0

# The seed encoding builder recurses to the decomposition depth (the line
# family reaches ~1200); the fused path is iterative and needs none of this.
_RECURSION_HEADROOM = 10_000


def _cases():
    two_edges = parse_ucq("E(x,y), E(y,z)")
    families = []
    families.append(
        (
            "line",
            [(n, directed_path_instance(n), ucq_automaton(two_edges)) for n in LINE_SIZES],
        )
    )
    families.append(
        (
            "grid",
            [(n, grid_instance(n, n), ucq_automaton(two_edges)) for n in GRID_SIZES],
        )
    )
    families.append(
        (
            "ktree",
            [
                (n, labelled_partial_ktree_instance(n, KTREE_WIDTH, seed=n), ucq_automaton(unsafe_rst()))
                for n in KTREE_SIZES
            ],
        )
    )
    return families


def seed_path(instance, automaton):
    """Seed front-end: seed orderings → ordering-replay decomposition (with
    validation) → recursive encoding (with validation) → seed provenance."""
    encoding = tree_encoding_seed(instance)
    return provenance_seed(automaton, encoding)


def kernel_path(instance, automaton):
    """Fused front-end: one heap-driven elimination sweep straight to the
    encoding, then the dense-state provenance kernel."""
    encoding = fused_tree_encoding(instance)
    return provenance(automaton, encoding)


def _uniform_probability(instance, result):
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    valuation = {f: tid.probability_of(f) for f in result.dnnf.variables()}
    return result.dnnf.probability(valuation)


def _measure(series_pair, size, instance, automaton):
    seed_series, kernel_series = series_pair
    start = time.perf_counter()
    for _ in range(REPEATS):
        seed_result = seed_path(instance, automaton)
    seed_series.add(size, time.perf_counter() - start)
    start = time.perf_counter()
    for _ in range(REPEATS):
        kernel_result = kernel_path(instance, automaton)
    kernel_series.add(size, time.perf_counter() - start)
    # Exactness: the two front-ends must agree extensionally — same d-DNNF
    # probability and same model count over the full fact set (node ids and
    # fact attachment differ between the encodings, so per-node state
    # profiles are not directly comparable).
    assert _uniform_probability(instance, seed_result) == _uniform_probability(
        instance, kernel_result
    ), f"seed and kernel front-ends disagree at size {size}"
    assert seed_result.dnnf.model_count(instance.facts) == kernel_result.dnnf.model_count(
        instance.facts
    ), f"model counts differ at size {size}"


def seed_path_order(instance, graph, tree):
    """Seed path-order stages: full-rescan greedy order → bags → bag-scan
    validation, then the bag-scan path and tree fact placements."""
    path = path_decomposition_seed(graph)
    return (
        path,
        fact_order_from_path_decomposition_seed(instance, path),
        fact_order_from_tree_decomposition_seed(instance, tree),
    )


def kernel_path_order(instance, graph, tree):
    """Kernel path-order stages: lazy-heap greedy order → bags → interval
    validation, then the first-bag-index path and tree fact placements."""
    path = path_decomposition(graph)
    return (
        path,
        fact_order_from_path_decomposition(instance, path),
        fact_order_from_tree_decomposition(instance, tree),
    )


def _measure_path_order(series_pair, size, instance):
    seed_series, kernel_series = series_pair
    graph = gaifman_graph(instance)
    tree = tree_decomposition(graph)
    start = time.perf_counter()
    for _ in range(REPEATS):
        seed_path, *seed_orders = seed_path_order(instance, graph, tree)
    seed_series.add(size, time.perf_counter() - start)
    start = time.perf_counter()
    for _ in range(REPEATS):
        kernel_path, *kernel_orders = kernel_path_order(instance, graph, tree)
    kernel_series.add(size, time.perf_counter() - start)
    assert seed_path.bags == kernel_path.bags, f"path bags differ at size {size}"
    assert seed_orders == kernel_orders, f"fact orders differ at size {size}"


def run_path_order_benchmark():
    """The path-order series per family, and the gated largest-line speedup."""
    families = (
        ("line", [(n, directed_path_instance(n)) for n in PATH_ORDER_LINE_SIZES]),
        (
            "ktree",
            [
                (n, labelled_partial_ktree_instance(n, KTREE_WIDTH, seed=n))
                for n in PATH_ORDER_KTREE_SIZES
            ],
        ),
    )
    series = {}
    for family, cases in families:
        seed_series = ScalingSeries(f"{family}: seed path order (s)")
        kernel_series = ScalingSeries(f"{family}: kernel path order (s)")
        for size, instance in cases:
            _measure_path_order((seed_series, kernel_series), size, instance)
        series[family] = (seed_series, kernel_series)
    seed_line, kernel_line = series["line"]
    gated = seed_line.values[-1] / kernel_line.values[-1]
    return series, gated


def run_benchmark():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _RECURSION_HEADROOM))
    series = {}
    try:
        for family, cases in _cases():
            seed_series = ScalingSeries(f"{family}: seed front-end (s)")
            kernel_series = ScalingSeries(f"{family}: fused front-end (s)")
            for size, instance, automaton in cases:
                _measure((seed_series, kernel_series), size, instance, automaton)
            series[family] = (seed_series, kernel_series)
    finally:
        sys.setrecursionlimit(limit)
    family_speedups = {
        family: speedup(seed_series, kernel_series)
        for family, (seed_series, kernel_series) in series.items()
    }
    total_seed = sum(sum(s.values) for s, _ in series.values())
    total_kernel = sum(sum(k.values) for _, k in series.values())
    ratio = total_seed / total_kernel if total_kernel else float("inf")
    # The gate runs on the largest family (line): the seed path degrades
    # quadratically there, so the margin only grows with size.
    gated = family_speedups["line"]
    path_series, path_gated = run_path_order_benchmark()
    write_benchmark_json(
        RESULT_FILE,
        "Fused decomposition→encoding→provenance front-end vs the seed construction",
        [s for pair in (*series.values(), *path_series.values()) for s in pair],
        extra={
            "families": {
                "line": f"directed paths, E(x,y),E(y,z), sizes {list(LINE_SIZES)}",
                "grid": f"n x n grids, E(x,y),E(y,z), n in {list(GRID_SIZES)}",
                "ktree": f"labelled partial k-trees, width {KTREE_WIDTH}, unsafe RST, sizes {list(KTREE_SIZES)}",
            },
            "repeats_per_instance": REPEATS,
            "end_to_end": "instance -> ordering -> decomposition -> tree encoding -> provenance d-DNNF + circuit",
            "speedup": ratio,
            "speedup_by_family": family_speedups,
            "gated_family": "line",
            "gated_speedup": gated,
            "minimum_required_speedup": MINIMUM_SPEEDUP,
            "path_order": {
                "families": {
                    "line": f"directed paths, sizes {list(PATH_ORDER_LINE_SIZES)}",
                    "ktree": (
                        f"labelled partial k-trees, width {KTREE_WIDTH}, "
                        f"sizes {list(PATH_ORDER_KTREE_SIZES)}"
                    ),
                },
                "stages": "greedy path order -> bags -> validation -> path and tree fact placements",
                "speedup_by_family": {
                    family: speedup(seed_series, kernel_series)
                    for family, (seed_series, kernel_series) in path_series.items()
                },
                "gated_size": f"line {PATH_ORDER_LINE_SIZES[-1]}",
                "gated_speedup": path_gated,
                "minimum_required_speedup": PATH_ORDER_MINIMUM_SPEEDUP,
            },
        },
    )
    return series, family_speedups, ratio, path_series, path_gated


def _failures(family_speedups, path_gated):
    failures = []
    if family_speedups["line"] < MINIMUM_SPEEDUP:
        failures.append(
            f"fused front-end only {family_speedups['line']:.2f}x faster than the seed path "
            f"on the line family; expected >= {MINIMUM_SPEEDUP}x"
        )
    if path_gated < PATH_ORDER_MINIMUM_SPEEDUP:
        failures.append(
            f"path order only {path_gated:.2f}x faster than the seed stages at line "
            f"{PATH_ORDER_LINE_SIZES[-1]}; expected >= {PATH_ORDER_MINIMUM_SPEEDUP}x"
        )
    return failures


def _print_series(series, labels):
    for family, (seed_series, kernel_series) in series.items():
        rows = [
            (int(n), round(s, 5), round(k, 5))
            for n, s, k in zip(seed_series.sizes, seed_series.values, kernel_series.values)
        ]
        print()
        print(format_table([f"{family} n", *labels], rows))
        print(f"{family} speedup: {speedup(seed_series, kernel_series):.1f}x")


def report(series, ratio, path_series, path_gated):
    _print_series(series, ("seed front-end (s)", "fused front-end (s)"))
    print(f"total speedup: {ratio:.1f}x")
    _print_series(path_series, ("seed path order (s)", "kernel path order (s)"))
    print(
        f"path order at line {PATH_ORDER_LINE_SIZES[-1]}: {path_gated:.1f}x "
        f"(results in {RESULT_FILE.name})"
    )


def test_structure_front_end_speedup(benchmark):
    series, family_speedups, ratio, path_series, path_gated = run_benchmark()
    automaton = ucq_automaton(parse_ucq("E(x,y), E(y,z)"))
    instance = directed_path_instance(LINE_SIZES[-1])
    benchmark(kernel_path, instance, automaton)
    report(series, ratio, path_series, path_gated)
    failures = _failures(family_speedups, path_gated)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    series, family_speedups, ratio, path_series, path_gated = run_benchmark()
    report(series, ratio, path_series, path_gated)
    failures = _failures(family_speedups, path_gated)
    if failures:
        raise SystemExit("; ".join(failures))