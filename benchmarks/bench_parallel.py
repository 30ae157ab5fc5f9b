"""PARALLEL — sharded multi-process evaluation vs the single-process engine.

A probability workload over a family of labelled partial k-trees (treewidth
<= 2, ~100-150 facts each) is evaluated three ways: one
:class:`repro.engine.CompilationEngine` in-process (the baseline), and a
:class:`repro.engine.ParallelEngine` at 2 and 4 workers.  The speedup
trajectory is written to ``BENCH_parallel.json``.

The 4-worker run must beat the single-process baseline by at least
``MINIMUM_SPEEDUP`` (1.5x) — but only where the hardware can express it:
multiprocessing cannot beat one core on a one-core container, so the gate
is enforced when the scheduling affinity offers at least ``REQUIRED_CPUS``
CPUs (standard public GitHub runners qualify, so CI enforces it through
this same rule), or unconditionally when ``REQUIRE_PARALLEL_SPEEDUP=1`` is
set.  Either way the JSON records the measured trajectory and the CPU
budget it was measured under, so a regression is visible even where the
assertion is waived.
"""

import os
import time
from fractions import Fraction
from pathlib import Path

from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine, ParallelEngine, available_workers
from repro.experiments import (
    ScalingSeries,
    format_table,
    speedup_trajectory,
    write_benchmark_json,
)
from repro.generators import labelled_partial_ktree_instance
from repro.queries import hierarchical_example, qp, unsafe_rst

INSTANCE_SIZES = tuple(range(40, 64))  # 24 instances, ~95-145 facts each
WIDTH = 2
WORKER_COUNTS = (1, 2, 4)
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
MINIMUM_SPEEDUP = 1.5
REQUIRED_CPUS = 4


def build_workload():
    pairs = []
    for n in INSTANCE_SIZES:
        instance = labelled_partial_ktree_instance(n, WIDTH, seed=n)
        tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
        for query in (unsafe_rst(), hierarchical_example(), qp(instance.signature)):
            pairs.append((query, tid))
    return pairs


def _measure_baseline(pairs):
    """One cold single-process pass; returns (elapsed, values).

    The engine is released before returning: a live engine holds tens of
    thousands of GC-tracked OBDD nodes, and keeping them alive slows every
    later allocation-heavy measurement by 1.5-2x (full cyclic-GC passes
    rescan them).
    """
    start = time.perf_counter()
    engine = CompilationEngine()
    values = [engine.probability(query, tid) for query, tid in pairs]
    return time.perf_counter() - start, values


def _measure_parallel(pairs, workers, baseline_values):
    """One cold ParallelEngine pass; returns elapsed seconds."""
    with ParallelEngine(workers=workers) as parallel:
        start = time.perf_counter()
        report = parallel.map_probability(pairs)
        elapsed = time.perf_counter() - start
        assert list(report.values) == baseline_values, (
            f"parallel values diverged from the single-process engine at {workers} workers"
        )
    return elapsed


def run_benchmark(rounds: int = 2):
    pairs = build_workload()

    # Warm up imports, allocator, and the generator caches outside the
    # measured window (both paths evaluate the same warmup pairs cold-cache:
    # every engine below is fresh).
    warmup = CompilationEngine()
    for query, tid in pairs[:3]:
        warmup.probability(query, tid)
    del warmup

    # Interleave baseline and parallel passes and keep the per-configuration
    # minimum over the rounds: measuring the baseline only once (and first)
    # both flatters the parallel side (cold-start bias) and makes the CI
    # gate flaky on loaded shared runners.
    baseline_time = float("inf")
    baseline_values = None
    parallel_times = {workers: float("inf") for workers in WORKER_COUNTS}
    for _ in range(rounds):
        elapsed, values = _measure_baseline(pairs)
        baseline_time = min(baseline_time, elapsed)
        baseline_values = values
        for workers in WORKER_COUNTS:
            parallel_times[workers] = min(
                parallel_times[workers],
                _measure_parallel(pairs, workers, baseline_values),
            )

    trajectory = ScalingSeries("parallel time (s)")
    for workers in WORKER_COUNTS:
        trajectory.add(workers, parallel_times[workers])
    trajectory_speedups = speedup_trajectory(baseline_time, trajectory)
    speedups = {int(float(k)): v for k, v in trajectory_speedups.items()}

    cpus = available_workers()
    gate_enforced = cpus >= REQUIRED_CPUS or os.environ.get("REQUIRE_PARALLEL_SPEEDUP") == "1"
    # Why the gate was (or was not) waived, recorded in the JSON so a CI
    # artifact never shows a silently-unenforced run: either the reason the
    # assertion did not apply, or None when it did.
    gate_skip_reason = (
        None
        if gate_enforced
        else (
            f"only {cpus} CPU(s) in the scheduling affinity; {REQUIRED_CPUS} needed "
            f"for a meaningful multi-process measurement "
            f"(set REQUIRE_PARALLEL_SPEEDUP=1 to force the gate)"
        )
    )
    write_benchmark_json(
        RESULT_FILE,
        "Sharded parallel evaluation vs single-process engine",
        [trajectory],
        extra={
            "family": f"labelled partial k-trees, width {WIDTH}, n in {list(INSTANCE_SIZES)}",
            "workload_items": len(pairs),
            "measurement_rounds": rounds,
            "baseline_single_process_seconds": baseline_time,
            "speedup_by_workers": trajectory_speedups,
            "available_cpus": cpus,
            "minimum_required_speedup_at_4_workers": MINIMUM_SPEEDUP,
            "speedup_gate_enforced": gate_enforced,
            "gate_skip_reason": gate_skip_reason,
        },
    )
    return baseline_time, trajectory, speedups, gate_enforced, gate_skip_reason, len(pairs)


def report(baseline_time, trajectory, speedups, item_count):
    rows = [
        (int(w), round(t, 3), round(speedups[int(w)], 2))
        for w, t in zip(trajectory.sizes, trajectory.values)
    ]
    print()
    print(f"single-process baseline: {baseline_time:.3f}s over {item_count} items")
    print(format_table(["workers", "time (s)", "speedup"], rows))
    print(f"(available CPUs: {available_workers()}; results in {RESULT_FILE.name})")


def test_parallel_speedup(benchmark):
    baseline_time, trajectory, speedups, gate_enforced, skip_reason, item_count = run_benchmark()
    pairs = build_workload()[:6]
    with ParallelEngine(workers=2) as parallel:
        benchmark(parallel.map_probability, pairs)
    report(baseline_time, trajectory, speedups, item_count)
    if gate_enforced:
        assert speedups[4] >= MINIMUM_SPEEDUP, (
            f"4-worker ParallelEngine only {speedups[4]:.2f}x over the single-process "
            f"engine; expected >= {MINIMUM_SPEEDUP}x"
        )
    else:
        print(f"speedup gate waived: {skip_reason}")


if __name__ == "__main__":
    baseline_time, trajectory, speedups, gate_enforced, skip_reason, item_count = run_benchmark()
    report(baseline_time, trajectory, speedups, item_count)
    if not gate_enforced:
        print(f"speedup gate waived: {skip_reason}")
    elif speedups[4] < MINIMUM_SPEEDUP:
        raise SystemExit(
            f"REGRESSION: 4-worker speedup {speedups[4]:.2f}x < {MINIMUM_SPEEDUP}x"
        )
