"""RESILIENCE — checkpoint overhead of budget-guarded evaluation.

The resilience layer threads a :class:`~repro.resilience.ResourceBudget`
through compilation and evaluation: every unique-table insert charges the
node cap, every lifted-plan row charges the row cap, and the long kernel
loops poll the deadline at coarse checkpoints.  That bookkeeping must be
close to free — a budget generous enough to never fire should cost almost
nothing over the unguarded path, or nobody will run with guards on.

The workload is ``CompilationEngine.probability`` with ``method="auto"`` on
two instance families that exercise both charge sites: ``line`` (RST chains
— linear OBDD compilations, node charges) and ``ktree`` (labelled partial
k-trees, width 2 — denser circuit routes plus the lifted route for the
hierarchical query, row charges).  Every evaluation runs on a fresh engine
so nothing is answered from cache, and the guarded side gets caps orders of
magnitude above what the workload needs — only the accounting itself is
measured, never a blowout.  Both sides must return identical exact
probabilities before timing starts.

Wall-clock noise on this container is far larger than the few-percent
signal, so the measurement is paired and minimized at *case* granularity:
each (query, instance) case is timed unbudgeted and budgeted back to back,
repeated ``REPETITIONS`` times with the order alternating, and each side
keeps its per-case minimum (the standard low-noise estimator — interference
only ever adds time).  The gate compares the sums of those per-case minima:
``sum(budgeted) / sum(unbudgeted) - 1 <= MAX_OVERHEAD`` (5%).  On a run too
fast to resolve a 5% difference the gate is waived and the JSON records the
``gate_skip_reason`` (never a silently-unenforced run).  Totals and the
per-size trajectory per family go to ``BENCH_resilience.json``.
"""

import gc
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.experiments import (
    ScalingSeries,
    format_table,
    write_benchmark_json,
)
from repro.generators import labelled_partial_ktree_instance
from repro.generators.lines import rst_chain_instance
from repro.queries import hierarchical_example, unsafe_rst
from repro.resilience import ResourceBudget

# With the exact sweeps in scaled integers, line 120 and 240 and the ktrees
# alone sum to ~0.04 s unguarded, under MIN_MEASURABLE_SECONDS, which would
# waive the 5% gate.  Line 480 alone brought the sum to only 0.055-0.072 s
# on a 2-CPU VM; with line 960 it was ~0.12 s, twice the floor.  Linear-time
# lineage took the sizes up to 960 down to ~0.04 s again; lines 1920, 3840
# and 7680 bring the sum back above twice the floor.
LINE_SIZES = (120, 240, 480, 960, 1920, 3840, 7680)
KTREE_SIZES = (90, 150)
WIDTH = 2
# Timed repetitions per case per side; each side keeps its min.  With the
# structural front-end linear, a min over 11 runs still let one shared-VM
# slow burst push a run past 5% about one time in five; 31 keeps the same
# 5% gate.
REPETITIONS = 31
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"
MAX_OVERHEAD = 0.05
# Below this many seconds summed across the unguarded case minima, timer
# noise swamps a 5% signal and the gate is waived rather than flaking.
MIN_MEASURABLE_SECONDS = 0.05

# Caps orders of magnitude above what the workload allocates: the guarded
# side pays for the accounting, never for a blowout or a retry.
GENEROUS_NODE_LIMIT = 10**12
GENEROUS_ROW_LIMIT = 10**12
GENEROUS_TIMEOUT = 3600.0


def build_cases():
    """(family, n, query, tid) per case; instances built outside timing."""
    cases = []
    for n in LINE_SIZES:
        tid = ProbabilisticInstance.uniform(rst_chain_instance(n), Fraction(1, 2))
        for query in (unsafe_rst(), hierarchical_example()):
            cases.append(("line", n, query, tid))
    for n in KTREE_SIZES:
        instance = labelled_partial_ktree_instance(n, WIDTH, seed=n)
        tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
        for query in (unsafe_rst(), hierarchical_example()):
            cases.append(("ktree", n, query, tid))
    return cases


def _generous_budget():
    return ResourceBudget(
        node_limit=GENEROUS_NODE_LIMIT,
        row_limit=GENEROUS_ROW_LIMIT,
        timeout=GENEROUS_TIMEOUT,
    )


@contextmanager
def _gc_paused():
    """Pause the cyclic collector around timed windows: a collection landing
    in one side's window but not its partner's would dwarf the signal."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _time_once(query, tid, budgeted: bool) -> float:
    """One evaluation on a fresh engine (never answered from a value cache)."""
    engine = CompilationEngine()
    budget = _generous_budget() if budgeted else None
    start = time.perf_counter()
    engine.probability(query, tid, budget=budget)
    return time.perf_counter() - start


def _time_case(query, tid, repetitions: int):
    """(min unbudgeted seconds, min budgeted seconds) for one case.

    The two sides run back to back inside each repetition, with the order
    alternating, so machine-wide drift hits both sides alike; the per-side
    minimum then discards whatever interference remains.
    """
    best = {False: float("inf"), True: float("inf")}
    for repetition in range(repetitions):
        order = (False, True) if repetition % 2 == 0 else (True, False)
        for budgeted in order:
            elapsed = _time_once(query, tid, budgeted)
            if elapsed < best[budgeted]:
                best[budgeted] = elapsed
    return best[False], best[True]


def _check_agreement(cases):
    """A never-firing budget must not change a single answer."""
    plain = CompilationEngine()
    guarded = CompilationEngine()
    for _, _, query, tid in cases:
        reference = plain.probability(query, tid)
        value = guarded.probability(query, tid, budget=_generous_budget())
        assert value == reference, (
            f"budget-guarded evaluation diverged: {value} vs {reference}"
        )


def run_benchmark(repetitions: int = REPETITIONS):
    cases = build_cases()
    _check_agreement(cases)

    with _gc_paused():
        # Warm both paths over the full workload outside the measured
        # windows: route statistics and interned structure caches are
        # process-wide, and the minima must land on fully-warmed runs.
        for _, _, query, tid in cases:
            _time_once(query, tid, budgeted=False)
            _time_once(query, tid, budgeted=True)

        timings = [
            (family, n, *_time_case(query, tid, repetitions))
            for family, n, query, tid in cases
        ]

    unbudgeted_time = sum(plain for _, _, plain, _ in timings)
    budgeted_time = sum(guarded for _, _, _, guarded in timings)
    overhead = (
        budgeted_time / unbudgeted_time - 1.0 if unbudgeted_time > 0 else 0.0
    )

    series = []
    for family, sizes in (("line", LINE_SIZES), ("ktree", KTREE_SIZES)):
        plain_series = ScalingSeries(f"{family} unbudgeted (s)")
        guarded_series = ScalingSeries(f"{family} budgeted (s)")
        for n in sizes:
            group = [t for t in timings if t[0] == family and t[1] == n]
            plain_series.add(n, sum(plain for _, _, plain, _ in group))
            guarded_series.add(n, sum(guarded for _, _, _, guarded in group))
        series.extend((plain_series, guarded_series))

    gate_enforced = unbudgeted_time >= MIN_MEASURABLE_SECONDS
    gate_skip_reason = (
        None
        if gate_enforced
        else (
            f"unbudgeted case minima sum to {unbudgeted_time:.4f}s "
            f"(< {MIN_MEASURABLE_SECONDS}s): timer noise swamps a "
            f"{MAX_OVERHEAD:.0%} signal at this scale"
        )
    )
    write_benchmark_json(
        RESULT_FILE,
        "Checkpoint overhead of budget-guarded evaluation",
        series,
        extra={
            "families": {
                "line": f"RST chains, n in {list(LINE_SIZES)}",
                "ktree": f"labelled partial k-trees, width {WIDTH}, n in {list(KTREE_SIZES)}",
            },
            "cases": len(cases),
            "repetitions_per_case": repetitions,
            "budget": {
                "node_limit": GENEROUS_NODE_LIMIT,
                "row_limit": GENEROUS_ROW_LIMIT,
                "timeout_seconds": GENEROUS_TIMEOUT,
            },
            "unbudgeted_seconds": unbudgeted_time,
            "budgeted_seconds": budgeted_time,
            "checkpoint_overhead": overhead,
            "max_allowed_overhead": MAX_OVERHEAD,
            "overhead_gate_enforced": gate_enforced,
            "gate_skip_reason": gate_skip_reason,
        },
    )
    return unbudgeted_time, budgeted_time, overhead, gate_enforced, gate_skip_reason


def report(unbudgeted_time, budgeted_time, overhead):
    rows = [
        ("unbudgeted", round(unbudgeted_time, 4)),
        ("budgeted", round(budgeted_time, 4)),
    ]
    print()
    print(format_table(["pass", "time (s)"], rows))
    print(
        f"checkpoint overhead: {overhead:+.2%} "
        f"(limit {MAX_OVERHEAD:.0%}, results in {RESULT_FILE.name})"
    )


def test_checkpoint_overhead(benchmark):
    unbudgeted_time, budgeted_time, overhead, gate_enforced, skip_reason = run_benchmark()
    _, _, query, tid = build_cases()[0]
    benchmark(_time_once, query, tid, True)
    report(unbudgeted_time, budgeted_time, overhead)
    if gate_enforced:
        assert overhead <= MAX_OVERHEAD, (
            f"budget checkpoints cost {overhead:+.2%} over the unguarded path; "
            f"expected <= {MAX_OVERHEAD:.0%}"
        )
    else:
        print(f"overhead gate waived: {skip_reason}")


if __name__ == "__main__":
    unbudgeted_time, budgeted_time, overhead, gate_enforced, skip_reason = run_benchmark()
    report(unbudgeted_time, budgeted_time, overhead)
    if not gate_enforced:
        print(f"overhead gate waived: {skip_reason}")
    elif overhead > MAX_OVERHEAD:
        raise SystemExit(
            f"REGRESSION: budget checkpoint overhead {overhead:+.2%} > {MAX_OVERHEAD:.0%}"
        )
