"""End-to-end query-evaluation benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of ``cold``, ``warm``, ``restart``, ``lifted``, ``parallel``,
or ``all`` (every workload, each in a fresh interpreter).  Each workload is a
closed loop with one client.  ``--trace 0`` measures untraced and reports the
end-to-end metrics, scaled to a reference host speed by a probe taken
between request cycles; ``--trace 1`` alternates untraced and traced cycles
in the same process and reports the per-layer metrics (see ``README.md``).
Every answer is checked as an exact ``Fraction``; a wrong one makes the run
exit 1.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("cold", "warm", "restart", "lifted", "parallel")
SETUP_REPEATS = 3
# p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100
MIN_TRACE_REQUESTS = 20
# A loop that cannot reach its minimum sample count stops after this long.
MAX_PHASE_SECONDS = 60.0
# End-to-end times are scaled to a host on which cpu_probe() takes this long
# (see README.md, "Host-speed scaling").
PROBE_REFERENCE_S = 0.001

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Inclusive span time per request, by layer.
LAYER_MS = {
    "data.load_ms": "data.load",
    "data.instance_build_ms": "data.instance_build",
    "data.tid_build_ms": "data.tid_build",
    "data.fingerprint_ms": "data.fingerprint",
    "data.gaifman_ms": "data.gaifman",
    "structure.elimination_sweep_ms": "structure.elimination_sweep",
    "structure.tree_decomposition_ms": "structure.tree_decomposition",
    "structure.path_decomposition_ms": "structure.path_decomposition",
    "provenance.fact_order_ms": "provenance.fact_order",
    "provenance.lineage_ms": "provenance.lineage",
    "provenance.obdd_build_ms": "provenance.obdd_build",
    "booleans.flatten_ms": "booleans.flatten",
    "booleans.rehydrate_ms": "booleans.rehydrate",
    "booleans.sweep_ms": "booleans.sweep",
    "probability.read_once_ms": "probability.read_once",
    "lifted.plan_ms": "lifted.plan",
    "lifted.execute_ms": "lifted.execute",
    "engine.request_ms": "engine.request",
    "engine.route_ms": "engine.route",
    "store.get_ms": "store.get",
    "store.put_ms": "store.put",
    "parallel.batch_ms": "parallel.batch",
    "shm.publish_ms": "shm.publish",
}
ROUTES = ("safe_plan", "obdd", "columnar", "dnnf", "automaton")
HIT_RATE_CACHES = ("structure", "lineage", "obdd", "lifted_plan", "probability")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans to this JSON-lines file")
    return parser.parse_args(argv)


def percentile(values: list[float], fraction: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Phase:
    """Latencies and outcomes of one measured loop."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.cycles: list[int] = []  # len(latencies) at the end of each cycle
        self.probes: list[float] = []  # cpu_probe() before the first cycle and after each
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies, 0.5) * 1000


def is_exact(answer: object, expected: object) -> bool:
    if isinstance(expected, list):
        return (
            isinstance(answer, list)
            and len(answer) == len(expected)
            and all(is_exact(a, e) for a, e in zip(answer, expected))
        )
    return type(answer) is Fraction and expected is not None and answer == expected


def run_request(workload, index: int, phase: Phase, tracer=None, counts=None) -> None:
    """Build request ``index`` (untimed), time its call, then check the answer
    and, when traced, gather its counters (both untimed)."""
    from repro.errors import ReproError

    request = workload.request(index)
    phase.attempted += 1
    if tracer is not None:
        tracer.request = index
        tracer.active = True
    try:
        t0 = time.perf_counter()
        answer = request.call()
        t1 = time.perf_counter()
    except ReproError as error:
        phase.failed += 1
        print(f"request {index} ({request.kind}) failed: {error!r}", file=sys.stderr)
        return
    finally:
        if tracer is not None:
            tracer.active = False
    phase.latencies.append(t1 - t0)
    phase.kinds.append(request.kind)
    if not is_exact(answer, request.expected()):
        phase.wrong.append(f"request {index} ({request.kind}): got {answer!r}")
    if counts is not None:
        counts.requests += 1
        workload.observe(counts)
        counts.obdd_sizes.extend(artifact.size for artifact in tracer.swept)
        tracer.swept.clear()


def measure(workload, seconds: float) -> Phase:
    """Closed loop over whole request cycles, so every kind in the workload's
    mix is sampled equally: the next request is built only after the
    previous answer."""
    phase = Phase()
    phase.probes.append(cpu_probe())
    began = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - began
        if elapsed >= MAX_PHASE_SECONDS or (
            elapsed >= seconds and len(phase.latencies) >= MIN_REQUESTS
        ):
            return phase
        for offset in range(len(workload.cycle)):
            run_request(workload, index + offset, phase)
        index += len(workload.cycle)
        phase.cycles.append(len(phase.latencies))
        phase.probes.append(cpu_probe())


def cpu_probe() -> float:
    """The host's speed at this moment: seconds for a fixed pure-Python task
    of the kind the library does (dicts of tuples, a sort, ``Fraction``
    sums), median of three runs of about 1 ms each on a quiet 2-vCPU VM."""
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        for value in range(1500):
            table[("k", value, str(value))] = [value, (value, value + 1)]
        sorted(table, key=lambda key: key[2])
        total = Fraction(0)
        for value in range(1, 150):
            total += Fraction(value, 997)
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def scaled_cycles(phase: Phase) -> list[list[float]]:
    """Each cycle's latencies scaled by ``PROBE_REFERENCE_S`` over the mean of
    the probes taken just before and just after that cycle."""
    cycles = []
    start = 0
    for number, end in enumerate(phase.cycles):
        probe = (phase.probes[number] + phase.probes[number + 1]) / 2
        cycles.append([l * PROBE_REFERENCE_S / probe for l in phase.latencies[start:end]])
        start = end
    return [cycle for cycle in cycles if cycle]


def end_to_end(cycles: list[list[float]], setup_s: float) -> dict[str, float]:
    """``throughput_rps`` is per request cycle, median over cycles: the mean
    cost of the mix, robust to a few seconds of contention in one part of the
    run."""
    latencies = [latency for cycle in cycles for latency in cycle]
    return {
        "latency_p50_ms": percentile(latencies, 0.5) * 1000,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000,
        "throughput_rps": statistics.median(len(cycle) / sum(cycle) for cycle in cycles),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, counts, untraced: Phase, traced: Phase, inline=None) -> dict[str, tuple[float, str]]:
    requests = max(counts.requests, 1)
    totals = tracer.totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name, layer in LAYER_MS.items():
        metrics[name] = (totals.get(layer, 0.0) * 1000 / requests, "ms")
    metrics["engine.self_ms"] = (tracer.self_seconds("engine.request") * 1000 / requests, "ms")
    sizes = counts.obdd_sizes
    metrics["booleans.obdd_nodes"] = (sum(sizes) / len(sizes) if sizes else 0.0, "count")
    metrics["lifted.rows"] = (counts.rows / requests, "count")
    for route in ROUTES:
        metrics[f"engine.routes.{route}"] = (float(counts.routes.get(route, 0)), "count")
    metrics["engine.failovers"] = (float(counts.failovers), "count")
    for cache in HIT_RATE_CACHES:
        metrics[f"engine.hit_rate.{cache}"] = (counts.hit_rate(cache), "ratio")
    metrics["store.hit_rate"] = (counts.hit_rate("store"), "ratio")
    metrics["store.bytes_per_put"] = (
        counts.store_bytes_grown / counts.store_writes if counts.store_writes else 0.0,
        "B",
    )
    metrics["store.quarantines"] = (float(counts.cache.get("store", [0, 0, 0])[2]), "count")
    batch_ms = metrics["parallel.batch_ms"][0]
    inline_ms = 0.0
    if inline is not None:
        inline_tracer, inline_counts = inline
        inline_ms = (
            inline_tracer.totals().get("parallel.batch", 0.0)
            * 1000
            / max(inline_counts.requests, 1)
        )
    metrics["parallel.inline_batch_ms"] = (inline_ms, "ms")
    metrics["parallel.speedup_vs_inline"] = (
        inline_ms / batch_ms if inline_ms and batch_ms else 0.0,
        "ratio",
    )
    shards = counts.shards
    metrics["parallel.shards"] = (sum(shards) / len(shards) if shards else 0.0, "count")
    metrics["parallel.worker_hit_rate"] = (
        counts.worker_hits / counts.worker_lookups if counts.worker_lookups else 0.0,
        "ratio",
    )
    root = "engine.request" if "engine.request" in totals else "parallel.batch"
    roots = [s for s in tracer.spans if s.layer == root]
    covered = sum(s.child_seconds for s in roots)
    spanned = sum(s.end - s.start for s in roots)
    metrics["trace.coverage"] = (covered / spanned if spanned else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (traced.p50_ms / untraced.p50_ms - 1, "ratio")
    return metrics


def machine_context(probes: list[float]) -> dict[str, object]:
    from repro.booleans.columnar import array_backend

    numpy = array_backend()
    probe_ms = sorted(p * 1000 for p in probes)
    return {
        "cpu_probe_ms": {
            "min": probe_ms[0],
            "median": statistics.median(probe_ms),
            "max": probe_ms[-1],
        } if probe_ms else None,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "columnar_backend": "numpy" if numpy is not None else "array",
        "store_flush_policy": "fsync per commit: temp file, rename, directory",
        "platform": platform.platform(),
    }


def run_workload(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Import phase: the program, numpy (otherwise paid by the first columnar
    # flatten) and the modules the routes import lazily.
    import repro  # noqa: F401
    import repro.booleans.columnar  # noqa: F401
    import repro.probability.evaluation  # noqa: F401
    import repro.provenance.ucq_automaton  # noqa: F401
    import workloads

    repro.booleans.columnar.array_backend()
    import_s = time.perf_counter() - STARTED
    setup_probes = [cpu_probe()]

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workload = None
    notes: list[str] = []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_probes.append(cpu_probe())
        workload.prepare_references()
        if args.trace:
            phases, metrics = traced_run(workload, args)
        else:
            phases = [measure(workload, args.seconds)]
            # Import time is scaled by the probe right after it; each set-up
            # by the mean of the probes around it.
            scale = [PROBE_REFERENCE_S / p for p in setup_probes]
            scaled_setups = [
                t * (scale[i] + scale[i + 1]) / 2 for i, t in enumerate(setup_times)
            ]
            setup_s = import_s * scale[0] + statistics.median(scaled_setups)
            unscaled = end_to_end([phases[0].latencies], import_s + statistics.median(setup_times))
            notes = [
                f"  unscaled {name:25s} {unscaled[name]:14.4f} {END_TO_END_UNITS[name]}"
                for name in ("latency_p50_ms", "latency_p90_ms", "throughput_rps", "setup_s")
            ]
            metrics = {
                name: (value, END_TO_END_UNITS[name])
                for name, value in end_to_end(scaled_cycles(phases[0]), setup_s).items()
            }
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = [w for p in phases for w in p.wrong]
    for line in wrong[:10]:
        print(f"WRONG ANSWER {line}", file=sys.stderr)
    context = machine_context(setup_probes + [p for phase in phases for p in phase.probes])
    print(f"context {json.dumps(context, sort_keys=True)}")
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace}"
        f" samples={sum(len(p.latencies) for p in phases)}"
        f" failure_rate={failed / attempted:.4f} wrong={len(wrong)}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    for line in notes:
        print(line)
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(phases[0].kinds, phases[0].latencies):
        by_kind.setdefault(kind, []).append(latency)
    for kind, latencies in by_kind.items():
        print(f"  request {kind:26s} n={len(latencies):4d} p50={percentile(latencies, 0.5) * 1000:9.3f} ms unscaled")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if wrong else 0


def traced_run(workload, args: argparse.Namespace):
    """Per-layer metrics from traced requests.  Whole request cycles alternate
    untraced and traced, so ``trace.overhead_frac`` compares like with like
    under the same drift.  On ``parallel`` a last third of the time runs the
    same batches on an inline ``ParallelEngine(workers=1)``, traced."""
    from tracing import Instrumentation, LayerCounts, Tracer

    inline_share = args.seconds / 3 if args.workload == "parallel" else 0.0

    def traced_block(index: int, phase: Phase, tracer: Tracer, counts: LayerCounts) -> None:
        workload.budgeted = True
        with Instrumentation(tracer):
            for offset in range(len(workload.cycle)):
                run_request(workload, index + offset, phase, tracer, counts)
        workload.budgeted = False

    untraced, traced = Phase(), Phase()
    tracer, counts = Tracer(), LayerCounts()
    began = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - began
        if elapsed >= MAX_PHASE_SECONDS or (
            elapsed >= args.seconds - inline_share
            and len(traced.latencies) >= MIN_TRACE_REQUESTS
        ):
            break
        for offset in range(len(workload.cycle)):
            run_request(workload, index + offset, untraced)
        index += len(workload.cycle)
        traced_block(index, traced, tracer, counts)
        index += len(workload.cycle)
    phases = [untraced, traced]
    inline = None
    if inline_share:
        workload.start_inline()
        inline_phase, inline_tracer, inline_counts = Phase(), Tracer(), LayerCounts()
        began = time.perf_counter()
        while time.perf_counter() - began < inline_share:
            traced_block(index, inline_phase, inline_tracer, inline_counts)
            index += len(workload.cycle)
        phases.append(inline_phase)
        inline = (inline_tracer, inline_counts)
    if args.spans:
        tracer.write(args.spans)
    return phases, per_layer(tracer, counts, untraced, traced, inline)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter, so heaps and peak RSS are per workload."""
    combined: dict[str, object] = {}
    correct, attempted, failed, status = True, 0, 0, 0
    for name in NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(completed.stdout[: completed.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(completed.stderr)
        status = status or completed.returncode
        lines = completed.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            return completed.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
