"""VECTOR — the columnar batch float kernel vs a per-map object float loop.

A family of compiled OBDDs (labelled partial k-trees, treewidth <= 2, three
query shapes per instance) is re-weighted under a batch of fresh probability
assignments — the workload :meth:`repro.engine.parallel.ParallelEngine.
reweight_many` runs per worker.  The baseline answers it as one float pass
per assignment over the object node table
(:func:`repro.booleans.reference.probability_float_walk` — a Python loop per
node per assignment, the object manager's former float kernel); the OBDD
evaluation kernel answers it as *one* matrix dynamic program over a
``(nodes, assignments)`` value plane
(:meth:`repro.booleans.columnar.ColumnarOBDD.probability_many` — one fused
numpy gather per level for the whole batch).  Compilation and the columnar
flattening happen outside the measured windows; this benchmark isolates
exactly the sweep throughput (sweeps per second, single core).

The columnar side must beat the baseline by at least ``MINIMUM_SPEEDUP``
(2x).  The gate needs numpy: without it the batch runs one scalar pass per
map, the same per-node loop as the baseline, so the gate is waived and the
JSON records the ``gate_skip_reason`` (never a silently-unenforced run).
Both measurements and the per-size trajectory go to ``BENCH_vector.json``.
"""

import time
from fractions import Fraction
from pathlib import Path

from repro.booleans.columnar import array_backend
from repro.booleans.reference import probability_float_walk
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.experiments import (
    ScalingSeries,
    format_table,
    write_benchmark_json,
)
from repro.generators import labelled_partial_ktree_instance
from repro.queries import hierarchical_example, qp, unsafe_rst

INSTANCE_SIZES = (60, 90, 120)
WIDTH = 2
SWEEPS_PER_ARTIFACT = 64  # fresh probability assignments per artifact batch
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_vector.json"
MINIMUM_SPEEDUP = 2.0


def build_artifacts():
    """(compiled, columnar, probability maps) per case, built outside timing."""
    engine = CompilationEngine()
    cases = []
    for n in INSTANCE_SIZES:
        instance = labelled_partial_ktree_instance(n, WIDTH, seed=n)
        tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
        for query in (unsafe_rst(), hierarchical_example(), qp(instance.signature)):
            compiled = engine.compile(query, instance)
            if compiled.size == 0:
                continue
            columnar = compiled.to_columnar()
            maps = [
                {
                    fact: (index + offset + 1) / (2.0 * (index + offset + 2))
                    for index, fact in enumerate(compiled.order)
                }
                for offset in range(SWEEPS_PER_ARTIFACT)
            ]
            cases.append((n, compiled, columnar, maps))
    return cases


def _measure_object(cases):
    start = time.perf_counter()
    for _, compiled, _, maps in cases:
        manager, root = compiled.manager, compiled.root
        for weights in maps:
            probability_float_walk(manager, root, weights)
    return time.perf_counter() - start


def _measure_columnar(cases):
    start = time.perf_counter()
    for _, _, columnar, maps in cases:
        columnar.probability_many(maps, exact=False)
    return time.perf_counter() - start


def _check_agreement(cases):
    """The two float kernels must agree to float tolerance before timing."""
    for _, compiled, columnar, maps in cases:
        batch = columnar.probability_many(maps[:4], exact=False)
        for weights, value in zip(maps[:4], batch):
            reference = probability_float_walk(compiled.manager, compiled.root, weights)
            assert abs(value - reference) < 1e-9, (
                f"columnar batch sweep diverged: {value} vs {reference}"
            )


def run_benchmark(rounds: int = 3):
    cases = build_artifacts()
    _check_agreement(cases)

    # Warm both paths once outside the measured windows.
    _measure_object(cases[:1])
    _measure_columnar(cases[:1])

    object_time = float("inf")
    columnar_time = float("inf")
    for _ in range(rounds):
        object_time = min(object_time, _measure_object(cases))
        columnar_time = min(columnar_time, _measure_columnar(cases))

    sweeps = sum(len(maps) for _, _, _, maps in cases)
    total_nodes = sum(compiled.size for _, compiled, _, _ in cases)
    speedup = object_time / columnar_time if columnar_time > 0 else float("inf")

    per_size_object = ScalingSeries("per-map object float loop (s)")
    per_size_columnar = ScalingSeries("columnar batch float sweep (s)")
    for n in INSTANCE_SIZES:
        group = [case for case in cases if case[0] == n]
        per_size_object.add(n, min(_measure_object(group) for _ in range(rounds)))
        per_size_columnar.add(n, min(_measure_columnar(group) for _ in range(rounds)))

    numpy_available = array_backend() is not None
    gate_enforced = numpy_available
    gate_skip_reason = (
        None
        if gate_enforced
        else (
            "numpy not available (or REPRO_NO_NUMPY=1): the batch then runs "
            "one scalar pass per map, the same per-node loop as the baseline, "
            "so there is no vectorized speedup to gate"
        )
    )
    write_benchmark_json(
        RESULT_FILE,
        "Columnar batch float sweeps vs a per-map object float loop",
        [per_size_object, per_size_columnar],
        extra={
            "family": f"labelled partial k-trees, width {WIDTH}, n in {list(INSTANCE_SIZES)}",
            "artifacts": len(cases),
            "total_nodes": total_nodes,
            "sweeps_per_round": sweeps,
            "measurement_rounds": rounds,
            "object_sweep_seconds": object_time,
            "columnar_sweep_seconds": columnar_time,
            "columnar_speedup": speedup,
            "numpy_available": numpy_available,
            "minimum_required_speedup": MINIMUM_SPEEDUP,
            "speedup_gate_enforced": gate_enforced,
            "gate_skip_reason": gate_skip_reason,
        },
    )
    return object_time, columnar_time, speedup, gate_enforced, gate_skip_reason, sweeps


def report(object_time, columnar_time, speedup, sweeps):
    rows = [
        ("object", round(object_time, 4)),
        ("columnar", round(columnar_time, 4)),
    ]
    print()
    print(f"{sweeps} float sweeps per round")
    print(format_table(["kernel", "time (s)"], rows))
    print(f"columnar speedup: {speedup:.2f}x (results in {RESULT_FILE.name})")


def test_vectorized_sweep_speedup(benchmark):
    object_time, columnar_time, speedup, gate_enforced, skip_reason, sweeps = run_benchmark()
    cases = build_artifacts()[:1]
    benchmark(_measure_columnar, cases)
    report(object_time, columnar_time, speedup, sweeps)
    if gate_enforced:
        assert speedup >= MINIMUM_SPEEDUP, (
            f"columnar batch sweep only {speedup:.2f}x over the per-map loop; "
            f"expected >= {MINIMUM_SPEEDUP}x"
        )
    else:
        print(f"speedup gate waived: {skip_reason}")


if __name__ == "__main__":
    object_time, columnar_time, speedup, gate_enforced, skip_reason, sweeps = run_benchmark()
    report(object_time, columnar_time, speedup, sweeps)
    if not gate_enforced:
        print(f"speedup gate waived: {skip_reason}")
    elif speedup < MINIMUM_SPEEDUP:
        raise SystemExit(
            f"REGRESSION: columnar sweep speedup {speedup:.2f}x < {MINIMUM_SPEEDUP}x"
        )
