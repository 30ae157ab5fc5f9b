"""VECTOR — the columnar batch kernels against per-map baselines, in two regimes.

Float regime: the columnar batch float kernel vs a per-map object float loop.

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

Exact regime: 32 seeded ``k/1000`` probability maps on each of two compiled
OBDDs, ``E(x, y), E(y, z)`` on a 120-edge directed path and RST on a
120-node labelled partial 2-tree.  The baseline answers each map with the
per-node exact kernel (:func:`repro.booleans.reference.
exact_probability_per_node`: a rank probe, packed edge keys and two
coefficient-cache probes per node), on columns converted to lists once per
artifact; the planned kernel answers the batch with
:meth:`~repro.booleans.columnar.ColumnarOBDD.probability_many`
(``exact=True``) on a fresh copy of each artifact, so every timed window
also builds the plan once.  Both must give equal ``Fraction`` answers before
timing, and the planned kernel must be at least ``MINIMUM_EXACT_SPEEDUP``
(1.5x) faster.  Neither side uses numpy, so this gate is enforced with and
without it.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from repro.booleans.columnar import array_backend
from repro.booleans.reference import exact_probability_per_node, probability_float_walk
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.experiments import (
    ScalingSeries,
    format_table,
    write_benchmark_json,
)
from repro.generators import directed_path_instance, labelled_partial_ktree_instance
from repro.queries import hierarchical_example, qp, two_incident_same_direction, unsafe_rst

INSTANCE_SIZES = (60, 90, 120)
WIDTH = 2
SWEEPS_PER_ARTIFACT = 64  # fresh probability assignments per artifact batch
RESULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_vector.json"
MINIMUM_SPEEDUP = 2.0
EXACT_SIZE = 120
EXACT_MAPS = 32
EXACT_ROUNDS = 15
MINIMUM_EXACT_SPEEDUP = 1.5


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


def build_exact_cases():
    """(label, columnar, 32 seeded k/1000 maps) per artifact, built outside timing."""
    engine = CompilationEngine()
    cases = []
    for label, instance, query in (
        (f"path-{EXACT_SIZE}", directed_path_instance(EXACT_SIZE), two_incident_same_direction()),
        (f"ktree-{EXACT_SIZE}", labelled_partial_ktree_instance(EXACT_SIZE, WIDTH), unsafe_rst()),
    ):
        generator = random.Random(label)
        maps = [
            {fact: Fraction(generator.randint(1, 999), 1000) for fact in instance.facts}
            for _ in range(EXACT_MAPS)
        ]
        cases.append((label, engine.columnar(query, instance), maps))
    return cases


def _measure_exact_reference(cases):
    start = time.perf_counter()
    for _, columnar, maps in cases:
        var, lo, hi = columnar.var.tolist(), columnar.lo.tolist(), columnar.hi.tolist()
        for weights in maps:
            exact_probability_per_node(columnar.order, weights, var, lo, hi, columnar.root)
    return time.perf_counter() - start


def _measure_exact_planned(cases):
    # Fresh copies carry no plan: each window pays one plan build per artifact.
    fresh = [(columnar.copy(), maps) for _, columnar, maps in cases]
    start = time.perf_counter()
    for columnar, maps in fresh:
        columnar.probability_many(maps, exact=True)
    return time.perf_counter() - start


def _check_exact_agreement(cases):
    """The planned batch must equal the per-node kernel map for map."""
    for label, columnar, maps in cases:
        var, lo, hi = columnar.var.tolist(), columnar.lo.tolist(), columnar.hi.tolist()
        reference = [
            exact_probability_per_node(columnar.order, weights, var, lo, hi, columnar.root)
            for weights in maps
        ]
        assert columnar.copy().probability_many(maps, exact=True) == reference, (
            f"planned exact kernel diverged from the per-node kernel on {label}"
        )


def run_exact_benchmark(rounds: int = EXACT_ROUNDS):
    """Interleaved timing of both exact sides; each keeps its minimum."""
    cases = build_exact_cases()
    _check_exact_agreement(cases)
    reference_time = planned_time = float("inf")
    for _ in range(rounds):
        reference_time = min(reference_time, _measure_exact_reference(cases))
        planned_time = min(planned_time, _measure_exact_planned(cases))
    speedup = reference_time / planned_time if planned_time > 0 else float("inf")
    return {
        "exact_workload": (
            f"{EXACT_MAPS} seeded k/1000 maps on "
            + " and ".join(label for label, _, _ in cases)
        ),
        "exact_nodes": {label: len(columnar) for label, columnar, _ in cases},
        "exact_rounds": rounds,
        "exact_reference_seconds": reference_time,
        "exact_planned_seconds": planned_time,
        "exact_speedup": speedup,
        "minimum_required_exact_speedup": MINIMUM_EXACT_SPEEDUP,
        "exact_speedup_gate_enforced": True,
    }


def run_benchmark(rounds: int = 3):
    cases = build_artifacts()
    _check_agreement(cases)
    exact = run_exact_benchmark()

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
            **exact,
        },
    )
    return object_time, columnar_time, speedup, gate_enforced, gate_skip_reason, sweeps, exact


def report(object_time, columnar_time, speedup, sweeps, exact):
    rows = [
        ("object", round(object_time, 4)),
        ("columnar", round(columnar_time, 4)),
    ]
    print()
    print(f"{sweeps} float sweeps per round")
    print(format_table(["kernel", "time (s)"], rows))
    print(f"columnar speedup: {speedup:.2f}x (results in {RESULT_FILE.name})")
    print(f"exact regime, {exact['exact_workload']}")
    rows = [
        ("per-node reference", round(exact["exact_reference_seconds"], 4)),
        ("planned batch", round(exact["exact_planned_seconds"], 4)),
    ]
    print(format_table(["kernel", "time (s)"], rows))
    print(f"planned exact speedup: {exact['exact_speedup']:.2f}x")


def gate_failures(speedup, gate_enforced, exact):
    """The messages of the gates this run fails (empty when it passes)."""
    failures = []
    if gate_enforced and speedup < MINIMUM_SPEEDUP:
        failures.append(
            f"columnar batch float sweep only {speedup:.2f}x over the per-map loop;"
            f" expected >= {MINIMUM_SPEEDUP}x"
        )
    if exact["exact_speedup"] < MINIMUM_EXACT_SPEEDUP:
        failures.append(
            f"planned exact kernel only {exact['exact_speedup']:.2f}x over the per-node"
            f" kernel; expected >= {MINIMUM_EXACT_SPEEDUP}x"
        )
    return failures


def test_vectorized_sweep_speedup(benchmark):
    object_time, columnar_time, speedup, gate_enforced, skip_reason, sweeps, exact = (
        run_benchmark()
    )
    cases = build_artifacts()[:1]
    benchmark(_measure_columnar, cases)
    report(object_time, columnar_time, speedup, sweeps, exact)
    if not gate_enforced:
        print(f"float speedup gate waived: {skip_reason}")
    assert not gate_failures(speedup, gate_enforced, exact)


if __name__ == "__main__":
    object_time, columnar_time, speedup, gate_enforced, skip_reason, sweeps, exact = (
        run_benchmark()
    )
    report(object_time, columnar_time, speedup, sweeps, exact)
    if not gate_enforced:
        print(f"float speedup gate waived: {skip_reason}")
    failures = gate_failures(speedup, gate_enforced, exact)
    if failures:
        raise SystemExit("REGRESSION: " + "; ".join(failures))
