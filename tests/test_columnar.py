"""Tests for the OBDD evaluation kernel (repro.booleans.columnar).

The columnar artifact is a lossless structure-of-arrays flattening of a
reduced OBDD and the only OBDD evaluation kernel, so the tests here check it
against the seed walks over the object node table
(:mod:`repro.booleans.reference`): exact probabilities as the *same*
``Fraction``, the float pass within float tolerance of it, model counts and
widths equal.  Columns built in this process are ``array('q')``; columns
read back from a packed buffer are numpy views, or arrays again under
``REPRO_NO_NUMPY=1``, and must answer identically.
"""

import os
import random
import subprocess
import sys
import textwrap
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import repro.booleans.columnar as columnar_module
from repro.booleans import OBDD
from repro.booleans.columnar import (
    ColumnarOBDD,
    ExactPlan,
    array_backend,
    columnar_from_buffer,
    columnar_from_obdd,
)
from repro.booleans.reference import (
    exact_probability_per_node,
    model_count_recursive,
    probability_recursive,
    width_by_cuts,
)
from repro.provenance.compile_obdd import CompiledOBDD
from repro.data.instance import Instance, fact
from repro.data.tid import ProbabilisticInstance
from repro.engine import ROUTES, CompilationEngine, ParallelEngine
from repro.errors import CompilationError, DeadlineExceeded, LineageError
from repro.generators import labelled_partial_ktree_instance, rst_chain_instance
from repro.probability.evaluation import probability
from repro.queries import hierarchical_example, unsafe_rst
from repro.resilience import Deadline, ResourceBudget, activate
from repro.testing import random_workload


@pytest.fixture(scope="module")
def cases():
    return random_workload(12, seed=20260807)


@pytest.fixture(scope="module")
def compiled_cases(cases):
    engine = CompilationEngine()
    return [(case, engine.compile(case.query, case.tid.instance)) for case in cases]


# -- layout invariants ----------------------------------------------------------


def test_columnar_layout_is_topologically_sorted(compiled_cases):
    for _, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        assert len(columnar) == compiled.size
        previous_level = None
        for index in range(len(columnar)):
            node_id = index + 2
            level = int(columnar.var[index])
            # Levels descend (deepest variables first), so children — which
            # sit at strictly larger levels — always have smaller ids.
            if previous_level is not None:
                assert level <= previous_level
            previous_level = level
            for child in (int(columnar.lo[index]), int(columnar.hi[index])):
                assert 0 <= child < node_id


def test_columnar_rejects_malformed_columns():
    with pytest.raises(CompilationError):
        ColumnarOBDD(("x",), [0], [0], [], root=2)
    with pytest.raises(CompilationError):
        ColumnarOBDD(("x",), [0], [0], [1], root=7)
    # Topology checks at the construction boundary (shared-memory columns
    # arrive from another process): dangling child ids, levels outside the
    # order, and unsorted levels must all fail fast, not corrupt a sweep.
    with pytest.raises(CompilationError):
        ColumnarOBDD(("x",), [0], [5], [1], root=2)
    with pytest.raises(CompilationError):
        ColumnarOBDD(("x",), [3], [0], [1], root=2)
    with pytest.raises(CompilationError):
        ColumnarOBDD(("x", "y"), [0, 1], [0, 2], [1, 1], root=3)


def test_columnar_requires_known_variables(compiled_cases):
    _, compiled = compiled_cases[0]
    columnar = compiled.to_columnar()
    with pytest.raises(LineageError):
        columnar.level_of("no-such-variable")
    if len(columnar) > 0:
        with pytest.raises(LineageError):
            columnar.probability({})


# -- exactness: the columns answer exactly what the seed walks answer -----------


def _reference_probability(compiled, valuation):
    manager, root = compiled.manager, compiled.root
    if root <= 1:
        return Fraction(root)
    return probability_recursive(manager, root, valuation)


def test_columnar_measures_match_object_kernels(compiled_cases):
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        manager, root = compiled.manager, compiled.root
        assert columnar.size == len(manager.reachable_nodes(root))
        assert columnar.width == width_by_cuts(manager, root)
        assert columnar.model_count() == model_count_recursive(manager, root)
        assert columnar.order == compiled.order
        exact = columnar.probability(case.tid.valuation())
        assert isinstance(exact, Fraction)
        assert exact == _reference_probability(compiled, case.tid.valuation())
    # rst-line-240: 720 variables, so the model count is far past int64.
    compiled = CompilationEngine().compile(unsafe_rst(), rst_chain_instance(240))
    count = compiled.to_columnar().model_count()
    assert count == model_count_recursive(compiled.manager, compiled.root) > 2**64


def test_columnar_float_fast_path_matches_exact(compiled_cases):
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        exact = columnar.probability(case.tid.valuation())
        fast = columnar.probability(case.tid.valuation(), exact=False)
        assert isinstance(fast, float)
        assert 0.0 <= fast <= 1.0
        assert abs(fast - float(exact)) < 1e-9


def test_float_pass_matches_exact_on_array_and_buffer_columns(compiled_cases):
    """The single-map float pass on in-process ``array('q')`` columns and on
    columns read back from a packed buffer (numpy views when numpy is
    importable) stays within 1e-9 of the exact answer."""
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        assert isinstance(columnar.var, array)
        buffer = bytearray(columnar.nbytes)
        columnar.write_into(buffer)
        restored = columnar_from_buffer(columnar.meta(), buffer)
        if array_backend() is not None:
            assert not isinstance(restored.var, array)
        valuation = case.tid.valuation()
        exact = _reference_probability(compiled, valuation)
        for artifact in (columnar, restored):
            fast = artifact.probability(valuation, exact=False)
            assert isinstance(fast, float)
            assert abs(fast - float(exact)) < 1e-9
            assert artifact.probability(valuation) == exact


def test_columnar_evaluate_matches_object_evaluate(compiled_cases):
    rng = random.Random(7)
    for _, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        manager, root = compiled.manager, compiled.root
        for _ in range(20):
            valuation = {fact: rng.random() < 0.5 for fact in compiled.order}
            assert columnar.evaluate(valuation) == manager.evaluate(root, valuation)


# -- losslessness ---------------------------------------------------------------


def test_columnar_round_trips_through_obdd(compiled_cases):
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        manager, root = columnar.to_obdd()
        assert manager.size(root) == columnar.size
        if root > 1:
            assert probability_recursive(
                manager, root, case.tid.valuation()
            ) == columnar.probability(case.tid.valuation())
        # And back again: the second flattening produces identical columns.
        again = manager.to_columnar(root, columnar.order)
        assert list(again.var) == list(columnar.var)
        assert list(again.lo) == list(columnar.lo)
        assert list(again.hi) == list(columnar.hi)
        assert again.root == columnar.root
        # An artifact loaded from its columns keeps them, and rebuilds the
        # object form only when it is read.
        loaded = CompiledOBDD.from_columnar(columnar)
        assert loaded.to_columnar() is columnar
        assert loaded.order == compiled.order
        assert loaded.manager.size(loaded.root) == compiled.size


def test_obdd_manager_adapters_round_trip():
    manager = OBDD(("a", "b", "c"))
    node = manager.apply_or(
        manager.apply_and(manager.literal("a"), manager.literal("b")),
        manager.literal("c"),
    )
    columnar = manager.to_columnar(node)
    rebuilt_manager, rebuilt_root = OBDD.from_columnar(columnar)
    for bits in range(8):
        valuation = {
            "a": bool(bits & 1),
            "b": bool(bits & 2),
            "c": bool(bits & 4),
        }
        assert manager.evaluate(node, valuation) == rebuilt_manager.evaluate(
            rebuilt_root, valuation
        )


def test_columnar_buffer_round_trip(compiled_cases):
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        if len(columnar) == 0:
            continue
        buffer = bytearray(columnar.nbytes)
        columnar.write_into(buffer)
        restored = columnar_from_buffer(columnar.meta(), buffer)
        assert list(restored.var) == list(columnar.var)
        assert list(restored.lo) == list(columnar.lo)
        assert list(restored.hi) == list(columnar.hi)
        assert restored.probability(case.tid.valuation()) == columnar.probability(
            case.tid.valuation()
        )


def test_columnar_copy_detaches_from_source(compiled_cases):
    _, compiled = compiled_cases[0]
    columnar = compiled.to_columnar()
    duplicate = columnar.copy()
    assert duplicate._retain is None
    assert list(duplicate.var) == list(columnar.var)
    assert duplicate.root == columnar.root and duplicate.order == columnar.order


def test_terminal_only_artifacts():
    from repro.booleans import FALSE_NODE, TRUE_NODE

    manager = OBDD(("x",))
    for terminal, value in ((TRUE_NODE, 1), (FALSE_NODE, 0)):
        columnar = columnar_from_obdd(manager, terminal)
        assert len(columnar) == 0
        assert columnar.probability({"x": Fraction(1, 3)}) == value
        assert columnar.model_count() == value * 2
        assert columnar.evaluate({"x": True}) == bool(value)


# -- the planned exact kernel ----------------------------------------------------


def _seeded_tid(instance, seed):
    generator = random.Random(seed)
    return ProbabilisticInstance(
        instance, {f: Fraction(generator.randint(1, 999), 1000) for f in instance.facts}
    )


@pytest.fixture(scope="module")
def ktree_artifact():
    instance = labelled_partial_ktree_instance(40, 2, seed=9)
    return instance, CompilationEngine().columnar(unsafe_rst(), instance)


def test_plan_is_built_once_per_artifact_and_reused(ktree_artifact, monkeypatch):
    instance, artifact = ktree_artifact
    built = []

    class CountingPlan(ExactPlan):
        __slots__ = ()

        def __init__(self, *arguments):
            built.append(self)
            super().__init__(*arguments)

    monkeypatch.setattr(columnar_module, "ExactPlan", CountingPlan)
    fresh = artifact.copy()
    tids = [_seeded_tid(instance, seed) for seed in range(3)]
    values = [fresh.probability(tid) for tid in tids]
    values += fresh.probability_many([tid.valuation() for tid in tids])
    assert fresh.probability(tids[0].valuation(), exact=False) == pytest.approx(float(values[0]))
    assert fresh.sweep(tids[1]).probability == values[1]
    assert len(built) == 1 and fresh._plan is built[0]
    assert values[:3] == values[3:]


def test_tid_and_mapping_inputs_agree(compiled_cases, ktree_artifact):
    """Both inputs give the answer of the per-node kernel the plan replaced."""
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        valuation = case.tid.valuation()
        value = compiled.probability(case.tid)
        assert value == compiled.probability(valuation)
        if columnar.root > 1:
            assert value == exact_probability_per_node(
                columnar.order, valuation, *columnar._lists(), columnar.root
            )
        assert columnar.probability(case.tid, exact=False) == pytest.approx(float(value), abs=1e-9)
    instance, artifact = ktree_artifact
    for seed in range(4):
        tid = _seeded_tid(instance, seed)
        assert artifact.probability(tid) == artifact.probability(tid.valuation())


def test_tid_over_another_instance_object_is_reread_by_position(ktree_artifact):
    """Positions are reused only for the fact tuple they were read in: a TID
    over a larger instance, whose extra relation shifts every position,
    answers what its own valuation says."""
    instance, artifact = ktree_artifact
    fresh = artifact.copy()
    tid = _seeded_tid(instance, 1)
    value = fresh.probability(tid)
    shifted = Instance([fact("A", f"x{n}") for n in range(5)] + list(instance.facts))
    assert shifted.facts[5:] == instance.facts
    wider = _seeded_tid(shifted, 2)
    expected = fresh.probability(wider.valuation())
    assert expected != value
    assert fresh.probability(wider) == expected
    assert fresh._positions[0] is shifted.facts
    # Back on the first instance; an equal instance built anew is another
    # fact tuple, read afresh to the same answer.
    assert fresh.probability(tid) == value
    rebuilt = ProbabilisticInstance(Instance(instance.facts), tid.valuation())
    assert rebuilt.instance.facts is not instance.facts
    assert fresh.probability(rebuilt) == value
    assert fresh._positions[0] is rebuilt.instance.facts


def test_missing_probability_raises_lineage_error(ktree_artifact):
    instance, artifact = ktree_artifact
    valuation = _seeded_tid(instance, 0).valuation()
    missing = artifact.order[len(artifact.order) // 2]
    del valuation[missing]
    for exact in (True, False):
        with pytest.raises(LineageError, match="missing probability"):
            artifact.probability(valuation, exact=exact)
    with pytest.raises(LineageError, match="missing probability"):
        artifact.probability_many([valuation])
    smaller = Instance([f for f in instance.facts if f != missing])
    with pytest.raises(LineageError, match="missing probability"):
        artifact.copy().probability(ProbabilisticInstance.uniform(smaller))


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_and_reweight_equal_per_map_probability(ktree_artifact, workers):
    instance, artifact = ktree_artifact
    maps = [_seeded_tid(instance, seed).valuation() for seed in range(6)]
    expected = [artifact.probability(weights) for weights in maps]
    assert artifact.probability_many(maps, exact=True) == expected
    with ParallelEngine(workers=workers) as parallel:
        assert parallel.reweight_many(artifact, maps, exact=True) == expected


class _ExpiresAfter(Deadline):
    """A deadline that passes a given number of checks, then expires."""

    __slots__ = ("checks",)

    def __init__(self, checks):
        super().__init__(float("inf"))
        self.checks = checks

    def check(self):
        self.checks -= 1
        if self.checks < 0:
            raise DeadlineExceeded("deadline expired inside the sweep")


def test_deadline_fires_inside_a_long_sweep(monkeypatch):
    """A checkpoint before every chunk of ``_CHECKPOINT_STRIDE`` nodes: a
    deadline that expires after two chunks stops the sweep at the third."""
    monkeypatch.setattr(columnar_module, "_CHECKPOINT_STRIDE", 64)
    instance = rst_chain_instance(120)
    artifact = CompilationEngine().columnar(unsafe_rst(), instance).copy()
    tid = _seeded_tid(instance, 3)
    value = artifact.probability(tid)
    assert len(artifact._plan.chunks) == -(-len(artifact) // 64) > 3
    deadline = _ExpiresAfter(2)
    with activate(ResourceBudget(deadline=deadline)):
        with pytest.raises(DeadlineExceeded):
            artifact.probability(tid)
    assert deadline.checks == -1
    with activate(ResourceBudget(deadline=_ExpiresAfter(len(artifact._plan.chunks)))):
        assert artifact.probability(tid) == value


def test_obdd_route_reads_no_valuation(cases, monkeypatch):
    """An ``obdd`` request on a compiled artifact reads the TID's column by
    position: it never copies the valuation."""
    engine = CompilationEngine()
    for case in cases:
        engine.compile(case.query, case.tid.instance)
    expected = [
        probability(case.query, case.tid, method="obdd", engine=CompilationEngine())
        for case in cases
    ]

    def no_valuation(self):
        raise AssertionError("the obdd route copied a valuation")

    monkeypatch.setattr(ProbabilisticInstance, "valuation", no_valuation)
    for case, value in zip(cases, expected):
        assert engine.probability(case.query, case.tid, method="obdd") == value


# -- the no-numpy fallback ------------------------------------------------------


def test_fallback_backend_matches_numpy(compiled_cases, monkeypatch):
    """Buffers read back without numpy are copied into arrays; every pass
    answers as on the numpy views."""
    with_numpy = []
    for _, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        buffer = bytearray(columnar.nbytes)
        columnar.write_into(buffer)
        with_numpy.append((buffer, columnar_from_buffer(columnar.meta(), buffer)))
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert array_backend() is None
    for (case, compiled), (buffer, reference) in zip(compiled_cases, with_numpy):
        columnar = columnar_from_buffer(reference.meta(), buffer)
        assert isinstance(columnar.var, array)
        valuation = case.tid.valuation()
        exact = reference.probability(valuation)
        assert columnar.probability(valuation) == exact
        fast = columnar.probability(valuation, exact=False)
        assert abs(fast - float(exact)) < 1e-9
        maps = [valuation, {fact: Fraction(1, 3) for fact in compiled.order}]
        batch = columnar.probability_many(maps, exact=False)
        assert batch == pytest.approx(reference.probability_many(maps, exact=False), abs=1e-9)
        assert columnar.model_count() == reference.model_count()
        assert columnar.width == reference.width


# -- engine and evaluation routes ----------------------------------------------


def test_method_names_cover_columnar_routes():
    # One exact and one float route serve the OBDD artifact; its columnar
    # form is how both evaluate, not a route of its own.
    assert ROUTES["obdd"].exact and ROUTES["obdd"].auto is not None
    assert not ROUTES["obdd_float"].exact
    for name in ("columnar", "columnar_float", "automaton_columnar"):
        assert name not in ROUTES


def test_probability_columnar_routes_agree(cases):
    engine = CompilationEngine()
    for case in cases[:6]:
        exact = probability(case.query, case.tid, method="obdd", engine=engine)
        compiled = engine.compile(case.query, case.tid.instance)
        assert exact == _reference_probability(compiled, case.tid.valuation())
        assert engine.columnar(case.query, case.tid.instance).probability(
            case.tid.valuation()
        ) == exact
        fast = probability(case.query, case.tid, method="obdd_float", engine=engine)
        assert abs(fast - float(exact)) < 1e-9


def test_engine_columnar_cache_hits(cases):
    engine = CompilationEngine()
    case = cases[0]
    first = engine.columnar(case.query, case.tid.instance)
    again = engine.columnar(case.query, case.tid.instance)
    assert again is first
    # One circuit cache: the columns belong to the cached OBDD artifact.
    assert "columnar" not in engine.stats
    assert engine.stats["obdd"].hits == 1
    assert engine.stats["obdd"].misses == 1
    assert engine.compile(case.query, case.tid.instance).to_columnar() is first
    value = engine.probability(case.query, case.tid, method="obdd")
    assert value == first.probability(case.tid.valuation())


def test_columnar_vectorized_sweep_on_larger_instance():
    """The exact pass, the float pass and the float batch agree on a larger
    artifact."""
    tid = ProbabilisticInstance.uniform(
        labelled_partial_ktree_instance(24, 2, seed=3), Fraction(1, 3)
    )
    engine = CompilationEngine()
    for query in (unsafe_rst(), hierarchical_example()):
        columnar = engine.columnar(query, tid.instance)
        compiled = engine.compile(query, tid.instance)
        exact = _reference_probability(compiled, tid.valuation())
        assert columnar.probability(tid.valuation()) == exact
        assert abs(columnar.probability(tid.valuation(), exact=False) - float(exact)) < 1e-9
        batch = columnar.probability_many([tid.valuation()] * 3, exact=False)
        assert batch == pytest.approx([float(exact)] * 3, abs=1e-9)


def test_one_shot_exact_probability_loads_no_numpy(tmp_path):
    """A one-shot exact evaluation builds array columns in process and
    never imports numpy."""
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from repro import ProbabilisticInstance, probability
        from repro.generators import labelled_partial_ktree_instance
        from repro.queries import unsafe_rst

        instance = labelled_partial_ktree_instance(10, 2, seed=4)
        tid = ProbabilisticInstance.uniform(instance, Fraction(1, 3))
        value = probability(unsafe_rst(), tid, method="obdd")
        assert isinstance(value, Fraction) and 0 < value < 1
        print("numpy" in sys.modules)
        """
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=tmp_path,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
