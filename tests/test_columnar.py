"""Tests for the columnar OBDD kernels (repro.booleans.columnar).

The columnar artifact is a lossless structure-of-arrays flattening of a
reduced OBDD, so every test here is differential: whatever the object
kernels (:meth:`repro.booleans.obdd.OBDD.sweep`,
:class:`repro.provenance.compile_obdd.CompiledOBDD`) answer, the columns
must answer identically — exact routes as the *same* ``Fraction``, the float
fast path within float tolerance of it.  The no-numpy fallback (forced via
``REPRO_NO_NUMPY=1``) runs the same contract on ``array('q')`` columns.
"""

import random
from fractions import Fraction

import pytest

from repro.booleans import OBDD
from repro.booleans.columnar import (
    ColumnarOBDD,
    array_backend,
    columnar_from_buffer,
    columnar_from_obdd,
)
from repro.data.tid import ProbabilisticInstance
from repro.engine import ROUTES, CompilationEngine
from repro.errors import CompilationError, LineageError
from repro.generators import labelled_partial_ktree_instance, rst_chain_instance
from repro.probability.evaluation import probability
from repro.queries import hierarchical_example, unsafe_rst
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


# -- exactness: the columns answer exactly what the objects answer --------------


def test_columnar_measures_match_object_kernels(compiled_cases):
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        assert columnar.size == compiled.size
        assert columnar.width == compiled.width
        assert columnar.model_count() == compiled.model_count()
        assert columnar.order == compiled.order
        exact = compiled.probability(case.tid.valuation())
        assert columnar.probability(case.tid.valuation()) == exact
        assert isinstance(columnar.probability(case.tid.valuation()), Fraction)
    # rst-line-240: 720 variables, so the model count is far past int64.
    compiled = CompilationEngine().compile(unsafe_rst(), rst_chain_instance(240))
    assert compiled.to_columnar().model_count() == compiled.model_count() > 2**64


def test_columnar_float_fast_path_matches_exact(compiled_cases):
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        exact = columnar.probability(case.tid.valuation())
        fast = columnar.probability(case.tid.valuation(), exact=False)
        assert isinstance(fast, float)
        assert 0.0 <= fast <= 1.0
        assert abs(fast - float(exact)) < 1e-9


def test_columnar_evaluate_matches_object_evaluate(compiled_cases):
    rng = random.Random(7)
    for _, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        for _ in range(20):
            valuation = {fact: rng.random() < 0.5 for fact in compiled.order}
            assert columnar.evaluate(valuation) == compiled.evaluate(valuation)


# -- losslessness ---------------------------------------------------------------


def test_columnar_round_trips_through_obdd(compiled_cases):
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        rebuilt = type(compiled).from_columnar(columnar)
        assert rebuilt.size == compiled.size
        assert rebuilt.width == compiled.width
        assert rebuilt.order == compiled.order
        assert rebuilt.probability(case.tid.valuation()) == compiled.probability(
            case.tid.valuation()
        )
        # And back again: the second flattening produces identical columns.
        again = rebuilt.to_columnar()
        assert list(again.var) == list(columnar.var)
        assert list(again.lo) == list(columnar.lo)
        assert list(again.hi) == list(columnar.hi)
        assert again.root == columnar.root


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


# -- the no-numpy fallback ------------------------------------------------------


def test_fallback_backend_matches_numpy(compiled_cases, monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    assert array_backend() is None
    for case, compiled in compiled_cases:
        columnar = compiled.to_columnar()
        exact = compiled.probability(case.tid.valuation())
        assert columnar.probability(case.tid.valuation()) == exact
        fast = columnar.probability(case.tid.valuation(), exact=False)
        assert abs(fast - float(exact)) < 1e-9
        assert columnar.model_count() == compiled.model_count()
        assert columnar.width == compiled.width


# -- engine and evaluation routes ----------------------------------------------


def test_method_names_cover_columnar_routes():
    assert ROUTES["columnar"].exact and ROUTES["columnar"].auto is not None
    assert not ROUTES["columnar_float"].exact
    assert "automaton_columnar" not in ROUTES


def test_probability_columnar_routes_agree(cases):
    for case in cases[:6]:
        exact = probability(case.query, case.tid, method="obdd")
        assert probability(case.query, case.tid, method="columnar") == exact
        fast = probability(case.query, case.tid, method="columnar_float")
        assert abs(fast - float(exact)) < 1e-9


def test_engine_columnar_cache_hits(cases):
    engine = CompilationEngine()
    case = cases[0]
    first = engine.columnar(case.query, case.tid.instance)
    again = engine.columnar(case.query, case.tid.instance)
    assert again is first
    assert engine.stats["columnar"].hits == 1
    assert engine.stats["columnar"].misses == 1
    value = engine.probability(case.query, case.tid, method="columnar")
    assert value == engine.probability(case.query, case.tid, method="obdd")


def test_columnar_vectorized_sweep_on_larger_instance():
    tid = ProbabilisticInstance.uniform(
        labelled_partial_ktree_instance(24, 2, seed=3), Fraction(1, 3)
    )
    engine = CompilationEngine()
    for query in (unsafe_rst(), hierarchical_example()):
        columnar = engine.columnar(query, tid.instance)
        compiled = engine.compile(query, tid.instance)
        exact = compiled.probability(tid.valuation())
        assert columnar.probability(tid.valuation()) == exact
        assert abs(columnar.probability(tid.valuation(), exact=False) - float(exact)) < 1e-9
