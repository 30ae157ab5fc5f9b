"""Metamorphic relations on the ``obdd`` route, at sizes brute force cannot reach.

The exact OBDD kernel reads a TID's probabilities by fact position and
sweeps a plan built once per artifact, so its answers are checked here at
the sizes it runs at, against relations any exact answer must satisfy:

* Shannon conditioning through :meth:`ProbabilisticInstance.condition`:
  ``P(q) = p·P(q | f) + (1 − p)·P(q | ¬f)``;
* renaming the elements (new fingerprint, new fact order) and rebuilding the
  instance from a shuffled fact list leave the answer unchanged;
* monotonicity in each fact's probability (the queries are monotone);
* disjoint-domain union for a connected CQ: ``1 − (1 − P_I)(1 − P_J)``;
* a fresh artifact, one loaded from the store and one attached from a
  shared-memory segment give equal answers.

Three families, one seeded ``k/1000`` probability per fact: RST on labelled
partial 2-trees and ``E(x, y), E(y, z)`` on directed paths, evaluated with
``method="obdd"``, and RST on RST chains, whose lineage is read-once shaped,
evaluated with ``method="auto"``: the OBDD route's read-once shortcut.
Tier-1 runs about 10^3 facts, ``--runslow`` about 10^4.
"""

import random
from fractions import Fraction

import pytest

from repro.data.instance import Instance
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.engine.shm import SegmentPlane, attach_segment
from repro.generators import (
    directed_path_instance,
    labelled_partial_ktree_instance,
    rst_chain_instance,
)
from repro.queries import two_incident_same_direction, unsafe_rst

FAMILIES = [
    pytest.param("ktree", 420, id="ktree-1000-facts"),
    pytest.param("path", 1000, id="path-1000-facts"),
    pytest.param("rst", 334, id="rst-1002-facts"),
    pytest.param("ktree", 4200, id="ktree-10000-facts", marks=pytest.mark.slow),
    pytest.param("path", 10000, id="path-10000-facts", marks=pytest.mark.slow),
    pytest.param("rst", 3334, id="rst-10002-facts", marks=pytest.mark.slow),
]
METHOD = {"ktree": "obdd", "path": "obdd", "rst": "auto"}


def _instance(family, n, seed=0):
    if family == "ktree":
        return labelled_partial_ktree_instance(n, 2, seed=seed)
    if family == "rst":
        return rst_chain_instance(n)
    return directed_path_instance(n)


def _query(family):
    return two_incident_same_direction() if family == "path" else unsafe_rst()


def _tid(instance, seed):
    generator = random.Random(seed)
    return ProbabilisticInstance(
        instance, {f: Fraction(generator.randint(1, 999), 1000) for f in instance.facts}
    )


def _probability(engine, family, tid):
    """The family's query on ``tid`` through the OBDD route."""
    method = METHOD[family]
    value = engine.probability(_query(family), tid, method=method)
    if method == "auto":
        assert engine.last_decision.method == "obdd"
    return value


def _lineage_facts(engine, family, instance, count, seed):
    """``count`` seeded facts of the compiled OBDD's order."""
    order = engine.compile(_query(family), instance).order
    return random.Random(seed).sample(order, count)


@pytest.mark.parametrize("family, n", FAMILIES)
def test_obdd_satisfies_shannon_conditioning(family, n):
    engine = CompilationEngine()
    tid = _tid(_instance(family, n), seed=1)
    value = _probability(engine, family, tid)
    assert 0 < value < 1
    for f in _lineage_facts(engine, family, tid.instance, 3, seed=2):
        p = tid.probability_of(f)
        kept = _probability(engine, family, tid.condition([f]))
        removed = _probability(engine, family, tid.condition([], [f]))
        assert removed <= value <= kept
        assert value == p * kept + (1 - p) * removed


@pytest.mark.parametrize("family, n", FAMILIES)
def test_obdd_is_invariant_under_renaming_and_fact_order(family, n):
    """Renaming the elements reorders the facts, so the artifact is
    compiled under another order and its probabilities are read at new
    positions; a shuffled fact list builds an equal instance whose fact
    tuple is another object, read by position afresh."""
    engine = CompilationEngine()
    tid = _tid(_instance(family, n), seed=3)
    value = _probability(engine, family, tid)

    generator = random.Random(4)
    elements = list(tid.instance.domain)
    names = [f"e{index}" for index in range(len(elements))]
    generator.shuffle(names)
    mapping = dict(zip(elements, names))
    renamed = ProbabilisticInstance(
        tid.instance.rename(mapping),
        {f.rename(mapping): p for f, p in tid.valuation().items()},
    )
    assert renamed.fingerprint != tid.fingerprint
    assert renamed.instance.facts != tuple(f.rename(mapping) for f in tid.instance.facts)
    assert _probability(engine, family, renamed) == value

    shuffled = list(tid.instance.facts)
    generator.shuffle(shuffled)
    reordered = ProbabilisticInstance(
        Instance(shuffled, tid.signature), dict(reversed(tid.valuation().items()))
    )
    assert reordered.instance.facts is not tid.instance.facts
    assert reordered.fingerprint == tid.fingerprint
    assert _probability(engine, family, reordered) == value


@pytest.mark.parametrize("family, n", FAMILIES)
def test_obdd_is_monotone_in_each_probability(family, n):
    engine = CompilationEngine()
    tid = _tid(_instance(family, n), seed=5)
    value = _probability(engine, family, tid)
    valuation = tid.valuation()
    for f in _lineage_facts(engine, family, tid.instance, 3, seed=6):
        p = valuation[f]
        higher = ProbabilisticInstance(tid.instance, {**valuation, f: (1 + p) / 2})
        lower = ProbabilisticInstance(tid.instance, {**valuation, f: p / 2})
        assert _probability(engine, family, lower) <= value <= _probability(engine, family, higher)


@pytest.mark.parametrize("family, n", FAMILIES)
def test_obdd_disjoint_domain_union(family, n):
    """A connected CQ holds on a disjoint union exactly when it holds on
    one side, and the sides are independent."""
    engine = CompilationEngine()
    left = _tid(_instance(family, n // 2, seed=7), seed=8)
    right_instance = _instance(family, n - n // 2, seed=9).rename(lambda element: ("r", element))
    right = _tid(right_instance, seed=10)
    union = ProbabilisticInstance(
        Instance(left.instance.facts + right.instance.facts, left.signature),
        {**left.valuation(), **right.valuation()},
    )
    p_left, p_right = _probability(engine, family, left), _probability(engine, family, right)
    assert _probability(engine, family, union) == 1 - (1 - p_left) * (1 - p_right)


@pytest.mark.parametrize("family, n", FAMILIES)
def test_fresh_stored_and_attached_artifacts_agree(family, n, tmp_path):
    query = _query(family)
    tid = _tid(_instance(family, n), seed=11)
    root = tmp_path / "store"
    fresh = CompilationEngine(store=root).compile(query, tid.instance)
    value = fresh.probability(tid)
    assert value == fresh.probability(tid.valuation())
    restarted = CompilationEngine(store=root)
    stored = restarted.compile(query, tid.instance)
    assert restarted.stats["store"].hits == 1
    assert stored.probability(tid) == value
    with SegmentPlane() as plane:
        attached = attach_segment(plane.publish(fresh.to_columnar()))
        assert attached is not fresh.to_columnar()
        assert attached.probability(tid) == value
        del attached
