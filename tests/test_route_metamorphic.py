"""Metamorphic relations on the ``dnnf`` and ``automaton`` routes, and one
valuation built four ways on every exact route.

The relations of ``test_obdd_metamorphic.py`` (Shannon conditioning,
renaming and fact permutation, monotonicity, disjoint-domain union), with
the method as a parameter.  Both routes read a TID fact by fact
(:meth:`ProbabilisticInstance.probability_of`), the path that builds the
``Fraction`` column from the integer columns on first use, so this checks
that path at the sizes the routes run at.  Tier-1 runs ``dnnf`` on the three
families and ``automaton`` on paths and RST chains at about 10^3 facts;
``--runslow`` adds ``automaton`` on 2-trees at 10^3 and both routes at about
3·10^3 (2-trees for ``dnnf`` only).  Both routes multiply ``Fraction``s whose
denominators grow with the instance: one evaluation took 1–4 s at 3·10^3
facts, and ``dnnf`` took 28–45 s at 10^4, so 10^4 does not fit a test run.
``automaton`` samples one fact per relation, ``dnnf`` three.

The last relation builds one valuation as an in-order dict, a shuffled dict,
a ``load_tid`` round trip and :meth:`ProbabilisticInstance.from_ratios` on
unreduced pairs, and checks that every exact route gives each build the same
answer.
"""

import random
from fractions import Fraction

import pytest

from repro.data.instance import Instance
from repro.data.io import load_tid, save_instance
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.queries import hierarchical_example

from test_obdd_metamorphic import _instance, _query, _tid

CASES = [
    pytest.param("dnnf", "ktree", 420, id="dnnf-ktree-1000-facts"),
    pytest.param("dnnf", "path", 1000, id="dnnf-path-1000-facts"),
    pytest.param("dnnf", "rst", 334, id="dnnf-rst-1002-facts"),
    pytest.param("automaton", "path", 1000, id="automaton-path-1000-facts"),
    pytest.param("automaton", "rst", 334, id="automaton-rst-1002-facts"),
    pytest.param("automaton", "ktree", 420, id="automaton-ktree-1000-facts", marks=pytest.mark.slow),
    pytest.param("dnnf", "ktree", 1260, id="dnnf-ktree-3000-facts", marks=pytest.mark.slow),
    pytest.param("dnnf", "path", 3000, id="dnnf-path-3000-facts", marks=pytest.mark.slow),
    pytest.param("dnnf", "rst", 1000, id="dnnf-rst-3000-facts", marks=pytest.mark.slow),
    pytest.param("automaton", "path", 3000, id="automaton-path-3000-facts", marks=pytest.mark.slow),
    pytest.param("automaton", "rst", 1000, id="automaton-rst-3000-facts", marks=pytest.mark.slow),
]
SAMPLED = {"dnnf": 3, "automaton": 1}


def _sampled_facts(method, instance, seed):
    return random.Random(seed).sample(instance.facts, SAMPLED[method])


@pytest.mark.parametrize("method, family, n", CASES)
def test_route_satisfies_shannon_conditioning(method, family, n):
    engine, query = CompilationEngine(), _query(family)
    tid = _tid(_instance(family, n), seed=1)
    value = engine.probability(query, tid, method=method)
    assert 0 < value < 1
    for f in _sampled_facts(method, tid.instance, seed=2):
        p = tid.probability_of(f)
        kept = engine.probability(query, tid.condition([f]), method=method)
        removed = engine.probability(query, tid.condition([], [f]), method=method)
        assert removed <= value <= kept
        assert value == p * kept + (1 - p) * removed


@pytest.mark.parametrize("method, family, n", CASES)
def test_route_is_invariant_under_renaming_and_fact_order(method, family, n):
    engine, query = CompilationEngine(), _query(family)
    tid = _tid(_instance(family, n), seed=3)
    value = engine.probability(query, tid, method=method)

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
    assert engine.probability(query, renamed, method=method) == value

    shuffled = list(tid.instance.facts)
    generator.shuffle(shuffled)
    reordered = ProbabilisticInstance(
        Instance(shuffled, tid.signature), dict(reversed(tid.valuation().items()))
    )
    assert reordered.instance.facts is not tid.instance.facts
    assert reordered.fingerprint == tid.fingerprint
    assert engine.probability(query, reordered, method=method) == value


@pytest.mark.parametrize("method, family, n", CASES)
def test_route_is_monotone_in_each_probability(method, family, n):
    engine, query = CompilationEngine(), _query(family)
    tid = _tid(_instance(family, n), seed=5)
    value = engine.probability(query, tid, method=method)
    valuation = tid.valuation()
    for f in _sampled_facts(method, tid.instance, seed=6):
        p = valuation[f]
        higher = ProbabilisticInstance(tid.instance, {**valuation, f: (1 + p) / 2})
        lower = ProbabilisticInstance(tid.instance, {**valuation, f: p / 2})
        assert (
            engine.probability(query, lower, method=method)
            <= value
            <= engine.probability(query, higher, method=method)
        )


@pytest.mark.parametrize("method, family, n", CASES)
def test_route_disjoint_domain_union(method, family, n):
    engine, query = CompilationEngine(), _query(family)
    left = _tid(_instance(family, n // 2, seed=7), seed=8)
    right_instance = _instance(family, n - n // 2, seed=9).rename(lambda element: ("r", element))
    right = _tid(right_instance, seed=10)
    union = ProbabilisticInstance(
        Instance(left.instance.facts + right.instance.facts, left.signature),
        {**left.valuation(), **right.valuation()},
    )
    p_left = engine.probability(query, left, method=method)
    p_right = engine.probability(query, right, method=method)
    assert engine.probability(query, union, method=method) == 1 - (1 - p_left) * (1 - p_right)


FOUR_BUILDS = [
    pytest.param("ktree", 60, None, ("obdd", "dnnf", "automaton"), id="ktree-135-facts"),
    pytest.param("path", 150, None, ("obdd", "dnnf", "automaton"), id="path-150-facts"),
    pytest.param("rst", 50, None, ("obdd", "read_once", "dnnf", "automaton"), id="rst-150-facts"),
    pytest.param(
        "rst", 50, hierarchical_example(), ("safe_plan", "obdd", "dnnf", "automaton"),
        id="rst-150-facts-safe",
    ),
]


@pytest.mark.parametrize("family, n, query, methods", FOUR_BUILDS)
def test_one_valuation_built_four_ways_answers_alike_on_every_exact_route(
    family, n, query, methods, tmp_path
):
    """An in-order dict reads the values as a column, a shuffled dict
    merges them by fact, ``load_tid`` parses them into integer columns of
    a new instance object, and ``from_ratios`` reduces unreduced pairs."""
    query = query or _query(family)
    instance = _instance(family, n)
    generator = random.Random(12)
    values = [Fraction(generator.randint(1, 999), 1000) for _ in instance.facts]
    values[0], values[-1] = Fraction(1), Fraction(0)
    in_order = ProbabilisticInstance(instance, dict(zip(instance.facts, values)))
    items = list(zip(instance.facts, values))
    generator.shuffle(items)
    shuffled = ProbabilisticInstance(instance, dict(items))
    save_instance(in_order, tmp_path / "tid.json")
    loaded = load_tid(tmp_path / "tid.json")
    assert loaded.instance.facts is not instance.facts
    scale = [generator.randint(1, 5) for _ in values]
    numerators, denominators = in_order.ratios()
    from_ratios = ProbabilisticInstance.from_ratios(
        instance,
        [a * k for a, k in zip(numerators, scale)],
        [d * k for d, k in zip(denominators, scale)],
    )
    builds = [in_order, shuffled, loaded, from_ratios]
    assert {build.ratios() for build in builds} == {in_order.ratios()}
    assert {build.fingerprint for build in builds} == {in_order.fingerprint}
    engine = CompilationEngine()
    answers = {
        (method, index): engine.probability(query, build, method=method)
        for method in methods
        for index, build in enumerate(builds)
    }
    assert all(type(answer) is Fraction for answer in answers.values())
    assert len(set(answers.values())) == 1, answers
    assert 0 < answers[methods[0], 0] < 1
