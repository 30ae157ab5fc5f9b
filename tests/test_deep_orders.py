"""Deep-variable-order regression tests (tier-1).

The seed knowledge-compilation core was recursive: compiling or evaluating a
line instance of length >= 2000 overflowed the interpreter stack through the
``apply`` / probability walks.  The iterative kernels must handle depth
bounded only by memory, stay exact, and agree with the closed form: for the
two-consecutive-edges query on a directed path, the satisfying worlds are the
complement of the binary strings with no two adjacent ones, counted by a
Fibonacci number.

The line is compiled by a plain ``CompilationEngine().compile``, so the
default fact order (greedy path decomposition, its validation, and the fact
placement) runs at this depth too and must stay near-linear in the length.
"""

import sys
from fractions import Fraction

import pytest

from repro.booleans.reference import build_from_clauses_fold
from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine
from repro.generators.lines import directed_path_instance
from repro.queries.parser import parse_ucq

LENGTH = 2000


def fibonacci(index: int) -> int:
    """F(index) with F(1) = F(2) = 1."""
    a, b = 1, 1
    for _ in range(index - 2):
        a, b = b, a + b
    return b


@pytest.fixture(scope="module")
def deep_line():
    instance = directed_path_instance(LENGTH)
    query = parse_ucq("E(x,y), E(y,z)")
    engine = CompilationEngine()
    compiled = engine.compile(query, instance)
    lineage = engine.lineage(query, instance)
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    return instance, lineage, compiled, tid


def test_deep_line_compiles_without_recursion_error(deep_line):
    instance, lineage, compiled, _ = deep_line
    assert lineage.clause_count == LENGTH - 1
    assert compiled.size > 0
    # Pathwidth-1 family: the width must stay constant (remember "previous
    # edge present" and "already satisfied"), not grow with the length.
    assert compiled.width == 3


def test_deep_line_probability_matches_closed_form(deep_line):
    _, _, compiled, tid = deep_line
    no_adjacent_pair = fibonacci(LENGTH + 2)
    expected = 1 - Fraction(no_adjacent_pair, 1 << LENGTH)
    assert compiled.probability(tid.valuation()) == expected
    assert compiled.model_count() == (1 << LENGTH) - no_adjacent_pair


def test_deep_line_float_fast_path(deep_line):
    _, _, compiled, tid = deep_line
    exact = compiled.probability(tid.valuation())
    fast = compiled.probability(tid.valuation(), exact=False)
    assert isinstance(fast, float)
    assert abs(fast - float(exact)) < 1e-9


def test_deep_line_dnnf_route_agrees(deep_line):
    _, _, compiled, tid = deep_line
    dnnf = compiled.to_dnnf()
    valuation = {fact: tid.probability_of(fact) for fact in dnnf.variables()}
    assert dnnf.probability(valuation) == compiled.probability(tid.valuation())


def test_deep_line_negation_restriction_and_evaluation(deep_line):
    instance, _, compiled, _ = deep_line
    manager = compiled.manager
    negated = manager.apply_not(compiled.root)
    assert manager.apply_not(negated) == compiled.root
    first = compiled.order[0]
    without_first = manager.restrict(compiled.root, first, False)
    with_first = manager.restrict(compiled.root, first, True)
    assert manager.restrict(compiled.root, first, False) == without_first  # cached
    assert without_first != with_first
    # A world with exactly one adjacent pair satisfies the query...
    pair = {compiled.order[5]: True, compiled.order[6]: True}
    assert compiled.evaluate(pair)
    # ... and a world with every other edge does not.
    alternating = {fact: index % 2 == 0 for index, fact in enumerate(compiled.order)}
    assert not compiled.evaluate(alternating)


def test_seed_fold_overflows_where_trie_succeeds(deep_line):
    """The regression being guarded: the seed recursive fold cannot do this."""
    _, lineage, compiled, _ = deep_line
    from repro.booleans.obdd import OBDD

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        fresh = OBDD(list(compiled.order))
        with pytest.raises(RecursionError):
            build_from_clauses_fold(fresh, [sorted(c, key=str) for c in lineage.clauses])
    finally:
        sys.setrecursionlimit(limit)


def test_deep_line_full_front_end_pipeline(deep_line):
    """PR-5 acceptance: query → fused tree encoding → automaton provenance →
    probability, end to end, on the length-2000 line.

    The seed front-end cannot do this at all (its encoding builder recurses
    to the decomposition depth and its validation replay is quadratic); the
    fused pipeline runs the whole chain and agrees with the Fibonacci closed
    form through both the provenance d-DNNF and the state dynamic program.
    """
    from repro.provenance.automata import automaton_probability
    from repro.provenance.automaton_provenance import provenance
    from repro.provenance.tree_encoding import fused_tree_encoding
    from repro.provenance.ucq_automaton import ucq_automaton

    instance, _, _, tid = deep_line
    query = parse_ucq("E(x,y), E(y,z)")
    encoding = fused_tree_encoding(instance)
    # Line Gaifman graph: the encoding follows a width-1 decomposition, one
    # node per bag (every bag carries exactly one of the 2000 edge facts).
    assert encoding.width == 1
    assert len(encoding.facts_in_order()) == LENGTH

    automaton = ucq_automaton(query)
    expected = 1 - Fraction(fibonacci(LENGTH + 2), 1 << LENGTH)
    assert automaton_probability(automaton, encoding, tid) == expected

    result = provenance(automaton, encoding)
    valuation = {f: tid.probability_of(f) for f in result.dnnf.variables()}
    assert result.dnnf.probability(valuation) == expected
    # The freed gate tables keep the peak live-gate footprint constant-size
    # on a path-shaped encoding, instead of linear in the 2000-node tree.
    assert 0 < result.peak_live_gates <= 16
