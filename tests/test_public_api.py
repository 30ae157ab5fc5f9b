"""Smoke tests for the top-level public API (repro.__init__).

These tests pin down the package surface a downstream user relies on: every
name advertised in ``__all__`` must resolve, and the headline workflow of the
README quickstart must run end to end through the top-level imports alone.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} is advertised but missing"


def test_all_is_sorted_and_unique():
    assert len(set(repro.__all__)) == len(repro.__all__)
    assert list(repro.__all__) == sorted(repro.__all__)


def test_version_is_a_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") >= 1


def test_readme_quickstart_workflow():
    instance = repro.Instance(
        [
            repro.Fact("R", ("alice",)),
            repro.Fact("S", ("alice", "film1")),
            repro.Fact("T", ("film1",)),
        ]
    )
    query = repro.parse_cq("R(x), S(x, y), T(y)")
    lineage = repro.lineage_of(query, instance)
    assert lineage.clause_count == 1
    compiled = repro.compile_query_to_obdd(query, instance)
    tid = repro.ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    assert repro.probability(query, tid) == compiled.probability(tid.valuation())
    assert repro.instance_treewidth(instance) <= 1


def test_extension_entry_points_are_wired():
    # C2RPQ≠, semirings, approximation, pXML and clique-width are reachable
    # from the package root with one call each.
    instance = repro.rst_chain_instance(2)
    polynomial = repro.query_provenance_polynomial(repro.parse_cq("R(x), S(x, y), T(y)"), instance)
    assert polynomial.monomial_count == 2
    pairs = repro.rpq_pairs(repro.grid_instance(2, 2), "E+")
    assert pairs
    tid = repro.ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    bounds = repro.dissociation_bounds(repro.parse_cq("R(x), S(x, y), T(y)"), tid)
    assert 0 <= bounds.lower <= bounds.upper <= 1
    document = repro.random_pxml_document(depth=1, seed=0)
    assert 0 <= repro.pattern_probability(document, repro.pattern("a")) <= 1
    assert repro.clique_expression(3).width == 2


def test_probability_import_forms_in_a_fresh_interpreter():
    # ``repro.probability`` is both the callable the quickstart uses and the
    # subpackage; a fresh interpreter has imported neither form yet.
    code = (
        "import repro.probability.lifted.reference as r\n"
        "from fractions import Fraction\n"
        "from repro import probability, parse_cq, rst_chain_instance, ProbabilisticInstance\n"
        "import repro\n"
        "tid = ProbabilisticInstance.uniform(rst_chain_instance(2), Fraction(1, 2))\n"
        "query = parse_cq('R(x), S(x, y), T(y)')\n"
        "assert probability(query, tid) == repro.probability(query, tid) == Fraction(15, 64)\n"
        "assert repro.probability.lifted.reference is r\n"
        "print(r.__name__)\n"
    )
    source = Path(repro.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(source)),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "repro.probability.lifted.reference"
