"""Property-based differential tests: every backend against the oracle.

Seeded random UCQ≠ workloads over the treelike generator families (all of
treewidth ≤ 2) are pushed through :class:`repro.testing.ProbabilityOracle`,
which cross-checks brute-force enumeration, OBDD compilation, d-DNNF
compilation, the ``auto`` dispatcher, lifted inference (when liftable), the
dissociation bounds, and the seeded Karp–Luby estimator.  The default run
covers well over 200 cases; the heavy grid family and the automaton route
ride behind ``--runslow``.
"""

import os
import random
from fractions import Fraction

import pytest

from repro.data.tid import ProbabilisticInstance
from repro.engine import CompilationEngine, ParallelEngine
from repro.testing import (
    OracleDisagreement,
    ProbabilityOracle,
    random_workload,
    workload_pairs,
)

# 5 batches x 48 cases = 240 seeded cases in the default (tier-1) run.
# DIFFERENTIAL_SEED_OFFSET shifts every batch seed: CI's scheduled sweeps set
# it from the (nightly-incrementing) run number so they cover fresh workloads,
# while push/PR runs use the fixed matrix offsets and local runs default to 0
# — both fully reproducible.
_SEED_OFFSET = int(os.environ.get("DIFFERENTIAL_SEED_OFFSET", "0")) * 10_000
BATCH_SEEDS = tuple(seed + _SEED_OFFSET for seed in (11, 23, 47, 101, 2026))
BATCH_SIZE = 48


@pytest.fixture(scope="module")
def oracle():
    return ProbabilityOracle()


@pytest.mark.parametrize("seed", BATCH_SEEDS)
def test_differential_batch_agrees_on_every_backend(seed, oracle):
    cases = random_workload(BATCH_SIZE, seed=seed)
    reports = oracle.check_many(cases)
    assert len(reports) == BATCH_SIZE
    # The workload is not degenerate: both trivial and non-trivial values occur.
    values = {report.reference for report in reports}
    assert any(0 < value < 1 for value in values)


def test_workloads_are_reproducible_from_their_seed():
    first = random_workload(10, seed=5)
    second = random_workload(10, seed=5)
    for a, b in zip(first, second):
        assert a.query == b.query
        assert a.tid.fingerprint == b.tid.fingerprint
    different = random_workload(10, seed=6)
    assert any(
        a.tid.fingerprint != b.tid.fingerprint for a, b in zip(first, different)
    )


def test_oracle_reports_safe_plan_on_liftable_cases(oracle):
    cases = random_workload(120, seed=31, max_atoms=2, max_variables=2)
    reports = oracle.check_many(cases)
    ran_safe_plan = [r for r in reports if "safe_plan" in r.exact_values]
    assert ran_safe_plan, "no liftable case in 120 draws; workload generator degenerated"
    for report in ran_safe_plan:
        assert report.exact_values["safe_plan"] == report.reference


def test_oracle_requires_an_exact_anchor():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        ProbabilityOracle(exact_methods=())
    # Names are checked against the route table: no unknown or float routes.
    for methods in (("brute_force", "automaton_columnar"), ("obdd_float",)):
        with pytest.raises(ReproError):
            ProbabilityOracle(exact_methods=methods)


def test_oracle_detects_a_corrupted_backend(oracle):
    """The oracle must actually be able to fail: corrupt one route and watch."""
    case = next(
        c
        for c in random_workload(40, seed=13)
        if 0 < ProbabilityOracle(karp_luby_samples=0).check_case(c).reference < 1
    )
    report = oracle.check_case(case)
    report.exact_values["obdd"] = report.exact_values["obdd"] + Fraction(1, 97)
    assert report.disagreements()
    with pytest.raises(OracleDisagreement):
        report.assert_consistent()


def test_exact_routes_agree_as_fractions_not_floats(oracle):
    """Regression for Fraction-vs-float drift: backend agreement is exact
    rational equality, including probabilities floats cannot represent."""
    cases = random_workload(30, seed=77)
    for case in cases:
        # Re-valuate with denominator 21: not dyadic, so any route that
        # silently rounds through float cannot return the exact Fraction.
        generator = random.Random(case.seed)
        valuation = {
            f: Fraction(generator.randint(0, 21), 21) for f in case.tid.instance
        }
        tid = ProbabilisticInstance(case.tid.instance, valuation)
        report = oracle.check(case.query, tid, name=f"thirds[{case.seed}]")
        for method, value in report.exact_values.items():
            assert isinstance(value, Fraction), method
            assert value == report.reference


def test_differential_workload_through_parallel_engine(oracle):
    """The sharded engine agrees with the oracle-checked serial values."""
    cases = random_workload(24, seed=301)
    reports = oracle.check_many(cases)
    pairs = workload_pairs(cases)
    serial = CompilationEngine()
    with ParallelEngine(workers=2) as parallel:
        parallel_values = parallel.map_probability(pairs).values
    for case, report, value in zip(cases, reports, parallel_values):
        assert value == report.reference, str(case)
        assert serial.probability(case.query, case.tid) == report.reference


@pytest.mark.slow
def test_differential_heavy_grid_family(oracle):
    """Larger grids (more facts, 2^n world enumerations): slow-marked."""
    cases = random_workload(
        30, seed=404, families=("grid",), max_facts=12, max_atoms=3
    )
    reports = oracle.check_many(cases)
    assert len(reports) == 30


@pytest.mark.slow
def test_differential_with_automaton_route():
    """The tree-automaton dynamic program joins the cross-check (slow)."""
    oracle = ProbabilityOracle(
        exact_methods=(
            "brute_force",
            "obdd",
            "dnnf",
            "auto",
            "automaton",
        )
    )
    cases = random_workload(40, seed=505, max_facts=6)
    reports = oracle.check_many(cases)
    assert all("automaton" in report.exact_values for report in reports)
