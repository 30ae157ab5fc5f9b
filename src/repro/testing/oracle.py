"""The differential probability oracle.

The paper's central redundancy — many independent routes compute the same
query probability on treelike instances — is what makes the codebase
differentially testable.  :class:`ProbabilityOracle` evaluates one
``(query, TID instance)`` pair through every applicable route and checks:

* **exact agreement** — brute-force world enumeration, OBDD compilation,
  d-DNNF compilation, the ``auto`` dispatcher (and optionally the
  tree-automaton dynamic program) must return the *same*
  :class:`~fractions.Fraction`, compared exactly, never through ``float``.
  Brute force is the fully independent reference (as are the automaton and
  lifted-inference routes when they run); the compiled routes share the
  lineage-compilation pipeline, so their agreement additionally guards the
  engine's caching, not just the algorithms;
* **safe plans** — when ``is_liftable`` holds, both lifted evaluators (the
  compiled plan route and the recursive reference) must agree exactly
  with the others — an :class:`~repro.errors.UnsafeQueryError` there is a
  *disagreement with the verdict*, never a skip; when the query is not
  liftable, both routes must raise :class:`UnsafeQueryError` (a wrong
  success is also a verdict disagreement) and the routes are recorded as
  skipped;
* **guaranteed intervals** — the dissociation bounds must contain the exact
  value (an unconditional theorem), and the seeded Karp–Luby estimate must
  fall within its Hoeffding interval around the exact value (a probabilistic
  guarantee made deterministic by the fixed seed).

Any violation raises :class:`OracleDisagreement` carrying the per-route
values, so a failing differential test prints exactly which backends fell
apart and by how much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from repro.data.tid import ProbabilisticInstance
from repro.engine import ROUTES, CompilationEngine
from repro.errors import ReproError
from repro.probability.approximation import (
    DissociationBounds,
    dissociation_bounds,
    karp_luby_probability,
)
from repro.probability.brute_force import brute_force_probability
from repro.probability.evaluation import probability
from repro.probability.safe_plans import UnsafeQueryError, is_liftable, safe_plan_probability
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.testing.workloads import WorkloadCase

Query = UnionOfConjunctiveQueries | ConjunctiveQuery

DEFAULT_EXACT_METHODS = ("brute_force", "obdd", "dnnf", "auto")

#: The reference the oracle anchors on: exponential world enumeration, kept
#: out of the production route table and called directly.
REFERENCE_METHOD = "brute_force"


class OracleDisagreement(ReproError):
    """Two probability routes disagreed (or a guaranteed bound was violated)."""

    def __init__(self, message: str, report: "OracleReport" | None = None) -> None:
        super().__init__(message)
        self.report = report


@dataclass
class OracleReport:
    """Everything the oracle computed for one case."""

    name: str
    query: UnionOfConjunctiveQueries
    tid: ProbabilisticInstance
    exact_values: dict[str, Fraction] = field(default_factory=dict)
    bounds: DissociationBounds | None = None
    karp_luby_estimate: float | None = None
    karp_luby_tolerance: float | None = None
    skipped: tuple[str, ...] = ()

    @property
    def reference_method(self) -> str:
        """Which exact route anchors the comparison (brute force when run)."""
        if REFERENCE_METHOD in self.exact_values:
            return REFERENCE_METHOD
        if not self.exact_values:
            # An explicit error, not a bare StopIteration: the latter would be
            # silently swallowed as exhaustion by generator-driven pipelines.
            raise ReproError("oracle report has no exact route to anchor on")
        return next(iter(self.exact_values))

    @property
    def reference(self) -> Fraction:
        """The agreed exact value (the brute-force one when available)."""
        return self.exact_values[self.reference_method]

    def disagreements(self) -> list[str]:
        """Every violated consistency condition (empty means all routes agree)."""
        problems: list[str] = []
        reference = self.reference
        anchor = self.reference_method
        for method, value in self.exact_values.items():
            if value != reference:
                problems.append(
                    f"{method} returned {value}, {anchor} returned {reference}"
                )
        if self.bounds is not None:
            if not self.bounds.contains(reference):
                problems.append(
                    f"exact value {reference} outside dissociation bounds "
                    f"[{self.bounds.lower}, {self.bounds.upper}]"
                )
        if self.karp_luby_estimate is not None and self.karp_luby_tolerance is not None:
            error = abs(self.karp_luby_estimate - float(reference))
            if error > self.karp_luby_tolerance:
                problems.append(
                    f"Karp-Luby estimate {self.karp_luby_estimate:.6f} misses the exact "
                    f"value {float(reference):.6f} by {error:.6f} "
                    f"(> tolerance {self.karp_luby_tolerance:.6f})"
                )
        return problems

    def assert_consistent(self) -> None:
        problems = self.disagreements()
        if problems:
            raise OracleDisagreement(
                f"oracle case {self.name!r} on query {self.query}: " + "; ".join(problems),
                report=self,
            )


class ProbabilityOracle:
    """Cross-check every probability backend on one case at a time.

    Parameters
    ----------
    exact_methods:
        Exact routes to run: names of :data:`repro.engine.ROUTES` records
        whose ``exact`` flag is set, plus ``"brute_force"`` for the
        reference.  Brute force is the anchor; the default adds the OBDD,
        d-DNNF, and ``auto`` routes.  Add ``"automaton"`` for the
        (slower) tree-automaton dynamic program.
    include_safe_plan:
        Also check the lifted tier: on liftable queries the ``safe_plan``
        route and the recursive reference
        (:func:`~repro.probability.safe_plans.safe_plan_probability`,
        reported as ``"safe_plan_reference"``) must agree exactly; on
        non-liftable queries both must raise — so every case exercises the
        ``is_liftable`` iff-contract in one direction or the other.
    karp_luby_samples / karp_luby_delta:
        Effort and confidence for the Karp–Luby check; the tolerance is the
        Hoeffding radius for that effort, scaled by the (exact) union bound
        the estimator itself reports.  The default delta of 1e-6 keeps the
        per-case false-alarm probability negligible even across the
        thousands of fresh-seeded cases a nightly sweep runs (the radius
        only grows as sqrt(log(1/delta))).  ``karp_luby_samples=0`` disables
        the check.
    engine:
        A shared :class:`CompilationEngine` serving the compiled routes (one
        is created when omitted), so checking many queries against one
        instance reuses its decompositions and fact orders.
    """

    def __init__(
        self,
        exact_methods: Sequence[str] = DEFAULT_EXACT_METHODS,
        include_safe_plan: bool = True,
        karp_luby_samples: int = 400,
        karp_luby_delta: float = 1e-6,
        karp_luby_seed: int = 0,
        engine: CompilationEngine | None = None,
    ) -> None:
        self.exact_methods = tuple(exact_methods)
        if not self.exact_methods:
            raise ReproError(
                "ProbabilityOracle needs at least one exact method to anchor "
                "the differential comparison"
            )
        exact_routes = [name for name, route in ROUTES.items() if route.exact]
        for method in self.exact_methods:
            if method != REFERENCE_METHOD and method not in exact_routes:
                raise ReproError(
                    f"unknown exact method {method!r}; use {REFERENCE_METHOD!r}"
                    f" or one of {', '.join(exact_routes)}"
                )
        self.include_safe_plan = include_safe_plan
        self.karp_luby_samples = karp_luby_samples
        self.karp_luby_delta = karp_luby_delta
        self.karp_luby_seed = karp_luby_seed
        self.engine = engine if engine is not None else CompilationEngine()

    # Routes served from the shared engine's cached artifact chain.  The
    # obdd and auto routes deliberately share it (they also test that cached
    # artifacts stay consistent); dnnf, automaton, and safe plans are
    # evaluated one-shot, on freshly built artifacts.  Note the
    # compiled routes still share the compilation *pipeline* — the genuinely
    # independent algorithms are brute force, the automaton dynamic program,
    # and lifted inference.
    _ENGINE_METHODS = frozenset({"auto", "obdd", "read_once"})

    def check(
        self, query: Query, tid: ProbabilisticInstance, name: str = "case"
    ) -> OracleReport:
        """Run every route on one pair; raise :class:`OracleDisagreement` on
        any mismatch, return the full report otherwise."""
        query = as_ucq(query)
        report = OracleReport(name=name, query=query, tid=tid)
        skipped: list[str] = []
        for method in self.exact_methods:
            if method == REFERENCE_METHOD:
                report.exact_values[method] = brute_force_probability(query, tid)
                continue
            engine = self.engine if method in self._ENGINE_METHODS else None
            report.exact_values[method] = probability(query, tid, method=method, engine=engine)
        if self.include_safe_plan:
            liftable = is_liftable(query)
            lifted = {
                "safe_plan": lambda: probability(query, tid, method="safe_plan"),
                "safe_plan_reference": lambda: safe_plan_probability(query, tid),
            }
            for method, evaluate in lifted.items():
                if liftable:
                    # The verdict contract: is_liftable promised success, so
                    # an UnsafeQueryError here IS a disagreement, not a skip.
                    try:
                        report.exact_values[method] = evaluate()
                    except UnsafeQueryError as error:
                        raise OracleDisagreement(
                            f"oracle case {name!r}: is_liftable is True but "
                            f"{method} raised UnsafeQueryError: {error}",
                            report=report,
                        ) from error
                else:
                    try:
                        evaluate()
                    except UnsafeQueryError:
                        skipped.append(method)
                    else:
                        raise OracleDisagreement(
                            f"oracle case {name!r}: is_liftable is False but "
                            f"{method} evaluated the query without raising",
                            report=report,
                        )
        lineage = self.engine.lineage(query, tid.instance)
        report.bounds = dissociation_bounds(lineage, tid)
        if self.karp_luby_samples > 0:
            estimate = karp_luby_probability(
                lineage, tid, samples=self.karp_luby_samples, seed=self.karp_luby_seed
            )
            radius = math.sqrt(
                math.log(2.0 / self.karp_luby_delta) / (2.0 * self.karp_luby_samples)
            )
            # The estimator reports the exact union bound it scaled by; using
            # it (rather than re-deriving one) keeps the tolerance glued to
            # the estimator's actual scaling.
            report.karp_luby_estimate = estimate.estimate
            report.karp_luby_tolerance = float(estimate.union_bound) * radius
        else:
            skipped.append("karp_luby")
        report.skipped = tuple(skipped)
        report.assert_consistent()
        return report

    def check_case(self, case: WorkloadCase) -> OracleReport:
        """Check one :class:`~repro.testing.workloads.WorkloadCase`."""
        return self.check(case.query, case.tid, name=str(case))

    def check_many(self, cases: Iterable[WorkloadCase]) -> list[OracleReport]:
        """Check a whole workload; the first disagreement aborts the run."""
        return [self.check_case(case) for case in cases]
