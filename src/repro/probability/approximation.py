"""Approximate probability evaluation on tuple-independent databases.

Exact probability evaluation is #P-hard in general (Theorem 4.2 gives a
single FO query that is hard on every efficiently constructible
unbounded-treewidth family).  The paper's conclusion points at two practical
escape hatches on instances that are *not* treelike: randomized approximation
and the *dissociation* technique of Gatterbauer and Suciu [27].  This module
implements both, for the monotone-DNF lineages produced by
:func:`repro.provenance.lineage.lineage_of` (and by the C2RPQ≠ machinery):

* :func:`monte_carlo_probability` — the naive unbiased estimator (sample
  possible worlds, average the indicator);
* :func:`karp_luby_probability` — the Karp-Luby importance-sampling FPRAS for
  DNF probability, whose relative error does not degrade when the true
  probability is tiny;
* :func:`dissociation_bounds` — oblivious upper and lower bounds obtained by
  treating each clause independently (the "independent-or" upper bound and
  the max-clause lower bound), which are exact precisely when the lineage is
  a read-once independent OR — the situation bounded-pathwidth unfoldings of
  Section 9 produce.

All estimators accept a ``random.Random`` seed for reproducibility and report
their estimates as floats (the exact engines elsewhere in the library return
:class:`fractions.Fraction`).  Exactness policy: everything that *scales or
bounds* a result (clause weights, union bounds, dissociation bounds, interval
membership of exact values) is computed in exact rational arithmetic; floats
appear only in the sampled estimates themselves, where they are irreducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from repro.data.instance import Fact, Instance
from repro.data.tid import ProbabilisticInstance
from repro.errors import ProbabilityError
from repro.provenance.lineage import MonotoneDNFLineage, lineage_of
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq


@dataclass(frozen=True)
class ApproximationResult:
    """An estimate together with the sampling effort that produced it.

    ``union_bound`` is the exact sum of clause probabilities when the
    estimator computed one (Karp–Luby scales its indicator mean by it);
    consumers that bound the estimator's error (the differential oracle)
    read it from here instead of re-deriving it.
    """

    estimate: float
    samples: int
    method: str
    union_bound: Fraction | None = None

    def absolute_error(self, exact: Fraction | float) -> float:
        return abs(self.estimate - float(exact))

    def relative_error(self, exact: Fraction | float) -> float:
        exact_value = float(exact)
        if exact_value == 0:
            return math.inf if self.estimate else 0.0
        return abs(self.estimate - exact_value) / exact_value


def _lineage_for(
    query_or_lineage,
    probabilistic_instance: ProbabilisticInstance,
) -> MonotoneDNFLineage:
    if isinstance(query_or_lineage, MonotoneDNFLineage):
        return query_or_lineage
    if isinstance(query_or_lineage, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        return lineage_of(as_ucq(query_or_lineage), probabilistic_instance.instance)
    raise ProbabilityError(
        "expected a CQ/UCQ or a MonotoneDNFLineage, got "
        f"{type(query_or_lineage).__name__}"
    )


def _sampling_thresholds(
    valuation: Mapping[Fact, Fraction],
) -> dict[Fact, Fraction | float]:
    """Per-fact inclusion thresholds for the samplers.

    Exactness without the ~100x cost of a Fraction rich comparison in the
    inner sampling loop: probabilities whose float image is exact (every
    dyadic value the workloads generate) compare on the float fast path;
    the rest keep the exact Fraction (float-vs-Fraction comparison is exact
    in Python), so no threshold is ever silently rounded.
    """
    thresholds: dict[Fact, Fraction | float] = {}
    for f, p in valuation.items():
        image = float(p)
        thresholds[f] = image if Fraction(image) == p else p
    return thresholds


def _sample_world(
    facts: Iterable[Fact],
    thresholds: Mapping[Fact, Fraction | float],
    generator: random.Random,
) -> set[Fact]:
    return {f for f in facts if generator.random() < thresholds[f]}


def monte_carlo_probability(
    query_or_lineage,
    probabilistic_instance: ProbabilisticInstance,
    samples: int = 1000,
    seed: int = 0,
) -> ApproximationResult:
    """The naive Monte-Carlo estimator: sample worlds, average the indicator.

    Unbiased, with additive error O(1/sqrt(samples)); the relative error blows
    up when the true probability is small, which is what
    :func:`karp_luby_probability` fixes.
    """
    if samples <= 0:
        raise ProbabilityError("the sample count must be positive")
    lineage = _lineage_for(query_or_lineage, probabilistic_instance)
    thresholds = _sampling_thresholds(probabilistic_instance.valuation())
    generator = random.Random(seed)
    facts = list(probabilistic_instance.instance.facts)
    hits = 0
    for _ in range(samples):
        world = _sample_world(facts, thresholds, generator)
        if lineage.evaluate(world):
            hits += 1
    return ApproximationResult(hits / samples, samples, "monte_carlo")


def karp_luby_probability(
    query_or_lineage,
    probabilistic_instance: ProbabilisticInstance,
    samples: int = 1000,
    seed: int = 0,
) -> ApproximationResult:
    """The Karp-Luby estimator for the probability of a monotone DNF lineage.

    Sampling scheme: pick a clause with probability proportional to its
    marginal probability, sample the remaining facts conditioned on the
    clause being present, and count the sample only when the picked clause is
    the *first* satisfied clause (canonical-witness trick).  The estimate is
    the union-bound mass scaled by the fraction of counted samples — an
    unbiased estimator of the true probability whose relative error is
    bounded independently of how small the probability is (the estimator is a
    fully polynomial randomized approximation scheme).
    """
    if samples <= 0:
        raise ProbabilityError("the sample count must be positive")
    lineage = _lineage_for(query_or_lineage, probabilistic_instance)
    clauses = list(lineage.clauses)
    if not clauses:
        return ApproximationResult(0.0, samples, "karp_luby", union_bound=Fraction(0))
    valuation = probabilistic_instance.valuation()
    # Clause weights and the union bound stay exact Fractions: the union bound
    # scales every returned estimate, so rounding it through float would bias
    # the estimator beyond its sampling error.  Floats appear only where the
    # sampler genuinely needs them (the ``choices`` weights).
    clause_probability: list[Fraction] = []
    for clause in clauses:
        weight = Fraction(1)
        for f in clause:
            weight *= valuation[f]
        clause_probability.append(weight)
    union_bound = sum(clause_probability, Fraction(0))
    if union_bound == 0:
        return ApproximationResult(0.0, samples, "karp_luby", union_bound=union_bound)
    generator = random.Random(seed)
    facts = list(probabilistic_instance.instance.facts)
    sampling_weights = [float(w) for w in clause_probability]
    if not any(sampling_weights):
        # Every clause weight underflowed to 0.0 although the exact union
        # bound is positive: the sampler cannot pick a clause, and the true
        # probability is below the smallest positive float anyway.
        return ApproximationResult(0.0, samples, "karp_luby", union_bound=union_bound)
    thresholds = _sampling_thresholds(valuation)
    counted = 0
    for _ in range(samples):
        picked_index = generator.choices(range(len(clauses)), weights=sampling_weights)[0]
        picked = clauses[picked_index]
        world = {f for f in facts if f in picked or generator.random() < thresholds[f]}
        # Count the sample iff the picked clause is the first satisfied one.
        first_satisfied = None
        for index, clause in enumerate(clauses):
            if clause <= world:
                first_satisfied = index
                break
        if first_satisfied == picked_index:
            counted += 1
    return ApproximationResult(
        float(union_bound * Fraction(counted, samples)),
        samples,
        "karp_luby",
        union_bound=union_bound,
    )


@dataclass(frozen=True)
class DissociationBounds:
    """Oblivious lower and upper bounds on a monotone DNF probability."""

    lower: Fraction
    upper: Fraction

    def contains(self, value: Fraction | float) -> bool:
        """Whether ``value`` lies in the interval.

        Exact values (``Fraction``/``int``) are compared exactly — the bounds
        are theorems, so an exact probability outside them is a bug, however
        close.  Float estimates keep a tiny slack for their representation
        error.
        """
        if isinstance(value, float):
            return float(self.lower) - 1e-12 <= value <= float(self.upper) + 1e-12
        return self.lower <= value <= self.upper

    @property
    def gap(self) -> Fraction:
        return self.upper - self.lower


def dissociation_bounds(
    query_or_lineage,
    probabilistic_instance: ProbabilisticInstance,
) -> DissociationBounds:
    """Oblivious bounds obtained by dissociating the clauses of the lineage.

    The *upper* bound treats the clauses as independent events ("independent
    or" / dissociation of the shared facts into fresh copies): it always
    dominates the true probability of a monotone DNF with positively
    correlated clauses.  The *lower* bound is the probability of the most
    probable single clause.  Both are exact when the lineage is a single
    clause, and the upper bound is exact whenever the clauses touch pairwise
    disjoint fact sets (a read-once independent OR) — which is what the
    bounded-pathwidth rewritings of Section 9 guarantee for inversion-free
    queries.
    """
    lineage = _lineage_for(query_or_lineage, probabilistic_instance)
    valuation = probabilistic_instance.valuation()
    best_single = Fraction(0)
    complement_product = Fraction(1)
    for clause in lineage.clauses:
        clause_probability = Fraction(1)
        for f in clause:
            clause_probability *= valuation[f]
        best_single = max(best_single, clause_probability)
        complement_product *= 1 - clause_probability
    return DissociationBounds(lower=best_single, upper=1 - complement_product)


def karp_luby_with_bounds(
    query_or_lineage,
    probabilistic_instance: ProbabilisticInstance,
    samples: int = 1000,
    seed: int = 0,
) -> tuple[ApproximationResult, DissociationBounds]:
    """The Karp–Luby estimate and the dissociation interval off one lineage.

    The degradation tier of ``method="auto"`` (see
    :func:`repro.engine.router.degraded_probability_bounds`) needs both: the interval is the
    *guarantee* (the true probability always lies inside), the estimate the
    usable point value.  Building the DNF lineage once and sharing it keeps
    the degraded path a single lineage enumeration — the lineage is
    polynomial in the instance even on workloads whose compiled circuits
    explode.
    """
    lineage = _lineage_for(query_or_lineage, probabilistic_instance)
    estimate = karp_luby_probability(lineage, probabilistic_instance, samples, seed)
    bounds = dissociation_bounds(lineage, probabilistic_instance)
    return estimate, bounds


def hoeffding_sample_size(epsilon: float, delta: float) -> int:
    """Samples needed for additive error <= epsilon with probability >= 1 - delta."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ProbabilityError("epsilon and delta must lie strictly between 0 and 1")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def approximate_probability(
    query_or_lineage,
    probabilistic_instance: ProbabilisticInstance,
    epsilon: float = 0.05,
    delta: float = 0.05,
    method: str = "karp_luby",
    seed: int = 0,
) -> ApproximationResult:
    """An (epsilon, delta) additive approximation with the requested estimator.

    The sample size is chosen by the Hoeffding bound on the underlying
    indicator variables; for ``karp_luby`` this is conservative (its indicator
    is scaled by the union bound) but keeps the interface uniform.
    """
    samples = hoeffding_sample_size(epsilon, delta)
    if method == "monte_carlo":
        return monte_carlo_probability(query_or_lineage, probabilistic_instance, samples, seed)
    if method == "karp_luby":
        return karp_luby_probability(query_or_lineage, probabilistic_instance, samples, seed)
    raise ProbabilityError(f"unknown approximation method {method!r}")


def estimate_property_probability(
    property_check: Callable[[Instance], bool],
    probabilistic_instance: ProbabilisticInstance,
    samples: int = 1000,
    seed: int = 0,
) -> ApproximationResult:
    """Monte-Carlo estimation for an arbitrary (possibly non-monotone) property.

    The MSO queries of Sections 4 and 5 are not monotone in general, so they
    have no DNF lineage; this estimator only needs a membership oracle.
    """
    if samples <= 0:
        raise ProbabilityError("the sample count must be positive")
    thresholds = _sampling_thresholds(probabilistic_instance.valuation())
    generator = random.Random(seed)
    facts = list(probabilistic_instance.instance.facts)
    hits = 0
    for _ in range(samples):
        world_facts = _sample_world(facts, thresholds, generator)
        if property_check(probabilistic_instance.instance.subinstance(world_facts)):
            hits += 1
    return ApproximationResult(hits / samples, samples, "monte_carlo_property")
