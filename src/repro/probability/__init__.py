"""Exact and approximate probability evaluation on tuple-independent databases.

The package is callable: ``repro.probability(query, tid, ...)`` is
:func:`repro.probability.evaluation.probability`.  :mod:`repro` exports the
package itself under that name, so ``from repro import probability`` gives a
callable and ``import repro.probability.lifted.reference`` still resolves the
subpackages.
"""

import sys
from types import ModuleType

from repro.probability.approximation import (
    ApproximationResult,
    DissociationBounds,
    approximate_probability,
    dissociation_bounds,
    estimate_property_probability,
    hoeffding_sample_size,
    karp_luby_probability,
    monte_carlo_probability,
)
from repro.probability.brute_force import (
    brute_force_model_count,
    brute_force_probability,
    brute_force_property_probability,
)
from repro.probability.evaluation import probability
from repro.probability.lifted import (
    LiftedPlan,
    execute_plan,
    lifted_plan,
    lifted_probability,
    try_lifted_plan,
)
from repro.probability.model_counting import model_count_via_probability, property_model_count
from repro.probability.safe_plans import UnsafeQueryError, is_liftable, safe_plan_probability


class _CallablePackage(ModuleType):
    """A module type whose call evaluates :func:`probability`."""

    def __call__(self, *args, **kwargs):
        return probability(*args, **kwargs)


sys.modules[__name__].__class__ = _CallablePackage

__all__ = [
    "ApproximationResult",
    "DissociationBounds",
    "LiftedPlan",
    "UnsafeQueryError",
    "approximate_probability",
    "brute_force_model_count",
    "brute_force_probability",
    "brute_force_property_probability",
    "dissociation_bounds",
    "estimate_property_probability",
    "execute_plan",
    "hoeffding_sample_size",
    "is_liftable",
    "karp_luby_probability",
    "lifted_plan",
    "lifted_probability",
    "model_count_via_probability",
    "monte_carlo_probability",
    "probability",
    "property_model_count",
    "safe_plan_probability",
    "try_lifted_plan",
]
