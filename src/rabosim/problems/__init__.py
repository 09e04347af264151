from .base import BilevelProblem, ProblemConstants, SampleBatch
from .logistic import LogisticTuneProblem, LogisticTuneSpec, make_logistic_tune
from .quadratic import (
    QuadraticProblem,
    QuadraticSpec,
    analytic_outer_minimizer,
    derive_constants,
    inner_optimum_oracle,
    make_quadratic,
    true_hypergradient_oracle,
)

__all__ = [
    "BilevelProblem",
    "ProblemConstants",
    "SampleBatch",
    "QuadraticProblem",
    "QuadraticSpec",
    "LogisticTuneProblem",
    "LogisticTuneSpec",
    "make_quadratic",
    "make_logistic_tune",
    "inner_optimum_oracle",
    "true_hypergradient_oracle",
    "analytic_outer_minimizer",
    "derive_constants",
]
