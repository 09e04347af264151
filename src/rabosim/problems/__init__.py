from .base import BilevelProblem, ProblemConstants, SampleBatch
from .logistic import LogisticTuneProblem, LogisticTuneSpec, make_logistic_tune
from .quadratic import (
    QuadraticProblem,
    QuadraticSpec,
    derive_constants,
    make_quadratic,
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
    "derive_constants",
]
