from .base import BilevelProblem, ProblemConstants, SampleBatch
from .logistic import LogisticTuneProblem, LogisticTuneSpec, make_logistic_tune
from .quadratic import (
    QuadraticProblem,
    QuadraticSpec,
    derive_constants,
    make_quadratic,
)
