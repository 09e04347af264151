"""Serialization of problem specifications.

Problems are serialized as their generator arguments (dimensions, seeds,
noise scales, eigenvalue range, imbalance decay), not their matrices, so a
run is fully reproducible from the config document alone. The output is a
config ``problem`` section; ``cli.build_problem`` rebuilds the instance
from it. Instances built from explicit user data carry no generator
parameters and cannot be serialized.
"""

from __future__ import annotations

from ..errors import InvalidSpec
from .logistic import LogisticTuneProblem
from .quadratic import QuadraticProblem


def problem_to_config(problem) -> dict:
    """Generator arguments of a problem instance as a config section."""
    if isinstance(problem, (QuadraticProblem, LogisticTuneProblem)):
        if not problem.spec.params:
            raise InvalidSpec(
                "problem built from explicit data has no generator parameters")
        return dict(problem.spec.params)
    raise InvalidSpec(f"cannot serialize {type(problem).__name__}")
