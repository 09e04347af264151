"""Deterministic simulator for resource-adaptive distributed bilevel
optimization with dual pruning.

Clients train masked submodels of both the outer and inner variables,
the server aggregates parameter-wise over covering clients, and
hypergradients come from either an implicit-differentiation solve or a
second-order-free coordinate-difference estimator. Everything is
reproducible bit-for-bit from a seed and a config document.
"""

from . import errors
from .federation import (
    CostLedger,
    GlobalState,
    RoundLog,
    RunConfig,
    RunResult,
    aggregate_inner,
    aggregate_outer,
    client_inner_loop,
    rabo_round,
    run,
)
from .hypergrad import (
    EXACT_AID,
    RAFBO,
    build_perturbation_set,
    exact_hypergradient,
    hypergrad_error_bound,
    jacobian_column_fd,
    rafbo_hypergradient,
)
from .linalg import solve_spd, spectral_bounds
from .masking import (
    CoverageTracker,
    apply_mask,
    coverage,
    generate_mask,
    mask_deviation,
)
from .problems import (
    BilevelProblem,
    ProblemConstants,
    SampleBatch,
    derive_constants,
    make_logistic_tune,
    make_quadratic,
)
from .rng import RngStream

__version__ = "0.1.0"
