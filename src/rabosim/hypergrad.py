"""Per-client hypergradient estimators.

Two routes to the same quantity:

* ``exact_hypergradient`` solves the client's inner Hessian system
  restricted to its active inner coordinates (implicit differentiation
  with a direct solve), then applies the mixed second derivative:
  value = grad_x f - (d^2 g/dx dy) @ z with z = [d^2 g/dy^2]^{-1} grad_y f.

* ``rafbo_hypergradient`` is second-order free: it forward-differences
  the inner descent direction -grad_y g along unit perturbations of the
  active outer coordinates and accumulates vector-vector inner products,
  value = grad_x f + sum_p <delta_p, grad_y f> e_p. No Hessian or
  Jacobian is ever materialized and the only derivative oracle used is
  the lower-level gradient.

``jacobian_column_fd`` returns delta_p, the response of the descent
direction to a unit outer perturbation. ``rafbo_hypergradient`` forms
every delta_p of its perturbation set at once: one
``grad_g_y_perturbed`` call returns the base gradient and the gradient
at every x + mu e_p (on the quadratic family each row is the base plus
mu B_i[:, p], O(d2) work), then the difference step on all rows and one
matrix-vector product for the inner products. That sums in another
order than one ``jacobian_column_fd`` call per coordinate, so the two
agree to rounding, not bit for bit; at a fixed BLAS thread count the
result is still deterministic. The orientation matters: delta
already carries the sign of the inner-optimum response, so on problems
with unit inner curvature it equals the Jacobian column of x -> y*(x)
exactly for every step size, and the two estimators coincide. With
curved cross-coupling the finite difference picks up an O(mu) bias whose
magnitude is bounded by ``hypergrad_error_bound``.

Regime. The implicit term sum_p <delta_p, grad_y f> e_p equals
-(d^2 g/dx dy) grad_y f, while the true one is
-(d^2 g/dx dy) [d^2 g/dy^2]^{-1} grad_y f. The difference route drops the
inverse inner Hessian, which is the identity only when d^2 g/dy^2 = I.
With any other inner curvature the estimate is biased by an amount that
does not shrink with mu, and rafbo converges to a point where this
biased hypergradient, not the true one, vanishes. The exception is an
outer optimum where grad_y f is zero (``target_scale`` 0 on the
quadratic family), which is a fixed point for both estimators. This
form is the simulator's own choice; ROADMAP item 3 tracks the bias. On
the noiseless quadratic family, rafbo's stall point is the fixed point
of the exact round map in ``tests/linear_oracle.py``.

Both evaluations inside a difference share one batch (common random
numbers), so additive gradient noise cancels to first order.

Cost model: gradient evaluations are the atomic unit,
``2 * (d1_active + d2_active)^2`` flops each. The exact route is
additionally charged one gradient-equivalent per Hessian row and per
cross-derivative column (the price of obtaining second derivatives by
differentiating the gradient oracle), the materialization of the
restricted block, the cubic cost of the solve, and the dense
cross-operator application. Under this model the difference route is
strictly cheaper whenever the perturbation set is no larger than the
active inner dimension, with the gap widening as coordinates are
sampled out. The difference route stays charged 2|P| + 2 gradient
evaluations although the simulator evaluates the base gradient once, so
the modeled cost describes the method, not the simulator. Likewise a
round factors each distinct read-only inner Hessian block and active
set once and reuses the factor for every client holding the pair (the
``solvers`` memo of ``exact_hypergradient``), while ``exact_aid_flops``
still charges every client its own solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyMask,
    NotPositiveDefinite,
    SingularRestrictedHessian,
    check_ranges,
)
# solve_spd stays bound here: perfbench/spans.py wraps hypergrad.solve_spd
from .linalg import solve_spd, spd_solver
from .masking import Mask, apply_mask
from .rng import RngStream

EXACT_AID = "exact_aid"
RAFBO = "rafbo"
RANGES = {"mu": "positive", "coord_fraction": "in (0, 1]"}


@dataclass(frozen=True)
class RAFBOConfig:
    """Knobs of the second-order-free estimator.

    ``mu`` is the forward-difference step (kept well above float
    cancellation, well below curvature scale). ``coord_fraction`` is the
    fraction of active outer coordinates sampled into the perturbation
    set; 1.0 (the default) perturbs every active coordinate.
    """

    mu: float = 1e-3
    coord_fraction: float = 1.0

    def __post_init__(self):
        check_ranges(vars(self), RANGES)


@dataclass(frozen=True)
class HypergradEstimate:
    """One client's hypergradient with its cost tally."""

    value: np.ndarray
    flops: int


def grad_eval_flops(d1_active: int, d2_active: int) -> int:
    """Flop charge for one gradient evaluation on the active submodel."""
    return 2 * (d1_active + d2_active) ** 2


def exact_aid_flops(d1_active: int, d2_active: int) -> int:
    unit = grad_eval_flops(d1_active, d2_active)
    assemble = d2_active ** 2                       # materialize the block
    solve = d2_active ** 3 // 3 + 2 * d2_active ** 2
    cross = 2 * d1_active * d2_active               # dense operator apply
    return (2 + d2_active + d1_active) * unit + assemble + solve + cross \
        + 2 * d1_active


def rafbo_flops(d1_active: int, d2_active: int, p_size: int) -> int:
    unit = grad_eval_flops(d1_active, d2_active)
    return (2 + 2 * p_size) * unit + p_size * (2 * d2_active + 1) + 2 * d1_active


def build_perturbation_set(mask_x: Mask, coord_fraction: float,
                           rng: RngStream | None = None) -> np.ndarray:
    """Sample the perturbation coordinates from the active outer support.

    Returns them as an ascending int64 index array. With
    ``coord_fraction == 1`` every active coordinate is used; below 1 a
    ceil(fraction * active) subset is drawn uniformly without replacement
    from ``rng``.
    """
    active = mask_x.support()
    if active.size == 0:
        raise EmptyMask("outer mask has no active coordinate")
    check_ranges({"coord_fraction": coord_fraction}, RANGES)
    if coord_fraction == 1.0:
        return active.astype(np.int64)
    if rng is None:
        raise ValueError("sampling a strict subset requires an rng stream")
    k = math.ceil(coord_fraction * active.size)
    chosen = rng.generator().choice(active, size=k, replace=False)
    chosen.sort()
    return chosen.astype(np.int64)


def jacobian_column_fd(problem, i: int, x: np.ndarray, y: np.ndarray,
                       coord: int, mu: float, batch=None,
                       mask_y: Mask | None = None) -> np.ndarray:
    """Forward-difference response of the inner descent direction.

    Returns delta = (-grad_y g(x + mu e_p, y) + grad_y g(x, y)) / mu in
    R^{d2}, masked by ``mask_y`` when given. The same batch is used for
    both evaluations so additive noise cancels exactly. For bilinear
    cross-coupling the difference is exact and independent of mu; curved
    coupling contributes an O(mu) bias.
    """
    check_ranges({"mu": mu}, RANGES)
    x_pert = x.copy()
    x_pert[coord] += mu
    return _difference_rows(problem.grad_g_y(i, x, y, batch),
                            problem.grad_g_y(i, x_pert, y, batch), mu, mask_y)


def _difference_rows(base: np.ndarray, perturbed: np.ndarray, mu: float,
                     mask_y: Mask | None) -> np.ndarray:
    """(base - perturbed) / mu per row (or for one vector), masked by mask_y."""
    delta = (base - perturbed) / mu
    return delta if mask_y is None else apply_mask(delta, mask_y)


def exact_hypergradient(problem, i: int, x_masked: np.ndarray,
                        y_masked: np.ndarray, mask_x: Mask, mask_y: Mask,
                        batch_f=None, batch_g=None,
                        solvers: dict | None = None) -> HypergradEstimate:
    """Implicit-differentiation hypergradient with a restricted solve.

    The inner Hessian system is solved on the client's active inner
    coordinates only, treating inactive coordinates as frozen at zero; a
    full-dimension Hessian at masked parameters can be singular off the
    active block. Raises SingularRestrictedHessian when the restricted
    block is not SPD (the mask killed strong convexity there).

    ``solvers`` is a memo that one round's calls share. When the Hessian
    is read-only (a block the problem shares and never changes), the
    solver of its restricted block is kept there, keyed by the array's
    identity and the active set, and every client with the same pair
    reuses it; the bits are those of a factor per client.
    """
    gfx = problem.grad_f_x(i, x_masked, y_masked, batch_f)
    gfy = problem.grad_f_y(i, x_masked, y_masked, batch_f)
    active_y = mask_y.support()
    z = np.zeros(problem.d2)
    if active_y.size:
        hess = problem.hess_yy_g(i, x_masked, y_masked, batch_g)
        try:
            z[active_y] = _restricted_solver(hess, active_y, solvers)(
                gfy[active_y])
        except NotPositiveDefinite as exc:
            raise SingularRestrictedHessian(
                f"client {i}: restricted inner Hessian is not SPD "
                f"({active_y.size} active coordinates)") from exc
    correction = problem.cross_xy_g_apply(i, x_masked, y_masked, z, batch_g)
    value = apply_mask(gfx - correction, mask_x)
    return HypergradEstimate(
        value=value,
        flops=exact_aid_flops(mask_x.active_count, int(active_y.size)))


def _restricted_solver(hess: np.ndarray, active_y: np.ndarray,
                       solvers: dict | None):
    """Solver of ``hess`` restricted to ``active_y``, memoized in
    ``solvers`` when ``hess`` is read-only. An entry holds ``hess`` itself,
    so its id is not reused while the memo lives."""
    if solvers is None or hess.flags.writeable:
        return spd_solver(hess[np.ix_(active_y, active_y)])
    key = (id(hess), active_y.tobytes())
    if key not in solvers:
        solvers[key] = (hess, spd_solver(hess[np.ix_(active_y, active_y)]))
    return solvers[key][1]


def rafbo_hypergradient(problem, i: int, x_masked: np.ndarray,
                        y_masked: np.ndarray, mask_x: Mask, mask_y: Mask,
                        cfg: RAFBOConfig, batch_f=None, batch_g=None,
                        rng: RngStream | None = None) -> HypergradEstimate:
    """Second-order-free hypergradient via coordinate-wise differences.

    value = grad_x f + sum_{p in P} <delta_p, grad_y f> e_p, charged as
    2|P| + 2 gradient evaluations and |P| vector-vector inner products;
    the lower gradients come from one ``grad_g_y_perturbed`` call.
    """
    coords = build_perturbation_set(mask_x, cfg.coord_fraction, rng)
    gfx = problem.grad_f_x(i, x_masked, y_masked, batch_f)
    gfy = problem.grad_f_y(i, x_masked, y_masked, batch_f)
    base, rows = problem.grad_g_y_perturbed(i, x_masked, y_masked,
                                            coords, cfg.mu, batch_g)
    deltas = _difference_rows(base, rows, cfg.mu, mask_y)
    value = gfx.copy()
    value[coords] += deltas @ gfy
    return HypergradEstimate(
        value=apply_mask(value, mask_x),
        flops=rafbo_flops(mask_x.active_count, mask_y.active_count,
                          coords.shape[0]))


def hypergrad_error_bound(p_star: int, l_g1: float, mu: float,
                          l_f0: float) -> float:
    """Squared bound on the finite-difference estimation error.

    Returns (p_star * l_g1 * mu * l_f0)^2 / 4; homogeneous of degree two
    in mu, zero when mu is zero.
    """
    if min(p_star, l_g1, mu, l_f0) < 0:
        raise ValueError("bound inputs must be nonnegative")
    return (p_star * l_g1 * mu * l_f0) ** 2 / 4.0
