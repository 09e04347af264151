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
at every x + mu e_p, the difference step runs in place on those rows,
and one matrix-vector product takes the inner products with the masked
grad_y f. Masking the d2-vector grad_y f instead of the |P| x d2 deltas
gives the same bits, as the bits are 0 or 1. On the quadratic family
each row is the base plus mu B_i[:, p], O(d2) work, which sums in
another order than a ``grad_g_y`` call at the perturbed point, so each
delta_p agrees with ``jacobian_column_fd`` to rounding, not bit for bit.
On the logistic family the points go through one stacked pass that
reruns the softmax only for offset perturbations, and each delta_p
equals ``jacobian_column_fd`` bit for bit. At a fixed BLAS thread count
the result is deterministic on both. The orientation matters: delta
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

The modeled cost of both routes is priced by ``federation.CostLedger``
from the client's masks; the estimators return only the hypergradient.
The rafbo charge stays ``2|P| + 2`` gradient evaluations whichever way a
family evaluates its perturbed points.
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


def perturbation_size(active: int, coord_fraction: float) -> int:
    """|P|: ceil(coord_fraction * active) of the active outer coordinates."""
    return math.ceil(coord_fraction * active)


def build_perturbation_set(mask_x: Mask, coord_fraction: float,
                           rng: RngStream | None = None) -> np.ndarray:
    """Sample the perturbation coordinates from the active outer support.

    Returns them as an ascending int64 index array. With
    ``coord_fraction == 1`` every active coordinate is used; below 1 a
    ``perturbation_size`` subset is drawn uniformly without replacement
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
    chosen = rng.generator().choice(
        active, size=perturbation_size(active.size, coord_fraction),
        replace=False)
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
    delta = (problem.grad_g_y(i, x, y, batch)
             - problem.grad_g_y(i, x_pert, y, batch)) / mu
    return delta if mask_y is None else apply_mask(delta, mask_y)


def exact_hypergradient(problem, i: int, x_masked: np.ndarray,
                        y_masked: np.ndarray, mask_x: Mask, mask_y: Mask,
                        batch_f=None, batch_g=None,
                        solvers: dict | None = None) -> np.ndarray:
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
    return apply_mask(gfx - correction, mask_x)


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
                        rng: RngStream | None = None) -> np.ndarray:
    """Second-order-free hypergradient via coordinate-wise differences.

    value = grad_x f + sum_{p in P} <delta_p, grad_y f> e_p; the lower
    gradients come from one ``grad_g_y_perturbed`` call.

    The difference step runs in place on the returned rows, which the
    caller owns. The inner mask multiplies grad_y f (d2 products), not
    every delta_p (|P| d2); with 0/1 bits (delta * b) * g and
    delta * (b * g) are the same float, signed zeros included.
    """
    coords = build_perturbation_set(mask_x, cfg.coord_fraction, rng)
    gfx = problem.grad_f_x(i, x_masked, y_masked, batch_f)
    gfy = problem.grad_f_y(i, x_masked, y_masked, batch_f)
    base, rows = problem.grad_g_y_perturbed(i, x_masked, y_masked,
                                            coords, cfg.mu, batch_g)
    np.subtract(base, rows, out=rows)
    rows /= cfg.mu
    value = gfx.copy()
    value[coords] += rows @ apply_mask(gfy, mask_y)
    return apply_mask(value, mask_x)


def hypergrad_error_bound(p_star: int, l_g1: float, mu: float,
                          l_f0: float) -> float:
    """Squared bound on the finite-difference estimation error.

    Returns (p_star * l_g1 * mu * l_f0)^2 / 4; homogeneous of degree two
    in mu, zero when mu is zero.
    """
    if min(p_star, l_g1, mu, l_f0) < 0:
        raise ValueError("bound inputs must be nonnegative")
    return (p_star * l_g1 * mu * l_f0) ** 2 / 4.0
