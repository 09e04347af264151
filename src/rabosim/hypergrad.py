"""Per-client hypergradient estimators; clients are rows.

Two routes to the same quantity:

* ``exact_hypergradient`` solves the client's inner Hessian system
  restricted to its active inner coordinates (implicit differentiation
  with a direct solve), then applies the mixed second derivative:
  value = grad_x f - (d^2 g/dx dy) @ z with z = [d^2 g/dy^2]^{-1} grad_y f.
  The second-order part is one ``aid_term`` call, which forms the active
  block only, so a client forms d2_active^2 Hessian entries, not d2^2, as
  ``federation.exact_aid_flops`` charges.

* ``rafbo_hypergradient`` is second-order free: it forward-differences
  the inner descent direction -grad_y g along unit perturbations of the
  active outer coordinates and accumulates vector-vector inner products,
  value = grad_x f + sum_p <delta_p, grad_y f> e_p. No Hessian or
  Jacobian is ever materialized and the only derivative oracle used is
  the lower-level gradient.

``jacobian_column_fd`` returns delta_p, the response of the descent
direction to a unit outer perturbation. ``rafbo_hypergradient`` takes
every <delta_p, v> from one row call of ``implicit_term``, the problem's
one perturbed-gradient callback, with v the masked grad_y f (masking v,
not every delta_p, gives the same bits, as they are 0 or 1). On both
families each term is the exact difference in closed form, with no
perturbed gradient and none of the difference's rounding of order
eps ||grad_y g|| ||v|| / mu that ``jacobian_column_fd`` carries. On the
quadratic family delta_p = -B_i[:, p] - (tau/2)(2 x_p + mu) U_i y, one
B_i^T v product per distinct row; on the logistic family the terms come
from one training softmax and one V phi product per client. The result
is deterministic on both. The orientation
matters: delta already carries the sign of the inner-optimum response,
so on problems with unit inner curvature it equals the Jacobian column
of x -> y*(x) exactly for every step size, and the two estimators
coincide. With curved cross-coupling the finite difference picks up an
O(mu) bias whose magnitude is bounded by ``hypergrad_error_bound``.

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
numbers); the quadratic closed form cancels additive noise exactly.

``federation.CostLedger`` prices both routes from the round's mask arrays;
an estimator takes its client's mask rows and returns the hypergradient.
The rafbo charge stays ``2|P| + 2`` gradient evaluations on both
families; each closed form is their exact difference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyMask, check_ranges
# solve_spd stays bound here: perfbench/spans.py wraps hypergrad.solve_spd
from .linalg import solve_spd  # noqa: F401
from .masking import apply_mask
from .rng import RngStream

EXACT_AID = "exact_aid"
RAFBO = "rafbo"
# ``mu`` is the forward-difference step of the second-order-free estimator
# (kept well above float cancellation, well below curvature scale), and
# ``coord_fraction`` the fraction of active outer coordinates sampled into
# its perturbation set (1.0 perturbs every active coordinate).
RANGES = {"mu": "positive", "coord_fraction": "in (0, 1]"}


def perturbation_size(active: int, coord_fraction: float) -> int:
    """|P|: ceil(coord_fraction * active) of the active outer coordinates."""
    return math.ceil(coord_fraction * active)


def build_perturbation_set(mask_x: np.ndarray, coord_fraction: float,
                           rng: RngStream | None = None) -> np.ndarray:
    """Sample the perturbation coordinates from the active outer support.

    Returns them as an ascending int64 index array. With
    ``coord_fraction == 1`` every active coordinate is used; below 1 a
    ``perturbation_size`` subset is drawn uniformly without replacement
    from ``rng``.
    """
    active = np.flatnonzero(mask_x)
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
                       mask_y: np.ndarray | None = None) -> np.ndarray:
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


def exact_hypergradient(problem, i, x_masked: np.ndarray,
                        y_masked: np.ndarray, mask_x: np.ndarray,
                        mask_y: np.ndarray, batch_f=None,
                        batch_g=None) -> np.ndarray:
    """Implicit-differentiation hypergradient with a restricted solve.

    The inner Hessian system is solved on the client's active inner
    coordinates only, treating inactive coordinates as frozen at zero; a
    full-dimension Hessian at masked parameters can be singular off the
    active block. Raises SingularRestrictedHessian when the restricted
    block is not SPD (the mask killed strong convexity there), naming
    the lowest such client.

    Clients are rows, as in ``BilevelProblem``: one ``grad_f`` call and
    one ``aid_term`` call, which solves each block once for the rows it
    serves (a shared A's clients on one active set) and applies the
    mixed derivative.
    """
    one, i, x, y, mask_x, mask_y = problem.rows(
        i, x_masked, y_masked, mask_x, mask_y)
    gfx, gfy = problem.grad_f(i, x, y, batch_f)
    active = [np.flatnonzero(m) for m in mask_y]
    value = apply_mask(gfx - problem.aid_term(i, x, y, active, gfy, batch_g),
                       mask_x)
    return value[0] if one else value


def rafbo_hypergradient(problem, i, x_masked: np.ndarray,
                        y_masked: np.ndarray, mask_x: np.ndarray,
                        mask_y: np.ndarray, mu: float, coord_fraction: float,
                        batch_f=None, batch_g=None,
                        rng: RngStream | None = None) -> np.ndarray:
    """Second-order-free hypergradient via coordinate-wise differences.

    value = grad_x f + sum_{p in P} <delta_p, grad_y f> e_p; the inner
    products come from one ``implicit_term`` call. Clients are rows, as
    in ``exact_hypergradient``, with one ``rng`` per row.

    The inner mask multiplies grad_y f (d2 products), not every delta_p
    (|P| d2); with 0/1 bits (delta * b) * g and delta * (b * g) are the
    same float, signed zeros included.
    """
    check_ranges({"mu": mu}, RANGES)
    one, i, x, y, mask_x, mask_y, rng = problem.rows(
        i, x_masked, y_masked, mask_x, mask_y, rng)
    coords = [build_perturbation_set(m, coord_fraction, stream)
              for m, stream in zip(mask_x, rng)]
    gfx, gfy = problem.grad_f(i, x, y, batch_f)
    value, gfy = gfx.copy(), apply_mask(gfy, mask_y)
    terms = problem.implicit_term(i, x, y, coords, mu, gfy, batch_g)
    for r, term in enumerate(terms):
        value[r, coords[r]] += term
    value = apply_mask(value, mask_x)
    return value[0] if one else value


def hypergrad_error_bound(p_star: int, l_g1: float, mu: float,
                          l_f0: float) -> float:
    """Squared bound on the finite-difference estimation error.

    Returns (p_star * l_g1 * mu * l_f0)^2 / 4; homogeneous of degree two
    in mu, zero when mu is zero.
    """
    if min(p_star, l_g1, mu, l_f0) < 0:
        raise ValueError("bound inputs must be nonnegative")
    return (p_star * l_g1 * mu * l_f0) ** 2 / 4.0
