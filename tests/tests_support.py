"""Shared fixtures: tiny hand-checkable problem instances."""

import math

import numpy as np

from rabosim.problems.quadratic import QuadraticProblem, QuadraticSpec


def one_dim_tracking_problem(lam=0.0):
    """g = 0.5 (y - x)^2, f = 0.5 y^2: grad Phi(x) = x."""
    return QuadraticProblem(QuadraticSpec(
        a_mats=[np.array([[1.0]])], b_mats=[np.array([[-1.0]])],
        c_vecs=[np.zeros(1)], outer_targets=[np.zeros(1)],
        inner_targets=[np.zeros(1)], u_mats=None, lam=lam,
        noise_f=0.0, noise_g=0.0, quartic=0.0, sine_amp=0.0,
        ball_radius=10.0))


EPS = np.finfo(np.float64).eps


def grad_g_y_row_bound(prob, i, xs, y, batch=None, x_base=None):
    """Entrywise bound on how far two evaluation orders of a row may differ.

    Row k of the quadratic lower gradient is (A_i y + B_i x_k) + c_i, plus
    (tau/2) ||x_k||^2 U_i y and the batch noise. A GEMM and a GEMV may sum
    the d1 products of B_i x_k (and the d1 squares of ||x_k||^2) in
    different orders; each order is within about d1 * eps of the exact
    value, relative to the sum of absolute terms, and each of the few
    remaining additions adds at most eps of its result. Two evaluations
    of the same row therefore differ by at most

        2 (max(d1, d2) + 4) eps (|A_i||y| + |B_i||x_k| + |c_i|
                                 + (tau/2) ||x_k||^2 |U_i||y| + |noise|).

    ``grad_g_y_perturbed`` builds row k from the gradient at ``x_base``
    plus the change to x_k, so that row also carries the base's rounding,
    relative to the terms at ``x_base``. Those exceed the terms at x_k by
    at most |B_i||x_k - x_base| + (tau/2) |(||x_k||^2 - ||x_base||^2)| |U_i||y|;
    with ``x_base`` given, that excess joins the terms above.

    Returns a (k, d2) array; families without an override evaluate the
    rows through ``grad_g_y`` itself, so their bound is zero.
    """
    from rabosim.problems.quadratic import QuadraticProblem

    xs = np.atleast_2d(xs)
    if not isinstance(prob, QuadraticProblem):
        return np.zeros((xs.shape[0], prob.d2))
    s = prob.spec
    abs_b = np.abs(s.b_mats[i])
    terms = (np.abs(s.a_mats[i]) @ np.abs(y) + np.abs(xs) @ abs_b.T
             + np.abs(s.c_vecs[i]))
    if x_base is not None:
        terms = terms + np.abs(xs - x_base) @ abs_b.T
    if s.quartic:
        sq = np.sum(xs * xs, axis=1)
        if x_base is not None:
            sq = sq + np.abs(sq - float(x_base @ x_base))
        terms = terms + np.outer((s.quartic / 2.0) * sq,
                                 np.abs(s.u_mats[i]) @ np.abs(y))
    noise = prob._noise(batch, s.noise_g)
    if noise is not None:
        terms = terms + np.abs(noise[: prob.d2])
    return 2 * (max(prob.d1, prob.d2) + 4) * EPS * terms


def topk_indices_loop(params, target, block_size):
    """Magnitude top-k as a loop over blocks: the reference ranking.

    Blocks are ranked by descending summed magnitude, ties to the lower
    block; inside a block coordinates are ranked by descending magnitude,
    ties to the lower index; the first ``target`` coordinates are kept.
    """
    d = len(params)
    mags = np.abs(params)
    n_blocks = math.ceil(d / block_size)
    scores = np.array([mags[b * block_size:(b + 1) * block_size].sum()
                       for b in range(n_blocks)])
    block_order = np.lexsort((np.arange(n_blocks), -scores))
    ranked = []
    for b in block_order:
        coords = np.arange(b * block_size, min((b + 1) * block_size, d))
        inner = np.lexsort((coords, -mags[coords]))
        ranked.extend(coords[inner])
    return np.array(ranked[:target])
