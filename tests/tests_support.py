"""Shared fixtures: tiny hand-checkable problem instances."""

import math

import numpy as np
from hypothesis import strategies as st

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

    With ``x_base`` given, the bound covers the rounding of two
    evaluations, one at ``x_base`` and one at x_k: their difference then
    lies within it of the exact difference, which the quadratic
    ``implicit_term`` computes in closed form. The terms at ``x_base``
    exceed those at x_k by at most |B_i||x_k - x_base| +
    (tau/2) |(||x_k||^2 - ||x_base||^2)| |U_i||y|; that excess joins the
    terms above.

    Returns a (k, d2) array. The logistic family's bound is
    ``logistic_row_bound``'s.
    """
    from rabosim.problems.quadratic import QuadraticProblem

    xs = np.atleast_2d(xs)
    if not isinstance(prob, QuadraticProblem):
        return logistic_row_bound(prob, i, xs, y, batch, x_base)
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
    if batch is not None and s.noise_g:
        noise = batch.noise_stream().normal(
            (prob.n, prob.d1 + prob.d2))[i, : prob.d2]
        terms = terms + np.abs(noise) * (s.noise_g / np.sqrt(batch.size))
    return 2 * (max(prob.d1, prob.d2) + 4) * EPS * terms


def logistic_scale(prob, i, x, y, batch=None, rounding=True):
    """S(x), the d2 scale of the logistic ``grad_g_y`` row's rounding:

        S = sum_j w_j K_j (|r_j| + p_j) kron |phi_j| / m + (d2 + 4) reg |y|,

    with p_j the softmax of z_j = W phi_j + o, r_j = p_j - e_{c_j} and
    w_j = exp(w_raw[c_j]), over the batch's m training samples. The
    logits round by at most (p + 1) eps Z_j, Z_j = max_c (|W_c| |phi_j| +
    |o_c|), and the log-softmax, its exp and the shifts add a few eps of
    C and of |z_j|, so p_j rounds relatively by rho_j eps with
    rho_j = (4p + 2C + 16)(1 + Z_j), and r_j by rho_j eps p_j + eps |r_j|.
    The weighted sum over m samples and its p-long products add m + p +
    C + 8 eps of the absolute sum; K_j = m + p + C + 8 + 2 rho_j covers
    both, with rho_j twice for the closed form's shift, whose factor E p /
    (1 + E p) holds p_jc twice. The reg part covers the product
    reg * y and the closed form's d2-long <y, v>.

    With ``rounding`` false, K_j and the reg part's factor are 1: the
    scale of the gradient itself.
    """
    from rabosim.problems.logistic import _softmax

    weights, offsets, reg = prob._unpack_x(x)
    feats, labels = prob._train_slice(i, batch)
    m, (c, p) = len(labels), (prob.classes, prob.features)
    w_mat = prob._weight_matrix(y)
    probs = _softmax(feats @ w_mat.T + offsets)
    resid = probs.copy()
    resid[np.arange(m), labels] -= 1.0
    k, k_reg = 1, 1
    if rounding:
        z = (np.abs(feats) @ np.abs(w_mat).T + np.abs(offsets)).max(axis=1)
        k = m + p + c + 8 + 2 * (4 * p + 2 * c + 16) * (1 + z)
        k_reg = prob.d2 + 4
    scale = (weights[labels] * k)[:, None] * (np.abs(resid) + probs)
    return (scale.T @ np.abs(feats) / m).ravel() + k_reg * reg * np.abs(y)


def logistic_row_bound(prob, i, xs, y, batch=None, x_base=None):
    """``grad_g_y_row_bound`` on the logistic family: each row k rounds
    by at most eps S(x_k) (``logistic_scale``).

    With ``x_base`` given, x_k = x_base + h e_p is one step of h =
    |x_k - x_base|, and the bound covers how far the difference of the
    two rows lies from the closed form that ``implicit_term`` computes:
    the rows' rounding, eps (S(x_k) + S(x_base)); the rounding of the
    step itself, up to eps |x_k|_inf / 2 times the row's derivative
    along x_p, which on the segment stays below (S(x_k) + S(x_base)) / 8
    as a weight, an offset's probabilities and reg move monotonically;
    and h times the closed form's own rounding, 2 e^h eps S(x_base), as
    its terms are those of the rows' difference over h, whose factors
    E / h, E p / (h (1 + E p)) (E = expm1(h)) stay below e^h.
    """
    rows = np.array([logistic_scale(prob, i, xk, y, batch) for xk in xs])
    if x_base is None:
        return EPS * rows
    base = logistic_scale(prob, i, x_base, y, batch)
    step = np.abs(xs - x_base).max(axis=1)[:, None]
    return EPS * ((1 + np.abs(xs).max(axis=1)[:, None]) * (rows + base)
                  + 2 * step * np.exp(step) * base)


def implicit_term_bound(prob, i, x, y, coords, mu, v, batch=None):
    """Entrywise bound on how far ``implicit_term`` may lie from the base
    default's difference of ``grad_g_y`` rows: the rows' bound over mu,
    with ``x_base``, against |v|, then the default's subtraction, division
    and d2-long product, (2 d2 + 8) eps of |delta_p| @ |v|."""
    points = np.repeat(x[None, :], coords.size, axis=0)
    points[np.arange(coords.size), coords] += mu
    deltas = (prob.grad_g_y(i, x, y, batch) - np.array(
        [prob.grad_g_y(i, point, y, batch) for point in points])) / mu
    rows = grad_g_y_row_bound(prob, i, points, y, batch, x_base=x)
    return (rows / mu) @ np.abs(v) \
        + (2 * prob.d2 + 8) * EPS * (np.abs(deltas) @ np.abs(v))


def full_hessian_reference(prob, i, x, y, batch=None):
    """The full d2 x d2 ``hess_yy_g`` of either family, transcribed from
    the code that formed every entry before ``active`` existed.
    ``hess_yy_g(i, x, y, batch)`` must keep these bits: the centralized
    references and the finite-difference checks call it that way."""
    from rabosim.problems.quadratic import QuadraticProblem

    if isinstance(prob, QuadraticProblem):
        s = prob.spec
        h = s.a_mats[i]
        if s.quartic:
            h = h + (s.quartic / 2.0) * float(x @ x) * s.u_mats[i]
        return h
    from rabosim.problems.logistic import _softmax

    weights, offsets, reg = prob._unpack_x(x)
    feats, labels = prob._train_slice(i, batch)
    m = len(labels)
    probs = _softmax(feats @ prob._weight_matrix(y).T + offsets)
    w = weights[labels]
    z = ((np.sqrt(w)[:, None] * probs)[:, :, None]
         * feats[:, None, :]).reshape(m, prob.d2)
    hess = z.T @ z
    np.negative(hess, out=hess)
    wp = w[:, None] * probs
    p = prob.features
    for a in range(prob.classes):
        hess[a * p:(a + 1) * p, a * p:(a + 1) * p] += \
            (wp[:, a, None] * feats).T @ feats
    hess /= m
    hess += hess.T
    hess /= 2.0
    hess.flat[::prob.d2 + 1] += reg
    return hess


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


@st.composite
def partial_tables(draw, n, d):
    """Per-client coordinate rows, none empty, that leave at least one
    coordinate uncovered."""
    gap = draw(st.integers(0, d - 1))
    pool = [c for c in range(d) if c != gap]
    rows = []
    for _ in range(n):
        keep = draw(st.lists(st.booleans(), min_size=len(pool),
                             max_size=len(pool)))
        row = [c for c, k in zip(pool, keep) if k]
        if not row:
            row = [draw(st.sampled_from(pool))]
        rows.append(row)
    return rows


def bits(values) -> np.ndarray:
    """The float64 values' bit patterns, so that comparing two of them
    tells -0.0 from 0.0 (and compares NaNs by payload)."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def signed_zeros(rng, values: np.ndarray) -> np.ndarray:
    """``values`` with about a quarter of its entries set to 0.0 or -0.0."""
    zeros = rng.random(values.shape) < 0.25
    return np.where(zeros, np.copysign(0.0, rng.standard_normal(
        values.shape)), values)
