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

    Returns a (k, d2) array; the logistic family's implicit term
    differences ``grad_g_y`` rows itself, so its bound is zero.
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
    if batch is not None and s.noise_g:
        noise = batch.stream().normal(prob.d1 + prob.d2)[: prob.d2]
        terms = terms + np.abs(noise) * (s.noise_g / np.sqrt(batch.size))
    return 2 * (max(prob.d1, prob.d2) + 4) * EPS * terms


def rafbo_masked_deltas_reference(prob, i, x, y, mask_x, mask_y, mu,
                                  coord_fraction, batch_f=None, batch_g=None,
                                  rng=None):
    """``rafbo_hypergradient`` with the mask on every delta_p, out of place.

    The deltas are formed from copies of ``grad_g_y_perturbed``'s output as
    fresh arrays, masked row by row, and contracted with the unmasked
    grad_y f. The default ``implicit_term`` masks grad_y f instead and
    works in place on the rows; with 0/1 mask bits both give the same
    bits.
    """
    from rabosim.hypergrad import build_perturbation_set

    coords = build_perturbation_set(mask_x, coord_fraction, rng)
    gfx = prob.grad_f_x(i, x, y, batch_f)
    gfy = prob.grad_f_y(i, x, y, batch_f)
    base, rows = (a.copy() for a in prob.grad_g_y_perturbed(
        i, x, y, coords, mu, batch_g))
    value = gfx.copy()
    value[coords] += (((base - rows) / mu) * mask_y) @ gfy
    return value * mask_x


def assert_caller_owns_rows(perturbed, prob, i, x, y, coords, mu,
                            batch=None):
    """``perturbed`` (a ``grad_g_y_perturbed``) returns rows that the caller
    may overwrite: filling them with NaN leaves ``base`` as it was, and a
    second call returns the first call's bits."""
    base, rows = perturbed(prob, i, x, y, coords, mu, batch)
    first = base.copy(), rows.copy()
    rows[...] = np.nan
    assert np.array_equal(base, first[0])
    again = perturbed(prob, i, x, y, coords, mu, batch)
    assert np.array_equal(again[0], first[0])
    assert np.array_equal(again[1], first[1])


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
