import gc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim.errors import (
    DimensionMismatch,
    MaxIterExceeded,
    NonFiniteValue,
    NotPositiveDefinite,
)
from rabosim.linalg import (
    DIRECT_SOLVE_LIMIT,
    as_vector,
    cg_solve,
    solve_spd,
    spd_solver,
    spectral_bounds,
    symmetrize,
)


def random_spd(rng, dim, eig_lo=0.5, eig_hi=3.0):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    eigs = rng.uniform(eig_lo, eig_hi, size=dim)
    return symmetrize(q @ np.diag(eigs) @ q.T)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(solve_spd(np.eye(3), b), b, rtol=0, atol=1e-14)

    def test_diagonal_hand_case(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        z = solve_spd(a, np.array([2.0, 4.0]))
        assert np.allclose(z, [1.0, 1.0], rtol=0, atol=1e-14)

    def test_residual_contract(self):
        rng = np.random.default_rng(0)
        for dim in (5, 20, 80):
            a = random_spd(rng, dim)
            b = rng.standard_normal(dim)
            z = solve_spd(a, b)
            assert np.linalg.norm(a @ z - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("dim", [10, 50, 200])
    def test_recovers_known_solution(self, dim):
        rng = np.random.default_rng(dim)
        a = random_spd(rng, dim)
        z_true = rng.standard_normal(dim)
        z = solve_spd(a, a @ z_true)
        assert np.linalg.norm(z - z_true) <= 1e-9 * np.linalg.norm(z_true)

    def test_matches_cg_on_shared_instance(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 50)
        b = rng.standard_normal(50)
        direct = solve_spd(a, b)
        iterative = cg_solve(lambda v: a @ v, b, tol=1e-12, max_iter=500)
        assert np.linalg.norm(direct - iterative) <= 1e-8 * np.linalg.norm(direct)

    def test_iterative_fallback_above_cutoff(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 24)
        b = rng.standard_normal(24)
        z = solve_spd(a, b, direct_limit=8)
        assert np.linalg.norm(a @ z - b) <= 1e-10 * np.linalg.norm(b)

    def test_not_positive_definite(self):
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NotPositiveDefinite):
            solve_spd(a, np.ones(2))

    def test_singular_gram_matrix_is_not_positive_definite(self):
        # rank-2 Gram matrix in exact integer arithmetic: the third pivot is 0
        g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="3-th leading minor"):
            spd_solver(g @ g.T)

    def test_indefinite_names_leading_minor(self):
        a = np.array([[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="2-th leading minor"):
            spd_solver(a)

    def test_empty_system(self):
        z = solve_spd(np.zeros((0, 0)), np.zeros(0))
        assert z.shape == (0,) and z.dtype == np.float64

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_spd(np.eye(3), np.ones(2))
        with pytest.raises(DimensionMismatch):
            solve_spd(np.ones((2, 3)), np.ones(3))

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(DimensionMismatch):
            solve_spd(a, np.ones(2))

    def test_positive_spectrum_for_accepted_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = random_spd(rng, 12)
            solve_spd(a, np.ones(12))
            assert spectral_bounds(a)[0] > 0

    def test_bit_determinism(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 30)
        b = rng.standard_normal(30)
        z1 = solve_spd(a, b)
        z2 = solve_spd(a.copy(), b.copy())
        assert np.array_equal(z1, z2)

    @pytest.mark.parametrize("direct_limit", [512, 8])
    def test_kept_solver_matches_solve_spd(self, direct_limit):
        # the factor is formed once; every later solve equals a fresh one
        rng = np.random.default_rng(5)
        a = random_spd(rng, 24)
        solve = spd_solver(a, direct_limit)
        for _ in range(3):
            b = rng.standard_normal(24)
            assert np.array_equal(solve(b), solve_spd(a, b, direct_limit))
        with pytest.raises(DimensionMismatch):
            solve(np.ones(23))
        with pytest.raises(NonFiniteValue):
            solve(np.full(24, np.nan))

    @pytest.mark.parametrize("direct_limit, kept", [(512, False), (8, True)])
    def test_kept_solver_holds_matrix_only_for_cg(self, direct_limit, kept):
        # the direct solver needs only its factor; CG applies the matrix
        a = random_spd(np.random.default_rng(6), 24)
        ref = weakref.ref(a)
        solve = spd_solver(a, direct_limit)
        del a
        gc.collect()
        assert (ref() is not None) == kept
        assert solve(np.ones(24)).shape == (24,)


@settings(max_examples=40, deadline=None)
@given(dim=st.one_of(st.integers(1, 64), st.just(DIRECT_SOLVE_LIMIT)),
       eig_lo=st.sampled_from([1e-6, 0.1, 0.8]), seed=st.integers(0, 2 ** 32))
def test_direct_solver_matches_scipy_cholesky(dim, eig_lo, seed):
    """The direct branch returns scipy's cho_factor/cho_solve bits."""
    rng = np.random.default_rng(seed)
    a = random_spd(rng, dim, eig_lo=eig_lo, eig_hi=4.0)
    b = rng.standard_normal(dim)
    factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    want = scipy.linalg.cho_solve(factor, b, check_finite=False)
    assert np.array_equal(spd_solver(a)(b), want)


class TestCgSolve:
    def test_identity_converges_first_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        calls = []

        def apply_a(v):
            calls.append(1)
            return v

        z = cg_solve(apply_a, b, tol=1e-12, max_iter=10)
        assert np.allclose(z, b, rtol=0, atol=1e-12)
        assert len(calls) == 1

    def test_diagonal_closed_form(self):
        diag = np.arange(1.0, 11.0)
        z = cg_solve(lambda v: diag * v, np.ones(10), tol=1e-12, max_iter=50)
        assert np.allclose(z, 1.0 / diag, rtol=0, atol=1e-10)

    def test_converges_within_dim_iterations(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 30)
        b = rng.standard_normal(30)
        z = cg_solve(lambda v: a @ v, b, tol=1e-10, max_iter=30)
        assert np.linalg.norm(a @ z - b) <= 1e-10 * np.linalg.norm(b)
        assert np.allclose(z, solve_spd(a, b), atol=1e-8)

    def test_max_iter_carries_last_iterate(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 40, eig_lo=0.01, eig_hi=100.0)
        b = rng.standard_normal(40)
        with pytest.raises(MaxIterExceeded) as err:
            cg_solve(lambda v: a @ v, b, tol=1e-14, max_iter=2)
        assert err.value.last_iterate is not None
        assert err.value.last_iterate.shape == (40,)
        assert err.value.residual > 0

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            cg_solve(lambda v: v, np.ones(3), tol=0.0, max_iter=5)


class TestSpectralBounds:
    def test_identity(self):
        assert spectral_bounds(np.eye(4)) == (1.0, 1.0)

    def test_diagonal(self):
        lo, hi = spectral_bounds(np.diag([0.5, 3.0]))
        assert (lo, hi) == pytest.approx((0.5, 3.0), rel=1e-12)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        m = symmetrize(rng.standard_normal((20, 20)))
        lo, hi = spectral_bounds(m)
        eigs = np.linalg.eigvalsh(m)
        assert lo == pytest.approx(eigs.min(), rel=1e-8)
        assert hi == pytest.approx(eigs.max(), rel=1e-8)
        assert lo <= eigs.min() + 1e-8 * abs(eigs.min())
        assert hi >= eigs.max() - 1e-8 * abs(eigs.max())

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            spectral_bounds(np.ones((2, 3)))


def test_as_vector_rejects_nonfinite():
    with pytest.raises(NonFiniteValue):
        as_vector([1.0, np.nan])
    with pytest.raises(NonFiniteValue):
        as_vector([np.inf, 0.0])
