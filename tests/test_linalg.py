import gc
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rabosim
from rabosim.errors import DimensionMismatch, NonFiniteValue, NotPositiveDefinite
from rabosim.linalg import (
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
        with pytest.raises(DimensionMismatch):
            spd_solver(np.zeros((0, 0)))(np.ones(1))

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

    @pytest.mark.parametrize("dim", [8, 512])
    def test_kept_solver_matches_solve_spd(self, dim):
        # the factor is formed once; every later solve equals a fresh one
        rng = np.random.default_rng(5)
        a = random_spd(rng, dim)
        solve = spd_solver(a)
        for _ in range(3):
            b = rng.standard_normal(dim)
            assert np.array_equal(solve(b), solve_spd(a, b))
        with pytest.raises(DimensionMismatch):
            solve(np.ones(dim - 1))
        with pytest.raises(NonFiniteValue):
            solve(np.full(dim, np.nan))

    @pytest.mark.parametrize("dim", [24, 600])
    def test_kept_solver_holds_only_the_factor(self, dim):
        # the solver needs only its factor, at every size, so the matrix
        # is freed once the caller drops it
        a = random_spd(np.random.default_rng(6), dim)
        ref = weakref.ref(a)
        solve = spd_solver(a)
        del a
        gc.collect()
        assert ref() is None
        assert solve(np.ones(dim)).shape == (dim,)


@settings(max_examples=80, deadline=None)
@given(dim=st.one_of(st.integers(1, 64), st.just(512), st.just(600)),
       k=st.one_of(st.none(), st.integers(1, 40)),
       eig_lo=st.sampled_from([1e-6, 0.1, 0.8]), seed=st.integers(0, 2 ** 32))
def test_direct_solver_matches_scipy_cholesky(dim, k, eig_lo, seed):
    """The solver returns scipy's cho_factor/cho_solve bits at every size,
    for one right-hand side (k None) and for a (k, d) stack of rows, which
    is one cho_solve of its transpose: both call potrs on the same (d, k)
    right-hand side."""
    rng = np.random.default_rng(seed)
    a = random_spd(rng, dim, eig_lo=eig_lo, eig_hi=4.0)
    b = rng.standard_normal(dim if k is None else (k, dim))
    factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    want = scipy.linalg.cho_solve(factor, b.T, check_finite=False).T
    got = spd_solver(a)(b)
    assert got.shape == b.shape
    assert np.array_equal(got, want)


class TestRowSolve:
    @pytest.mark.parametrize("dim", [1, 7, 33, 64])
    def test_each_row_has_its_one_row_bits(self, dim):
        rng = np.random.default_rng(dim)
        solve = spd_solver(random_spd(rng, dim))
        rows = rng.standard_normal((17, dim))
        got = solve(rows)
        for row, z in zip(rows, got, strict=True):
            assert np.array_equal(z, solve(row))

    def test_nonfinite_rhs_is_rejected(self):
        solve = spd_solver(np.eye(2))
        for b in [[1.0, np.nan], [np.inf, 0.0], [[1.0, 1.0], [-np.inf, 1.0]]]:
            with pytest.raises(NonFiniteValue):
                solve(b)
        solve = spd_solver(np.eye(4))
        for r in range(3):   # a NaN in any one row
            rows = np.ones((3, 4))
            rows[r, 2] = np.nan
            with pytest.raises(NonFiniteValue):
                solve(rows)

    @pytest.mark.parametrize("shape", [(3, 5), (3, 3), (2, 3, 4), ()])
    def test_wrong_shape_is_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            spd_solver(np.eye(4))(np.ones(shape))

    def test_empty_system_returns_empty_rows(self):
        solve = spd_solver(np.zeros((0, 0)))
        z = solve(np.zeros((5, 0)))
        assert z.shape == (5, 0) and z.dtype == np.float64
        with pytest.raises(DimensionMismatch):
            solve(np.ones((5, 1)))
        with pytest.raises(DimensionMismatch):
            solve(np.zeros((2, 5, 0)))


def test_round_leaves_scipy_linalg_unimported():
    """A fresh interpreter imports the CLI, factors with ``spd_solver``'s
    ``dpotrf`` in an exact_aid round and solves ``y_star`` for its oracle
    metrics, all without ``scipy.linalg``'s package import."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from rabosim import cli, linalg
        from rabosim.federation import GlobalState, RunConfig, rabo_round

        calls = []
        def counted(a, **kwargs):
            calls.append(a.shape)
            return dpotrf(a, **kwargs)
        dpotrf, linalg.dpotrf = linalg.dpotrf, counted
        cfg = cli.resolve_config({"problem": {
            "family": "quadratic", "n": 2, "d1": 3, "d2": 4}})
        problem = cli.build_problem(cfg.problem)
        _, log = rabo_round(problem, GlobalState(np.zeros(3), np.zeros(4)),
                            RunConfig(estimator="exact_aid"))
        assert np.isfinite(log.grad_phi_sq) and calls, (log, calls)
        print("scipy.linalg" in sys.modules)
        """)
    env = dict(os.environ, PYTHONPATH=str(Path(rabosim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
