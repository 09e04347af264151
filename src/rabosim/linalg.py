"""Dense vector/matrix helpers, SPD solves and spectral bounds.

Vectors and matrices are plain float64 numpy arrays. The helpers here are
the only linear-algebra entry points used by the rest of the simulator:
``solve_spd`` for symmetric positive definite systems (direct Cholesky up
to a dimension cutoff, matrix-free conjugate gradients above it),
``spd_solver`` for many right-hand sides against one such matrix,
``cg_solve`` for operator-only systems, and ``spectral_bounds`` for
extreme eigenvalues. All operations are pure functions of their inputs;
summations happen in a fixed order so results are bit-reproducible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    DimensionMismatch,
    MaxIterExceeded,
    NonFiniteValue,
    NotPositiveDefinite,
)

# Direct factorization below this dimension, iterative CG above it.
DIRECT_SOLVE_LIMIT = 512


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return arr


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return arr


def symmetrize(a) -> np.ndarray:
    """Return the exactly symmetric part (a + a.T) / 2."""
    a = as_matrix(a)
    return (a + a.T) / 2.0


def _require_symmetric(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    if not np.array_equal(a, a.T):
        raise DimensionMismatch(f"{name} must be exactly symmetric")


def solve_spd(a, b, direct_limit: int = DIRECT_SOLVE_LIMIT) -> np.ndarray:
    """Solve ``a @ z = b`` for symmetric positive definite ``a``.

    Uses a Cholesky factorization for dimensions up to ``direct_limit`` and
    falls back to matrix-free conjugate gradients above it.

    Raises NotPositiveDefinite when factorization fails and
    DimensionMismatch on shape errors.
    """
    return spd_solver(a, direct_limit)(b)


def spd_solver(a, direct_limit: int = DIRECT_SOLVE_LIMIT
               ) -> Callable[[np.ndarray], np.ndarray]:
    """``b -> solve_spd(a, b)`` for a fixed SPD ``a``, bit for bit.

    Below ``direct_limit`` the Cholesky factor is formed here, once, so a
    caller that keeps the solver pays one pair of triangular solves per
    right-hand side. These are LAPACK's ``potrf``/``potrs``, called
    directly: the same routines, and so the same bits, as scipy's
    ``cho_factor``/``cho_solve`` without their wrappers' overhead. ``a`` is
    checked here and each ``b`` on its call.
    """
    a = as_matrix(a, "a")
    _require_symmetric(a, "a")
    dim = a.shape[0]
    # potrs rejects a 0 x 0 system; CG returns its empty solution at once
    direct = 0 < dim <= direct_limit
    if direct:
        factor, info = dpotrf(a, lower=1, clean=0)
        if info > 0:
            raise NotPositiveDefinite(
                f"{info}-th leading minor of the matrix is not positive definite")

    def solve(b) -> np.ndarray:
        b = as_vector(b, "b")
        if b.shape[0] != dim:
            raise DimensionMismatch(f"matrix dim {dim} != rhs dim {b.shape[0]}")
        if direct:
            return dpotrs(factor, b, lower=1)[0]
        return cg_solve(lambda v: a @ v, b, tol=1e-12, max_iter=10 * dim)

    return solve


def cg_solve(apply_a: Callable[[np.ndarray], np.ndarray], b, tol: float,
             max_iter: int) -> np.ndarray:
    """Conjugate gradients for an SPD operator given only as a callback.

    Stops when ``||a z - b|| <= tol * ||b||``; raises MaxIterExceeded
    (carrying the last iterate and residual norm) otherwise.
    """
    b = as_vector(b, "b")
    if tol <= 0:
        raise ValueError("tol must be positive")
    target = tol * np.linalg.norm(b)
    z = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rs = float(r @ r)
    if np.sqrt(rs) <= target:
        return z
    for _ in range(max_iter):
        ap = apply_a(p)
        denom = float(p @ ap)
        if denom <= 0:
            raise NotPositiveDefinite(
                "operator is not positive definite along a CG direction")
        step = rs / denom
        z = z + step * p
        r = r - step * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= target:
            return z
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise MaxIterExceeded(
        f"cg did not reach tol {tol} in {max_iter} iterations",
        last_iterate=z, residual=float(np.sqrt(rs)))


def spectral_bounds(a) -> tuple[float, float]:
    """Extreme eigenvalues (min, max) of a symmetric matrix."""
    a = as_matrix(a, "a")
    _require_symmetric(a, "a")
    eigs = np.linalg.eigvalsh(a)
    return float(eigs[0]), float(eigs[-1])


def spectral_norm(a) -> float:
    """Spectral norm of an arbitrary dense matrix."""
    a = as_matrix(a, "a")
    return float(np.linalg.norm(a, 2))
