"""Dense vector/matrix helpers, SPD solves and spectral bounds.

Vectors and matrices are plain float64 numpy arrays. The helpers here are
the only linear-algebra entry points used by the rest of the simulator:
``solve_spd`` for symmetric positive definite systems and ``spd_solver``
for many right-hand sides, one at a time or as rows, against one such
matrix, both by a Cholesky factorization at every size, and
``spectral_bounds`` for extreme eigenvalues. All operations are pure
functions of their inputs; summations happen in a fixed order so results
are bit-reproducible.

The Cholesky routines are LAPACK's ``dpotrf``/``dpotrs`` from scipy's
compiled extension ``scipy.linalg._flapack``, the module that
``scipy.linalg.lapack`` re-exports. It is loaded from its file, so
``scipy.linalg``'s package import never runs; with scipy 1.17.1 on a
2-vCPU machine that import took about 0.2 s and 17 MB per process. The
extension's place in the scipy tree was checked on scipy 1.17.1 only.

A product's, a factor's and a triangular solve's bits depend on the
number of threads OpenBLAS splits them over. ``one_blas_thread`` runs a
block with every OpenBLAS that numpy and scipy loaded at one thread, so
the bytes of a run do not depend on ``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NotPositiveDefinite


def _load_flapack():
    """scipy's ``scipy.linalg._flapack``, without ``scipy.linalg``'s
    package import. Finding scipy's directory does not import scipy.
    CPython records the extension in ``sys.modules`` under its own name,
    so a later ``import scipy.linalg`` reuses this module."""
    scipy_dir, = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(scipy_dir, "linalg")])
    if spec is None:
        raise ImportError(f"no scipy.linalg._flapack under {scipy_dir}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


def _blas_threads() -> list:
    """(get, set) thread-count functions of each OpenBLAS that numpy and
    scipy loaded: numpy's ``libscipy_openblas64_``, reached through its
    multiarray extension, and scipy's ``libscipy_openblas``, through
    ``_flapack``. A symbol looked up on an extension's handle is also
    searched for in the libraries it links, so no hashed library file
    name is needed. A build with another BLAS gives no pair."""
    pairs = []
    for path, suffix in ((np._core._multiarray_umath.__file__, "64_"),
                         (_flapack.__file__, "")):
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            set_count = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_count.argtypes, set_count.restype = [ctypes.c_int], None
        pairs.append((get, set_count))
    return pairs


_BLAS_THREADS = _blas_threads()


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS that numpy and scipy loaded at
    one thread, then give each library back its old count. Where no
    setter is found (an MKL or Accelerate build), the block runs at the
    library's own count."""
    counts = [get() for get, _ in _BLAS_THREADS]
    for _, set_count in _BLAS_THREADS:
        set_count(1)
    try:
        yield
    finally:
        for (_, set_count), count in zip(_BLAS_THREADS, counts):
            set_count(count)


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


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ z = b`` for symmetric positive definite ``a`` by a
    Cholesky factorization.

    Raises NotPositiveDefinite when factorization fails and
    DimensionMismatch on shape errors.
    """
    return spd_solver(a)(b)


def spd_solver(a) -> Callable[[np.ndarray], np.ndarray]:
    """``b -> solve_spd(a, b)`` for a fixed SPD ``a``, bit for bit.

    ``b`` is one right-hand side of length d, or a (k, d) stack of them as
    rows, which returns the (k, d) stack of solutions. The Cholesky
    factor is formed here, once, and each call is one pair of triangular
    solves over all of its rows: a stack goes to ``potrs`` as one
    (d, k) right-hand side. These are LAPACK's ``potrf``/``potrs`` from
    scipy's ``_flapack`` extension (see the module docstring), called
    directly: the same routines, and so the same bits, as scipy's
    ``cho_factor``/``cho_solve`` of ``b.T`` without their wrappers'
    overhead. A row of a stack has the bits of its one-row solve when
    d <= 384 or d is a multiple of 8 (OpenBLAS 0.3.31, which blocks its
    triangular solve by 384 columns); otherwise it agrees to rounding.
    ``a`` is checked here and every row of ``b`` on its call. The solver
    holds only the factor.
    """
    a = as_matrix(a, "a")
    _require_symmetric(a, "a")
    dim = a.shape[0]

    def rhs(b) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[-1] != dim:
            raise DimensionMismatch(
                f"rhs must be ({dim},) or (k, {dim}), got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise NonFiniteValue("b contains NaN or Inf")
        return b

    if dim == 0:   # potrs rejects a 0 x 0 system
        return lambda b: np.zeros_like(rhs(b))
    factor, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefinite(
            f"{info}-th leading minor of the matrix is not positive definite")
    # .T is the identity on a vector; rows become one (d, k) F-ordered rhs
    return lambda b: dpotrs(factor, rhs(b).T, lower=1)[0].T


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
