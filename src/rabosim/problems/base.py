"""Bilevel problem interface and shared value types.

A bilevel problem exposes, per client ``i``, a stochastic upper loss
``f_i(x, y)`` and lower loss ``g_i(x, y)`` together with the derivative
callbacks the training loop and hypergradient estimators need. The lower
loss must be strongly convex in ``y`` for every fixed ``x``.

Stochasticity is mediated by ``SampleBatch``: a batch pins down one
realization of the problem's noise (or one subsample of its data), so
evaluating the same callback twice with the same batch returns identical
values. Passing ``batch=None`` requests the noiseless/full-data value.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch
from ..rng import RngStream


@dataclass(frozen=True)
class SampleBatch:
    """One reproducible stochastic draw for a derivative evaluation.

    ``level`` tags upper ("f") or lower ("g") sampling. ``size`` is the
    number of independent samples averaged into the draw; larger batches
    shrink noise variance by 1/size. ``draw`` distinguishes repeated
    batches within the same (client, round) slot.
    """

    level: str
    seed: int
    client: int = 0
    round_index: int = 0
    draw: int = 0
    size: int = 1

    def __post_init__(self):
        if self.level not in ("f", "g"):
            raise ValueError(f"level must be 'f' or 'g', got {self.level!r}")
        if self.size < 1:
            raise ValueError("batch size must be >= 1")

    def stream(self) -> RngStream:
        return RngStream(self.seed, self.client, self.round_index,
                         f"batch-{self.level}-{self.draw}")


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness and boundedness constants of a problem instance.

    ``l_f0`` bounds the upper gradient only over an operating ball of
    radius ``ball_radius`` (it is unbounded on all of R^d for quadratic
    objectives). ``L_y == l_g1 / mu_g`` by construction.
    """

    mu_g: float
    l_g1: float
    l_g2: float
    l_f0: float
    l_f1: float
    M_f: float
    L_f: float
    L_y: float
    ball_radius: float = 10.0

    def __post_init__(self):
        values = [self.mu_g, self.l_g1, self.l_g2, self.l_f0, self.l_f1,
                  self.M_f, self.L_f, self.L_y]
        if not all(np.isfinite(v) and v >= 0 for v in values):
            raise ValueError("constants must be finite and nonnegative")


class BilevelProblem(ABC):
    """Per-client access to a distributed bilevel objective.

    Implementations are immutable after construction; every method is a
    pure function of its arguments and safe to call concurrently.
    """

    n: int
    d1: int
    d2: int

    # -- objective values -------------------------------------------------
    @abstractmethod
    def value_f(self, i: int, x: np.ndarray, y: np.ndarray,
                batch: SampleBatch | None = None) -> float: ...

    @abstractmethod
    def value_g(self, i: int, x: np.ndarray, y: np.ndarray,
                batch: SampleBatch | None = None) -> float: ...

    # -- first derivatives ------------------------------------------------
    @abstractmethod
    def grad_f_x(self, i: int, x: np.ndarray, y: np.ndarray,
                 batch: SampleBatch | None = None) -> np.ndarray: ...

    @abstractmethod
    def grad_f_y(self, i: int, x: np.ndarray, y: np.ndarray,
                 batch: SampleBatch | None = None) -> np.ndarray: ...

    @abstractmethod
    def grad_g_y(self, i: int, x: np.ndarray, y: np.ndarray,
                 batch: SampleBatch | None = None) -> np.ndarray: ...

    def grad_g_y_perturbed(self, i: int, x: np.ndarray, y: np.ndarray,
                           coords: np.ndarray, mu: float,
                           batch: SampleBatch | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Lower gradient at x and at every x + mu e_p, p in ``coords``.

        Returns ``(base, rows)``: ``base`` is ``grad_g_y(i, x, y, batch)``
        and row k of the ``(len(coords), d2)`` array ``rows`` is
        ``grad_g_y(i, x + mu e_{coords[k]}, y, batch)``; every evaluation
        uses the same batch. This default makes one ``grad_g_y`` call per
        point. Families may override it. The quadratic family builds each
        row from the base and the perturbation's structure, so its rows
        equal the single call to rounding, not bit for bit. The logistic
        family evaluates every point in one stacked pass with the single
        call's operations, so its rows equal the single call bit for bit;
        only offset perturbations rerun the softmax. Repeated calls stay
        bit-identical at a fixed BLAS thread count.

        ``rows`` is a fresh array that the caller owns and may overwrite:
        it shares no memory with the problem's state, and writing to it
        changes neither ``base`` nor a later call's result
        (``rafbo_hypergradient`` runs its difference step in place on it).
        """
        self.check_coords(coords)
        base = self.grad_g_y(i, x, y, batch)
        rows = np.empty((coords.shape[0], self.d2))
        for k, p in enumerate(coords):
            x_pert = x.copy()
            x_pert[p] += mu
            rows[k] = self.grad_g_y(i, x_pert, y, batch)
        return base, rows

    # -- second derivatives (lower level) ----------------------------------
    @abstractmethod
    def hess_yy_g(self, i: int, x: np.ndarray, y: np.ndarray,
                  batch: SampleBatch | None = None) -> np.ndarray:
        """Dense d2 x d2 Hessian of g_i with respect to y.

        A read-only result is a block the problem shares and never
        changes while it lives, so callers may reuse work derived from
        it; ``exact_hypergradient`` reuses one factor per active set for
        the round.
        """

    @abstractmethod
    def cross_xy_g_apply(self, i: int, x: np.ndarray, y: np.ndarray,
                         v: np.ndarray,
                         batch: SampleBatch | None = None) -> np.ndarray:
        """Apply the mixed second derivative: returns (d^2 g_i/dx dy) @ v.

        ``v`` lives in R^{d2}; the result lives in R^{d1}. Entry ``s`` is
        the inner product of ``v`` with the derivative of grad_g_y along
        outer coordinate ``s``.
        """

    # -- optional oracle hooks ---------------------------------------------
    def has_oracles(self) -> bool:
        """Whether closed-form y*(x) and grad Phi(x) are available."""
        return False

    def check_dims(self, x: np.ndarray, y: np.ndarray) -> None:
        if x.shape != (self.d1,):
            raise DimensionMismatch(f"x has shape {x.shape}, want ({self.d1},)")
        if y.shape != (self.d2,):
            raise DimensionMismatch(f"y has shape {y.shape}, want ({self.d2},)")

    def check_coords(self, coords: np.ndarray) -> None:
        """Outer coordinate indices must be a 1-D integer array in range."""
        if coords.ndim != 1 or coords.dtype.kind not in "iu":
            raise DimensionMismatch(
                f"coords must be a 1-D integer array, got shape "
                f"{coords.shape} of {coords.dtype}")
        if coords.size and (coords.min() < 0 or coords.max() >= self.d1):
            raise DimensionMismatch(
                f"coords must lie in [0, {self.d1}), got "
                f"[{coords.min()}, {coords.max()}]")
