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
from itertools import repeat

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

    Clients are rows: a derivative callback takes one client's index and
    vectors, or k clients' indices, vectors as (k, d) rows and batches one
    per row (or None), row r equal to row r's one-client call bit for bit.
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
    def grad_f_x(self, i, x: np.ndarray, y: np.ndarray,
                 batch: SampleBatch | None = None) -> np.ndarray: ...

    @abstractmethod
    def grad_f_y(self, i, x: np.ndarray, y: np.ndarray,
                 batch: SampleBatch | None = None) -> np.ndarray: ...

    @abstractmethod
    def grad_g_y(self, i, x: np.ndarray, y: np.ndarray,
                 batch: SampleBatch | None = None) -> np.ndarray:
        """Lower gradient in y, a fresh array the caller may overwrite."""

    def grad_g_y_perturbed(self, i, x: np.ndarray, y: np.ndarray,
                           coords: np.ndarray, mu: float,
                           batch: SampleBatch | None = None):
        """Lower gradient at x and at every x + mu e_p, p in ``coords``.

        Returns ``(base, rows)``: ``base`` is ``grad_g_y(i, x, y, batch)``
        and row k of the ``(len(coords), d2)`` array ``rows`` is
        ``grad_g_y(i, x + mu e_{coords[k]}, y, batch)``; every evaluation
        uses the same batch. A row call takes one ``coords`` per row and
        returns an iterator of each client's pair, each made when reached.
        This default makes one ``grad_g_y`` call per point, so its rows
        equal those calls bit for bit. The logistic family overrides it
        with one stacked pass of the single call's operations, so its
        rows equal them bit for bit too; only offset perturbations rerun
        the softmax.

        ``rows`` is a fresh array that the caller owns and may overwrite:
        it shares no memory with the problem's state or with another
        client's rows, and writing to it changes neither ``base`` nor a
        later call's result (``implicit_term`` runs its difference step
        in place on it).
        """
        if np.ndim(i):
            _, i, x, y, batch, coords = self.rows(i, x, y, batch, coords)
            return map(self.grad_g_y_perturbed, i, x, y, coords,
                       repeat(mu), batch)
        self.check_coords(coords)
        base = self.grad_g_y(i, x, y, batch)
        rows = np.empty((coords.shape[0], self.d2))
        for k, p in enumerate(coords):
            x_pert = x.copy()
            x_pert[p] += mu
            rows[k] = self.grad_g_y(i, x_pert, y, batch)
        return base, rows

    def implicit_term(self, i, x: np.ndarray, y: np.ndarray,
                      coords: np.ndarray, mu: float, v: np.ndarray,
                      batch: SampleBatch | None = None) -> np.ndarray:
        """Each ``<delta_p, v>``, p in ``coords``, as a ``len(coords)`` array.

        delta_p = (grad_g_y(x) - grad_g_y(x + mu e_p)) / mu under one
        batch; ``v`` lives in R^{d2}. A row call takes one ``coords`` and
        one ``v`` per row and returns a list of each row's array. This
        default differences ``grad_g_y_perturbed``'s rows in place and
        takes one product with ``v``; the quadratic family overrides it
        with the exact difference in closed form.
        """
        one, i, x, y, coords, v, batch = self.rows(i, x, y, coords, v, batch)
        terms = []
        for (base, rows), w in zip(
                self.grad_g_y_perturbed(i, x, y, coords, mu, batch), v):
            np.subtract(base, rows, out=rows)
            rows /= mu
            terms.append(rows @ w)
        return terms[0] if one else terms

    # -- second derivatives (lower level) ----------------------------------
    @abstractmethod
    def hess_yy_g(self, i, x: np.ndarray, y: np.ndarray,
                  batch: SampleBatch | None = None,
                  active: np.ndarray | None = None) -> np.ndarray:
        """Dense Hessian of g_i in y, on the rows and columns ``active``.

        ``active`` is a strictly ascending array of inner indices, as
        ``np.flatnonzero`` of a client's mask row returns, and the family forms only that
        |active| x |active| block; ``None`` means all d2 of them. The
        quadratic block equals ``hess[np.ix_(active, active)]`` of the
        full Hessian bit for bit; the logistic one sums its Gram product
        over fewer columns, so it agrees to rounding, exactly symmetric.

        A row call takes one active set per row and yields ``(rows,
        block)`` by first row, each block formed when reached with the
        rows it serves: one shared block (the quadratic A on one active
        set, without the quartic term) is one pair, factored once.
        """

    @abstractmethod
    def cross_xy_g_apply(self, i, x: np.ndarray, y: np.ndarray,
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

    def check_dims(self, x: np.ndarray, y: np.ndarray, k=None) -> None:
        for name, v, d in (("x", x, self.d1), ("y", y, self.d2)):
            if v.shape != ((d,) if k is None else (k, d)):
                raise DimensionMismatch(f"{name} has shape {v.shape}, want "
                                        f"{(d,) if k is None else (k, d)}")

    def rows(self, i, *args):
        """``(one, i, *args)`` with one entry of each arg (x and y first,
        checked) per row: a one-client call (``one``) as one row, a row
        call's None as None for every row."""
        one = np.ndim(i) == 0
        i = np.array([i]) if one else np.asarray(i)
        args = [a[None] if isinstance(a, np.ndarray) else [a] for a in args] \
            if one else [[None] * len(i) if a is None else a for a in args]
        self.check_dims(args[0], args[1], len(i))
        return (one, i, *args)

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

    def check_active(self, active: np.ndarray) -> None:
        """Inner indices must be a strictly ascending 1-D integer array in
        range; ascending, the ends bound the rest."""
        if active.ndim != 1 or active.dtype.kind not in "iu" or (
                active.size and not (0 <= active[0] and active[-1] < self.d2
                                     and (active[1:] > active[:-1]).all())):
            raise DimensionMismatch(
                f"active must be a strictly ascending 1-D integer array in "
                f"[0, {self.d2}), got {active!r}")
