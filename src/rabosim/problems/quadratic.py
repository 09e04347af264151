"""Synthetic quadratic bilevel family with closed-form oracles.

Per client ``i`` the lower and upper objectives are

    g_i(x, y) = 1/2 y'A_i y + y'B_i x + c_i'y + (tau/4) ||x||^2 (y'U_i y)
    f_i(x, y) = 1/2 ||y - b_i||^2 + (lam/2) ||x - a_i||^2 + amp * sum_k sin(x_k)

with A_i symmetric positive definite and U_i symmetric positive
semidefinite. With ``tau == 0`` everything is quadratic: the inner optimum
and the full hypergradient have closed forms, which makes the family the
test oracle for every estimator in the simulator. ``tau > 0`` turns on a
quartic coupling term whose inner optimum is still a linear solve but
whose cross derivative is genuinely curved in x, so finite-difference
estimators pick up an O(mu) bias there. ``amp > 0`` adds a bounded smooth
sinusoidal perturbation to the outer objective for non-convex-outer runs;
both flags default to off so acceptance checks run against a problem with
a unique verifiable minimizer.

Heterogeneity enters only through per-client offsets of the linear
targets (c_i, a_i, b_i); curvature blocks are shared: ``make_quadratic``
holds one read-only A and one B that every client's entry refers to. The
problem stacks each target list into one read-only (n, d) array, so a
row call gathers its clients' targets with one index.

Stochastic gradients are the exact gradients plus additive zero-mean
Gaussian noise scaled by ``noise_f`` / ``noise_g`` and shrunk by
sqrt(batch size). A call draws it once: the batch's (n, d1 + d2) block,
of which row r takes row i[r], its first d1 entries for the upper x part
and the rest for y (the lower gradient takes the first d2). The
noise is independent of (x, y), so differencing two evaluations under the
same batch cancels it exactly (common random numbers).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import (
    InvalidSpec,
    UnsupportedProblem,
    check_ranges,
    check_size,
    check_types,
)
from ..linalg import (
    solve_spd,
    spd_solver,
    spectral_bounds,
    spectral_norm,
    symmetrize,
)
from ..rng import RngStream
from .base import BilevelProblem, ProblemConstants


@dataclass(frozen=True)
class QuadraticSpec:
    """Matrices and scalar weights of one quadratic instance.

    Every list holds one entry per client. Entries may be the same array:
    ``make_quadratic`` fills ``a_mats`` and ``b_mats`` with n references
    to one read-only A and one read-only B, so the blocks take
    O(d2^2 + d1 d2) memory, not n times that. A hand-built spec may give
    each client its own blocks. ``QuadraticProblem`` checks each distinct
    array once for its shape and finiteness.
    """

    a_mats: list          # per-client A_i, d2 x d2 SPD; may alias one array
    b_mats: list          # per-client B_i, d2 x d1; may alias one array
    c_vecs: list          # per-client c_i, d2
    outer_targets: list   # per-client a_i, d1
    inner_targets: list   # per-client b_i, d2
    u_mats: list | None   # per-client U_i (d2 x d2) for the quartic term, or None
    lam: float            # outer quadratic weight, >= 0
    noise_f: float
    noise_g: float
    quartic: float        # tau
    sine_amp: float       # amp
    ball_radius: float


def _checked_dims(spec: QuadraticSpec) -> tuple[int, int, int]:
    """(n, d2, d1) of a spec with one entry per client in every list, each
    of its field's shape and finite; A's list sets n and B_0 sets d2, d1.

    Without the shape check a mis-shaped vector broadcasts silently (a
    length-1 c_i adds its one value to every coordinate). Aliased entries
    are checked once, by identity.
    """
    n = len(spec.a_mats)
    if n < 1:
        raise InvalidSpec("a quadratic problem needs at least one client")
    names = ["a_mats", "b_mats", "c_vecs", "outer_targets",
             "inner_targets"] + ([] if spec.u_mats is None else ["u_mats"])
    for name in names:
        count = len(getattr(spec, name))
        if count != n:
            raise InvalidSpec(f"{name} has {count} entries for {n} clients")
    b_shape = np.shape(spec.b_mats[0])
    if len(b_shape) != 2:
        raise InvalidSpec(f"client 0: b_mats has shape {b_shape}, want (d2, d1)")
    d2, d1 = b_shape
    shapes = {"a_mats": (d2, d2), "b_mats": (d2, d1), "c_vecs": (d2,),
              "outer_targets": (d1,), "inner_targets": (d2,),
              "u_mats": (d2, d2)}
    for name in names:
        seen = set()
        for i, arr in enumerate(getattr(spec, name)):
            if id(arr) in seen:
                continue
            seen.add(id(arr))
            if np.shape(arr) != shapes[name]:
                raise InvalidSpec(f"client {i}: {name} has shape "
                                  f"{np.shape(arr)}, want {shapes[name]}")
            if not np.all(np.isfinite(arr)):
                raise InvalidSpec(f"client {i}: {name} is not finite")
    return n, d2, d1


def _stacked(vecs: list) -> np.ndarray:
    """One client's vector per row, read-only. Entries that are the rows
    of one array in order, as ``make_quadratic`` lists them, are read in
    place, so the problem holds no second copy of them."""
    base = getattr(vecs[0], "base", None)
    in_place = isinstance(base, np.ndarray) and base.ndim == 2 \
        and len(base) == len(vecs) and all(
            v.base is base and v.shape == row.shape
            and v.ctypes.data == row.ctypes.data
            for v, row in zip(vecs, base))
    rows = base.view() if in_place else np.array(vecs)
    rows.flags.writeable = False
    return rows


class QuadraticProblem(BilevelProblem):
    """Bilevel problem backed by a :class:`QuadraticSpec`."""

    def __init__(self, spec: QuadraticSpec):
        self.n, self.d2, self.d1 = _checked_dims(spec)
        self.spec = spec
        self._a_bar = symmetrize(sum(spec.a_mats) / self.n)
        self._b_bar = sum(spec.b_mats) / self.n
        self._c_bar = sum(spec.c_vecs) / self.n
        self._a_tgt_bar = sum(spec.outer_targets) / self.n
        self._b_tgt_bar = sum(spec.inner_targets) / self.n
        if spec.u_mats is not None:
            self._u_bar = symmetrize(sum(spec.u_mats) / self.n)
        else:
            self._u_bar = None
        self._c_rows, self._a_tgt_rows, self._b_tgt_rows = (
            _stacked(vecs) for vecs in
            (spec.c_vecs, spec.outer_targets, spec.inner_targets))

    # -- noise and rows ------------------------------------------------------
    def _add_noise(self, i: np.ndarray, batch, scale: float, *parts) -> None:
        """Add to row r of each (out, part) pair ``part`` of row i[r] of
        the batch's one (n, d1 + d2) block, scaled by scale /
        sqrt(batch.size); no batch adds nothing."""
        if batch is None or not scale:
            return
        joint = batch.noise_stream().normal((self.n, self.d1 + self.d2))[i]
        joint *= scale / np.sqrt(batch.size)
        for out, part in parts:
            out += joint[:, part]

    @staticmethod
    def _apply(mats: list, i: np.ndarray, vecs: np.ndarray,
               transpose: bool = False) -> np.ndarray:
        """Row r is ``mats[i[r]] @ vecs[r]`` (block transposed) with that
        product's bits, as ``np.matvec`` runs one GEMV per row; a block
        multiplies each distinct row (by its bytes) once."""
        first = {}   # (block, row bytes) -> the first row holding them
        src = [first.setdefault((id(mats[j]), v.tobytes()), r)
               for r, (j, v) in enumerate(zip(i.tolist(), vecs))]
        blocks, out = {}, {}
        for r in first.values():
            blocks.setdefault(id(mats[i[r]]), []).append(r)
        for rows in blocks.values():
            block = mats[i[rows[0]]]
            out.update(zip(rows, np.matvec(block.T if transpose else block,
                                           vecs[rows])))
        return np.array([out[r] for r in src])

    # -- lower level --------------------------------------------------------
    def value_g(self, i, x, y, batch=None):
        self.check_dims(x, y)
        s = self.spec
        val = 0.5 * float(y @ (s.a_mats[i] @ y)) + float(y @ (s.b_mats[i] @ x)) \
            + float(s.c_vecs[i] @ y)
        if s.quartic:
            val += (s.quartic / 4.0) * float(x @ x) * float(y @ (s.u_mats[i] @ y))
        return val

    def grad_g_y(self, i, x, y, batch=None):
        one, i, x, y = self.rows(i, x, y)
        s = self.spec
        grad = self._apply(s.a_mats, i, y) + self._apply(s.b_mats, i, x) \
            + self._c_rows[i]
        if s.quartic:
            grad += ((s.quartic / 2.0) * np.vecdot(x, x))[:, None] \
                * self._apply(s.u_mats, i, y)
        self._add_noise(i, batch, s.noise_g, (grad, slice(None, self.d2)))
        return grad[0] if one else grad

    def implicit_term(self, i, x, y, coords, mu, v, batch=None):
        # x + mu e_p changes the gradient by mu B_i[:, p] and, with the
        # quartic term, by (tau/2)(2 mu x_p + mu^2) U_i y, so the exact
        # difference is delta_p = -B_i[:, p] - (tau/2)(2 x_p + mu) U_i y:
        # the terms are -(B_i^T v)[P] - (tau/2)(2 x_P + mu) <U_i y, v>.
        # The batch's noise is the same at every point and cancels.
        one, i, x, y, coords, v = self.rows(i, x, y, coords, v)
        for c in coords:
            self.check_coords(c)
        s = self.spec
        terms = [-row[c] for row, c in
                 zip(self._apply(s.b_mats, i, v, transpose=True), coords)]
        if s.quartic:
            uy_v = np.vecdot(self._apply(s.u_mats, i, y), v)
            for r, c in enumerate(coords):
                terms[r] -= (s.quartic / 2.0) * (2.0 * x[r, c] + mu) * uy_v[r]
        return terms[0] if one else terms

    def hess_yy_g(self, i, x, y, batch=None, active=None):
        one, i, x, y, active = self.rows(i, x, y, active)
        s = self.spec
        pairs = {}
        for r, (j, a) in enumerate(zip(i.tolist(), active)):
            key = r if s.quartic else \
                (id(s.a_mats[j]), None if a is None else (a.dtype, a.tobytes()))
            pairs.setdefault(key, []).append(r)
        blocks = ((rows, self._block(i[rows[0]], x[rows[0]], active[rows[0]]))
                  for rows in pairs.values())
        return next(blocks)[1] if one else blocks

    def _block(self, i, x, active):
        # restricting before the quartic sum is elementwise, so the bits
        # are those of restricting the full sum. One take at the block's
        # flat indices copies it without the |active| x d2 rows that
        # m[active][:, active] allocates first, or np.ix_'s slower gather.
        s = self.spec
        if active is not None:
            self.check_active(active)
            flat = active[:, None] * self.d2 + active
        cut = (lambda m: m) if active is None else \
            (lambda m: m.reshape(-1).take(flat))
        h = cut(s.a_mats[i])
        if s.quartic:
            h = h + (s.quartic / 2.0) * float(x @ x) * cut(s.u_mats[i])
        return h

    def cross_xy_g_apply(self, i, x, y, v, batch=None):
        one, i, x, y, v = self.rows(i, x, y, v)
        s = self.spec
        out = self._apply(s.b_mats, i, v, transpose=True)
        if s.quartic:
            out += (s.quartic * np.vecdot(y, self._apply(s.u_mats, i, v))
                    )[:, None] * x
        return out[0] if one else out

    # -- upper level ---------------------------------------------------------
    def value_f(self, i, x, y, batch=None):
        self.check_dims(x, y)
        s = self.spec
        dy = y - s.inner_targets[i]
        dx = x - s.outer_targets[i]
        val = 0.5 * float(dy @ dy) + 0.5 * s.lam * float(dx @ dx)
        if s.sine_amp:
            val += s.sine_amp * float(np.sum(np.sin(x)))
        return val

    def grad_f(self, i, x, y, batch=None):
        # one block draw per call serves both gradients
        one, i, x, y = self.rows(i, x, y)
        s = self.spec
        gx = s.lam * (x - self._a_tgt_rows[i])
        if s.sine_amp:
            gx += s.sine_amp * np.cos(x)
        gy = y - self._b_tgt_rows[i]
        self._add_noise(i, batch, s.noise_f, (gx, slice(None, self.d1)),
                        (gy, slice(self.d1, None)))
        return (gx[0], gy[0]) if one else (gx, gy)

    def grad_f_x(self, i, x, y, batch=None):
        return self.grad_f(i, x, y, batch)[0]

    def grad_f_y(self, i, x, y, batch=None):
        return self.grad_f(i, x, y, batch)[1]

    # -- oracles --------------------------------------------------------------
    def has_oracles(self) -> bool:
        return True

    def _hess_bar(self, x: np.ndarray) -> np.ndarray:
        h = self._a_bar
        if self.spec.quartic:
            h = h + (self.spec.quartic / 2.0) * float(x @ x) * self._u_bar
        return h

    @cached_property
    def _a_bar_solve(self):
        """Solver for the client-average A, the inner Hessian at every x
        when tau == 0, factored once."""
        return spd_solver(self._a_bar)

    @cached_property
    def _jac_constant(self) -> np.ndarray:
        """Read-only Jacobian of x -> y*(x) when tau == 0: -A_bar^{-1} B_bar."""
        jac = -np.linalg.solve(self._a_bar, self._b_bar)
        jac.flags.writeable = False
        return jac

    def y_star(self, x: np.ndarray) -> np.ndarray:
        """Exact minimizer of the client-average lower objective."""
        rhs = -(self._b_bar @ x + self._c_bar)
        if self.spec.quartic:
            return solve_spd(self._hess_bar(x), rhs)
        return self._a_bar_solve(rhs)

    def jac_y_star(self, x: np.ndarray, ys: np.ndarray | None = None
                   ) -> np.ndarray:
        """d2 x d1 Jacobian of the inner optimum map x -> y*(x).

        Without the quartic term it does not depend on x and is computed
        once; the array returned is then shared and read-only. ``ys``, if
        given, is ``y_star(x)`` already solved by the caller; the same
        holds for ``grad_phi`` and ``phi``.
        """
        if not self.spec.quartic:
            return self._jac_constant
        if ys is None:
            ys = self.y_star(x)
        rhs = self._b_bar + self.spec.quartic * np.outer(self._u_bar @ ys, x)
        return -np.linalg.solve(self._hess_bar(x), rhs)

    def grad_phi(self, x: np.ndarray, ys: np.ndarray | None = None
                 ) -> np.ndarray:
        """Exact hypergradient of Phi(x) = mean_i f_i(x, y*(x))."""
        if ys is None:
            ys = self.y_star(x)
        gx = self.spec.lam * (x - self._a_tgt_bar)
        if self.spec.sine_amp:
            gx = gx + self.spec.sine_amp * np.cos(x)
        gy = ys - self._b_tgt_bar
        return gx + self.jac_y_star(x, ys).T @ gy

    def phi(self, x: np.ndarray, ys: np.ndarray | None = None) -> float:
        """Phi(x) = mean_i f_i(x, y*(x)), each f_i in ``value_f``'s order,
        with every client's terms taken as row dot products."""
        if ys is None:
            ys = self.y_star(x)
        self.check_dims(x, ys)
        s = self.spec
        dy = ys - self._b_tgt_rows
        dx = x - self._a_tgt_rows
        vals = 0.5 * np.vecdot(dy, dy) + 0.5 * s.lam * np.vecdot(dx, dx)
        if s.sine_amp:
            vals += s.sine_amp * float(np.sum(np.sin(x)))
        return float(np.mean(vals))


# make_quadratic's arguments.
RANGES = {
    **dict.fromkeys(("n", "d1", "d2"), "at least 1"),
    **dict.fromkeys(("hetero", "noise_f", "noise_g", "lam", "quartic",
                     "sine_amp", "ball_radius"), "nonnegative"),
    "eig_min": "positive",
}


def check_args(args: dict, prefix: str = "") -> None:
    """Raise InvalidSpec naming the first argument in ``args`` that breaks
    a rule of ``make_quadratic``: its type, by its default in ``ARGUMENTS``,
    its range, then the size rule (``check_size``); ``prefix`` leads the
    message."""
    check_types(args, ARGUMENTS, prefix)
    check_ranges(args, RANGES, prefix)
    if args["eig_max"] < args["eig_min"]:
        raise InvalidSpec(f"{prefix}eig_max must be at least eig_min "
                          f"{args['eig_min']!r}, got {args['eig_max']!r}",
                          key="eig_max")
    # A and B, each client's U with the quartic term, and n rows of d1 + d2,
    # the order of the targets, the noise block and the iterates
    n, (d1, d2) = args["n"], dims(args)
    check_size(args, d2 * (d1 + d2) + (n * d2 * d2 if args["quartic"] else 0)
               + n * (d1 + d2), ("n", "d1", "d2"), prefix)


def dims(args: dict) -> tuple[int, int]:
    """(d1, d2) of the problem ``make_quadratic(**args)`` builds."""
    return args["d1"], args["d2"]


@np.errstate(over="ignore", invalid="ignore")
def make_quadratic(seed: int = 0, n: int = 4, d1: int = 10, d2: int = 10,
                   hetero: float = 0.0, noise_f: float = 0.0,
                   noise_g: float = 0.0, *, eig_min: float = 1.0,
                   eig_max: float = 1.0, lam: float = 0.5,
                   coupling: float = 0.5, quartic: float = 0.0,
                   sine_amp: float = 0.0, target_scale: float = 1.0,
                   ball_radius: float = 10.0) -> QuadraticProblem:
    """Construct a quadratic bilevel instance from the arguments, and
    defaults, of a config's quadratic ``problem`` section.

    ``eig_min`` and ``eig_max`` bracket the eigenvalues of every A_i; equal
    bounds s yield exactly s * I. ``coupling`` sets the spectral norm of
    the shared cross block B. ``hetero`` scales mean-centered per-client
    offsets of the linear targets, so ``hetero == 0`` makes all clients
    identical while the client average is unchanged for any value.
    ``target_scale`` scales the mean linear targets; 0 puts the outer
    optimum exactly at the origin, where masked evaluation is unbiased
    (useful for pruned-training studies).

    A value so large that a block or target it scales, or the client mean
    the problem forms of it, overflows raises InvalidSpec naming it
    (eig_max for A), without numpy's overflow warnings.
    """
    args = dict(locals())
    check_args(args)

    def finite(key, *arrays):
        # the problem sums n clients' entries into means and symmetrizes
        # A's, so 2 n |entry| must stay finite too
        if not all(np.isfinite(2.0 * n * np.abs(a).max()) for a in arrays):
            raise InvalidSpec(
                f"{key} must keep the problem's entries and their client "
                f"means finite, got {args[key]!r}", key=key)
        return arrays[0]

    gen = RngStream(seed, purpose="make-quadratic").generator()

    if eig_min == eig_max:
        a_shared = eig_min * np.eye(d2)
    else:
        raw = gen.standard_normal((d2, d2))
        q, r = np.linalg.qr(raw)
        q = q * np.sign(np.diag(r))  # fix sign convention for determinism
        eigs = gen.uniform(eig_min, eig_max, size=d2)
        a_shared = q @ np.diag(eigs) @ q.T
    a_shared = symmetrize(finite("eig_max", a_shared))

    b_shared = gen.standard_normal((d2, d1))
    norm = spectral_norm(b_shared)
    if norm > 0:
        b_shared = finite("coupling", b_shared * (coupling / norm))

    c_bar = target_scale * gen.standard_normal(d2)
    a_tgt_bar = target_scale * gen.standard_normal(d1)
    b_tgt_bar = target_scale * gen.standard_normal(d2)
    finite("target_scale", c_bar, a_tgt_bar, b_tgt_bar)

    def centered(shape):
        offs = gen.standard_normal((n,) + shape)
        return offs - offs.mean(axis=0)

    c_off = centered((d2,))
    a_off = centered((d1,))
    b_off = centered((d2,))

    u_mats = None
    if quartic > 0:
        u_mats = []
        for _ in range(n):
            w = gen.standard_normal((d2, d2))
            u = symmetrize(w @ w.T)
            u_mats.append(u / spectral_norm(u))

    a_shared.flags.writeable = False
    b_shared.flags.writeable = False
    c_vecs, outer, inner = (
        list(finite("hetero", bar + hetero * off)) for bar, off in
        ((c_bar, c_off), (a_tgt_bar, a_off), (b_tgt_bar, b_off)))
    spec = QuadraticSpec(
        a_mats=[a_shared] * n,
        b_mats=[b_shared] * n,
        c_vecs=c_vecs, outer_targets=outer, inner_targets=inner,
        u_mats=u_mats,
        lam=lam, noise_f=noise_f, noise_g=noise_g, quartic=quartic,
        sine_amp=sine_amp, ball_radius=ball_radius)
    return QuadraticProblem(spec)


# make_quadratic's arguments and their defaults, the keys and defaults of
# a config's quadratic problem section
ARGUMENTS = {name: param.default for name, param
             in inspect.signature(make_quadratic).parameters.items()}


def _distinct(arrays: list) -> list:
    """Each array object of ``arrays`` once, in first-seen order."""
    return list({id(a): a for a in arrays}.values())


def derive_constants(problem) -> ProblemConstants:
    """Smoothness constants of a quadratic instance over its operating ball.

    ``mu_g`` and the curvature part of ``l_g1`` are exact; the quartic
    contributions and ``l_f0`` are sound upper bounds over the ball of
    radius ``ball_radius`` around the origin (the upper gradient of a
    quadratic is unbounded on all of R^d, so a compact domain is required
    for finite constants).
    """
    if not isinstance(problem, QuadraticProblem):
        raise UnsupportedProblem(
            f"{type(problem).__name__} has no closed-form constants")
    p, s = problem, problem.spec
    rho = s.ball_radius

    # aliased client blocks (make_quadratic shares one A and one B) give
    # equal values, so each distinct block or pair is decomposed once
    mu_g = min(spectral_bounds(a)[0] for a in _distinct(s.a_mats))
    joint = 0.0
    for a, b in {(id(a), id(b)): (a, b)
                 for a, b in zip(s.a_mats, s.b_mats)}.values():
        block = np.zeros((p.d1 + p.d2, p.d1 + p.d2))
        block[: p.d2, : p.d2] = a
        block[: p.d2, p.d2:] = b
        block[p.d2:, : p.d2] = b.T
        joint = max(joint, spectral_norm(block))
    u_norm = 0.0
    if s.quartic:
        u_norm = max(spectral_norm(u) for u in _distinct(s.u_mats))
    l_g1 = joint + 2.0 * s.quartic * u_norm * rho ** 2
    l_g2 = 6.0 * s.quartic * u_norm * rho

    l_f1 = max(s.lam, 1.0) + s.sine_amp
    l_f0 = max(
        np.sqrt(s.lam ** 2 * (rho + np.linalg.norm(a)) ** 2
                + (rho + np.linalg.norm(b)) ** 2)
        for a, b in zip(s.outer_targets, s.inner_targets))
    l_f0 = float(l_f0) + s.sine_amp * np.sqrt(p.d1)

    curvature_ratio = l_g1 / mu_g
    second_order = (l_f0 / mu_g) * (l_g2 + l_g1 * l_g2 / mu_g)
    m_f = l_f1 + curvature_ratio * l_f1 + second_order
    l_f = l_f1 + (l_g1 * (l_f1 + m_f)) / mu_g + second_order
    return ProblemConstants(mu_g=mu_g, l_g1=l_g1, l_g2=l_g2, l_f0=l_f0,
                            l_f1=l_f1, M_f=m_f, L_f=l_f, L_y=l_g1 / mu_g,
                            ball_radius=rho)
