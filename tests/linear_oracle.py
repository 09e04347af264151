"""Exact round map of the noiseless quadratic family: a test-side reference.

Without the quartic term, the sine term and gradient noise, and under
``static``, ``rolling`` or ``manual`` masks (which do not read the
iterates), every step of a round is affine in z = (x, y): the masked
inner steps, both covering averages, exact_aid's restricted solve and
rafbo's differences (exact for a bilinear coupling) at ``coord_fraction``
1. One round q is therefore

    z -> M_q z + c_q,

and the rounds of one mask period P compose into the period map
z -> M z + c, the monodromy map of a periodic linear system (Bittanti &
Colaneri, *Periodic Systems*, 2009). When its spectral radius rho is
below 1, a run settles into the orbit through z* = (I - M)^{-1} c, and the
mean of ||grad Phi||^2 over that orbit is the run's floor.

The map is built only from ``QuadraticSpec``'s matrices and
``generate_mask``; it never calls ``rabo_round``, so comparing the two
checks the round against an independent model. ``ball_radius`` and the
download mode do not enter the iterates.

Usage::

    pm = period_map(problem, cfg)     # cfg is the run's RunConfig
    pm.fixed_point, pm.rho, pm.floor()
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rabosim.errors import UnsupportedProblem
from rabosim.federation import RunConfig
from rabosim.hypergrad import EXACT_AID, RAFBO
from rabosim.masking import generate_mask, period
from rabosim.problems.quadratic import QuadraticProblem


def check_affine(problem, cfg: RunConfig) -> None:
    """Raise UnsupportedProblem, naming the reason, unless every round of
    ``cfg`` on ``problem`` is an affine map of the state."""
    if not isinstance(problem, QuadraticProblem):
        raise UnsupportedProblem(
            f"{type(problem).__name__} is not a quadratic problem")
    s = problem.spec
    if s.quartic:
        raise UnsupportedProblem(
            "the quartic term makes grad_y g nonlinear in (x, y)")
    if s.sine_amp:
        raise UnsupportedProblem("the sine term makes grad_x f nonlinear in x")
    if (cfg.batch_size_f and s.noise_f) or (cfg.batch_size_g and s.noise_g):
        raise UnsupportedProblem(
            "gradient noise adds a random term to every round")
    if cfg.policy == "magnitude_topk":
        raise UnsupportedProblem("magnitude_topk masks read the iterates")
    if cfg.estimator == RAFBO and cfg.coord_fraction < 1:
        raise UnsupportedProblem(
            "coord_fraction < 1 draws a new perturbation set every round, "
            "so the rounds are not periodic")


def mask_period(cfg: RunConfig) -> int:
    """Rounds after which every client's masks repeat."""
    if cfg.policy != "rolling":
        return 1
    caps = cfg.capacities if isinstance(cfg.capacities, tuple) \
        else (cfg.capacities,)
    return math.lcm(*map(period, caps))


def _covering_step(v, masks, vecs, step):
    """Affine rows of v - step * (covering mean of vecs); rows of
    uncovered coordinates stay those of v."""
    counts = sum(masks)
    total = sum(m[:, None] * vec for m, vec in zip(masks, vecs))
    out = v.copy()
    covered = counts > 0
    out[covered] -= step * total[covered] / counts[covered, None]
    return out


def round_map(problem, cfg: RunConfig, q: int):
    """(M_q, c_q) of round ``q``: the round takes z = (x, y) to M_q z + c_q.

    Every quantity of the round is held as the rows of an affine function
    of (z, 1), so the map is read off the rows of the next state.
    """
    check_affine(problem, cfg)
    s, d1, d2 = problem.spec, problem.d1, problem.d2
    dim = d1 + d2
    rows = np.eye(dim + 1)
    x, y, one = rows[:d1], rows[d1:dim], rows[dim]

    def constant(v):
        return np.outer(v, one)

    caps = cfg.capacities if isinstance(cfg.capacities, tuple) \
        else (cfg.capacities,) * problem.n
    tables = cfg.manual_tables or {}
    masks = list(zip(*(
        generate_mask(np.zeros(d), caps, cfg.policy, q,
                      table=tables.get(level)).astype(np.float64)
        for d, level in ((d1, "x"), (d2, "y")))))

    deltas = []
    for i, (mx, my) in enumerate(masks):
        x_i = mx[:, None] * x
        y_t = my[:, None] * y
        for _ in range(cfg.inner_epochs):
            grad = s.a_mats[i] @ y_t + s.b_mats[i] @ x_i \
                + constant(s.c_vecs[i])
            y_t = y_t - cfg.beta * my[:, None] * grad
        deltas.append((my[:, None] * y - y_t) / cfg.beta)
    y_next = _covering_step(y, [my for _, my in masks], deltas, cfg.beta)

    hypergrads = []
    for i, (mx, my) in enumerate(masks):
        x_i = mx[:, None] * x
        gfx = s.lam * (x_i - constant(s.outer_targets[i]))
        gfy = my[:, None] * y_next - constant(s.inner_targets[i])
        if cfg.estimator == EXACT_AID:
            active = np.flatnonzero(my)
            v = np.zeros((d2, dim + 1))
            v[active] = np.linalg.solve(
                s.a_mats[i][np.ix_(active, active)], gfy[active])
        else:
            v = my[:, None] * gfy
        hypergrads.append(mx[:, None] * (gfx - s.b_mats[i].T @ v))
    x_next = _covering_step(x, [mx for mx, _ in masks], hypergrads, cfg.alpha)

    z_next = np.vstack([x_next, y_next])
    return z_next[:, :dim], z_next[:, dim]


@dataclass(frozen=True)
class PeriodMap:
    """The rounds of one mask period, their composition and its orbit."""

    problem: QuadraticProblem
    rounds: list          # (M_q, c_q) for q = 0 .. P-1
    matrix: np.ndarray    # M = M_{P-1} ... M_0
    offset: np.ndarray    # c, so that z_P = M z_0 + c
    fixed_point: np.ndarray   # z* = (I - M)^{-1} c, the state before round 0
    rho: float            # spectral radius of M

    def orbit(self) -> list:
        """The states before rounds 0 .. P-1 on the periodic orbit."""
        states = [self.fixed_point]
        for m_q, c_q in self.rounds[:-1]:
            states.append(m_q @ states[-1] + c_q)
        return states

    def floor(self) -> float:
        """Mean of ||grad Phi||^2 over the orbit: the late-round mean of a
        run's ``grad_phi_sq`` when rho < 1."""
        d1 = self.problem.d1
        return float(np.mean([np.sum(self.problem.grad_phi(z[:d1]) ** 2)
                              for z in self.orbit()]))


def period_map(problem, cfg: RunConfig) -> PeriodMap:
    """Compose the round maps of one mask period, starting at round 0."""
    rounds = [round_map(problem, cfg, q) for q in range(mask_period(cfg))]
    dim = problem.d1 + problem.d2
    matrix, offset = np.eye(dim), np.zeros(dim)
    for m_q, c_q in rounds:
        matrix, offset = m_q @ matrix, m_q @ offset + c_q
    fixed_point = np.linalg.solve(np.eye(dim) - matrix, offset)
    rho = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    return PeriodMap(problem, rounds, matrix, offset, fixed_point, rho)


def outer_minimizer(problem) -> np.ndarray:
    """x of the full-capacity exact_aid fixed point.

    With one A and one B shared by every client (``make_quadratic``), the
    inner fixed point is y*(x) and the outer one solves grad Phi(x) = 0,
    whatever the step sizes, so this is the minimizer of Phi.
    """
    cfg = RunConfig(alpha=0.5, beta=0.5)
    return period_map(problem, cfg).fixed_point[:problem.d1]
