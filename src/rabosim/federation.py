"""Round orchestration: masked inner training, parameter-wise aggregation,
hypergradient collection, coverage tracking and cost ledgers.

One round executes, in order: mask generation from the current global
model, submodel extraction, T local inner gradient steps per client,
parameter-wise inner aggregation over covering clients, broadcast of the
aggregated inner model re-masked per client, per-client hypergradient
estimation, and parameter-wise outer aggregation. Coordinates covered by
no client are bit-identical before and after the round at both levels.

Clients run one after another in ascending order, and the server
aggregates in that order with a fixed left-to-right summation, so runs
are bit-reproducible.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    InvalidSpec,
    check_ranges,
)
from .hypergrad import (
    EXACT_AID,
    RAFBO,
    HypergradEstimate,
    RAFBOConfig,
    exact_hypergradient,
    grad_eval_flops,
    rafbo_hypergradient,
)
from .masking import (
    CoverageTracker,
    Mask,
    MaskPolicy,
    apply_mask,
    coverage,
    generate_mask,
    mask_deviation,
)
from .problems.base import SampleBatch
from .rng import RngStream

DOWNLOAD_MODES = ("masked", "full")
BYTES_PER_COORD = 8  # 64-bit reals on every leg
RANGES = {
    "alpha": "positive", "beta": "positive", "inner_epochs": "at least 1",
    "rounds": "nonnegative", "batch_size_f": "nonnegative",
    "batch_size_g": "nonnegative", "divergence_factor": "positive",
    "download_mode": DOWNLOAD_MODES, "estimator": (EXACT_AID, RAFBO),
}


@dataclass(frozen=True)
class GlobalState:
    """Full-model pair held by the server."""

    x: np.ndarray
    y: np.ndarray
    round_index: int = 0


@dataclass(frozen=True)
class RunConfig:
    """All knobs of one training run, checked against ``RANGES`` when built.

    ``capacities`` holds one resource per client of the problem the run
    trains; ``rabo_round`` checks the count against the problem's.
    """

    alpha: float
    beta: float
    inner_epochs: int = 1
    rounds: int = 1
    estimator: str = EXACT_AID
    rafbo: RAFBOConfig = field(default_factory=RAFBOConfig)
    policy: MaskPolicy = field(default_factory=MaskPolicy)
    capacities: list = field(default_factory=list)
    seed: int = 0
    download_mode: str = "masked"
    batch_size_f: int = 0      # 0 -> deterministic (no batch object)
    batch_size_g: int = 0
    divergence_factor: float = 1e6
    log_masks: bool = False
    x0: np.ndarray | None = None
    y0: np.ndarray | None = None

    def __post_init__(self):
        check_ranges(vars(self), RANGES)


@dataclass
class ClientReport:
    """One client's round output."""

    client: int
    mask_x: Mask
    mask_y: Mask
    g_delta: np.ndarray                      # (y_0 - y_T) / beta, d2
    inner_flops: int
    hypergrad: HypergradEstimate | None = None

    @property
    def compute_flops(self) -> int:
        hyper = self.hypergrad.flops if self.hypergrad is not None else 0
        return self.inner_flops + hyper


@dataclass(frozen=True)
class RoundLog:
    """Post-aggregation metrics of one round.

    Oracle columns hold NaN when the problem exposes no closed forms.
    Byte and flop fields are this round's increments.
    """

    round_index: int
    grad_phi_sq: float
    phi: float
    inner_err_sq: float
    c_star_x_running: int | None
    c_star_y_running: int | None
    bytes_up: int
    bytes_down: int
    flops: int
    mean_w1sq: float
    mean_w2sq: float
    masks_x_hex: tuple | None = None
    masks_y_hex: tuple | None = None


CSV_COLUMNS = ("round", "grad_phi_sq", "phi", "inner_err_sq",
               "C_star_x_running", "C_star_y_running", "bytes_up",
               "bytes_down", "flops", "mean_w1sq", "mean_w2sq")


@dataclass
class CostLedger:
    """Cumulative exact-integer cost tallies.

    Bytes per leg are 8 x transferred coordinate count; uploads always
    carry only active coordinates, downloads depend on the mode.
    """

    x_down: int = 0
    y_down: int = 0
    g_up: int = 0
    y_plus_down: int = 0
    h_up: int = 0
    flops_per_client: dict = field(default_factory=dict)

    @property
    def bytes_up(self) -> int:
        return self.g_up + self.h_up

    @property
    def bytes_down(self) -> int:
        return self.x_down + self.y_down + self.y_plus_down

    @property
    def total_flops(self) -> int:
        return sum(self.flops_per_client.values())

    def legs(self) -> dict:
        return {"x_down": self.x_down, "y_down": self.y_down,
                "g_up": self.g_up, "y_plus_down": self.y_plus_down,
                "h_up": self.h_up}

    def add(self, reports: list[ClientReport], download_mode: str,
            d1: int, d2: int) -> tuple[int, int, int]:
        """Charge one round; returns its (bytes_up, bytes_down, flops)."""
        up = down = flops = 0
        for rep in reports:
            ax = rep.mask_x.active_count
            ay = rep.mask_y.active_count
            dx, dy = (ax, ay) if download_mode == "masked" else (d1, d2)
            self.x_down += BYTES_PER_COORD * dx
            self.y_down += BYTES_PER_COORD * dy
            self.y_plus_down += BYTES_PER_COORD * dy
            self.g_up += BYTES_PER_COORD * ay
            self.h_up += BYTES_PER_COORD * ax
            self.flops_per_client[rep.client] = \
                self.flops_per_client.get(rep.client, 0) + rep.compute_flops
            up += BYTES_PER_COORD * (ay + ax)
            down += BYTES_PER_COORD * (dx + 2 * dy)
            flops += rep.compute_flops
        return up, down, flops


def client_inner_loop(problem, i: int, x_i: np.ndarray, y_i0: np.ndarray,
                      mask_y: Mask, beta: float, inner_epochs: int,
                      batches=None, divergence_guard: float | None = None):
    """T masked stochastic gradient steps on y; returns (y_T, G).

    ``batches`` supplies one SampleBatch per epoch (None for noiseless /
    full-data evaluation). G = (y_0 - y_T) / beta summarizes the local
    update as the sum of the masked step gradients, oriented like a
    gradient so the server's ``y - beta * mean(G)`` update replays the
    clients' parameter deltas; its support stays inside the mask.
    Raises DivergenceDetected when ||y|| exceeds the guard or is NaN.
    Under a guard, numpy's overflow and invalid-value warnings are
    silenced: what overflowed shows up as a non-finite ||y||, which the
    guard reports.
    """
    check_ranges({"beta": beta}, RANGES)
    y = y_i0.copy()
    quiet = np.errstate(over="ignore", invalid="ignore") \
        if divergence_guard is not None else nullcontext()
    with quiet:
        for t in range(inner_epochs):
            batch = batches[t] if batches is not None else None
            grad = apply_mask(problem.grad_g_y(i, x_i, y, batch), mask_y)
            y = y - beta * grad
            norm = np.linalg.norm(y)
            if divergence_guard is not None and not norm <= divergence_guard:
                verdict = "is non-finite" if np.isnan(norm) else \
                    f"exceeded guard {divergence_guard:.3e}"
                raise DivergenceDetected(
                    f"client {i}: ||y|| = {norm:.3e} {verdict} at inner "
                    f"epoch {t} with beta {beta}")
    return y, (y_i0 - y) / beta


def _covering_step(v_q: np.ndarray, pairs, step: float,
                   level: str) -> np.ndarray:
    """v_q - step * (per-coordinate mean over covering clients).

    ``pairs`` yields (mask, vector) in ascending client order; the fixed
    left-to-right summation keeps the result bit-reproducible. Uncovered
    coordinates are returned untouched.
    """
    d = v_q.shape[0]
    counts = np.zeros(d, dtype=np.int64)
    total = np.zeros(d)
    for mask, vec in pairs:
        if vec.shape[0] != d:
            raise DimensionMismatch(f"{level} report dimension mismatch")
        counts += mask.bits
        total += mask.bits * vec
    v_next = v_q.copy()
    covered = counts > 0
    v_next[covered] = v_q[covered] - step * (total[covered] / counts[covered])
    return v_next


def _sorted_by_client(reports):
    return sorted(reports, key=lambda r: r.client)


def aggregate_inner(y_q: np.ndarray, reports: list[ClientReport],
                    beta: float) -> np.ndarray:
    """Covering-average inner update; uncovered coordinates untouched."""
    return _covering_step(
        y_q, ((rep.mask_y, rep.g_delta) for rep in _sorted_by_client(reports)),
        beta, "inner")


def aggregate_outer(x_q: np.ndarray, reports: list[ClientReport],
                    alpha: float) -> np.ndarray:
    """Covering-average hypergradient step; uncovered coordinates untouched."""
    reports = _sorted_by_client(reports)
    for rep in reports:
        if rep.hypergrad is None:
            raise InvalidSpec(f"client {rep.client} report carries no hypergradient")
    return _covering_step(
        x_q, ((rep.mask_x, rep.hypergrad.value) for rep in reports),
        alpha, "outer")


def _require_finite(v: np.ndarray, q: int, what: str, step: str) -> None:
    if not np.isfinite(v).all():
        raise DivergenceDetected(
            f"round {q}: aggregated {what} is non-finite ({step} too large?)")


def _safe_deviation(v: np.ndarray, mask: Mask) -> float:
    if float(v @ v) == 0.0:
        return 0.0
    return mask_deviation(v, mask)


def _divergence_cap(cfg: RunConfig, x: np.ndarray, y: np.ndarray) -> float:
    """Absolute cap on ||y||: divergence_factor * max(1, ||x||, ||y||)."""
    return cfg.divergence_factor * max(1.0, float(np.linalg.norm(y)),
                                       float(np.linalg.norm(x)))


def rabo_round(problem, state: GlobalState, cfg: RunConfig,
               tracker: CoverageTracker | None = None,
               ledger: CostLedger | None = None,
               divergence_guard: float | None = None):
    """Execute one full round; returns (next_state, RoundLog).

    Order follows the double loop: masks, submodels, inner epochs, inner
    aggregation, re-masked broadcast of the aggregated inner model, one
    hypergradient per client, outer aggregation. ``divergence_guard`` is
    an absolute cap on ||y||; ``run`` anchors it to the initial scale so a
    slowly exploding trajectory cannot outrun it, and without one it is
    anchored to this round's state.
    """
    if len(cfg.capacities) != problem.n:
        raise InvalidSpec(
            f"{len(cfg.capacities)} capacities for {problem.n} clients",
            key="capacities")
    tracker = tracker if tracker is not None else CoverageTracker()
    ledger = ledger if ledger is not None else CostLedger()
    q = state.round_index
    guard = divergence_guard if divergence_guard is not None else \
        _divergence_cap(cfg, state.x, state.y)

    reports, client_x = [], []
    for i, res in enumerate(cfg.capacities):
        mask_x = generate_mask(state.x, res, cfg.policy, i, q, "x")
        mask_y = generate_mask(state.y, res, cfg.policy, i, q, "y")
        x_i = apply_mask(state.x, mask_x)
        y_i0 = apply_mask(state.y, mask_y)
        batches = None
        if cfg.batch_size_g > 0:
            batches = [SampleBatch("g", cfg.seed, i, q, draw=t,
                                   size=cfg.batch_size_g)
                       for t in range(cfg.inner_epochs)]
        try:
            y_t, g_delta = client_inner_loop(
                problem, i, x_i, y_i0, mask_y, cfg.beta, cfg.inner_epochs,
                batches, guard)
        except DivergenceDetected as exc:
            raise DivergenceDetected(
                f"round {q}: {exc}; client outer iterate ||x|| = "
                f"{np.linalg.norm(x_i):.3e} after steps of alpha {cfg.alpha}"
            ) from exc
        unit = grad_eval_flops(mask_x.active_count, mask_y.active_count)
        flops = cfg.inner_epochs * (unit + 2 * mask_y.active_count)
        reports.append(ClientReport(client=i, mask_x=mask_x, mask_y=mask_y,
                                    g_delta=g_delta, inner_flops=flops))
        client_x.append(x_i)

    y_next = aggregate_inner(state.y, reports, cfg.beta)
    _require_finite(y_next, q, "inner iterate y", f"beta {cfg.beta}")

    solvers = {}   # this round's restricted-block solvers, shared by clients
    for rep, x_i in zip(reports, client_x):
        i = rep.client
        y_plus = apply_mask(y_next, rep.mask_y)
        batch_f = (SampleBatch("f", cfg.seed, i, q, draw=0, size=cfg.batch_size_f)
                   if cfg.batch_size_f > 0 else None)
        batch_g = (SampleBatch("g", cfg.seed, i, q, draw=cfg.inner_epochs,
                               size=cfg.batch_size_g)
                   if cfg.batch_size_g > 0 else None)
        if cfg.estimator == EXACT_AID:
            rep.hypergrad = exact_hypergradient(
                problem, i, x_i, y_plus, rep.mask_x, rep.mask_y, batch_f,
                batch_g, solvers)
        else:
            rep.hypergrad = rafbo_hypergradient(
                problem, i, x_i, y_plus, rep.mask_x, rep.mask_y, cfg.rafbo,
                batch_f, batch_g, RngStream(cfg.seed, i, q, "perturbation-set"))

    x_next = aggregate_outer(state.x, reports, cfg.alpha)
    _require_finite(x_next, q, "outer iterate x", f"alpha {cfg.alpha}")

    tracker.observe(coverage([rep.mask_x for rep in reports], problem.d1),
                    coverage([rep.mask_y for rep in reports], problem.d2))
    bytes_up, bytes_down, flops = ledger.add(
        reports, cfg.download_mode, problem.d1, problem.d2)

    if problem.has_oracles():
        ys = problem.y_star(x_next)
        grad_phi = problem.grad_phi(x_next, ys)
        grad_phi_sq = float(grad_phi @ grad_phi)
        phi = problem.phi(x_next, ys)
        err = y_next - ys
        inner_err_sq = float(err @ err)
    else:
        grad_phi_sq = phi = inner_err_sq = float("nan")

    log = RoundLog(
        round_index=q,
        grad_phi_sq=grad_phi_sq, phi=phi, inner_err_sq=inner_err_sq,
        c_star_x_running=tracker.c_star_x, c_star_y_running=tracker.c_star_y,
        bytes_up=bytes_up, bytes_down=bytes_down, flops=flops,
        mean_w1sq=float(np.mean([_safe_deviation(state.x, rep.mask_x)
                                 for rep in reports])),
        mean_w2sq=float(np.mean([_safe_deviation(state.y, rep.mask_y)
                                 for rep in reports])),
        masks_x_hex=tuple(rep.mask_x.to_hex() for rep in reports)
        if cfg.log_masks else None,
        masks_y_hex=tuple(rep.mask_y.to_hex() for rep in reports)
        if cfg.log_masks else None)
    return GlobalState(x_next, y_next, q + 1), log


@dataclass
class RunResult:
    final_state: GlobalState
    logs: list
    ledger: CostLedger
    coverage: CoverageTracker

    def summary(self) -> dict:
        return {
            "rounds": len(self.logs),
            "final_round": self.final_state.round_index,
            "final_x": [float(v) for v in self.final_state.x],
            "final_y": [float(v) for v in self.final_state.y],
            "final_grad_phi_sq": self.logs[-1].grad_phi_sq if self.logs else None,
            "final_phi": self.logs[-1].phi if self.logs else None,
            "final_inner_err_sq": self.logs[-1].inner_err_sq if self.logs else None,
            "c_star_x": self.coverage.c_star_x,
            "c_star_y": self.coverage.c_star_y,
            "bytes_up": self.ledger.bytes_up,
            "bytes_down": self.ledger.bytes_down,
            "bytes_per_leg": self.ledger.legs(),
            "total_flops": self.ledger.total_flops,
            "flops_per_client": {str(k): v for k, v in
                                 sorted(self.ledger.flops_per_client.items())},
        }


def check_theory_guard(cfg: RunConfig, constants) -> list:
    """Enforce alpha <= 1/(L_f + 4 M_f) and beta <= min(1/(2 l_g1), 1/mu_g).

    The beta floor 1/mu_g - 1/(2 alpha L_y M_f mu_g) can conflict with
    small-step schedules, so it is only returned as an advisory note.
    """
    notes = []
    alpha_cap = 1.0 / (constants.L_f + 4.0 * constants.M_f)
    beta_cap = min(1.0 / (2.0 * constants.l_g1), 1.0 / constants.mu_g)
    if cfg.alpha > alpha_cap:
        raise InvalidSpec(
            f"theory guard: run.alpha {cfg.alpha} > 1/(L_f + 4 M_f) = "
            f"{alpha_cap:.6g}", key="alpha")
    if cfg.beta > beta_cap:
        raise InvalidSpec(
            f"theory guard: run.beta {cfg.beta} > min(1/(2 l_g1), 1/mu_g) = "
            f"{beta_cap:.6g}", key="beta")
    beta_floor = 1.0 / constants.mu_g - 1.0 / (
        2.0 * cfg.alpha * constants.L_y * constants.M_f * constants.mu_g)
    if cfg.beta < beta_floor:
        notes.append(
            f"advisory: beta {cfg.beta} below theoretical floor {beta_floor:.6g}")
    return notes


def run(problem, cfg: RunConfig) -> RunResult:
    """Execute cfg.rounds rounds of the double loop from the initial state."""
    x0 = (np.array(cfg.x0, dtype=np.float64) if cfg.x0 is not None
          else np.zeros(problem.d1))
    y0 = (np.array(cfg.y0, dtype=np.float64) if cfg.y0 is not None
          else np.zeros(problem.d2))
    state = GlobalState(x0, y0, 0)
    tracker = CoverageTracker()
    ledger = CostLedger()
    guard = _divergence_cap(cfg, x0, y0)
    logs = []
    for _ in range(cfg.rounds):
        try:
            state, log = rabo_round(problem, state, cfg, tracker, ledger, guard)
        except DivergenceDetected as exc:
            exc.partial_logs = logs
            raise
        logs.append(log)
    return RunResult(state, logs, ledger, tracker)


def _format_value(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def logs_to_csv(logs: list) -> str:
    """Render round logs with the fixed column set, byte-deterministically."""
    lines = [",".join(CSV_COLUMNS)]
    for log in logs:
        row = (log.round_index, log.grad_phi_sq, log.phi, log.inner_err_sq,
               log.c_star_x_running, log.c_star_y_running, log.bytes_up,
               log.bytes_down, log.flops, log.mean_w1sq, log.mean_w2sq)
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"
