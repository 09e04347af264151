"""Round orchestration: masked inner training, parameter-wise aggregation,
hypergradient collection, coverage tracking and cost ledgers.

Clients are rows: a round's masks of one level, its inner deltas and its
hypergradients are (n, d) arrays, row i for client i. One round executes,
in order: the round's masks (``RunConfig.mask_phase``: under
``magnitude_topk`` one ``generate_mask`` call per level from the current
global model, under the other policies the phase of a schedule built
once per run), submodel extraction, T local inner
gradient steps per client, parameter-wise inner aggregation over covering
clients, broadcast of the aggregated inner model re-masked per client,
per-client hypergradient estimation, and parameter-wise outer
aggregation. Coordinates covered by no client are bit-identical before
and after the round at both levels.

Each phase is one call over all clients as rows with the bits, and the
failures, of clients run one after another in ascending order. The
server aggregates the rows in that order with a fixed left-to-right
summation, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from . import hypergrad, masking
from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    InvalidSpec,
    NonFiniteValue,
    SingularRestrictedHessian,
    check_ranges,
    check_types,
    is_finite,
)
from .hypergrad import (
    EXACT_AID,
    RAFBO,
    exact_hypergradient,
    perturbation_size,
    rafbo_hypergradient,
)
from .masking import (
    CoverageTracker,
    apply_mask,
    check_masks,
    coverage,
    generate_mask,
    mask_deviation,
    parse_capacities,
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
    """All settings of one training run.

    The fields other than ``manual_tables`` are the keys of a config's
    ``run`` section, and their defaults are the section's defaults.
    ``capacities`` takes a config's forms: one capacity shared by every
    client, or a list with one per client, each a Fraction, a "1/4"
    string, a decimal or an integer; it holds them parsed, as one Fraction
    or a tuple of them. ``manual_tables`` is the manual policy's table
    entry, ``{"x": rows, "y": rows}`` with one row of coordinate indices
    per client and level; it holds it checked, as a read-only mapping of
    tuples, so a change to the caller's entry does not reach the run.
    ``check_run`` holds the rules of the settings alone, and ``check_fit``
    those that fit them to a problem's client count and dimensions, which
    ``run`` and ``rabo_round`` apply through ``mask_phase``.
    """

    alpha: float = 0.05
    beta: float = 0.1
    inner_epochs: int = 1
    rounds: int = 50
    estimator: str = EXACT_AID
    mu: float = 1e-3
    coord_fraction: float = 1.0
    policy: str = "rolling"
    block_size: int = 1
    capacities: object = "1"
    seed: int = 0
    download_mode: str = "masked"
    batch_size_f: int = 0      # 0 -> deterministic (no batch object)
    batch_size_g: int = 0
    divergence_factor: float = 1e6
    log_masks: bool = False
    x0: np.ndarray | None = None
    y0: np.ndarray | None = None
    manual_tables: dict | None = None

    def __post_init__(self):
        check_run(vars(self))
        object.__setattr__(self, "capacities",
                           parse_capacities(self.capacities))
        if self.manual_tables is not None:
            object.__setattr__(self, "manual_tables", MappingProxyType({
                level: tuple(map(tuple, rows))
                for level, rows in self.manual_tables.items()}))
        # (n, d1, d2) -> (capacities, period, {phase: MaskPhase})
        object.__setattr__(self, "_schedules", {})

    def mask_phase(self, problem, q: int, x: np.ndarray,
                   y: np.ndarray) -> MaskPhase:
        """Round ``q``'s MaskPhase on ``problem`` at the global model
        (x, y).

        Under ``magnitude_topk`` it is built from x and y on every call.
        The masks of the other policies repeat every
        ``masking.schedule_period`` rounds, so phase ``q mod period`` is
        built the first time it is reached and then read back. The
        schedule is held on this RunConfig per problem shape, and is
        freed with it.
        """
        capacities, period, phases = self._schedule(problem)
        if period is None:
            return _mask_phase(self, capacities, q, x, y)
        key = q % period
        if key not in phases:
            phases[key] = _mask_phase(self, capacities, key, x, y)
        return phases[key]

    def _schedule(self, problem) -> tuple:
        """(capacities, period, phases) on ``problem``'s client count and
        dimensions, made on the first call for them, after ``check_fit``:
        one capacity per client, ``masking.schedule_period`` and the
        phases built so far."""
        dims = (problem.n, problem.d1, problem.d2)
        if dims not in self._schedules:
            check_fit(vars(self), *dims)
            capacities = self.capacities \
                if isinstance(self.capacities, tuple) \
                else (self.capacities,) * problem.n
            self._schedules[dims] = (
                capacities, masking.schedule_period(self.policy, capacities),
                {})
        return self._schedules[dims]


def check_run(args: dict, prefix: str = "",
              tables: str = "manual_tables") -> None:
    """Raise InvalidSpec naming the first setting in ``args`` that breaks
    a rule of ``RunConfig`` that needs no problem: each field's type, by
    its default (``capacities`` has ``parse_capacities``'s forms), the
    range tables of this module, ``hypergrad`` and ``masking``, then the
    rules between the mask settings and ``masking.check_table``.

    ``prefix`` (such as ``"run."``) leads each setting's name in a
    message, and ``tables`` names ``args["manual_tables"]``, which a
    config sets under ``sweep.manual_tables``.
    """
    check_types(args, {f.name: f.default for f in fields(RunConfig)
                       if f.name != "capacities"}, prefix)
    for ranges in (RANGES, hypergrad.RANGES, masking.RANGES):
        check_ranges(args, ranges, prefix)
    policy, table = args["policy"], args["manual_tables"]
    if policy == "manual" and table is None:
        raise InvalidSpec(f"{prefix}policy 'manual' needs {tables}",
                          key="policy")
    # a setting that only another policy reads is an error rather than a
    # silent no-op
    for name, key, value, unset, owner in (
            (tables, "manual_tables", table, None, "manual"),
            (f"{prefix}block_size", "block_size", args["block_size"], 1,
             "magnitude_topk")):
        if value != unset and policy != owner:
            raise InvalidSpec(
                f"{name} takes effect only under {prefix}policy '{owner}', "
                f"got policy '{policy}'", key=key)
    if table is not None:
        masking.check_table(table, tables)


def check_fit(args: dict, n: int, d1: int, d2: int, prefix: str = "",
              tables: str = "manual_tables") -> None:
    """Raise InvalidSpec naming the first setting in ``args`` that does
    not fit a problem of ``n`` clients and dimensions (d1, d2): the
    capacities count, ``x0``/``y0`` as lists of d1/d2 finite numbers, and
    ``masking.check_table``. A key absent from ``args`` is skipped;
    ``prefix`` and ``tables`` are as in ``check_run``."""
    capacities = args.get("capacities")
    if isinstance(capacities, (list, tuple)) and len(capacities) != n:
        raise InvalidSpec(f"{prefix}capacities lists {len(capacities)} "
                          f"capacities for {n} clients", key="capacities")
    for level, d in zip("xy", (d1, d2)):
        start = args.get(f"{level}0")
        if start is not None and not (
                (isinstance(start, (list, tuple)) or np.ndim(start) == 1)
                and len(start) == d and all(map(is_finite, start))):
            raise InvalidSpec(
                f"{prefix}{level}0 must list {d} finite numbers, one per "
                f"{level} coordinate, got {start!r}", key=f"{level}0")
    if args.get("manual_tables") is not None:
        masking.check_table(args["manual_tables"], tables, n, (d1, d2))


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


# The names of RoundLog's fields before the mask rows, in order.
CSV_COLUMNS = ("round", "grad_phi_sq", "phi", "inner_err_sq",
               "C_star_x_running", "C_star_y_running", "bytes_up",
               "bytes_down", "flops", "mean_w1sq", "mean_w2sq")


# The flop charges of the cost model in ``CostLedger``.

def grad_eval_flops(d1_active: int, d2_active: int) -> int:
    """Flop charge for one gradient evaluation on the active submodel."""
    return 2 * (d1_active + d2_active) ** 2


def inner_loop_flops(d1_active: int, d2_active: int, inner_epochs: int) -> int:
    return inner_epochs * (grad_eval_flops(d1_active, d2_active)
                           + 2 * d2_active)


def exact_aid_flops(d1_active: int, d2_active: int) -> int:
    unit = grad_eval_flops(d1_active, d2_active)
    assemble = d2_active ** 2                       # materialize the block
    solve = d2_active ** 3 // 3 + 2 * d2_active ** 2
    cross = 2 * d1_active * d2_active               # dense operator apply
    return (2 + d2_active + d1_active) * unit + assemble + solve + cross \
        + 2 * d1_active


def rafbo_flops(d1_active: int, d2_active: int, p_size: int) -> int:
    unit = grad_eval_flops(d1_active, d2_active)
    return (2 + 2 * p_size) * unit + p_size * (2 * d2_active + 1) + 2 * d1_active


@dataclass
class CostLedger:
    """Cumulative exact-integer cost tallies.

    ``price`` prices each client's round from its mask rows and the run's
    settings (estimator, inner epochs, perturbation fraction, download
    mode), ``charge`` adds a price to the tallies, and ``add`` does both;
    a run's mask schedule holds each phase's price. Bytes per leg are 8 x
    transferred coordinate count; uploads always carry only active
    coordinates, downloads depend on the mode.

    Cost model: gradient evaluations on the active submodel are the atomic
    unit, ``2 * (d1_active + d2_active)^2`` flops each. An inner epoch is
    one gradient evaluation plus the masked step on the active inner
    block. The exact route is additionally charged one gradient-equivalent
    per Hessian row and per cross-derivative column (the price of
    obtaining second derivatives by differentiating the gradient oracle),
    the materialization of the restricted block, the cubic cost of the
    solve, and the dense cross-operator application. Under this model the
    difference route is strictly cheaper whenever the perturbation set is
    no larger than the active inner dimension, with the gap widening as
    coordinates are sampled out. The difference route stays charged
    2|P| + 2 gradient evaluations although the simulator evaluates the
    base gradient once, so the modeled cost describes the method, not the
    simulator. Likewise a round's row calls multiply each distinct row of
    a block once and factor a shared inner Hessian block once per active
    set, while ``exact_aid_flops`` still charges every client its own
    solve and ``grad_eval_flops`` every client each gradient evaluation.
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

    @staticmethod
    def price(masks_x: np.ndarray, masks_y: np.ndarray,
              cfg: RunConfig) -> tuple:
        """One round's charge of the (n, d1) and (n, d2) masks, row i for
        client i: (each client's flops in client order, (x, y)
        coordinates uploaded, (x, y) coordinates downloaded)."""
        masks_x = check_masks(masks_x, "outer")
        masks_y = check_masks(masks_y, "inner", n=len(masks_x))
        flops = tuple(
            inner_loop_flops(ax, ay, cfg.inner_epochs)
            + (exact_aid_flops(ax, ay) if cfg.estimator == EXACT_AID else
               rafbo_flops(ax, ay, perturbation_size(ax, cfg.coord_fraction)))
            for ax, ay in zip(masks_x.sum(axis=1).tolist(),
                              masks_y.sum(axis=1).tolist()))
        up = (int(masks_x.sum()), int(masks_y.sum()))
        down = up if cfg.download_mode == "masked" \
            else (masks_x.size, masks_y.size)
        return flops, up, down

    def charge(self, price: tuple) -> tuple[int, int, int]:
        """Add one round's ``price``; returns its (bytes_up, bytes_down,
        flops)."""
        flops, (up_x, up_y), (dx, dy) = price
        for client, charge in enumerate(flops):
            self.flops_per_client[client] = \
                self.flops_per_client.get(client, 0) + charge
        self.x_down += BYTES_PER_COORD * dx
        self.y_down += BYTES_PER_COORD * dy
        self.y_plus_down += BYTES_PER_COORD * dy
        self.g_up += BYTES_PER_COORD * up_y
        self.h_up += BYTES_PER_COORD * up_x
        return (BYTES_PER_COORD * (up_x + up_y),
                BYTES_PER_COORD * (dx + 2 * dy), sum(flops))

    def add(self, masks_x: np.ndarray, masks_y: np.ndarray,
            cfg: RunConfig) -> tuple[int, int, int]:
        """Charge one round of the (n, d1) and (n, d2) masks, row i for
        client i; returns its (bytes_up, bytes_down, flops)."""
        return self.charge(self.price(masks_x, masks_y, cfg))


@dataclass(frozen=True)
class MaskPhase:
    """One round's masks and what follows from them alone: each level's
    read-only (n, d) masks, each level's C* (``coverage``), the round's
    ``CostLedger.price`` and, under ``log_masks``, each level's rows in
    hex (None otherwise)."""

    masks_x: np.ndarray
    masks_y: np.ndarray
    c_star_x: int | None
    c_star_y: int | None
    price: tuple
    hex_x: tuple | None
    hex_y: tuple | None


def _mask_phase(cfg: RunConfig, capacities: tuple, q: int, x: np.ndarray,
                y: np.ndarray) -> MaskPhase:
    """Round ``q``'s MaskPhase under ``cfg``, with one capacity per client,
    at the global model (x, y): one ``generate_mask`` call per level."""
    tables = cfg.manual_tables or {}
    masks = [generate_mask(v, capacities, cfg.policy, q, cfg.block_size,
                           tables.get(level))
             for v, level in ((x, "x"), (y, "y"))]
    hexes = [_hex_rows(m) if cfg.log_masks else None for m in masks]
    return MaskPhase(*masks, *map(coverage, masks),
                     CostLedger.price(*masks, cfg), *hexes)


def client_inner_loop(problem, i, x_i: np.ndarray, y_i0: np.ndarray,
                      mask_y: np.ndarray, beta: float, inner_epochs: int,
                      batches=None, divergence_guard: float | None = None):
    """T masked stochastic gradient steps on y; returns (y_T, G).

    Clients are rows, as in ``BilevelProblem``, one ``grad_g_y`` call
    per epoch; a row of ``batches`` has one SampleBatch per epoch (None:
    noiseless / full-data evaluation). G = (y_0 - y_T) / beta summarizes
    the local update as the sum of the masked step gradients, oriented
    like a gradient so the server's ``y - beta * mean(G)`` update replays
    the clients' parameter deltas; its support stays inside the mask.
    Raises DivergenceDetected when ||y|| exceeds the guard or is NaN for
    the lowest such client, at its first such epoch; the rows from it on
    stop stepping. Under a guard, numpy's overflow and invalid-value
    warnings are silenced: what overflowed shows up as a non-finite
    ||y||, which the guard reports.
    """
    check_ranges({"beta": beta}, RANGES)
    one, i, x, y0, masks, batches = problem.rows(i, x_i, y_i0, mask_y, batches)
    y, live, failure = y0.copy(), len(i), None
    quiet = np.errstate(over="ignore", invalid="ignore") \
        if divergence_guard is not None else nullcontext()
    with quiet:
        for t in range(inner_epochs):
            if not live:
                break
            batch = [b if b is None else b[t] for b in batches[:live]]
            y[:live] -= beta * apply_mask(problem.grad_g_y(
                i[:live], x[:live], y[:live], batch), masks[:live])
            if divergence_guard is not None:
                norms = np.sqrt(np.vecdot(y[:live], y[:live]))
                bad = np.flatnonzero(~(norms <= divergence_guard))
                if bad.size:
                    live = r = bad[0]
                    verdict = "is non-finite" if np.isnan(norms[r]) else \
                        f"exceeded guard {divergence_guard:.3e}"
                    failure = DivergenceDetected(
                        f"client {i[r]}: ||y|| = {norms[r]:.3e} {verdict} at "
                        f"inner epoch {t} with beta {beta}; client outer "
                        f"iterate ||x|| = {np.linalg.norm(x[r]):.3e}")
    if failure is not None:
        raise failure
    delta = (y0 - y) / beta
    return (y[0], delta[0]) if one else (y, delta)


def _covering_step(v_q: np.ndarray, masks, vecs: np.ndarray, step: float,
                   level: str) -> np.ndarray:
    """v_q - step * (per-coordinate mean over covering clients).

    Row i of ``masks`` and of ``vecs`` is client i's; rows are summed
    left to right in client order, which keeps the result
    bit-reproducible. Uncovered coordinates are returned untouched. A sum
    that overflows gives a non-finite result without numpy's warning;
    ``rabo_round`` reports it.
    """
    d = v_q.shape[0]
    masks = check_masks(masks, level, d=d)
    if np.shape(vecs) != masks.shape:
        raise DimensionMismatch(f"{level} updates have shape "
                                f"{np.shape(vecs)}, masks {masks.shape}")
    counts = masks.sum(axis=0, dtype=np.int64)
    total = np.zeros(d)
    v_next = v_q.copy()
    covered = counts > 0
    with np.errstate(over="ignore", invalid="ignore"):
        for mask, vec in zip(masks, vecs):
            total += mask * vec
        mean = total[covered] / counts[covered]
        v_next[covered] = v_q[covered] - step * mean
    return v_next


def aggregate_inner(y_q: np.ndarray, masks_y: np.ndarray,
                    g_deltas: np.ndarray, beta: float) -> np.ndarray:
    """Covering-average inner update over the (n, d2) masks and deltas;
    uncovered coordinates untouched."""
    return _covering_step(y_q, masks_y, g_deltas, beta, "inner")


def aggregate_outer(x_q: np.ndarray, masks_x: np.ndarray,
                    hypergrads: np.ndarray, alpha: float) -> np.ndarray:
    """Covering-average hypergradient step over the (n, d1) masks and
    hypergradients; uncovered coordinates untouched."""
    return _covering_step(x_q, masks_x, hypergrads, alpha, "outer")


def _require_finite(v: np.ndarray, q: int, what: str, step: str) -> None:
    if not np.isfinite(v).all():
        raise DivergenceDetected(
            f"round {q}: aggregated {what} is non-finite ({step} too large?)")


def _oracle_metrics(problem, x: np.ndarray, y: np.ndarray, q: int,
                    alpha: float) -> tuple[float, float, float]:
    """(grad_phi_sq, phi, inner_err_sq) of round q's next state; raises
    DivergenceDetected naming the round and the first oracle value that
    is not finite, with numpy's overflow warnings silenced."""
    def failure(what: str) -> DivergenceDetected:
        return DivergenceDetected(
            f"round {q}: oracle {what} is non-finite at ||x|| = "
            f"{math.hypot(*x):.3e} after steps of alpha {alpha}")

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ys = problem.y_star(x)
        except NonFiniteValue:
            raise failure("y_star(x)") from None
        grad_phi, err = problem.grad_phi(x, ys), y - ys
        values = {"grad_phi_sq": float(grad_phi @ grad_phi),
                  "phi": problem.phi(x, ys), "inner_err_sq": float(err @ err)}
    for name, value in values.items():
        if not math.isfinite(value):
            raise failure(f"{name} = {value}")
    return tuple(values.values())


def _divergence_cap(cfg: RunConfig, x: np.ndarray, y: np.ndarray) -> float:
    """Absolute cap on ||y||: divergence_factor * max(1, ||x||, ||y||),
    with numpy's overflow warnings silenced (a huge start caps at inf)."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    q = state.round_index
    phase = cfg.mask_phase(problem, q, state.x, state.y)
    masks_x, masks_y = phase.masks_x, phase.masks_y
    tracker = tracker if tracker is not None else CoverageTracker()
    ledger = ledger if ledger is not None else CostLedger()
    guard = divergence_guard if divergence_guard is not None else \
        _divergence_cap(cfg, state.x, state.y)

    xs, ys0 = apply_mask(state.x, masks_x), apply_mask(state.y, masks_y)
    clients = np.arange(problem.n)

    def batches(level: str, draw: int, size: int):   # None: exact
        return [SampleBatch(level, cfg.seed, c, q, draw, size)
                for c in clients.tolist()] if size > 0 else None

    # each client's batches of its inner epochs
    g_batches = None if cfg.batch_size_g == 0 else list(zip(*(
        batches("g", t, cfg.batch_size_g) for t in range(cfg.inner_epochs))))
    try:
        _, g_deltas = client_inner_loop(
            problem, clients, xs, ys0, masks_y, cfg.beta, cfg.inner_epochs,
            g_batches, guard)
    except DivergenceDetected as exc:
        raise DivergenceDetected(
            f"round {q}: {exc} after steps of alpha {cfg.alpha}") from exc

    y_next = aggregate_inner(state.y, masks_y, g_deltas, cfg.beta)
    _require_finite(y_next, q, "inner iterate y", f"beta {cfg.beta}")

    ys_plus = apply_mask(y_next, masks_y)
    batch_f = batches("f", 0, cfg.batch_size_f)
    batch_g = batches("g", cfg.inner_epochs, cfg.batch_size_g)
    if cfg.estimator == EXACT_AID:
        try:
            hypergrads = exact_hypergradient(
                problem, clients, xs, ys_plus, masks_x, masks_y, batch_f,
                batch_g)
        except SingularRestrictedHessian as exc:
            raise SingularRestrictedHessian(f"round {q}: {exc}") from exc
    else:
        # every active coordinate is perturbed at coord_fraction 1, and
        # no stream is read
        streams = None if cfg.coord_fraction == 1 else [
            RngStream(cfg.seed, c, q, "perturbation-set")
            for c in clients.tolist()]
        hypergrads = rafbo_hypergradient(
            problem, clients, xs, ys_plus, masks_x, masks_y, cfg.mu,
            cfg.coord_fraction, batch_f, batch_g, streams)

    x_next = aggregate_outer(state.x, masks_x, hypergrads, cfg.alpha)
    _require_finite(x_next, q, "outer iterate x", f"alpha {cfg.alpha}")

    tracker.observe(phase.c_star_x, phase.c_star_y)
    bytes_up, bytes_down, flops = ledger.charge(phase.price)

    if problem.has_oracles():
        grad_phi_sq, phi, inner_err_sq = _oracle_metrics(
            problem, x_next, y_next, q, cfg.alpha)
    else:
        grad_phi_sq = phi = inner_err_sq = float("nan")

    log = RoundLog(
        round_index=q,
        grad_phi_sq=grad_phi_sq, phi=phi, inner_err_sq=inner_err_sq,
        c_star_x_running=tracker.c_star_x, c_star_y_running=tracker.c_star_y,
        bytes_up=bytes_up, bytes_down=bytes_down, flops=flops,
        mean_w1sq=mask_deviation(state.x, masks_x),
        mean_w2sq=mask_deviation(state.y, masks_y),
        masks_x_hex=phase.hex_x, masks_y_hex=phase.hex_y)
    return GlobalState(x_next, y_next, q + 1), log


def _hex_rows(masks: np.ndarray) -> tuple:
    """Each mask row as a hex bitstring, padded to whole bytes."""
    return tuple(row.tobytes().hex() for row in np.packbits(masks, axis=1))


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
    cfg._schedule(problem)   # fits cfg to the problem before x0 is read
    x0, y0 = (np.zeros(d) if v is None else np.array(v, dtype=np.float64)
              for v, d in ((cfg.x0, problem.d1), (cfg.y0, problem.d2)))
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


def logs_to_csv(logs: list) -> str:
    """Render round logs with the fixed column set, byte-deterministically:
    each column is the ``RoundLog`` field in its place, None as nan."""
    row = attrgetter(*[f.name for f in fields(RoundLog)][:len(CSV_COLUMNS)])
    lines = [",".join(CSV_COLUMNS)]
    for log in logs:
        lines.append(",".join("nan" if v is None else repr(v)
                              for v in row(log)))
    return "\n".join(lines) + "\n"
