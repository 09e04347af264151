"""Per-client binary masks, submodel extraction and coverage statistics.

A mask is a {0,1} vector over the flat parameter vector of one level
(outer "x" or inner "y"); the submodel is the parameter vector with
inactive coordinates zeroed. Policies select ceil(capacity * d)
coordinates deterministically from the global parameters, the client's
capacity, the round index and the policy's own table, so server and
clients always agree on the mask without transmitting it.

Structured pruning is realized as block-contiguous selection with a
configurable ``block_size``; magnitude ranking breaks ties toward the
lower coordinate index. All functions are pure and masks are immutable
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidCapacity,
    MixedRounds,
    ZeroNormInput,
)

LEVELS = ("x", "y")


def parse_capacity(value) -> Fraction:
    """Parse a capacity given as Fraction, float, int or a "1/4" string."""
    if isinstance(value, Fraction):
        cap = value
    elif isinstance(value, str):
        cap = Fraction(value.strip())
    elif isinstance(value, (int, float)):
        cap = Fraction(value).limit_denominator(10 ** 9)
    else:
        raise InvalidCapacity(f"cannot parse capacity from {value!r}")
    if not (0 < cap <= 1):
        raise InvalidCapacity(f"capacity must be in (0, 1], got {cap}")
    return cap


@dataclass(frozen=True)
class ClientResource:
    """Fraction of the full model one client can train."""

    capacity: Fraction

    def __post_init__(self):
        object.__setattr__(self, "capacity", parse_capacity(self.capacity))

    def active_count(self, d: int) -> int:
        """ceil(capacity * d), in integers."""
        return -(-self.capacity.numerator * d // self.capacity.denominator)

    @property
    def period(self) -> int:
        """ceil(1 / capacity), the period of the window policies, in integers."""
        return -(-self.capacity.denominator // self.capacity.numerator)


@dataclass(frozen=True)
class Mask:
    """Binary inclusion vector for one client, one round, one level."""

    bits: np.ndarray
    level: str
    client: int
    round_index: int

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise DimensionMismatch("mask bits must be 1-D")
        if bits.size and bits.max() > 1:
            raise ValueError("mask bits must be 0/1")
        if self.level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {self.level!r}")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return self.bits.shape[0]

    @property
    def active_count(self) -> int:
        return int(self.bits.sum())

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def to_hex(self) -> str:
        """Hex-encoded bitstring for round logs; pads to whole bytes."""
        return np.packbits(self.bits).tobytes().hex()

    @classmethod
    def from_hex(cls, text: str, d: int, level: str, client: int,
                 round_index: int) -> "Mask":
        raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
        bits = np.unpackbits(raw)[:d]
        return cls(bits, level, client, round_index)


POLICIES = ("static", "rolling", "magnitude_topk", "manual")


@dataclass(frozen=True)
class MaskPolicy:
    """Mask selection rule.

    Variants: ``static`` (client-staggered fixed window), ``rolling``
    (window rotates each round with period ceil(1/capacity)),
    ``magnitude_topk`` (largest-|param| blocks of the current global
    model) and ``manual`` (explicit per-client coordinate tables, used to
    pin coverage counts). Manual tables bypass capacity rounding; the
    caller is responsible for sizing them.
    """

    variant: str = "rolling"
    block_size: int = 1
    table_x: tuple | None = None   # per-client tuples of coordinate indices
    table_y: tuple | None = None

    def __post_init__(self):
        if self.variant not in POLICIES:
            raise ValueError(f"unknown mask policy variant {self.variant!r}")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.variant == "manual" and (self.table_x is None or self.table_y is None):
            raise ValueError("manual policy needs table_x and table_y")
        for name in ("table_x", "table_y"):
            table = getattr(self, name)
            if table is not None:
                object.__setattr__(
                    self, name, tuple(tuple(int(c) for c in row) for row in table))


def _window_indices(d: int, target: int, phase: int, period: int) -> np.ndarray:
    offset = (phase % period) * target
    return (offset + np.arange(target)) % d


def _topk_indices(params: np.ndarray, target: int, block_size: int) -> np.ndarray:
    # Rank by (block rank, -|param|, index): blocks by descending summed
    # magnitude, ties to the lower block, then coordinates inside a block.
    d = len(params)
    mags = np.abs(params)
    if block_size == 1:
        scores = mags
    else:
        scores = np.array([mags[b:b + block_size].sum()
                           for b in range(0, d, block_size)])
    n_blocks = scores.shape[0]
    block_rank = np.empty(n_blocks, dtype=np.int64)
    block_rank[np.lexsort((np.arange(n_blocks), -scores))] = np.arange(n_blocks)
    coords = np.arange(d)
    return np.lexsort((coords, -mags, block_rank[coords // block_size]))[:target]


def generate_mask(params: np.ndarray, resource: ClientResource,
                  policy: MaskPolicy, client: int, round_index: int,
                  level: str = "x") -> Mask:
    """Mask for one client/round/level with popcount == ceil(capacity * d).

    Deterministic in all arguments; no built-in variant draws randomness.
    """
    params = np.asarray(params, dtype=np.float64)
    d = params.shape[0]
    target = resource.active_count(d)
    bits = np.zeros(d, dtype=np.uint8)

    if policy.variant == "manual":
        table = policy.table_x if level == "x" else policy.table_y
        if client >= len(table):
            raise InvalidCapacity(f"manual table has no entry for client {client}")
        idx = np.asarray(table[client], dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= d):
            raise DimensionMismatch("manual table index out of range")
        bits[idx] = 1
        return Mask(bits, level, client, round_index)

    if target >= d:
        bits[:] = 1
        return Mask(bits, level, client, round_index)

    period = resource.period
    if policy.variant == "static":
        idx = _window_indices(d, target, client, period)
    elif policy.variant == "rolling":
        idx = _window_indices(d, target, round_index + client, period)
    else:  # magnitude_topk
        idx = _topk_indices(params, target, policy.block_size)
    bits[idx] = 1
    return Mask(bits, level, client, round_index)


def apply_mask(v: np.ndarray, m: Mask) -> np.ndarray:
    """Elementwise product v * m (per row of a 2-D v); inactive
    coordinates become exactly zero."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != len(m):
        raise DimensionMismatch(f"vector dim {v.shape[-1]} != mask dim {len(m)}")
    return v * m.bits


@dataclass(frozen=True)
class CoverageStats:
    """Per-coordinate covering counts for one round and level."""

    level: str
    round_index: int
    counts: np.ndarray                 # d, number of covering clients
    trained: np.ndarray                # indices with counts >= 1
    c_star: int | None                 # min count over trained coords

    @property
    def trained_count(self) -> int:
        return int(self.trained.shape[0])


def coverage(masks: list[Mask], d: int) -> CoverageStats:
    """Covering counts for one round; raises MixedRounds on mismatch."""
    if not masks:
        raise MixedRounds("coverage needs at least one mask")
    level = masks[0].level
    round_index = masks[0].round_index
    for m in masks:
        if m.level != level or m.round_index != round_index:
            raise MixedRounds("masks span multiple rounds or levels")
        if len(m) != d:
            raise DimensionMismatch(f"mask dim {len(m)} != {d}")
    stacked = np.stack([m.bits for m in masks])
    counts = stacked.sum(axis=0, dtype=np.int64)
    trained = np.flatnonzero(counts >= 1)
    c_star = int(counts[trained].min()) if trained.size else None
    return CoverageStats(level, round_index, counts, trained, c_star)


class CoverageTracker:
    """Accumulates the running minima C*_x, C*_y across rounds."""

    def __init__(self):
        self.c_star_x: int | None = None
        self.c_star_y: int | None = None
        self.rounds = 0

    def observe(self, stats_x: CoverageStats, stats_y: CoverageStats) -> None:
        if stats_x.c_star is not None:
            self.c_star_x = stats_x.c_star if self.c_star_x is None \
                else min(self.c_star_x, stats_x.c_star)
        if stats_y.c_star is not None:
            self.c_star_y = stats_y.c_star if self.c_star_y is None \
                else min(self.c_star_y, stats_y.c_star)
        self.rounds += 1


def mask_deviation(v: np.ndarray, m: Mask) -> float:
    """Squared relative norm lost to pruning: ||v - v*m||^2 / ||v||^2."""
    v = np.asarray(v, dtype=np.float64)
    denom = float(v @ v)
    if denom == 0.0:
        raise ZeroNormInput("mask deviation undefined for zero-norm input")
    residual = v - apply_mask(v, m)
    return float(residual @ residual) / denom
