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

from .errors import DimensionMismatch, InvalidCapacity, check_ranges


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
    """Read-only 0/1 inclusion vector over one level's parameters."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise DimensionMismatch("mask bits must be 1-D")
        if bits.size and bits.max() > 1:
            raise ValueError("mask bits must be 0/1")
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


POLICIES = ("static", "rolling", "magnitude_topk", "manual")
RANGES = {"policy": POLICIES, "block_size": "at least 1"}


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
        check_ranges({"policy": self.variant, "block_size": self.block_size},
                     RANGES)
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
        return Mask(bits)

    if target >= d:
        bits[:] = 1
        return Mask(bits)

    period = resource.period
    if policy.variant == "static":
        idx = _window_indices(d, target, client, period)
    elif policy.variant == "rolling":
        idx = _window_indices(d, target, round_index + client, period)
    else:  # magnitude_topk
        idx = _topk_indices(params, target, policy.block_size)
    bits[idx] = 1
    return Mask(bits)


def apply_mask(v: np.ndarray, m: Mask) -> np.ndarray:
    """Elementwise product v * m (per row of a 2-D v); inactive
    coordinates become exactly zero."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != len(m):
        raise DimensionMismatch(f"vector dim {v.shape[-1]} != mask dim {len(m)}")
    return v * m.bits


def coverage(masks: list[Mask], d: int) -> int | None:
    """C* of one round and level: the fewest clients covering any trained
    coordinate, or None when no coordinate is trained. ``masks`` holds the
    round's masks of one level, one per client."""
    for m in masks:
        if len(m) != d:
            raise DimensionMismatch(f"mask dim {len(m)} != {d}")
    counts = np.stack([m.bits for m in masks]).sum(axis=0, dtype=np.int64)
    trained = counts[counts >= 1]
    return int(trained.min()) if trained.size else None


class CoverageTracker:
    """Accumulates the running minima C*_x, C*_y across rounds."""

    def __init__(self):
        self.c_star_x: int | None = None
        self.c_star_y: int | None = None

    def observe(self, c_star_x: int | None, c_star_y: int | None) -> None:
        """Fold in one round's C* per level (None: nothing trained)."""
        if c_star_x is not None:
            self.c_star_x = c_star_x if self.c_star_x is None \
                else min(self.c_star_x, c_star_x)
        if c_star_y is not None:
            self.c_star_y = c_star_y if self.c_star_y is None \
                else min(self.c_star_y, c_star_y)


def mask_deviation(v: np.ndarray, m: Mask) -> float:
    """Squared relative norm lost to pruning: ||v - v*m||^2 / ||v||^2.

    A zero vector loses nothing, so its deviation is 0.0.
    """
    v = np.asarray(v, dtype=np.float64)
    denom = float(v @ v)
    if denom == 0.0:
        return 0.0
    residual = v - apply_mask(v, m)
    return float(residual @ residual) / denom
