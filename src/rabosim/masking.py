"""Per-client binary masks, submodel extraction and coverage statistics.

One round's masks of one level (outer "x" or inner "y") are a read-only
(n, d) uint8 array of 0/1: row i is client i's mask over the flat
parameter vector, and the column sums count each coordinate's covering
clients. A client's submodel zeroes the coordinates off its row. Policies
select ceil(capacity * d) coordinates per row deterministically from the
global parameters, the client's capacity, the round index and the
policy's own table, so server and clients agree on the masks without
transmitting them.

``generate_mask`` builds one round's masks of one level. Only
``magnitude_topk`` reads the parameters; the masks of the other policies
repeat every ``schedule_period`` rounds, so a run builds each phase of
that period once (``federation.RunConfig.mask_phase``) and reads it back.

Structured pruning is realized as block-contiguous selection with a
configurable ``block_size``; magnitude ranking breaks ties toward the
lower coordinate index. All functions are pure.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, InvalidCapacity, InvalidSpec


def parse_capacity(value) -> Fraction:
    """Parse a capacity given as Fraction, float, int (not bool) or "1/4"."""
    if isinstance(value, Fraction):
        cap = value
    elif isinstance(value, str):
        cap = Fraction(value.strip())
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        cap = Fraction(value).limit_denominator(10 ** 9)
    else:
        raise InvalidCapacity(f"cannot parse capacity from {value!r}")
    if not (0 < cap <= 1):
        raise InvalidCapacity(f"capacity must be in (0, 1], got {cap}")
    return cap


def parse_capacities(value, name: str = "capacities"):
    """A capacities entry parsed once: a scalar shared by every client as
    one Fraction, or a list with one entry per client as a tuple of them.

    Raises InvalidSpec with key ``capacities``, naming ``name``, for an
    entry ``parse_capacity`` rejects.
    """
    try:
        if isinstance(value, (list, tuple)):
            return tuple(parse_capacity(v) for v in value)
        return parse_capacity(value)
    except (InvalidCapacity, ValueError, ArithmeticError) as exc:
        raise InvalidSpec(f"bad capacity in '{name}': {exc}",
                          key="capacities") from exc


def active_count(capacity: Fraction, d: int) -> int:
    """ceil(capacity * d), in integers."""
    return -(-capacity.numerator * d // capacity.denominator)


def period(capacity: Fraction) -> int:
    """ceil(1 / capacity), the period of the window policies, in integers."""
    return -(-capacity.denominator // capacity.numerator)


# Mask selection rules: ``static`` (client-staggered fixed window),
# ``rolling`` (the window rotates each round with period ceil(1/capacity)),
# ``magnitude_topk`` (largest-|param| blocks of the current global model)
# and ``manual`` (explicit per-client coordinate tables, used to pin
# coverage counts; they bypass capacity rounding).
POLICIES = ("static", "rolling", "magnitude_topk", "manual")
RANGES = {"policy": POLICIES, "block_size": "at least 1"}


def check_table(entry, name: str = "manual_tables", n: int | None = None,
                dims: tuple = (float("inf"),) * 2) -> None:
    """Raise InvalidSpec with key ``manual_tables`` unless the manual
    table ``entry`` has exactly the levels "x" and "y", each passing
    ``check_rows`` with ``n`` and its dimension in ``dims``."""
    if not (isinstance(entry, Mapping) and sorted(entry) == ["x", "y"]):
        raise InvalidSpec(f"{name} must have exactly the levels 'x' and "
                          f"'y', got {entry!r}", key="manual_tables")
    for level, d in zip("xy", dims):
        check_rows(entry[level], n, d, f"{name}.{level}")


def check_rows(rows, n: int | None, d: float, name: str = "table") -> None:
    """Raise InvalidSpec with key ``manual_tables``, naming ``name``,
    unless ``rows`` has ``n`` rows (None: any number), each a non-empty
    set of integer indices, not bools, in [0, d). A repeated index would
    be charged once by a mask and twice by a count of the row."""
    if not isinstance(rows, (list, tuple)):
        raise InvalidSpec(f"{name} must be a list of rows, one per client, "
                          f"got {rows!r}", key="manual_tables")
    if n not in (None, len(rows)):
        raise InvalidSpec(f"{name} has {len(rows)} rows for {n} clients",
                          key="manual_tables")
    for i, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and row and all(
                type(k) is int or isinstance(k, np.integer) for k in row)
                and 0 <= min(row) and max(row) < d
                and len(set(row)) == len(row)):
            raise InvalidSpec(
                f"{name} row {i} must list one or more distinct integer "
                f"indices in [0, {d}), got {row!r}", key="manual_tables")


def _windows(d: int, target: int, phases: np.ndarray) -> np.ndarray:
    """One 0/1 row of width ``d`` per window phase k: the ``target``
    coordinates from k * target on, wrapping past d."""
    rows = np.zeros((len(phases), d), dtype=np.uint8)
    rows[np.arange(len(phases))[:, None],
         (phases[:, None] * target + np.arange(target)) % d] = 1
    return rows


def _block_scores(mags: np.ndarray, block_size: int) -> np.ndarray:
    """Summed magnitude of each block of ``block_size`` coordinates; the
    last block holds the ragged tail."""
    full = len(mags) - len(mags) % block_size
    scores = mags[:full].reshape(-1, block_size).sum(axis=1)
    return np.append(scores, mags[full:].sum()) if full < len(mags) \
        else scores


def _topk_order(params: np.ndarray, block_size: int) -> np.ndarray:
    # Every coordinate, best first, by (block rank, -|param|, index): blocks
    # by descending summed magnitude, ties to the lower block.
    mags = np.abs(params)
    scores = _block_scores(mags, block_size)
    n_blocks = scores.shape[0]
    block_rank = np.empty(n_blocks, dtype=np.int64)
    block_rank[np.lexsort((np.arange(n_blocks), -scores))] = np.arange(n_blocks)
    coords = np.arange(len(params))
    return np.lexsort((coords, -mags, block_rank[coords // block_size]))


def generate_mask(params: np.ndarray, capacities, policy: str,
                  round_index: int, block_size: int = 1,
                  table=None) -> np.ndarray:
    """One round's masks of one level: a read-only (n, d) uint8 array
    whose row i has popcount ceil(capacities[i] * d), or lists the
    coordinates of ``table[i]`` under the manual policy.

    ``capacities`` holds one Fraction per client, and ``table`` one row of
    coordinate indices per client of this level. Deterministic in all
    arguments; no built-in policy draws randomness. The clients of one
    capacity share its row builds: a window policy builds one row per
    window in use, and the magnitude ranking, computed once, is cut once
    per capacity.
    """
    params = np.asarray(params, dtype=np.float64)
    d = params.shape[0]
    masks = np.zeros((len(capacities), d), dtype=np.uint8)
    if policy == "manual":
        check_rows(table, len(capacities), d)
        rows = np.repeat(np.arange(len(table)), list(map(len, table)))
        masks[rows, list(chain.from_iterable(table))] = 1
    else:
        ranking = (_topk_order(params, block_size)
                   if policy == "magnitude_topk" else None)
        shift = round_index if policy == "rolling" else 0
        groups = {}   # capacity -> its clients
        for i, capacity in enumerate(capacities):
            groups.setdefault(capacity, []).append(i)
        for capacity, clients in groups.items():
            clients, target = np.array(clients), active_count(capacity, d)
            if ranking is not None:
                masks[clients[:, None], ranking[:target]] = 1
                continue
            phases, which = np.unique((shift + clients) % period(capacity),
                                      return_inverse=True)
            masks[clients] = _windows(d, target, phases)[which]
    masks.setflags(write=False)
    return masks


def schedule_period(policy: str, capacities) -> int | None:
    """Rounds after which ``generate_mask``'s masks under ``policy``
    repeat, for one Fraction per client: 1 under ``static`` and
    ``manual``, the lcm of the clients' ``period``s under ``rolling``, and
    None under ``magnitude_topk``, whose masks follow the parameters."""
    if policy == "magnitude_topk":
        return None
    if policy == "rolling":
        return math.lcm(*map(period, set(capacities)))
    return 1


def check_masks(masks, level: str, n: int | None = None,
                d: int | None = None) -> np.ndarray:
    """``masks`` as an array, after checking that it is a 2-D array of 0/1
    with ``n`` rows and ``d`` columns where those are given; raises
    DimensionMismatch naming ``level`` when it is not."""
    masks = np.asarray(masks)
    shaped = masks.ndim == 2 and all(
        want in (None, got) for want, got in zip((n, d), masks.shape))
    if not shaped or ((masks != 0) & (masks != 1)).any():
        raise DimensionMismatch(
            f"{level} masks must be a 2-D 0/1 array with n = {n} rows and "
            f"d = {d} columns (None: any), got shape {masks.shape}")
    return masks


def apply_mask(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v * m, broadcast: v's rows by a client's mask row, or v by each row
    of a level's (n, d) masks; inactive coordinates become exactly zero."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != m.shape[-1]:
        raise DimensionMismatch(
            f"vector dim {v.shape[-1]} != mask dim {m.shape[-1]}")
    return v * m


def coverage(masks: np.ndarray) -> int | None:
    """C* of one round and level: the fewest clients covering any trained
    coordinate, or None when no coordinate is trained. ``masks`` is the
    round's (n, d) array of one level."""
    counts = check_masks(masks, "coverage").sum(axis=0, dtype=np.int64)
    trained = counts[counts >= 1]
    return int(trained.min()) if trained.size else None


class CoverageTracker:
    """Accumulates the running minima C*_x, C*_y across rounds."""

    def __init__(self):
        self.c_star_x: int | None = None
        self.c_star_y: int | None = None

    def observe(self, c_star_x: int | None, c_star_y: int | None) -> None:
        """Fold in one round's C* per level (None: nothing trained)."""
        for name, c_star in (("c_star_x", c_star_x), ("c_star_y", c_star_y)):
            known = [v for v in (getattr(self, name), c_star) if v is not None]
            setattr(self, name, min(known) if known else None)


def mask_deviation(v: np.ndarray, masks: np.ndarray) -> float:
    """Mean over the mask rows m of ||v - v*m||^2 / ||v||^2, pruning's loss.

    A zero vector loses nothing, so its deviation is 0.0.
    """
    v = np.asarray(v, dtype=np.float64)
    denom = float(v @ v)
    if denom == 0.0:
        return 0.0
    residuals = v - apply_mask(v, masks)
    return float(np.mean(np.vecdot(residuals, residuals) / denom))
