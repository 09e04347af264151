"""Workload definitions: one raw rabosim config document per (name, seed).

Stdlib only, so the set-up probe can build a workload's config before it
imports rabosim. Every input of a run is a function of the workload name,
the ``--seed`` and the ``tiny`` flag (used by the smoke test only).
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNING_CONFIG = ROOT / "configs" / "coverage_pinning.json"

ESTIMATORS = ("exact_aid", "rafbo")

# Rounds of each estimator timed per pass of a run's schedule (after one
# warm-up round per estimator). Each block takes roughly 0.3-6 s, so that
# a run of 35 s holds about three passes or more on every workload.
BLOCK_ROUNDS = {
    "noisy-small": {"exact_aid": 100, "rafbo": 100},
    "wide-quadratic": {"exact_aid": 10, "rafbo": 2},
    "logistic-topk": {"exact_aid": 3, "rafbo": 20},
}
NAMES = tuple(BLOCK_ROUNDS)


def _noisy_small(seed: int, tiny: bool) -> dict:
    """The shipped coverage-pinning config, shortened, two seeds."""
    raw = json.loads(PINNING_CONFIG.read_text())
    raw["problem"]["seed"] = seed
    raw["run"]["seed"] = seed
    raw["run"]["rounds"] = 5 if tiny else 20
    raw["sweep"]["seeds"] = [2 * seed + k for k in range(1 if tiny else 2)]
    raw["sweep"]["estimators"] = list(ESTIMATORS)
    return raw


def _wide_quadratic(seed: int, tiny: bool) -> dict:
    n, d = (4, 12) if tiny else (64, 400)
    return {
        "problem": {"family": "quadratic", "seed": seed, "n": n, "d1": d,
                    "d2": d, "hetero": 0.3, "eig_min": 0.8, "eig_max": 1.6},
        "run": {"inner_epochs": 2, "rounds": 1, "policy": "rolling",
                "capacities": "1/2", "seed": seed},
        "sweep": {"seeds": [seed], "estimators": list(ESTIMATORS)},
    }


def _logistic_topk(seed: int, tiny: bool) -> dict:
    n, classes, features = (2, 3, 4) if tiny else (8, 10, 20)
    return {
        "problem": {"family": "logistic", "seed": seed, "n": n,
                    "classes": classes, "features": features,
                    "imbalance_mu": 0.8},
        # Default zero start on purpose: see the magnitude_topk FOUND line
        # in CHANGES.md.
        "run": {"inner_epochs": 2, "rounds": 3, "policy": "magnitude_topk",
                "capacities": "1/2", "seed": seed, "log_masks": True},
        "sweep": {"seeds": [seed], "estimators": list(ESTIMATORS)},
    }


_BUILDERS = {"noisy-small": _noisy_small, "wide-quadratic": _wide_quadratic,
             "logistic-topk": _logistic_topk}


def raw_config(name: str, seed: int, tiny: bool = False) -> dict:
    """The workload's config document, before rabosim resolves it."""
    return _BUILDERS[name](seed, tiny)


def block_rounds(name: str, tiny: bool = False) -> dict:
    return {est: 2 for est in ESTIMATORS} if tiny else BLOCK_ROUNDS[name]
