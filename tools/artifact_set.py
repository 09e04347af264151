"""Write the standard artifact set of this checkout.

Usage: python tools/artifact_set.py OUT

Runs, with rabosim imported from this checkout's ``src/``:

- ``configs/demo_sweep.json`` into ``OUT/demo_sweep``;
- ``configs/coverage_pinning.json`` into ``OUT/coverage_pinning``;
- each benchmark workload of ``perfbench/workloads.py`` at seeds 1 and 5
  into ``OUT/<workload>-s<seed>``;
- ``WINDOW_GROUPS`` below into ``OUT/window_groups``;
- ``QUARTIC`` below into ``OUT/quartic``;
- ``STATIC_LISTS`` below into ``OUT/static_lists``;
- ``ROLLING_LISTS`` below into ``OUT/rolling_lists``;
- ``TOPK_BLOCKS`` below into ``OUT/topk_blocks``;
- ``SAMPLED_SETS`` below into ``OUT/sampled_sets``;
- ``ONE_OUTER`` below into ``OUT/one_outer``;
- ``LOGISTIC_BATCHES`` below into ``OUT/logistic_batches``.

Each run sets BLAS to one thread for its length
(``rabosim.linalg.one_blas_thread``), so the set does not depend on
``OPENBLAS_NUM_THREADS``; run it with ``OPENBLAS_NUM_THREADS=1`` on a
checkout older than that pin. Two checkouts' sets are then compared
with ``diff -r`` (bytes) or ``tools/compare_artifacts.py`` (the largest
relative difference per column or key). Exits 3 if a variant diverged.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("demo_sweep", "coverage_pinning")
SEEDS = (1, 5)
# Rolling masks put 6 of the 12 clients on each window at capacity 1/2
# and 3 at 1/4, so the clients of a window share a call's block products
# and a round's factors, with noise on. The demo gives each of its 4 clients a window
# of its own at 1/4.
WINDOW_GROUPS = {
    "problem": {"family": "quadratic", "seed": 3, "n": 12, "d1": 16,
                "d2": 16, "hetero": 0.3, "noise_f": 0.2, "noise_g": 0.2,
                "eig_min": 0.8, "eig_max": 1.6},
    "run": {"alpha": 0.03, "beta": 0.2, "inner_epochs": 2, "rounds": 20,
            "policy": "rolling", "batch_size_f": 2, "batch_size_g": 2},
    "sweep": {"seeds": [1], "estimators": ["exact_aid", "rafbo"],
              "capacities": ["1/2", "1/4"]},
}

# The quartic term makes every client's inner Hessian a fresh sum, so
# exact_aid restricts A_i and U_i to the active set before adding them;
# rolling masks at 1/2 and 1/4 keep that set a strict subset.
QUARTIC = {
    "problem": {"family": "quadratic", "seed": 4, "n": 8, "d1": 12,
                "d2": 12, "hetero": 0.3, "eig_min": 0.8, "eig_max": 1.6,
                "quartic": 0.1},
    "run": {"alpha": 0.03, "beta": 0.2, "inner_epochs": 2, "rounds": 20,
            "policy": "rolling"},
    "sweep": {"seeds": [1], "estimators": ["exact_aid", "rafbo"],
              "capacities": ["1/2", "1/4"]},
}


# Static windows under per-client capacity lists: each client's row has
# its own popcount and period, downloads are priced at full width, and
# masks.csv logs every row.
STATIC_LISTS = {
    "problem": {"family": "quadratic", "seed": 6, "n": 6, "d1": 10,
                "d2": 9, "hetero": 0.3, "noise_f": 0.1, "noise_g": 0.1,
                "eig_min": 0.8, "eig_max": 1.6},
    "run": {"alpha": 0.03, "beta": 0.2, "inner_epochs": 2, "rounds": 12,
            "policy": "static", "download_mode": "full", "log_masks": True,
            "batch_size_f": 2, "batch_size_g": 2},
    "sweep": {"seeds": [1], "estimators": ["exact_aid", "rafbo"],
              "capacities": [["1/3", "1/2", "1", "1/4", "1/2", "1/3"],
                             "1/3"]},
}

# Rolling windows under a per-client capacity list whose periods are 2,
# 3 and 4, so the masks repeat only every lcm = 12 rounds; 30 rounds pass
# that twice, noise is on, and masks.csv logs every row.
ROLLING_LISTS = {
    "problem": {"family": "quadratic", "seed": 8, "n": 6, "d1": 10,
                "d2": 9, "hetero": 0.3, "noise_f": 0.1, "noise_g": 0.1,
                "eig_min": 0.8, "eig_max": 1.6},
    "run": {"alpha": 0.03, "beta": 0.2, "inner_epochs": 2, "rounds": 30,
            "policy": "rolling", "log_masks": True, "batch_size_f": 2,
            "batch_size_g": 2},
    "sweep": {"seeds": [1], "estimators": ["exact_aid", "rafbo"],
              "capacities": [["1/2", "1/3", "1/4", "2/3", "1/3", "3/4"]]},
}

# Magnitude ranking by blocks of 2 from a start with distinct and tied
# magnitudes, so masks differ across rounds, and one ranking is cut at
# each client's own popcount under the capacity list.
TOPK_BLOCKS = {
    "problem": {"family": "logistic", "seed": 2, "n": 4, "classes": 3,
                "features": 4, "imbalance_mu": 0.8},
    "run": {"inner_epochs": 2, "rounds": 6, "policy": "magnitude_topk",
            "block_size": 2, "log_masks": True,
            "x0": [0.3, -0.1, 0.2, 0.2, -0.5, 0.05, 0.4],
            "y0": [0.1, -0.2, 0.3, 0.0, 0.25, -0.25, 0.05, 0.6, -0.1, 0.0,
                   0.2, -0.4]},
    "sweep": {"seeds": [1], "estimators": ["exact_aid", "rafbo"],
              "capacities": ["1/2", ["1/4", "1/2", "3/4", "1"]]},
}

# rafbo perturbs a sampled half of each client's active outer
# coordinates, so the 4 clients of a rolling window draw their own
# perturbation sets, which index each client's B^T grad_y f product.
# Noise is on.
SAMPLED_SETS = {
    "problem": {"family": "quadratic", "seed": 7, "n": 8, "d1": 16,
                "d2": 12, "hetero": 0.3, "noise_f": 0.2, "noise_g": 0.2,
                "eig_min": 0.8, "eig_max": 1.6},
    "run": {"alpha": 0.03, "beta": 0.2, "inner_epochs": 2, "rounds": 20,
            "policy": "rolling", "capacities": "1/2", "coord_fraction": 0.5,
            "batch_size_f": 2, "batch_size_g": 2},
    "sweep": {"seeds": [1], "estimators": ["rafbo"]},
}

# One outer coordinate for 40 clients: the outer aggregate's covering sum
# runs over a column of 40, where a pairwise reduce would round otherwise
# than the sequential row loop. phi's sine term is on, and the two levels'
# batch sizes differ, so each level's noise has its own sqrt(batch) scale.
ONE_OUTER = {
    "problem": {"family": "quadratic", "seed": 9, "n": 40, "d1": 1,
                "d2": 6, "hetero": 0.3, "noise_f": 0.2, "noise_g": 0.1,
                "sine_amp": 0.3, "eig_min": 0.8, "eig_max": 1.6},
    "run": {"alpha": 0.03, "beta": 0.2, "inner_epochs": 2, "rounds": 40,
            "policy": "rolling", "capacities": "1/2", "batch_size_f": 3,
            "batch_size_g": 1},
    "sweep": {"seeds": [1], "estimators": ["exact_aid", "rafbo"]},
}

# Each logistic client trains on 60 samples, so a lower batch of 6 is a
# true subsample: every inner epoch and implicit term picks its rows from
# the batch's stream of that client, which no other document reaches.
LOGISTIC_BATCHES = {
    "problem": {"family": "logistic", "seed": 5, "n": 4, "classes": 3,
                "features": 4, "imbalance_mu": 0.8, "base_count": 30},
    "run": {"inner_epochs": 2, "rounds": 8, "policy": "rolling",
            "batch_size_f": 2, "batch_size_g": 6, "coord_fraction": 0.5},
    "sweep": {"seeds": [1], "estimators": ["exact_aid", "rafbo"],
              "capacities": ["1", "1/2"]},
}


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def documents():
    """(directory name, raw config document) of every run in the set."""
    for name in CONFIGS:
        yield name, json.loads((ROOT / "configs" / f"{name}.json").read_text())
    workloads = _workloads()
    for name in workloads.NAMES:
        for seed in SEEDS:
            yield f"{name}-s{seed}", workloads.raw_config(name, seed)
    yield "window_groups", WINDOW_GROUPS
    yield "quartic", QUARTIC
    yield "static_lists", STATIC_LISTS
    yield "rolling_lists", ROLLING_LISTS
    yield "topk_blocks", TOPK_BLOCKS
    yield "sampled_sets", SAMPLED_SETS
    yield "one_outer", ONE_OUTER
    yield "logistic_batches", LOGISTIC_BATCHES


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from rabosim.cli import resolve_config, run_experiment

    out = Path(args[0])
    failed = 0
    for name, raw in documents():
        result = run_experiment(resolve_config(raw), out / name)
        failed += len(result.failures)
        print(f"{name}: {len(result.variants)} variant(s)")
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
