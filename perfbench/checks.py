"""Correctness checks on a sweep's artifacts and on timed rounds.

Each check returns a list of failure messages (empty when it passes), so
the smoke test can show that each one fails on a corrupted artifact.
Expected values come from computations made here with numpy from the
problem's own data, or from properties the method must have; none is a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

BYTES_PER_COORD = 8
_TABLE_KEY = re.compile(r"__tbl(\d+)__")


def active_counts(resolved_run: dict, table: dict | None, n: int,
                  d1: int, d2: int) -> list[tuple[int, int]]:
    """(active x, active y) per client: table row lengths or ceil(c * d)."""
    if table is not None:
        return [(len(tx), len(ty)) for tx, ty in zip(table["x"], table["y"])]
    cap = Fraction(resolved_run["capacities"])
    return [(math.ceil(cap * d1), math.ceil(cap * d2))] * n


def read_rounds(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= 1e-7 * abs(want) + 1e-10 * scale


class QuadraticOracle:
    """y*(x) and grad Phi(x) of the plain quadratic family, solved here.

    Averages the clients' matrices and targets and solves the inner
    optimality condition once: y*(x) = R x + r with R = -A^-1 B and
    r = -A^-1 c, so grad Phi(x) = lam (x - a) + R^T (y*(x) - b).
    """

    def __init__(self, spec):
        if spec.quartic or spec.sine_amp:
            raise ValueError("closed form needs quartic == sine_amp == 0")
        n = len(spec.a_mats)
        a = sum(spec.a_mats) / n
        a = (a + a.T) / 2.0
        self.resp = -np.linalg.solve(a, sum(spec.b_mats) / n)
        self.offset = -np.linalg.solve(a, sum(spec.c_vecs) / n)
        self.lam = spec.lam
        self.a_tgt = sum(spec.outer_targets) / n
        self.b_tgt = sum(spec.inner_targets) / n

    def y_star(self, x: np.ndarray) -> np.ndarray:
        return self.resp @ x + self.offset

    def grad_phi(self, x: np.ndarray) -> np.ndarray:
        return self.lam * (x - self.a_tgt) + self.resp.T @ (self.y_star(x) - self.b_tgt)


def check_oracle_columns(where: str, grad_phi_sq: float, inner_err_sq: float,
                         x: np.ndarray, y: np.ndarray,
                         oracle: QuadraticOracle) -> list[str]:
    """Logged grad_phi_sq / inner_err_sq against the independent oracle."""
    grad = oracle.grad_phi(x)
    err = y - oracle.y_star(x)
    scale = 1.0 + float(x @ x) + float(y @ y)
    out = []
    for col, got, want in (("grad_phi_sq", grad_phi_sq, float(grad @ grad)),
                           ("inner_err_sq", inner_err_sq, float(err @ err))):
        if not _close(got, want, scale):
            out.append(f"{where}: {col} {got!r} != independent {want!r}")
    return out


def check_finite(where: str, *arrays) -> list[str]:
    if all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays):
        return []
    return [f"{where}: non-finite final iterate"]


def check_bytes(where: str, rows: list[dict],
                counts: list[tuple[int, int]]) -> list[str]:
    """Masked download accounting: 8 bytes per active coordinate per leg.

    Up: delta-gradient (y) and hypergradient (x). Down: x, y and the
    aggregated y.
    """
    up = BYTES_PER_COORD * sum(ax + ay for ax, ay in counts)
    down = BYTES_PER_COORD * sum(ax + 2 * ay for ax, ay in counts)
    for row in rows:
        if row["bytes_up"] != up or row["bytes_down"] != down:
            return [f"{where}: round {int(row['round'])} bytes "
                    f"{row['bytes_up']:.0f}/{row['bytes_down']:.0f}, "
                    f"expected {up}/{down}"]
    return []


def table_min_coverage(rows: list[list[int]]) -> int:
    """Minimum number of clients covering any covered coordinate."""
    counts: dict[int, int] = {}
    for row in rows:
        for coord in set(row):
            counts[coord] = counts.get(coord, 0) + 1
    return min(counts.values())


def check_coverage(where: str, rows: list[dict], summary: dict,
                   table: dict) -> list[str]:
    """C*_x and C*_y of a pinned run equal the tables' minimum coverage."""
    out = []
    for level in ("x", "y"):
        want = table_min_coverage(table[level])
        col = f"C_star_{level}_running"
        logged = {row[col] for row in rows} | {summary[f"c_star_{level}"]}
        if logged != {want}:
            out.append(f"{where}: C*_{level} {sorted(logged)} != {want} "
                       f"from the pinning table")
    return out


def validation_loss(problem, y: np.ndarray) -> float:
    """Client-average plain cross-entropy on the validation splits."""
    weights = np.asarray(y, dtype=float).reshape(problem.classes,
                                                 problem.features)
    losses = []
    for data in problem.spec.clients:
        logits = data.x_val @ weights.T
        top = logits.max(axis=1, keepdims=True)
        lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
        losses.append(float(np.mean(lse - logits[np.arange(len(data.y_val)),
                                                 data.y_val])))
    return float(np.mean(losses))


def check_validation_loss(where: str, problem, y0: np.ndarray,
                          y: np.ndarray) -> list[str]:
    start, final = validation_loss(problem, y0), validation_loss(problem, y)
    if math.isfinite(final) and final < start:
        return []
    return [f"{where}: validation loss {final!r} not below start {start!r}"]


def check_hessian(where: str, hess_fn, grad_fn, x: np.ndarray,
                  y: np.ndarray, step: float = 1e-5) -> list[str]:
    """hess_yy_g against central differences of grad_g_y, column by column."""
    hess = hess_fn(x, y)
    fd = np.empty_like(hess)
    for k in range(y.shape[0]):
        e = np.zeros_like(y)
        e[k] = step
        fd[:, k] = (grad_fn(x, y + e) - grad_fn(x, y - e)) / (2 * step)
    worst = float(np.max(np.abs(hess - fd)))
    if worst <= 1e-5 * max(1.0, float(np.max(np.abs(hess)))):
        return []
    return [f"{where}: hess_yy_g differs from central differences by {worst:.3e}"]


def check_sweep(out_dir: Path, cfg, problem, oracle) -> list[str]:
    """Every check that applies to one `run_experiment` output directory.

    ``problem`` is built from ``cfg.problem`` (the sweep does not vary the
    problem seed); ``oracle`` is its QuadraticOracle, or None.
    """
    summary = json.loads((out_dir / "summary.json").read_text())
    sweep = cfg.sweep
    tables = sweep["manual_tables"] or [None]
    expected = (len(sweep["estimators"]) * len(sweep["capacities"])
                * len(tables) * len(sweep["seeds"]))
    variants = summary["variants"]
    out = [f"variant {k} failed: {v}" for k, v in summary["failures"].items()]
    if len(variants) != expected:
        out.append(f"{len(variants)} variants, expected {expected}")
    for key, var in sorted(variants.items()):
        if "error" in var:
            continue
        rows = read_rounds(out_dir / "variants" / key / "rounds.csv")
        if len(rows) != cfg.run["rounds"]:
            out.append(f"{key}: {len(rows)} rounds, expected {cfg.run['rounds']}")
            continue
        match = _TABLE_KEY.search(key)
        table = tables[int(match.group(1))] if match else None
        x, y = np.array(var["final_x"]), np.array(var["final_y"])
        out += check_finite(key, x, y)
        counts = active_counts(cfg.run, table, cfg.problem["n"], problem.d1,
                               problem.d2)
        out += check_bytes(key, rows, counts)
        if table is not None:
            out += check_coverage(key, rows, var, table)
        if oracle is not None:
            out += check_oracle_columns(key, rows[-1]["grad_phi_sq"],
                                        rows[-1]["inner_err_sq"], x, y, oracle)
        if cfg.problem["family"] == "logistic":
            y0 = np.zeros(problem.d2) if cfg.run["y0"] is None \
                else np.array(cfg.run["y0"], dtype=float)
            out += check_validation_loss(key, problem, y0, y)
            out += check_hessian(
                key, lambda xx, yy: problem.hess_yy_g(0, xx, yy),
                lambda xx, yy: problem.grad_g_y(0, xx, yy), x, y)
    return out



def compare_trees(a: Path, b: Path) -> list[str]:
    """Byte-for-byte equality of two artifact directories (b is traced)."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"traced artifacts list {len(files_b)} files, untraced {len(files_a)}"]
    return [f"traced {rel} differs from untraced" for rel in files_a
            if (a / rel).read_bytes() != (b / rel).read_bytes()]
