"""Config-driven experiment runner.

Experiments are described by a JSON document with four sections::

    {
      "problem": {"family": "quadratic", ...},
      "run":     {"alpha": 0.05, "beta": 0.1, "capacities": "1/4", ...},
      "sweep":   {"seeds": [0, 1], "estimators": ["exact_aid", "rafbo"]},
      "output":  {"dir": "out"}
    }

Every field has a documented default (see the ``*_DEFAULTS`` tables
below); unknown keys are a hard error so typos never pass silently.
Capacities are accepted as fractions ("1/4"), decimals or integers and
held internally as exact rationals. The resolved config is echoed next to
the outputs and re-parsing the echo reproduces the same resolved config.

A sweep runs the cartesian product of its seed, capacity and estimator
lists; each variant writes a fresh ``rounds.csv`` under a variant-keyed
directory, and a single ``summary.json`` collects final metrics, ledgers
and median/IQR statistics over seeds. Reruns are byte-identical.

CLI::

    rabosim run CONFIG [--out DIR] [--seeds S1,S2,...] [--override k=v]*

Exit codes: 0 success, 2 config error, 3 run divergence. The default
output directory may also be set with the RABOSIM_OUT environment
variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DivergenceDetected,
    InvalidSpec,
    MissingBaseline,
    ParseError,
    ValidationError,
)
from .federation import RunConfig, logs_to_csv, run
from .hypergrad import EXACT_AID, RAFBO, RAFBOConfig
from .masking import POLICIES, ClientResource, MaskPolicy, parse_capacity
from .problems import make_logistic_tune, make_quadratic

OUT_ENV_VAR = "RABOSIM_OUT"

PROBLEM_DEFAULTS_COMMON = {"seed": 0, "n": 4}
QUADRATIC_DEFAULTS = {
    "d1": 10, "d2": 10, "hetero": 0.0, "noise_f": 0.0, "noise_g": 0.0,
    "eig_min": 1.0, "eig_max": 1.0, "lam": 0.5, "coupling": 0.5,
    "quartic": 0.0, "sine_amp": 0.0, "target_scale": 1.0, "ball_radius": 10.0,
}
LOGISTIC_DEFAULTS = {
    "imbalance_mu": 1.0, "classes": 4, "features": 5, "base_count": 100,
    "class_sep": 2.0,
}
RUN_DEFAULTS = {
    "alpha": 0.05, "beta": 0.1, "inner_epochs": 1, "rounds": 50,
    "estimator": EXACT_AID, "mu": 1e-3, "coord_fraction": 1.0,
    "policy": "rolling", "block_size": 1, "capacities": "1",
    "download_mode": "masked", "theory_guard": False,
    "batch_size_f": 0, "batch_size_g": 0, "divergence_factor": 1e6,
    "log_masks": False, "seed": 0,
    "manual_x": None, "manual_y": None, "x0": None, "y0": None,
}
SWEEP_DEFAULTS = {
    "seeds": None, "estimators": None, "capacities": None,
    "manual_tables": None, "vary_problem_seed": False,
}
OUTPUT_DEFAULTS = {
    "dir": None, "formats": ["csv", "json"], "compare_baseline": None,
}
SECTIONS = ("problem", "run", "sweep", "output")


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description (JSON-serializable)."""

    problem: dict
    run: dict
    sweep: dict
    output: dict

    def echo(self) -> dict:
        return {"problem": self.problem, "run": self.run,
                "sweep": self.sweep, "output": self.output}


@dataclass
class VariantResult:
    key: str
    seed: int
    estimator: str
    capacity_label: str
    summary: dict | None
    error: str | None = None


@dataclass
class SweepResult:
    config: ExperimentConfig
    variants: dict = field(default_factory=dict)   # key -> VariantResult
    stats: dict = field(default_factory=dict)
    out_dir: Path | None = None

    @property
    def failures(self) -> dict:
        return {k: v.error for k, v in self.variants.items() if v.error}


def _reject_unknown(section: str, data: dict, allowed) -> None:
    for key in data:
        if key not in allowed:
            raise ValidationError(
                f"unknown key '{key}' in section '{section}'", key=key)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _is_str(v) -> bool:
    return isinstance(v, str)


# Entries whose default does not show their type: key -> (item test, want).
LIST_ENTRIES = {
    "seeds": (_is_int, "a list of integers"),
    "estimators": (_is_str, "a list of strings"),
    "formats": (_is_str, "a list of strings"),
    "x0": (_is_finite, "a list of finite numbers"),
    "y0": (_is_finite, "a list of finite numbers"),
}
OPTIONAL_STRINGS = ("dir", "compare_baseline")
# Run entries whose type alone does not make them valid: key -> (test, want).
RUN_RANGES = {
    "mu": (lambda v: v > 0, "positive"),
    "coord_fraction": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "block_size": (lambda v: v >= 1, "at least 1"),
    "divergence_factor": (lambda v: v > 0, "positive"),
    "policy": (lambda v: v in POLICIES, "one of " + ", ".join(POLICIES)),
}


def _check_types(section: str, resolved: dict, defaults: dict) -> None:
    """Type, integer-ness and finiteness of each entry, judged by its default.

    ``capacities`` and the manual tables have their own checks.
    """
    for key, value in resolved.items():
        default = defaults[key]
        if key in LIST_ENTRIES:
            test, want = LIST_ENTRIES[key]
            ok = (value is None and default is None) or (
                isinstance(value, list) and all(map(test, value)))
        elif key in OPTIONAL_STRINGS:
            ok, want = value is None or _is_str(value), "a string"
        elif isinstance(default, bool):
            ok, want = isinstance(value, bool), "true or false"
        elif isinstance(default, int):
            ok, want = _is_int(value), "an integer"
        elif isinstance(default, float):
            ok, want = _is_finite(value), "a finite number"
        elif _is_str(default) and key != "capacities":
            ok, want = _is_str(value), "a string"
        else:
            continue
        if not ok:
            raise ValidationError(
                f"{section}.{key} must be {want}, got {value!r}", key=key)


def _resolve_section(section: str, data: dict, defaults: dict) -> dict:
    _reject_unknown(section, data, defaults.keys())
    resolved = dict(defaults)
    resolved.update(data)
    _check_types(section, resolved, defaults)
    return resolved


def _capacity_echo(value) -> str:
    return str(parse_capacity(value))


def _normalize_capacities(value, key: str) -> list | str:
    """Validate and echo-normalize a capacities entry (scalar or list)."""
    try:
        if isinstance(value, list):
            return [_capacity_echo(v) for v in value]
        return _capacity_echo(value)
    except Exception as exc:
        raise ValidationError(f"bad capacity in '{key}': {exc}", key=key) from exc


def _problem_dims(problem: dict) -> tuple[int, int]:
    """(d1, d2) of the problem a resolved ``problem`` section builds."""
    if problem["family"] == "quadratic":
        return problem["d1"], problem["d2"]
    return 2 * problem["classes"] + 1, problem["classes"] * problem["features"]


def _check_table(table, n: int, d: int, name: str, key: str) -> None:
    """A manual table lists coordinate indices in [0, d) for each client."""
    if not (isinstance(table, list) and len(table) >= n and all(
            isinstance(row, list) and all(_is_int(k) and 0 <= k < d
                                          for k in row)
            for row in table)):
        raise ValidationError(
            f"{name} must list coordinate indices in [0, {d}) for each of "
            f"the {n} clients, got {table!r}", key=key)


def resolve_config(raw: dict) -> ExperimentConfig:
    """Apply defaults and validate a parsed config document."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be an object", key="<root>")
    _reject_unknown("<root>", raw, SECTIONS)

    problem_raw = dict(raw.get("problem", {}))
    family = problem_raw.pop("family", None)
    if family is None:
        raise ValidationError("problem.family is required", key="family")
    if family == "quadratic":
        defaults = {**PROBLEM_DEFAULTS_COMMON, **QUADRATIC_DEFAULTS}
    elif family == "logistic":
        defaults = {**PROBLEM_DEFAULTS_COMMON, **LOGISTIC_DEFAULTS}
    else:
        raise ValidationError(f"unknown problem family '{family}'", key="family")
    problem = _resolve_section("problem", problem_raw, defaults)
    problem["family"] = family

    run_cfg = _resolve_section("run", dict(raw.get("run", {})), RUN_DEFAULTS)
    run_cfg["capacities"] = _normalize_capacities(
        run_cfg["capacities"], "run.capacities")
    if run_cfg["estimator"] not in (EXACT_AID, RAFBO):
        raise ValidationError(
            f"unknown estimator '{run_cfg['estimator']}'", key="estimator")
    for key, (test, want) in RUN_RANGES.items():
        if not test(run_cfg[key]):
            raise ValidationError(
                f"run.{key} must be {want}, got {run_cfg[key]!r}", key=key)
    sweep = _resolve_section("sweep", dict(raw.get("sweep", {})), SWEEP_DEFAULTS)
    if run_cfg["policy"] == "manual":
        if sweep["manual_tables"] is None and (
                run_cfg["manual_x"] is None or run_cfg["manual_y"] is None):
            raise ValidationError(
                "manual policy requires run.manual_x/manual_y or "
                "sweep.manual_tables", key="policy")
    else:
        for name, table in (("sweep.manual_tables", sweep["manual_tables"]),
                            ("run.manual_x", run_cfg["manual_x"]),
                            ("run.manual_y", run_cfg["manual_y"])):
            if table is not None:
                raise ValidationError(
                    f"{name} takes effect only under run.policy 'manual', "
                    f"got policy '{run_cfg['policy']}'",
                    key=name.split(".")[1])
    if sweep["seeds"] is None:
        sweep["seeds"] = [run_cfg["seed"]]
    if sweep["estimators"] is None:
        sweep["estimators"] = [run_cfg["estimator"]]
    for est in sweep["estimators"]:
        if est not in (EXACT_AID, RAFBO):
            raise ValidationError(f"unknown estimator '{est}' in sweep",
                                  key="estimators")
    if sweep["capacities"] is None:
        sweep["capacities"] = [run_cfg["capacities"]]
    sweep["capacities"] = [
        _normalize_capacities(entry, "sweep.capacities")
        for entry in sweep["capacities"]]
    if sweep["manual_tables"] is not None:
        for entry in sweep["manual_tables"]:
            if not isinstance(entry, dict) or \
                    not {"x", "y"} <= set(entry.keys()):
                raise ValidationError(
                    "each sweep.manual_tables entry needs 'x' and 'y' "
                    "per-client coordinate lists", key="manual_tables")
    n, dims = problem["n"], _problem_dims(problem)
    for level, d in zip("xy", dims):
        start = run_cfg[f"{level}0"]
        if start is not None and len(start) != d:
            raise ValidationError(
                f"run.{level}0 has {len(start)} entries, but the problem "
                f"has {d} {level} coordinates", key=f"{level}0")
        if run_cfg[f"manual_{level}"] is not None:
            _check_table(run_cfg[f"manual_{level}"], n, d,
                         f"run.manual_{level}", f"manual_{level}")
        for index, entry in enumerate(sweep["manual_tables"] or []):
            _check_table(entry[level], n, d,
                         f"sweep.manual_tables[{index}].{level}",
                         "manual_tables")

    output = _resolve_section("output", dict(raw.get("output", {})),
                              OUTPUT_DEFAULTS)
    for fmt in output["formats"]:
        if fmt not in ("csv", "json"):
            raise ValidationError(f"unknown output format '{fmt}'", key="formats")
    return ExperimentConfig(problem, run_cfg, sweep, output)


def parse_config(path) -> ExperimentConfig:
    """Load, validate and default-resolve a config file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    return resolve_config(raw)


def build_problem(problem_cfg: dict, seed_override: int | None = None):
    cfg = dict(problem_cfg)
    family = cfg.pop("family")
    seed = seed_override if seed_override is not None else cfg.pop("seed")
    cfg.pop("seed", None)
    if family == "quadratic":
        eig_range = (cfg.pop("eig_min"), cfg.pop("eig_max"))
        return make_quadratic(seed=seed, n=cfg.pop("n"), d1=cfg.pop("d1"),
                              d2=cfg.pop("d2"), hetero=cfg.pop("hetero"),
                              noise_f=cfg.pop("noise_f"),
                              noise_g=cfg.pop("noise_g"),
                              eig_range=eig_range, **cfg)
    return make_logistic_tune(seed=seed, n=cfg.pop("n"),
                              imbalance_mu=cfg.pop("imbalance_mu"), **cfg)


def _capacity_list(entry, n: int) -> list[ClientResource]:
    values = entry if isinstance(entry, list) else [entry] * n
    if len(values) == 1:
        values = values * n
    if len(values) != n:
        raise ValidationError(
            f"capacities list has {len(values)} entries for {n} clients",
            key="capacities")
    return [ClientResource(parse_capacity(v)) for v in values]


def build_run_config(run_cfg: dict, n: int, seed: int, estimator: str,
                     capacity_entry, table_entry: dict | None = None) -> RunConfig:
    table_x = run_cfg["manual_x"]
    table_y = run_cfg["manual_y"]
    if table_entry is not None:
        table_x, table_y = table_entry["x"], table_entry["y"]
    policy = MaskPolicy(
        variant=run_cfg["policy"], block_size=run_cfg["block_size"],
        table_x=table_x, table_y=table_y)
    return RunConfig(
        alpha=run_cfg["alpha"], beta=run_cfg["beta"],
        inner_epochs=run_cfg["inner_epochs"], rounds=run_cfg["rounds"],
        n=n, estimator=estimator,
        rafbo=RAFBOConfig(mu=run_cfg["mu"],
                          coord_fraction=run_cfg["coord_fraction"]),
        policy=policy, capacities=_capacity_list(capacity_entry, n),
        seed=seed, download_mode=run_cfg["download_mode"],
        theory_guard=run_cfg["theory_guard"],
        batch_size_f=run_cfg["batch_size_f"],
        batch_size_g=run_cfg["batch_size_g"],
        divergence_factor=run_cfg["divergence_factor"],
        log_masks=run_cfg["log_masks"],
        x0=run_cfg["x0"], y0=run_cfg["y0"])


def _capacity_label(index: int, entry) -> str:
    if isinstance(entry, list):
        return f"cap{index}"
    return "cap" + str(entry).replace("/", "-")


def _aggregate_stats(variants: dict) -> dict:
    """Median/IQR over seeds of final metrics, per (estimator, capacity)."""
    groups: dict = {}
    for res in variants.values():
        if res.summary is None:
            continue
        groups.setdefault((res.estimator, res.capacity_label), []).append(res)
    stats = {}
    for (est, cap), members in sorted(groups.items()):
        metrics = {}
        for name, getter in (
                ("final_grad_phi_sq", lambda s: s.get("final_grad_phi_sq")),
                ("final_phi", lambda s: s.get("final_phi")),
                ("bytes_total", lambda s: s["bytes_up"] + s["bytes_down"]),
                ("total_flops", lambda s: s["total_flops"])):
            values = [getter(m.summary) for m in members]
            values = [v for v in values
                      if v is not None and not (isinstance(v, float) and np.isnan(v))]
            if not values:
                continue
            arr = np.array(values, dtype=np.float64)
            metrics[name] = {
                "median": float(np.median(arr)),
                "iqr": float(np.percentile(arr, 75) - np.percentile(arr, 25)),
                "count": len(values)}
        stats[f"{est}__{cap}"] = metrics
    return stats


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> SweepResult:
    """Run the sweep's cartesian product and emit CSV/JSON artifacts.

    Variants that diverge are recorded in the summary without aborting
    their siblings.
    """
    out = Path(out_dir) if out_dir is not None else _default_out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(
        json.dumps(cfg.echo(), indent=2, sort_keys=True) + "\n")

    result = SweepResult(config=cfg, out_dir=out)
    n = cfg.problem["n"]
    vary_problem_seed = cfg.sweep["vary_problem_seed"]
    shared_problem = None if vary_problem_seed else build_problem(cfg.problem)
    write_csv = "csv" in cfg.output["formats"]
    table_entries = cfg.sweep["manual_tables"] or [None]
    for estimator in cfg.sweep["estimators"]:
        for cap_index, cap_entry in enumerate(cfg.sweep["capacities"]):
            cap_label = _capacity_label(cap_index, cap_entry)
            for tbl_index, table_entry in enumerate(table_entries):
                group = cap_label if table_entry is None \
                    else f"{cap_label}__tbl{tbl_index}"
                for seed in cfg.sweep["seeds"]:
                    key = f"est_{estimator}__{group}__seed_{seed}"
                    problem = build_problem(cfg.problem, seed) \
                        if vary_problem_seed else shared_problem
                    run_config = build_run_config(cfg.run, n, seed, estimator,
                                                  cap_entry, table_entry)
                    variant_dir = out / "variants" / key
                    variant_dir.mkdir(parents=True, exist_ok=True)
                    try:
                        run_result = run(problem, run_config)
                    except DivergenceDetected as exc:
                        if write_csv:
                            (variant_dir / "rounds.csv").write_text(
                                logs_to_csv(exc.partial_logs))
                        result.variants[key] = VariantResult(
                            key, seed, estimator, group, None, str(exc))
                        continue
                    if write_csv:
                        (variant_dir / "rounds.csv").write_text(
                            logs_to_csv(run_result.logs))
                        if run_config.log_masks:
                            (variant_dir / "masks.csv").write_text(
                                _masks_csv(run_result.logs))
                    result.variants[key] = VariantResult(
                        key, seed, estimator, group, run_result.summary())

    result.stats = _aggregate_stats(result.variants)
    if "json" in cfg.output["formats"]:
        summary = {
            "variants": {k: (v.summary if v.summary is not None
                             else {"error": v.error})
                         for k, v in sorted(result.variants.items())},
            "stats": result.stats,
            "failures": result.failures,
            "config_echo": cfg.echo(),
        }
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    baseline = cfg.output["compare_baseline"]
    if baseline is not None:
        rows = compare_costs(result, baseline)
        (out / "cost_ratios.csv").write_text(_ratios_csv(rows))
    return result


def _masks_csv(logs) -> str:
    lines = ["round,level,client,mask_hex"]
    for log in logs:
        for level, masks in (("x", log.masks_x_hex), ("y", log.masks_y_hex)):
            if masks is None:
                continue
            for client, hexstr in enumerate(masks):
                lines.append(f"{log.round_index},{level},{client},{hexstr}")
    return "\n".join(lines) + "\n"


def compare_costs(results: SweepResult, baseline_key: str) -> list[dict]:
    """Compute per-variant compute/communication ratios vs a baseline."""
    base = results.variants.get(baseline_key)
    if base is None or base.summary is None:
        raise MissingBaseline(f"baseline variant '{baseline_key}' not in sweep")
    base_flops = base.summary["total_flops"]
    base_bytes = base.summary["bytes_up"] + base.summary["bytes_down"]
    rows = []
    for key, var in sorted(results.variants.items()):
        if var.summary is None:
            continue
        rows.append({
            "variant": key,
            "compute_ratio": var.summary["total_flops"] / base_flops,
            "comm_ratio": (var.summary["bytes_up"] + var.summary["bytes_down"])
            / base_bytes})
    return rows


def _ratios_csv(rows: list[dict]) -> str:
    lines = ["variant,compute_ratio,comm_ratio"]
    for row in rows:
        lines.append(f"{row['variant']},{row['compute_ratio']!r},"
                     f"{row['comm_ratio']!r}")
    return "\n".join(lines) + "\n"


def _default_out_dir(cfg: ExperimentConfig) -> Path:
    if cfg.output["dir"]:
        return Path(cfg.output["dir"])
    return Path(os.environ.get(OUT_ENV_VAR, "rabosim-out"))


def apply_override(raw: dict, spec: str) -> None:
    """Apply one ``section.key=value`` override to a raw config dict."""
    if "=" not in spec:
        raise ValidationError(f"override '{spec}' is not key=value", key=spec)
    path, _, literal = spec.partition("=")
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in SECTIONS:
        raise ValidationError(
            f"override key '{path}' must be section.key with section in "
            f"{SECTIONS}", key=path)
    try:
        value = json.loads(literal)
    except json.JSONDecodeError:
        value = literal
    raw.setdefault(parts[0], {})[parts[1]] = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rabosim",
        description="Deterministic resource-adaptive distributed bilevel "
                    "optimization simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the experiment in a config file")
    run_p.add_argument("config", help="path to the JSON config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seeds", default=None,
                       help="comma-separated seed list overriding sweep.seeds")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config entry, e.g. run.alpha=0.01")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON at line {exc.lineno} column "
              f"{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    try:
        for spec in args.override:
            apply_override(raw, spec)
        if args.seeds:
            try:
                seeds = [int(s) for s in args.seeds.split(",")]
            except ValueError:
                raise ValidationError(
                    f"sweep.seeds: --seeds must be comma-separated integers, "
                    f"got {args.seeds!r}", key="seeds") from None
            raw.setdefault("sweep", {})["seeds"] = seeds
        cfg = resolve_config(raw)
    except (ValidationError, ParseError, InvalidSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_experiment(cfg, args.out)
    except (ValidationError, InvalidSpec, MissingBaseline) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if result.failures:
        for key, err in sorted(result.failures.items()):
            print(f"variant {key} failed: {err}", file=sys.stderr)
        return 3
    print(f"wrote {len(result.variants)} variant(s) to {result.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
