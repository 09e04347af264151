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

Exit codes: 0 success, 2 config error, 3 run divergence. Output goes to
``--out``, else ``output.dir``, else ``rabosim-out``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import federation, hypergrad, masking
from .errors import (
    DivergenceDetected,
    InvalidSpec,
    MissingBaseline,
    ParseError,
    check_ranges,
)
from .federation import RunConfig, check_theory_guard, logs_to_csv, run
from .hypergrad import EXACT_AID, RAFBOConfig
from .masking import ClientResource, MaskPolicy, parse_capacity
from .problems import logistic, make_logistic_tune, make_quadratic, quadratic

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
    "log_masks": False, "seed": 0, "x0": None, "y0": None,
}
SWEEP_DEFAULTS = {
    "seeds": None, "estimators": None, "capacities": None,
    "manual_tables": None, "vary_problem_seed": False,
}
OUTPUT_DEFAULTS = {
    "dir": None, "compare_baseline": None,
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
            raise InvalidSpec(
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
    "x0": (_is_finite, "a list of finite numbers"),
    "y0": (_is_finite, "a list of finite numbers"),
}
OPTIONAL_STRINGS = ("dir", "compare_baseline")
# Entries whose type alone does not make them valid are checked against
# the range tables of the modules that own them.
RUN_TABLES = (federation.RANGES, hypergrad.RANGES, masking.RANGES)
FAMILIES = {"quadratic": (QUADRATIC_DEFAULTS, quadratic.RANGES),
            "logistic": (LOGISTIC_DEFAULTS, logistic.RANGES)}


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
            raise InvalidSpec(
                f"{section}.{key} must be {want}, got {value!r}", key=key)


def _resolve_section(section: str, data: dict, defaults: dict,
                     *tables: dict) -> dict:
    _reject_unknown(section, data, defaults.keys())
    resolved = dict(defaults)
    resolved.update(data)
    _check_types(section, resolved, defaults)
    for ranges in tables:
        check_ranges(resolved, ranges, f"{section}.")
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
        raise InvalidSpec(f"bad capacity in '{key}': {exc}", key=key) from exc


def _problem_dims(problem: dict) -> tuple[int, int]:
    """(d1, d2) of the problem a resolved ``problem`` section builds."""
    if problem["family"] == "quadratic":
        return problem["d1"], problem["d2"]
    return 2 * problem["classes"] + 1, problem["classes"] * problem["features"]


def _check_table(table, n: int, d: int, name: str) -> None:
    """A manual table lists coordinate indices in [0, d) for each client.

    A capacity is never 0, so every row lists at least one index.
    """
    if not (isinstance(table, list) and len(table) >= n and all(
            isinstance(row, list) and row and all(_is_int(k) and 0 <= k < d
                                                  for k in row)
            for row in table)):
        raise InvalidSpec(
            f"{name} must list one or more coordinate indices in [0, {d}) "
            f"for each of the {n} clients, got {table!r}",
            key="manual_tables")


def _check_sections(raw) -> None:
    """The root and each section are objects, so that overrides and
    defaults apply to them."""
    if not isinstance(raw, dict):
        raise InvalidSpec(f"'<root>' must be an object, got {raw!r}",
                          key="<root>")
    _reject_unknown("<root>", raw, SECTIONS)
    for section, data in raw.items():
        if not isinstance(data, dict):
            raise InvalidSpec(f"'{section}' must be an object, got {data!r}",
                              key=section)


def resolve_config(raw: dict) -> ExperimentConfig:
    """Apply defaults and validate a parsed config document."""
    _check_sections(raw)
    problem_raw = dict(raw.get("problem", {}))
    family = problem_raw.pop("family", None)
    if family is None:
        raise InvalidSpec("problem.family is required", key="family")
    if not _is_str(family):
        raise InvalidSpec(
            f"problem.family must be a string, got {family!r}", key="family")
    if family not in FAMILIES:
        raise InvalidSpec(f"unknown problem family '{family}'", key="family")
    defaults, ranges = FAMILIES[family]
    problem = _resolve_section("problem", problem_raw,
                               {**PROBLEM_DEFAULTS_COMMON, **defaults}, ranges)
    problem["family"] = family
    if family == "quadratic" and problem["eig_max"] < problem["eig_min"]:
        raise InvalidSpec(
            f"problem.eig_max must be at least eig_min "
            f"{problem['eig_min']!r}, got {problem['eig_max']!r}",
            key="eig_max")
    if family == "logistic" and math.floor(
            problem["base_count"]
            * problem["imbalance_mu"] ** (problem["classes"] - 1)) < 1:
        raise InvalidSpec(
            f"problem.base_count {problem['base_count']} leaves the last "
            f"class empty after decay by imbalance_mu "
            f"{problem['imbalance_mu']!r}", key="base_count")

    run_cfg = _resolve_section("run", dict(raw.get("run", {})), RUN_DEFAULTS,
                               *RUN_TABLES)
    run_cfg["capacities"] = _normalize_capacities(
        run_cfg["capacities"], "run.capacities")
    if run_cfg["theory_guard"] and family != "quadratic":
        raise InvalidSpec(
            f"run.theory_guard needs the quadratic family's smoothness "
            f"constants, got family '{family}'", key="theory_guard")
    sweep = _resolve_section("sweep", dict(raw.get("sweep", {})), SWEEP_DEFAULTS)
    # the manual policy needs its tables, and a setting that only another
    # policy reads is an error rather than a silent no-op
    policy = run_cfg["policy"]
    if policy == "manual" and sweep["manual_tables"] is None:
        raise InvalidSpec("run.policy 'manual' needs sweep.manual_tables",
                          key="policy")
    for name, value, unset, owner in (
            ("sweep.manual_tables", sweep["manual_tables"], None, "manual"),
            ("run.block_size", run_cfg["block_size"], 1, "magnitude_topk")):
        if value != unset and policy != owner:
            raise InvalidSpec(
                f"{name} takes effect only under run.policy '{owner}', "
                f"got policy '{policy}'", key=name.split(".")[1])
    if sweep["seeds"] is None:
        sweep["seeds"] = [run_cfg["seed"]]
    if sweep["estimators"] is None:
        sweep["estimators"] = [run_cfg["estimator"]]
    estimator_rule = {"estimators": federation.RANGES["estimator"]}
    for est in sweep["estimators"]:
        check_ranges({"estimators": est}, estimator_rule, "sweep.")
    if sweep["capacities"] is None:
        sweep["capacities"] = [run_cfg["capacities"]]
    if not isinstance(sweep["capacities"], list):
        raise InvalidSpec(
            f"sweep.capacities must be a list of capacity entries, got "
            f"{sweep['capacities']!r}", key="capacities")
    sweep["capacities"] = [
        _normalize_capacities(entry, "sweep.capacities")
        for entry in sweep["capacities"]]
    tables = sweep["manual_tables"]
    if tables is not None and not (isinstance(tables, list) and tables and all(
            isinstance(entry, dict) and {"x", "y"} <= entry.keys()
            for entry in tables)):
        raise InvalidSpec(
            f"sweep.manual_tables must be a non-empty list of objects, each "
            f"with 'x' and 'y' per-client coordinate lists, got {tables!r}",
            key="manual_tables")
    n, dims = problem["n"], _problem_dims(problem)
    for name, entries in (("run.capacities", [run_cfg["capacities"]]),
                          ("sweep.capacities", sweep["capacities"])):
        for entry in entries:
            if isinstance(entry, list) and len(entry) != n:
                raise InvalidSpec(
                    f"{name} lists {len(entry)} capacities for {n} clients",
                    key="capacities")
    for level, d in zip("xy", dims):
        start = run_cfg[f"{level}0"]
        if start is not None and len(start) != d:
            raise InvalidSpec(
                f"run.{level}0 has {len(start)} entries, but the problem "
                f"has {d} {level} coordinates", key=f"{level}0")
        for index, entry in enumerate(tables or []):
            _check_table(entry[level], n, d,
                         f"sweep.manual_tables[{index}].{level}")

    # a variant key joins an estimator, a capacity label, a table index
    # and a seed, so the sweep runs a variant when no list is empty and
    # the keys are distinct when each list's entries are
    for name, parts in (("seeds", sweep["seeds"]),
                        ("estimators", sweep["estimators"]),
                        ("capacities", [_capacity_label(*item) for item
                                        in enumerate(sweep["capacities"])])):
        if not parts:
            raise InvalidSpec(
                f"sweep.{name} is empty; the sweep would run no variant",
                key=name)
        repeats = [p for index, p in enumerate(parts) if p in parts[:index]]
        if repeats:
            raise InvalidSpec(
                f"sweep.{name} repeats the variant key part {repeats[0]!r}; "
                f"each variant needs its own key", key=name)

    output = _resolve_section("output", dict(raw.get("output", {})),
                              OUTPUT_DEFAULTS)
    baseline = output["compare_baseline"]
    if baseline is not None and baseline not in {
            variant[0] for variant in _variants(sweep)}:
        raise InvalidSpec(
            f"output.compare_baseline {baseline!r} names no variant of the "
            f"sweep", key="compare_baseline")
    return ExperimentConfig(problem, run_cfg, sweep, output)


def parse_config(path, overrides=()) -> ExperimentConfig:
    """Load a config file, apply ``section.key=value`` overrides in order,
    then validate and default-resolve it."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path} is not valid JSON at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}", line=exc.lineno,
            column=exc.colno) from exc
    _check_sections(raw)
    for spec in overrides:
        apply_override(raw, spec)
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
    """One resource per client: a scalar is shared by all n, and a list
    (``resolve_config`` has checked it has n entries) is per client."""
    values = entry if isinstance(entry, list) else [entry] * n
    return [ClientResource(parse_capacity(v)) for v in values]


def build_run_config(run_cfg: dict, n: int, seed: int, estimator: str,
                     capacity_entry, table_entry: dict | None = None) -> RunConfig:
    table_x, table_y = (None, None) if table_entry is None \
        else (table_entry["x"], table_entry["y"])
    policy = MaskPolicy(
        variant=run_cfg["policy"], block_size=run_cfg["block_size"],
        table_x=table_x, table_y=table_y)
    return RunConfig(
        alpha=run_cfg["alpha"], beta=run_cfg["beta"],
        inner_epochs=run_cfg["inner_epochs"], rounds=run_cfg["rounds"],
        estimator=estimator,
        rafbo=RAFBOConfig(mu=run_cfg["mu"],
                          coord_fraction=run_cfg["coord_fraction"]),
        policy=policy, capacities=_capacity_list(capacity_entry, n),
        seed=seed, download_mode=run_cfg["download_mode"],
        batch_size_f=run_cfg["batch_size_f"],
        batch_size_g=run_cfg["batch_size_g"],
        divergence_factor=run_cfg["divergence_factor"],
        log_masks=run_cfg["log_masks"],
        x0=run_cfg["x0"], y0=run_cfg["y0"])


def _capacity_label(index: int, entry) -> str:
    if isinstance(entry, list):
        return f"cap{index}"
    return "cap" + str(entry).replace("/", "-")


def _variants(sweep: dict):
    """Yield (key, estimator, group, capacity entry, table entry, seed) for
    each variant of a resolved ``sweep`` section, in run order."""
    tables = sweep["manual_tables"] or [None]
    for estimator in sweep["estimators"]:
        for cap_index, cap_entry in enumerate(sweep["capacities"]):
            cap_label = _capacity_label(cap_index, cap_entry)
            for tbl_index, table_entry in enumerate(tables):
                group = cap_label if table_entry is None \
                    else f"{cap_label}__tbl{tbl_index}"
                for seed in sweep["seeds"]:
                    yield (f"est_{estimator}__{group}__seed_{seed}", estimator,
                           group, cap_entry, table_entry, seed)


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
    their siblings. Each problem is built once, and under the theory guard
    checked once before anything is written; its notes go to the summary.
    """
    n = cfg.problem["n"]
    vary_problem_seed = cfg.sweep["vary_problem_seed"]
    problems = {seed: build_problem(cfg.problem, seed) for seed in
                (cfg.sweep["seeds"] if vary_problem_seed else [None])}
    plans = [(key, estimator, group, seed, build_run_config(
        cfg.run, n, seed, estimator, cap_entry, table_entry))
        for key, estimator, group, cap_entry, table_entry, seed
        in _variants(cfg.sweep)]
    guard_notes = {seed: [] for seed in problems}
    if cfg.run["theory_guard"] and plans:
        # the bounds read alpha and beta, which every variant shares
        for seed, problem in problems.items():
            guard_notes[seed] = check_theory_guard(
                plans[0][-1], quadratic.derive_constants(problem))

    out = Path(out_dir if out_dir is not None
               else cfg.output["dir"] or "rabosim-out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(
        json.dumps(cfg.echo(), indent=2, sort_keys=True) + "\n")

    result = SweepResult(config=cfg, out_dir=out)
    for key, estimator, group, seed, run_config in plans:
        problem_seed = seed if vary_problem_seed else None
        variant_dir = out / "variants" / key
        variant_dir.mkdir(parents=True, exist_ok=True)
        try:
            run_result = run(problems[problem_seed], run_config)
        except DivergenceDetected as exc:
            (variant_dir / "rounds.csv").write_text(
                logs_to_csv(exc.partial_logs))
            result.variants[key] = VariantResult(
                key, seed, estimator, group, None, str(exc))
            continue
        (variant_dir / "rounds.csv").write_text(logs_to_csv(run_result.logs))
        if run_config.log_masks:
            (variant_dir / "masks.csv").write_text(_masks_csv(run_result.logs))
        result.variants[key] = VariantResult(
            key, seed, estimator, group,
            {**run_result.summary(), "guard_notes": guard_notes[problem_seed]})

    result.stats = _aggregate_stats(result.variants)
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
    # a diverged baseline has no costs to compare; it is reported as failed
    if baseline is not None and baseline not in result.failures:
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


def apply_override(raw: dict, spec: str) -> None:
    """Apply one ``section.key=value`` override to a raw config dict."""
    if "=" not in spec:
        raise InvalidSpec(f"override '{spec}' is not key=value", key=spec)
    path, _, literal = spec.partition("=")
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in SECTIONS:
        raise InvalidSpec(
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
        overrides = list(args.override)
        if args.seeds:
            try:
                seeds = [int(s) for s in args.seeds.split(",")]
            except ValueError:
                raise InvalidSpec(
                    f"sweep.seeds: --seeds must be comma-separated integers, "
                    f"got {args.seeds!r}", key="seeds") from None
            overrides.append(f"sweep.seeds={json.dumps(seeds)}")
        result = run_experiment(parse_config(args.config, overrides), args.out)
    except (OSError, ParseError, InvalidSpec) as exc:
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
