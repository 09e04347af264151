"""Config-driven experiment runner.

Experiments are described by a JSON document with four sections::

    {
      "problem": {"family": "quadratic", ...},
      "run":     {"alpha": 0.05, "beta": 0.1, "capacities": "1/4", ...},
      "sweep":   {"seeds": [0, 1], "estimators": ["exact_aid", "rafbo"]},
      "output":  {"dir": "out"}
    }

Every field has a documented default: the family builder's keyword
arguments in ``problem``, ``RunConfig``'s fields in ``run`` (plus
``theory_guard``, which only the sweep runner reads), the ``*_DEFAULTS``
tables below in the other sections. Unknown keys are a hard error so
typos never pass silently. The run section with each manual table obeys
``federation.check_run`` and, fit to the problem section, ``check_fit``.
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
import dataclasses
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import federation
from .errors import (
    DivergenceDetected,
    InvalidSpec,
    MissingBaseline,
    ParseError,
    check_ranges,
    check_size,
    check_types,
    is_int,
)
from .federation import (
    RunConfig,
    check_fit,
    check_run,
    check_theory_guard,
    logs_to_csv,
    run,
)
from .linalg import one_blas_thread
from .masking import parse_capacities
from .problems import logistic, make_logistic_tune, make_quadratic, quadratic

# The run section's keys and their defaults: RunConfig's fields but the
# variant's manual tables, which the sweep section lists, and the theory
# guard, which only the sweep runner reads.
RUN_ARGUMENTS = {
    **{f.name: f.default for f in dataclasses.fields(RunConfig)
       if f.name != "manual_tables"},
    "theory_guard": False}
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


def _is_str(v) -> bool:
    return isinstance(v, str)


# Entries whose default does not show their type: key -> (item test, want).
LIST_ENTRIES = {
    "seeds": (is_int, "a list of integers"),
    "estimators": (_is_str, "a list of strings"),
}
OPTIONAL_STRINGS = ("dir", "compare_baseline")
# family -> (builder, the rules of its arguments, the (d1, d2) they give)
FAMILIES = {
    "quadratic": (make_quadratic, quadratic.check_args, quadratic.dims),
    "logistic": (make_logistic_tune, logistic.check_args, logistic.dims)}
# family -> its builder's keyword arguments and their defaults, which are
# the keys and defaults of the family's problem section
FAMILY_ARGUMENTS = {"quadratic": quadratic.ARGUMENTS,
                    "logistic": logistic.ARGUMENTS}


def _check_types(section: str, resolved: dict, defaults: dict) -> None:
    """Each entry's type in the sweep or output section: ``check_types``
    by its default, then the list and optional-string entries, whose None
    default does not show theirs.

    The problem and run sections are typed by their own rules: each
    family's ``check_args`` and ``federation.check_run``. The sweep's
    capacities and manual tables have their own checks too.
    """
    check_types(resolved, defaults, f"{section}.")
    for key, value in resolved.items():
        if key in LIST_ENTRIES:
            test, want = LIST_ENTRIES[key]
            ok = (value is None and defaults[key] is None) or (
                isinstance(value, list) and all(map(test, value)))
        elif key in OPTIONAL_STRINGS:
            ok, want = value is None or _is_str(value), "a string"
        else:
            continue
        if not ok:
            raise InvalidSpec(
                f"{section}.{key} must be {want}, got {value!r}", key=key)


def _resolve_section(section: str, data: dict, defaults: dict) -> dict:
    """``data`` over ``defaults``, once no key of ``data`` is unknown."""
    _reject_unknown(section, data, defaults.keys())
    return {**defaults, **data}


def _normalize_capacities(entry, name: str) -> list | str:
    """A capacities entry (scalar or list) as its echo: each capacity as
    its reduced fraction string."""
    parsed = parse_capacities(entry, name)
    return [str(c) for c in parsed] if isinstance(parsed, tuple) \
        else str(parsed)


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
    check_ranges({"family": family}, {"family": tuple(FAMILIES)}, "problem.")
    problem = _resolve_section("problem", problem_raw,
                               FAMILY_ARGUMENTS[family])
    _, check_args, dims_of = FAMILIES[family]
    check_args(problem, "problem.")
    problem["family"] = family

    run_cfg = _resolve_section("run", dict(raw.get("run", {})), RUN_ARGUMENTS)
    # check_run types RunConfig's fields below; the theory guard is no
    # field of it
    check_types(run_cfg, {"theory_guard": RUN_ARGUMENTS["theory_guard"]},
                "run.")
    run_cfg["capacities"] = _normalize_capacities(
        run_cfg["capacities"], "run.capacities")
    if run_cfg["theory_guard"] and family != "quadratic":
        raise InvalidSpec(
            f"run.theory_guard needs the quadratic family's smoothness "
            f"constants, got family '{family}'", key="theory_guard")
    sweep = _resolve_section("sweep", dict(raw.get("sweep", {})), SWEEP_DEFAULTS)
    _check_types("sweep", sweep, SWEEP_DEFAULTS)
    tables = sweep["manual_tables"]
    if tables is not None and not (isinstance(tables, list) and tables):
        raise InvalidSpec(
            f"sweep.manual_tables must be a non-empty list of table "
            f"entries, got {tables!r}", key="manual_tables")
    n, (d1, d2) = problem["n"], dims_of(problem)
    if run_cfg["theory_guard"]:
        # derive_constants forms a dense (d1 + d2)^2 block
        check_size(problem, (d1 + d2) ** 2, ("d1", "d2"), "problem.")
    for index, entry in enumerate(tables or [None]):
        args = {**run_cfg, "manual_tables": entry}
        name = "sweep.manual_tables" if entry is None \
            else f"sweep.manual_tables[{index}]"
        check_run(args, "run.", name)
        check_fit(args, n, d1, d2, "run.", name)

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
    for entry in sweep["capacities"]:
        check_fit({"capacities": entry}, n, d1, d2, "sweep.")

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
    _check_types("output", output, OUTPUT_DEFAULTS)
    baseline = output["compare_baseline"]
    if baseline is not None and baseline not in {
            variant[0] for variant in _variants(sweep)}:
        raise InvalidSpec(
            f"output.compare_baseline {baseline!r} names no variant of the "
            f"sweep", key="compare_baseline")
    if baseline is not None and run_cfg["rounds"] == 0:
        raise InvalidSpec(
            "output.compare_baseline needs run.rounds of at least 1: a run "
            "of 0 rounds has no cost to divide by", key="compare_baseline")
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
    """The problem a resolved ``problem`` section describes, built with
    ``seed_override`` as its seed when one is given. A builder's
    InvalidSpec that names its argument is raised again naming the
    ``problem.`` key."""
    args = dict(problem_cfg)
    builder = FAMILIES[args.pop("family")][0]
    if seed_override is not None:
        args["seed"] = seed_override
    try:
        return builder(**args)
    except InvalidSpec as exc:   # a builder's message opens with its key
        if exc.key is None:
            raise
        raise InvalidSpec(f"problem.{exc}", key=exc.key) from None


def build_run_config(run_cfg: dict, n: int, seed: int, estimator: str,
                     capacity_entry, table_entry: dict | None = None) -> RunConfig:
    """The RunConfig of one variant of a resolved ``run`` section. ``n``
    goes unread: ``run`` fits the RunConfig to its problem."""
    args = {key: value for key, value in run_cfg.items()
            if key != "theory_guard"}
    return RunConfig(**{**args, "seed": seed, "estimator": estimator,
                        "capacities": capacity_entry,
                        "manual_tables": table_entry})


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


@one_blas_thread()
def run_experiment(cfg: ExperimentConfig, out_dir=None) -> SweepResult:
    """Run the sweep's cartesian product and emit CSV/JSON artifacts, with
    BLAS at one thread from the problems' build on
    (``linalg.one_blas_thread``).

    Variants that diverge are recorded in the summary without aborting
    their siblings. Each problem is built once, and under the theory guard
    checked once before anything is written; its notes go to the summary.
    A rerun into the same directory first removes what the last run left
    under the paths this one owns: ``variants/`` and ``cost_ratios.csv``.
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
    if (out / "variants").exists():
        shutil.rmtree(out / "variants")
    (out / "cost_ratios.csv").unlink(missing_ok=True)
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
    """Compute per-variant compute/communication ratios vs a baseline;
    raises MissingBaseline if it is absent, failed or cost nothing."""
    base = results.variants.get(baseline_key)
    if base is None or base.summary is None:
        raise MissingBaseline(f"baseline variant '{baseline_key}' not in sweep")
    base_flops = base.summary["total_flops"]
    base_bytes = base.summary["bytes_up"] + base.summary["bytes_down"]
    if not (base_flops and base_bytes):
        raise MissingBaseline(
            f"baseline variant '{baseline_key}' has no cost to divide by")
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
        if args.seeds is not None:
            try:   # "" is the empty list, which sweep.seeds rejects
                seeds = [int(s) for s in args.seeds.split(",") if args.seeds]
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
