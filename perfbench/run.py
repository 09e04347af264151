"""rabosim benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a rabosim checkout; the program is imported from its
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
starting with ``#`` record the machine and the sample counts. Artifacts go
to ``perfbench/out/<workload>/``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: artifacts and round times depend on the thread count,
# and two threads on a two-vCPU machine made round times swing ~2x. This
# must happen before numpy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from pace import Pace  # noqa: E402
from workloads import (  # noqa: E402
    ESTIMATORS, NAMES, ROOT, SRC, block_rounds, raw_config)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


class RoundClock:
    """Times `federation.rabo_round` on the sweep's first variant.

    The trajectory carries on across blocks; each round is checked against
    the independent oracle (when there is one) outside the timed region.
    """

    def __init__(self, bench, run_cfg, label):
        np = bench.np
        self.bench, self.cfg, self.label = bench, run_cfg, label
        x0 = np.zeros(bench.problem.d1) if run_cfg.x0 is None \
            else np.array(run_cfg.x0, dtype=np.float64)
        y0 = np.zeros(bench.problem.d2) if run_cfg.y0 is None \
            else np.array(run_cfg.y0, dtype=np.float64)
        self.state = bench.federation.GlobalState(x0, y0, 0)
        self.tracker = bench.masking.CoverageTracker()
        self.ledger = bench.federation.CostLedger()
        self.guard = run_cfg.divergence_factor * max(
            1.0, float(np.linalg.norm(x0)), float(np.linalg.norm(y0)))
        self.times: list[float] = []
        self.rounds = Samples()

    def step(self) -> list[str]:
        bench = self.bench
        start = perf_counter()
        self.state, log = bench.federation.rabo_round(
            bench.problem, self.state, self.cfg, self.tracker, self.ledger,
            self.guard)
        self.times.append(perf_counter() - start)
        where = f"{self.label} round {log.round_index}"
        errors = bench.checks.check_finite(where, self.state.x, self.state.y)
        if bench.oracle is not None:
            errors += bench.checks.check_oracle_columns(
                where, log.grad_phi_sq, log.inner_err_sq, self.state.x,
                self.state.y, bench.oracle)
        return errors


class Bench:
    """One workload's config, problem, oracle and round clocks."""

    def __init__(self, name: str, seed: int, tiny: bool):
        sys.path.insert(0, str(SRC))
        import numpy
        import scipy
        from rabosim import cli, federation, hypergrad, masking, rng
        from rabosim.problems import logistic, quadratic

        import checks
        import spans

        self.np, self.scipy, self.cli = numpy, scipy, cli
        self.federation, self.masking = federation, masking
        self.checks, self.spans = checks, spans
        self.sites = spans.targets(cli, federation, hypergrad, masking,
                                   quadratic, logistic, rng)
        self.name, self.seed, self.tiny = name, seed, tiny
        self.blocks = block_rounds(name, tiny)
        self.out = OUT / name
        self.pace = Pace(numpy)

    def set_up(self) -> None:
        cli = self.cli
        self.cfg = cli.resolve_config(raw_config(self.name, self.seed, self.tiny))
        self.problem = cli.build_problem(self.cfg.problem)
        self.oracle = (self.checks.QuadraticOracle(self.problem.spec)
                       if self.cfg.problem["family"] == "quadratic" else None)

    def clocks(self) -> dict:
        cfg = self.cfg
        table = (cfg.sweep["manual_tables"] or [None])[0]
        return {est: RoundClock(
            self, self.cli.build_run_config(cfg.run, self.problem.n,
                                            cfg.run["seed"], est,
                                            cfg.sweep["capacities"][0], table),
            est) for est in ESTIMATORS}

    def sweep(self, label: str):
        """One timed `cli.run_experiment` into a fresh directory."""
        out = self.out / label
        shutil.rmtree(out, ignore_errors=True)
        start = perf_counter()
        result = self.cli.run_experiment(self.cfg, out)
        return result, perf_counter() - start

    def check_sweep(self, label: str) -> list[str]:
        return self.checks.check_sweep(self.out / label, self.cfg,
                                       self.problem, self.oracle)

    def warm_up(self, clocks: dict) -> list[str]:
        """One round per estimator whose time is not kept."""
        errors = []
        for clock in clocks.values():
            errors += clock.step()
            clock.times.clear()
        return errors

    def run_block(self, clock: RoundClock) -> list[str]:
        errors = []
        first = len(clock.times)

        def block():
            for _ in range(self.blocks[clock.label]):
                errors.extend(clock.step())

        _, scale = self.pace.timed(block)
        clock.rounds.add(clock.times[first:], scale)
        return errors

    def probe(self) -> float:
        """Seconds from starting a fresh interpreter to its first round being ready."""
        cmd = [sys.executable, str(HERE / "probe.py"), self.name,
               str(self.seed), "1" if self.tiny else "0"]
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            took = perf_counter() - start
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        return took


class Samples:
    """Wall times of one kind of step, and the same times paced."""

    def __init__(self):
        self.raw: list[float] = []
        self.paced: list[float] = []

    def add(self, raw: list[float], scale: float) -> None:
        self.raw += raw
        self.paced += [scale * t for t in raw]

    def median(self) -> float:
        return statistics.median(self.paced)

    def wall_median(self) -> float:
        return statistics.median(self.raw)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for (MiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_schedule(seconds: float, steps) -> int:
    """Runs the (kind, step) list round-robin for `seconds`; returns the
    number of whole passes.

    The first pass always runs whole. After it, a step is started only if
    its kind's longest time so far still fits before the deadline. Each
    pass takes a few samples of every metric, so the samples of a metric
    are spread over the whole window, not taken in one burst.
    """
    deadline = perf_counter() + seconds
    longest: dict[str, float] = {}
    passes = 0
    while True:
        for kind, step in steps:
            if passes and perf_counter() + longest[kind] > deadline:
                return passes
            start = perf_counter()
            step()
            longest[kind] = max(longest.get(kind, 0.0), perf_counter() - start)
        passes += 1


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced passes of: probe, sweep, then per estimator a probe and a
    block of timed rounds."""
    bench.probe()                        # compiles bytecode, warms the cache
    bench.set_up()
    clocks = bench.clocks()
    errors = bench.warm_up(clocks)
    setups, sweeps = Samples(), Samples()
    tally = {"attempted": 0, "failed": 0}

    def sweep():
        (result, took), scale = bench.pace.timed(lambda: bench.sweep("sweep"))
        sweeps.add([took], scale)
        tally["attempted"] += len(result.variants)
        tally["failed"] += len(result.failures)
        errors.extend(bench.check_sweep("sweep"))

    def probe():
        took, scale = bench.pace.timed(bench.probe)
        setups.add([took], scale)

    steps = [("probe", probe), ("sweep", sweep)]
    for est, clock in clocks.items():
        steps += [("probe", probe),
                  (est, lambda c=clock: errors.extend(bench.run_block(c)))]
    passes = run_schedule(seconds, steps)
    rounds = {e: c.rounds for e, c in clocks.items()}
    metrics = {
        "setup_s": (setups.median(), "s"),
        "sweep_s": (sweeps.median(), "s"),
        "aid_round_ms": (1e3 * rounds["exact_aid"].median(), "ms"),
        "rafbo_round_ms": (1e3 * rounds["rafbo"].median(), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    steps = {"setup": setups, "sweep": sweeps, **rounds}
    info = {"passes": passes,
            "reference_ms": 1e3 * statistics.median(bench.pace.samples),
            "samples": {k: len(v.raw) for k, v in steps.items()},
            "wall_median_s": {k: v.wall_median() for k, v in steps.items()}}
    return metrics, {"errors": errors, **tally, "info": info}


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Passes of (traced set-up, untraced sweep, traced sweep, traced rounds).

    Per-layer figures come from the traced set-ups and sweeps alone, so
    their counts repeat exactly; the traced rounds and the untraced sweep
    only show the tracing overhead.
    """
    tracer = bench.spans.Tracer(bench.sites)
    round_tracer = bench.spans.Tracer(bench.sites)
    bench.set_up()
    clocks = bench.clocks()
    with round_tracer.installed():
        errors = bench.warm_up(clocks)
    plain, traced = [], []
    tally = {"attempted": 0, "failed": 0}

    def traced_pass():
        with tracer.installed():
            bench.set_up()
        result, took = bench.sweep("sweep")
        plain.append(took)
        with tracer.installed():
            result_t, took = bench.sweep("traced")
        traced.append(took)
        tally["attempted"] += len(result.variants) + len(result_t.variants)
        tally["failed"] += len(result.failures) + len(result_t.failures)
        errors.extend(bench.check_sweep("traced") + bench.checks.compare_trees(
            bench.out / "sweep", bench.out / "traced"))
        with round_tracer.installed():
            for clock in clocks.values():
                errors.extend(bench.run_block(clock))

    passes = run_schedule(seconds, [("pass", traced_pass)])
    out = bench.out / "traced"
    summary = json.loads((out / "summary.json").read_text())
    runs = [v for v in summary["variants"].values() if "error" not in v]
    flops_per_round = (sum(v["total_flops"] for v in runs)
                       / max(1, sum(v["rounds"] for v in runs)))
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    metrics = layer_metrics(tracer, passes, flops_per_round, written)
    info = {"passes": passes,
            "untraced_sweep_s": statistics.median(plain),
            "traced_sweep_s": statistics.median(traced),
            "traced_aid_round_ms": 1e3 * statistics.median(clocks["exact_aid"].times),
            "traced_rafbo_round_ms": 1e3 * statistics.median(clocks["rafbo"].times)}
    return metrics, {"errors": errors, **tally, "info": info}


def layer_metrics(tr, sweeps: int, flops_per_round: float,
                  artifact_bytes: int) -> dict:
    """Per-layer figures: per round, per call or per sweep as named."""
    rounds = tr.calls("federation.rabo_round")

    def calls(name):
        return tr.calls(name, in_round=True) / rounds, "count"

    def ms(name):
        return 1e3 * tr.total_s(name, in_round=True) / rounds, "ms"

    def ms_per_call(name):
        return 1e3 * tr.total_s(name) / max(1, tr.calls(name)), "ms"

    return {
        "problems.grad_g_y.calls": calls("problems.grad_g_y"),
        "problems.grad_g_y.ms": ms("problems.grad_g_y"),
        "hypergrad.jacobian_column_fd.calls": calls("hypergrad.jacobian_column_fd"),
        "hypergrad.rafbo_hypergradient.ms": ms("hypergrad.rafbo_hypergradient"),
        "problems.hess_yy_g.ms": ms("problems.hess_yy_g"),
        "linalg.solve_spd.ms": ms("linalg.solve_spd"),
        "linalg.solve_spd.calls": calls("linalg.solve_spd"),
        "hypergrad.exact_hypergradient.ms": ms("hypergrad.exact_hypergradient"),
        "problems.oracle.calls": calls("problems.oracle"),
        "problems.oracle.ms": ms("problems.oracle"),
        "rng.generator.calls": calls("rng.generator"),
        "rng.generator.ms": ms("rng.generator"),
        "problems.grad_f.calls": calls("problems.grad_f"),
        "problems.grad_f.ms": ms("problems.grad_f"),
        "masking.generate_mask.calls": calls("masking.generate_mask"),
        "masking.generate_mask.ms": ms("masking.generate_mask"),
        "masking.coverage.ms": ms("masking.coverage"),
        "masking.apply_mask.calls": calls("masking.apply_mask"),
        "federation.client_inner_loop.ms": ms("federation.client_inner_loop"),
        "federation.aggregate.ms": ms("federation.aggregate"),
        "federation.rabo_round.self_ms": (
            1e3 * tr.self_s("federation.rabo_round") / rounds, "ms"),
        "federation.modeled_flops": (flops_per_round, "flop"),
        "cli.resolve_config.ms": ms_per_call("cli.resolve_config"),
        "cli.build_problem.ms": ms_per_call("cli.build_problem"),
        "cli.artifacts.ms": (1e3 * tr.self_s("cli.run_experiment") / sweeps, "ms"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "rabosim" / "__init__.py").is_file():
        print(f"error: no rabosim sources at {SRC}; run from the root of a "
              "rabosim checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.tiny)
    print("# env " + json.dumps({
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": bench.np.__version__, "scipy": bench.scipy.__version__,
        **{var: os.environ[var] for var in BLAS_ENV}}))
    if args.trace:
        metrics, res = measure_traced(bench, args.seconds)
    else:
        metrics, res = measure(bench, args.seconds)
    print("# info " + json.dumps(res["info"]))
    for err in res["errors"][:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not res["errors"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
