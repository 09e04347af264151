"""The benchmark's calls into rabosim still resolve.

``perfbench/spans.py``: every traced name exists where the tracer patches
it. ``Tracer.installed()`` looks each site up with ``vars(owner)[attr]``,
so a renamed or deleted function would break a traced benchmark run with
a KeyError; this test fails first.

``perfbench/probe.py`` and ``perfbench/run.py`` build each workload's
first RunConfig through ``cli.build_run_config`` and read its ``x0``,
``y0`` and ``divergence_factor``; the tests below make those calls.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from rabosim import cli, federation, hypergrad, masking, rng
from rabosim.problems import logistic, quadratic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans, workloads = load("spans"), load("workloads")


def test_every_target_is_an_attribute_of_its_owner():
    sites = spans.targets(cli, federation, hypergrad, masking, quadratic,
                          logistic, rng)
    assert sites
    missing = [(name, attr) for name, owner, attr in sites
               if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_probe_builds_the_first_run_config(workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), workload, "1", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ready\n"


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_run_config_exposes_what_the_round_clock_reads(workload):
    cfg = cli.resolve_config(workloads.raw_config(workload, 1, True))
    problem = cli.build_problem(cfg.problem)
    table = (cfg.sweep["manual_tables"] or [None])[0]
    for estimator in workloads.ESTIMATORS:
        run_cfg = cli.build_run_config(cfg.run, problem.n, cfg.run["seed"],
                                       estimator, cfg.sweep["capacities"][0],
                                       table)
        assert run_cfg.estimator == estimator
        assert (run_cfg.x0, run_cfg.y0) == (cfg.run["x0"], cfg.run["y0"])
        assert run_cfg.divergence_factor == cfg.run["divergence_factor"]
