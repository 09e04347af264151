"""tools/artifact_set.py: which runs make up the standard artifact set."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from rabosim.cli import build_problem, build_run_config, resolve_config
from rabosim.federation import GlobalState, rabo_round
from rabosim.problems import QuadraticProblem
from tests_support import counted

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_set.py"
spec = importlib.util.spec_from_file_location("artifact_set", TOOL)
artifact_set = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_set)


def test_documents_name_the_standard_set():
    docs = dict(artifact_set.documents())
    assert list(docs) == [
        "demo_sweep", "coverage_pinning",
        "noisy-small-s1", "noisy-small-s5",
        "wide-quadratic-s1", "wide-quadratic-s5",
        "logistic-topk-s1", "logistic-topk-s5", "window_groups", "quartic",
        "static_lists", "topk_blocks", "sampled_sets"]
    assert docs["wide-quadratic-s5"]["problem"]["seed"] == 5
    for raw in docs.values():
        resolve_config(raw)


def test_sampled_sets_form_a_block_per_client():
    # the clients mostly draw their own perturbation sets, so most rafbo
    # row calls form one scaled block of the shared B per client
    cfg = resolve_config(artifact_set.SAMPLED_SETS)
    spec = build_problem(cfg.problem).spec
    gathers = []
    prob = QuadraticProblem(replace(
        spec, b_mats=[counted(spec.b_mats[0], gathers)] * len(spec.b_mats)))
    run_cfg = build_run_config(cfg.run, prob.n, 1, "rafbo",
                               cfg.run["capacities"])
    state = GlobalState(np.zeros(prob.d1), np.zeros(prob.d2), 0)
    counts = []
    for _ in range(cfg.run["rounds"]):
        gathers.clear()
        state, _ = rabo_round(prob, state, run_cfg)
        assert len(set(gathers)) == len(gathers)
        counts.append(len(gathers))
    # each round forms one block per distinct set: one per client in 16
    # rounds, and 7 in the 4 rounds where two clients draw one set
    assert sorted(counts) == [7] * 4 + [8] * 16


def test_usage_exit_two(capsys):
    assert artifact_set.main([]) == 2
    assert "OUT" in capsys.readouterr().err
