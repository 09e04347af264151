"""tools/artifact_set.py: which runs make up the standard artifact set."""

import importlib.util
from pathlib import Path

import numpy as np

from rabosim.cli import build_problem, build_run_config, resolve_config
from rabosim.federation import GlobalState, rabo_round

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
        "static_lists", "rolling_lists", "topk_blocks", "sampled_sets",
        "one_outer"]
    assert docs["wide-quadratic-s5"]["problem"]["seed"] == 5
    for raw in docs.values():
        resolve_config(raw)


def test_sampled_sets_take_one_bt_product_per_client(monkeypatch):
    # the clients mostly draw their own perturbation sets, and each
    # round's implicit term still takes one product with the shared B^T,
    # over one distinct grad_y f row per client, whatever the sets
    cfg = resolve_config(artifact_set.SAMPLED_SETS)
    prob = build_problem(cfg.problem)
    b = prob.spec.b_mats[0]
    products, matvec = [], np.matvec
    monkeypatch.setattr(np, "matvec", lambda a, v: (
        a.base is b and products.append(len(v))) or matvec(a, v))
    run_cfg = build_run_config(cfg.run, prob.n, 1, "rafbo",
                               cfg.run["capacities"])
    state = GlobalState(np.zeros(prob.d1), np.zeros(prob.d2), 0)
    for _ in range(cfg.run["rounds"]):
        products.clear()
        state, _ = rabo_round(prob, state, run_cfg)
        assert products == [prob.n]


def test_usage_exit_two(capsys):
    assert artifact_set.main([]) == 2
    assert "OUT" in capsys.readouterr().err
