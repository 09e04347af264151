"""tools/artifact_set.py: which runs make up the standard artifact set."""

import importlib.util
from pathlib import Path

from rabosim.cli import resolve_config

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
        "static_lists", "topk_blocks"]
    assert docs["wide-quadratic-s5"]["problem"]["seed"] == 5
    for raw in docs.values():
        resolve_config(raw)


def test_usage_exit_two(capsys):
    assert artifact_set.main([]) == 2
    assert "OUT" in capsys.readouterr().err
