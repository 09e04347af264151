"""tools/compare_artifacts.py on two small hand-built artifact trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"
spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
compare_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_artifacts)

HEADER = "round,grad_phi_sq,flops\n"


def write(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def summary(final_x, iqr, estimator="rafbo"):
    return json.dumps({
        "variants": {"est_a__seed_0": {"final_x": final_x,
                                       "estimator": estimator}},
        "stats": {"a": {"final_phi": {"iqr": iqr, "count": 2}}}})


@pytest.fixture
def trees(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    write(old, "v/a/rounds.csv", HEADER + "0,2.0,10\n1,4.0,10\n")
    write(new, "v/a/rounds.csv", HEADER + "0,2.0,10\n1,4.000000000002,10\n")
    write(old, "v/a/masks.csv", "round,client\n0,0\n")
    write(new, "v/a/masks.csv", "round,client\n0,1\n")
    write(old, "v/b/rounds.csv", HEADER + "0,1.0,7\n")
    write(new, "v/b/rounds.csv", HEADER + "0,1.0,7\n")
    write(old, "summary.json", summary([1.0, 3.0], 0.5))
    write(new, "summary.json", summary([1.0, 3.3], 0.5, "exact_aid"))
    write(old, "only_old.txt", "x")
    write(new, "only_new.txt", "y")
    return old, new


def test_report_lists_files_and_largest_differences(trees, capsys):
    old, new = trees
    assert compare_artifacts.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"only in {old}: only_old.txt" in out
    assert f"only in {new}: only_new.txt" in out
    assert "differ: v/a/masks.csv" in out
    assert "differ: v/a/rounds.csv" in out
    assert not any("v/b/rounds.csv" in line for line in out)
    assert "identical: 1 of 4 common files" in out
    assert "  grad_phi_sq: 5e-13 (line 3)" in out
    assert not any(line.startswith("  flops") for line in out)
    assert "  variants/est_a__seed_0/final_x: 0.0909 " \
        "(variants/est_a__seed_0/final_x[1])" in out
    assert "  variants/est_a__seed_0/estimator: changed " \
        "(variants/est_a__seed_0/estimator)" in out
    assert not any("iqr" in line for line in out)
    assert "  summary.json variants/*/final_x: 0.0909 " \
        "(summary.json variants/est_a__seed_0/final_x[1])" in out


def test_relative_difference():
    rel = compare_artifacts.relative
    assert rel(2.0, 2.0) == 0.0
    assert rel(float("nan"), float("nan")) == 0.0
    assert rel(0.0, 1.0) == 1.0
    assert rel(1.0, float("inf")) == float("inf")
    assert rel(-4.0, -5.0) == pytest.approx(0.2)
    assert rel("a", "b") == "changed"
    assert rel(True, 1) == "changed" and rel(True, True) == 0.0


def test_rows_present_on_one_side(tmp_path):
    table = compare_artifacts.compare_csv(
        (HEADER + "0,1.0,7\n").encode(), (HEADER + "0,1.0,7\n1,2.0,7\n").encode())
    assert table == {"<rows>": ("changed", "1 -> 2 data rows")}


def test_missing_directory_exits_two(tmp_path):
    assert compare_artifacts.main([str(tmp_path), str(tmp_path / "no")]) == 2
