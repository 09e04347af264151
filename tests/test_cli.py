import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rabosim
from rabosim import federation, hypergrad, masking
from rabosim.cli import (
    FAMILIES,
    RUN_ARGUMENTS,
    apply_override,
    build_problem,
    build_run_config,
    compare_costs,
    main,
    parse_config,
    resolve_config,
    run_experiment,
)
from rabosim.errors import InvalidSpec, MissingBaseline, ParseError
from rabosim.federation import DOWNLOAD_MODES, GlobalState, RunConfig
from rabosim.hypergrad import EXACT_AID, RAFBO
from rabosim.masking import POLICIES
from rabosim.problems import (
    derive_constants,
    logistic,
    make_logistic_tune,
    make_quadratic,
    quadratic,
)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def small_quadratic_config(**run_overrides):
    run_cfg = {"alpha": 0.02, "beta": 0.2, "inner_epochs": 1, "rounds": 4,
               "capacities": "1"}
    run_cfg.update(run_overrides)
    return {"problem": {"family": "quadratic", "n": 2, "d1": 4, "d2": 4},
            "run": run_cfg}


# The resolved problem section of each family when the document sets only
# the family: its builder's keyword arguments and their defaults.
QUADRATIC_SECTION = {
    "family": "quadratic", "seed": 0, "n": 4, "d1": 10, "d2": 10,
    "hetero": 0.0, "noise_f": 0.0, "noise_g": 0.0, "eig_min": 1.0,
    "eig_max": 1.0, "lam": 0.5, "coupling": 0.5, "quartic": 0.0,
    "sine_amp": 0.0, "target_scale": 1.0, "ball_radius": 10.0,
}
LOGISTIC_SECTION = {
    "family": "logistic", "seed": 0, "n": 4, "imbalance_mu": 1.0,
    "classes": 4, "features": 5, "base_count": 100, "class_sep": 2.0,
}


def small_logistic_config():
    return {"problem": {"family": "logistic", "n": 2, "classes": 3,
                        "features": 3},
            "run": {"rounds": 2}}


def floats(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


POSITIVE = floats(0, 1e6, exclude_min=True)
NONNEGATIVE = floats(0, 1e6)
CAPACITY = st.integers(1, 8).flatmap(
    lambda q: st.integers(1, q).map(lambda p: f"{p}/{q}"))


@st.composite
def valid_documents(draw):
    """A config document whose every value lies inside the range tables."""
    family = draw(st.sampled_from(["quadratic", "logistic"]))
    n = draw(st.integers(1, 6))
    problem = {"family": family, "seed": draw(st.integers(0, 2 ** 32)),
               "n": n}
    if family == "quadratic":
        d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        eig_min = draw(POSITIVE)
        problem.update(
            d1=d1, d2=d2, eig_min=eig_min, eig_max=draw(floats(eig_min, 2e6)),
            coupling=draw(floats(-10, 10)),
            target_scale=draw(floats(-10, 10)),
            **{key: draw(NONNEGATIVE) for key in (
                "hetero", "noise_f", "noise_g", "lam", "quartic", "sine_amp",
                "ball_radius")})
    else:
        mu, classes = draw(floats(0.2, 1)), draw(st.integers(2, 5))
        features = draw(st.integers(1, 6))
        # at least one sample is left in the last class, and class 0 has
        # one for validation
        least = max(5, math.ceil(1 / mu ** (classes - 1)) + 1)
        problem.update(imbalance_mu=mu, classes=classes, features=features,
                       base_count=draw(st.integers(least, least + 500)),
                       class_sep=draw(floats(-10, 10)))
        d1, d2 = 2 * classes + 1, classes * features
    policy = draw(st.sampled_from(POLICIES))
    run = {
        "alpha": draw(POSITIVE), "beta": draw(POSITIVE),
        "inner_epochs": draw(st.integers(1, 10)),
        "rounds": draw(st.integers(0, 1000)),
        "estimator": draw(st.sampled_from([EXACT_AID, RAFBO])),
        "mu": draw(POSITIVE),
        "coord_fraction": draw(floats(0, 1, exclude_min=True)),
        # only magnitude_topk reads block_size
        "policy": policy, "block_size": draw(st.integers(1, 8))
        if policy == "magnitude_topk" else 1,
        "capacities": draw(st.one_of(
            CAPACITY, st.lists(CAPACITY, min_size=n, max_size=n))),
        "download_mode": draw(st.sampled_from(DOWNLOAD_MODES)),
        "theory_guard": family == "quadratic" and draw(st.booleans()),
        "batch_size_f": draw(st.integers(0, 50)),
        "batch_size_g": draw(st.integers(0, 50)),
        "divergence_factor": draw(POSITIVE),
        "log_masks": draw(st.booleans()),
        "seed": draw(st.integers(0, 1000)),
        "x0": draw(st.none() | st.lists(floats(-10, 10), min_size=d1,
                                        max_size=d1)),
        "y0": draw(st.none() | st.lists(floats(-10, 10), min_size=d2,
                                        max_size=d2)),
    }
    sweep = {"seeds": draw(st.lists(st.integers(0, 1000), min_size=1,
                                    max_size=3, unique=True))}
    if policy == "manual":
        sweep["manual_tables"] = [{level: draw(st.lists(
            st.lists(st.integers(0, d - 1), min_size=1, max_size=d,
                     unique=True),
            min_size=n, max_size=n)) for level, d in (("x", d1), ("y", d2))}]
    return {"problem": problem, "run": run, "sweep": sweep}


class TestParseConfig:
    def test_minimal_config_resolves_defaults(self, tmp_path):
        path = write_config(tmp_path, {"problem": {"family": "quadratic"}})
        cfg = parse_config(path)
        assert cfg.problem["n"] == 4
        assert cfg.run["alpha"] == 0.05
        assert cfg.run["capacities"] == "1"
        assert cfg.sweep["seeds"] == [0]

    @pytest.mark.parametrize("section", [QUADRATIC_SECTION, LOGISTIC_SECTION],
                             ids=["quadratic", "logistic"])
    def test_problem_defaults_are_pinned(self, section):
        # a builder default that drifts changes the echo; compared as JSON
        # text, so that 1.0 turning into 1 shows too
        problem = resolve_config(
            {"problem": {"family": section["family"]}}).problem
        assert json.dumps(problem, sort_keys=True) == \
            json.dumps(section, sort_keys=True)

    @pytest.mark.parametrize("family, shape", [
        ("quadratic", {"d1": 3, "d2": 5}),
        ("logistic", {"classes": 3, "features": 2})])
    def test_family_dims_match_the_built_problem(self, family, shape):
        problem = resolve_config(
            {"problem": {"family": family, "n": 2, **shape}}).problem
        built = build_problem(problem)
        assert FAMILIES[family][2](problem) == (built.d1, built.d2)

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"family": "quadratic"}, "run": {"alhpa": 0.1}})
        with pytest.raises(InvalidSpec) as err:
            parse_config(path)
        assert "alhpa" in str(err.value)
        assert err.value.key == "alhpa"

    def test_unknown_problem_key_named(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"family": "quadratic", "d3": 7}})
        with pytest.raises(InvalidSpec) as err:
            parse_config(path)
        assert err.value.key == "d3"

    def test_missing_family(self, tmp_path):
        path = write_config(tmp_path, {"problem": {"n": 3}})
        with pytest.raises(InvalidSpec) as err:
            parse_config(path)
        assert err.value.key == "family"

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError) as err:
            parse_config(path)
        assert str(path) in str(err.value) and "UTF-8" in str(err.value)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {err.value}\n"
        assert not (tmp_path / "out").exists()

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "problem": {\n')
        with pytest.raises(ParseError) as err:
            parse_config(path)
        assert err.value.line is not None
        assert err.value.column is not None

    def test_overrides_apply_in_order(self, tmp_path):
        path = write_config(tmp_path, small_quadratic_config())
        cfg = parse_config(path, ["run.alpha=0.5", "sweep.seeds=[3, 4]",
                                  "run.alpha=0.25"])
        assert cfg.run["alpha"] == 0.25
        assert cfg.sweep["seeds"] == [3, 4]

    def test_capacity_grid_round_trip(self, tmp_path):
        grid = ["1", "1/2", "1/4", "1/8", "1/16"]
        path = write_config(tmp_path, {
            "problem": {"family": "quadratic", "n": 5},
            "run": {"capacities": grid}})
        cfg = parse_config(path)
        assert cfg.run["capacities"] == grid
        # echo is a fixed point of resolution
        resolved_again = resolve_config(cfg.echo())
        assert resolved_again.echo() == cfg.echo()

    def test_decimal_capacity_normalizes_to_fraction(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"family": "quadratic"}, "run": {"capacities": 0.25}})
        cfg = parse_config(path)
        assert cfg.run["capacities"] == "1/4"
        assert resolve_config(cfg.echo()).echo() == cfg.echo()

    @settings(max_examples=200, deadline=None)
    @given(raw=valid_documents())
    def test_echo_is_fixed_point(self, raw):
        cfg = resolve_config(raw)
        echo = cfg.echo()
        assert resolve_config(json.loads(json.dumps(echo))).echo() == echo

    def test_bad_estimator(self, tmp_path):
        path = write_config(tmp_path, small_quadratic_config(estimator="aid2"))
        with pytest.raises(InvalidSpec):
            parse_config(path)

    def test_logistic_family_keys(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"family": "logistic", "imbalance_mu": 0.5,
                        "classes": 3, "base_count": 40}})
        cfg = parse_config(path)
        prob = build_problem(cfg.problem)
        assert prob.classes == 3


class TestApplyOverride:
    def test_override_run_value(self):
        raw = {"problem": {"family": "quadratic"}}
        apply_override(raw, "run.alpha=0.5")
        assert raw["run"]["alpha"] == 0.5

    def test_override_list_value(self):
        raw = {}
        apply_override(raw, "sweep.seeds=[1,2,3]")
        assert raw["sweep"]["seeds"] == [1, 2, 3]

    def test_override_string_value(self):
        raw = {}
        apply_override(raw, "run.estimator=rafbo")
        assert raw["run"]["estimator"] == "rafbo"

    def test_bad_override_section(self):
        with pytest.raises(InvalidSpec):
            apply_override({}, "nosection.key=1")


class TestRunExperiment:
    def test_sweep_produces_expected_artifacts(self, tmp_path):
        data = small_quadratic_config()
        data["sweep"] = {"seeds": [0, 1], "estimators": ["exact_aid", "rafbo"]}
        cfg = parse_config(write_config(tmp_path, data))
        result = run_experiment(cfg, tmp_path / "out")
        csvs = sorted((tmp_path / "out" / "variants").glob("*/rounds.csv"))
        assert len(csvs) == 4
        assert len(result.variants) == 4   # cartesian size
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out" / "config_echo.json").exists()

    @pytest.mark.parametrize("problem,run", [
        ({"noise_g": 0.1}, {"batch_size_g": 2}),
        # rafbo's perturbed lower gradients are one matrix product per
        # client; at a fixed thread count two runs still agree byte for byte
        ({"n": 3, "d1": 12, "d2": 10, "hetero": 0.3, "noise_g": 0.1,
          "quartic": 0.05, "eig_min": 0.8, "eig_max": 1.5},
         {"inner_epochs": 2, "capacities": "1/2", "estimator": "rafbo",
          "coord_fraction": 0.5, "batch_size_g": 2}),
    ], ids=["exact_aid", "rafbo_quartic"])
    def test_rerun_byte_identical(self, tmp_path, problem, run):
        data = small_quadratic_config(**run)
        data["problem"].update(problem)
        data["sweep"] = {"seeds": [0, 1]}
        cfg = parse_config(write_config(tmp_path, data))
        for name in ("a", "b"):
            assert not run_experiment(cfg, tmp_path / name).failures
        for name in ["summary.json", "config_echo.json"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        csvs = sorted((tmp_path / "a" / "variants").glob("*/rounds.csv"))
        assert len(csvs) == 2
        for csv_a in csvs:
            csv_b = tmp_path / "b" / "variants" / csv_a.parent.name / "rounds.csv"
            assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_rerun_into_used_dir_equals_fresh_run(self, tmp_path):
        # a rerun leaves no variant, masks.csv or cost_ratios.csv of the
        # run before it: its tree is a fresh directory's, byte for byte
        first = small_quadratic_config(rounds=2, log_masks=True)
        first["sweep"] = {"seeds": [0, 1], "estimators": ["exact_aid", "rafbo"]}
        first["output"] = {"compare_baseline": "est_exact_aid__cap1__seed_0"}
        second = small_quadratic_config(rounds=2)
        run_experiment(resolve_config(first), tmp_path / "used")
        for name in ("used", "fresh"):
            run_experiment(resolve_config(second), tmp_path / name)

        def tree(root):
            return {path.relative_to(root).as_posix():
                    path.read_bytes() if path.is_file() else None
                    for path in root.rglob("*")}

        assert tree(tmp_path / "used") == tree(tmp_path / "fresh")

    def test_echo_reparse_fixed_point(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, small_quadratic_config()))
        run_experiment(cfg, tmp_path / "out")
        echoed = json.loads((tmp_path / "out" / "config_echo.json").read_text())
        assert resolve_config(echoed).echo() == cfg.echo()

    def test_masks_csv_when_logging_enabled(self, tmp_path):
        data = small_quadratic_config(log_masks=True, rounds=2)
        cfg = parse_config(write_config(tmp_path, data))
        run_experiment(cfg, tmp_path / "out")
        masks = sorted((tmp_path / "out" / "variants").glob("*/masks.csv"))
        assert len(masks) == 1
        lines = masks[0].read_text().strip().split("\n")
        assert lines[0] == "round,level,client,mask_hex"
        assert len(lines) == 1 + 2 * 2 * 2   # rounds x levels x clients

    @pytest.mark.parametrize("vary", [False, True])
    def test_problem_builds_per_sweep(self, tmp_path, monkeypatch, vary):
        # one problem per sweep, or one per seed under vary_problem_seed;
        # the theory guard checks each once, and its advisory notes reach
        # every variant run on that problem
        from rabosim import cli
        built, derived = [], []

        def counting_build(problem_cfg, seed_override=None):
            built.append(seed_override)
            return build_problem(problem_cfg, seed_override)

        def counting_derive(problem):
            derived.append(problem)
            return derive_constants(problem)

        monkeypatch.setattr(cli, "build_problem", counting_build)
        monkeypatch.setattr(quadratic, "derive_constants", counting_derive)
        # coupling 10 puts a positive beta floor above beta 0.01
        data = small_quadratic_config(rounds=1, alpha=0.005, beta=0.01,
                                      theory_guard=True)
        data["problem"]["coupling"] = 10.0
        data["sweep"] = {"seeds": [0, 1, 2], "capacities": ["1", "1/2"],
                         "estimators": ["exact_aid", "rafbo"],
                         "vary_problem_seed": vary}
        result = run_experiment(resolve_config(data), tmp_path / "out")
        assert len(result.variants) == 12 and not result.failures
        assert built == ([0, 1, 2] if vary else [None])
        assert len(derived) == len(built)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for variant in summary["variants"].values():
            notes = variant["guard_notes"]
            assert len(notes) == 1 and "floor" in notes[0]

    def test_divergent_variant_does_not_abort_siblings(self, tmp_path):
        data = small_quadratic_config()
        data["run"]["rounds"] = 60
        data["run"]["divergence_factor"] = 1e4
        data["sweep"] = {"seeds": [0]}
        # alpha far beyond stability for one variant via override mechanism:
        # use two capacity entries, the diverging one driven by huge alpha
        data["run"]["alpha"] = 60.0
        data["run"]["beta"] = 1.9
        cfg = parse_config(write_config(tmp_path, data))
        result = run_experiment(cfg, tmp_path / "out")
        assert len(result.failures) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["failures"]


class TestCompareCosts:
    def build_sweep(self, tmp_path):
        data = small_quadratic_config()
        data["problem"]["d1"] = 8
        data["problem"]["d2"] = 8
        data["sweep"] = {"capacities": ["1", "1/2", "1/4"]}
        cfg = parse_config(write_config(tmp_path, data))
        return run_experiment(cfg, tmp_path / "out")

    def test_baseline_ratio_one_and_fraction_ratios(self, tmp_path):
        result = self.build_sweep(tmp_path)
        baseline = "est_exact_aid__cap1__seed_0"
        rows = {r["variant"]: r for r in compare_costs(result, baseline)}
        assert rows[baseline]["comm_ratio"] == 1.0
        assert rows[baseline]["compute_ratio"] == 1.0
        assert rows["est_exact_aid__cap1-2__seed_0"]["comm_ratio"] == 0.5
        assert rows["est_exact_aid__cap1-4__seed_0"]["comm_ratio"] == 0.25

    def test_rafbo_compute_ratio_below_one(self, tmp_path):
        data = small_quadratic_config()
        data["sweep"] = {"estimators": ["exact_aid", "rafbo"]}
        cfg = parse_config(write_config(tmp_path, data))
        result = run_experiment(cfg, tmp_path / "out")
        rows = {r["variant"]: r
                for r in compare_costs(result, "est_exact_aid__cap1__seed_0")}
        assert rows["est_rafbo__cap1__seed_0"]["compute_ratio"] < 1.0

    def test_missing_baseline(self, tmp_path):
        result = self.build_sweep(tmp_path)
        with pytest.raises(MissingBaseline):
            compare_costs(result, "est_exact_aid__cap9__seed_0")

    def test_zero_cost_baseline_is_missing(self, tmp_path):
        # resolve_config rejects a baseline option over 0 rounds, but a
        # library caller can still name one after the run
        cfg = resolve_config(small_quadratic_config(rounds=0))
        result = run_experiment(cfg, tmp_path / "out")
        baseline = "est_exact_aid__cap1__seed_0"
        with pytest.raises(MissingBaseline, match=baseline):
            compare_costs(result, baseline)

    def test_ratio_csv_emitted(self, tmp_path):
        data = small_quadratic_config()
        data["sweep"] = {"capacities": ["1", "1/2"]}
        data["output"] = {"compare_baseline": "est_exact_aid__cap1__seed_0"}
        cfg = parse_config(write_config(tmp_path, data))
        run_experiment(cfg, tmp_path / "out")
        text = (tmp_path / "out" / "cost_ratios.csv").read_text()
        assert text.startswith("variant,compute_ratio,comm_ratio")


class TestMainEntry:
    def test_success_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, small_quadratic_config())
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "variant" in capsys.readouterr().out

    def test_seeds_flag_expands_sweep(self, tmp_path):
        path = write_config(tmp_path, small_quadratic_config())
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--seeds", "3,4,5"])
        assert code == 0
        assert len(list((tmp_path / "out" / "variants").iterdir())) == 3

    def test_override_flag(self, tmp_path):
        path = write_config(tmp_path, small_quadratic_config())
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--override", "run.rounds=2"])
        assert code == 0
        csv = next((tmp_path / "out" / "variants").glob("*/rounds.csv"))
        assert len(csv.read_text().strip().split("\n")) == 3

    def test_config_error_exit_two(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"family": "quadratic"}, "run": {"alhpa": 1}})
        assert main(["run", str(path)]) == 2

    def test_replication_mode_key_rejected(self, tmp_path, capsys):
        data = small_quadratic_config(capacities="1/3", replication_mode=True)
        path = write_config(tmp_path, data)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "replication_mode" in capsys.readouterr().err

    def test_bad_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_bad_json_one_message_through_both_paths(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": ')
        with pytest.raises(ParseError) as err:
            parse_config(path)
        assert "line 1 column 13" in str(err.value)
        assert (err.value.line, err.value.column) == (1, 13)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {err.value}\n"

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_divergence_exit_three(self, tmp_path, capsys):
        data = small_quadratic_config(rounds=60, alpha=60.0, beta=1.9)
        data["run"]["divergence_factor"] = 1e4
        path = write_config(tmp_path, data)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "failed" in capsys.readouterr().err

    def test_non_finite_iterate_exit_three(self, tmp_path, capsys):
        # a huge outer step drives the iterates to NaN; the run must fail
        # instead of exiting 0 with non-finite final iterates
        data = {"problem": {"family": "logistic", "n": 2, "classes": 3,
                            "features": 3},
                "run": {"alpha": 1e5, "estimator": "rafbo", "rounds": 5}}
        path = write_config(tmp_path, data)
        with np.errstate(all="ignore"):
            code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "failed" in err and "non-finite" in err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["failures"]) == 1

    def test_singular_restricted_hessian_exit_three(self, tmp_path, capsys):
        # a log-regularization of -800 underflows the l2 coefficient to 0,
        # and the softmax Hessian alone is singular: exact_aid fails, and
        # rafbo, which solves nothing, still runs
        data = {"problem": {"family": "logistic", "n": 2, "classes": 3,
                            "features": 4},
                "run": {"rounds": 2, "x0": [0, 0, 0, 0, 0, 0, -800]},
                "sweep": {"seeds": [0, 1],
                          "estimators": ["exact_aid", "rafbo"]}}
        path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "round 0: client 0: restricted inner Hessian" in err
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary["failures"]) == [
            "est_exact_aid__cap1__seed_0", "est_exact_aid__cap1__seed_1"]
        for seed in (0, 1):
            assert (out / "variants" / f"est_rafbo__cap1__seed_{seed}"
                    / "rounds.csv").exists()
            assert (out / "variants" / f"est_exact_aid__cap1__seed_{seed}"
                    / "rounds.csv").read_text().count("\n") == 1

    @pytest.mark.parametrize("flags,key", [
        (["--seeds", "a"], "seeds"),
        (["--override", "run.rounds=2.5"], "rounds"),
        (["--override", 'run.rounds="5"'], "rounds"),
        (["--override", "run.alpha=NaN"], "alpha"),
        (["--override", "run.beta=Infinity"], "beta"),
        (["--override", "problem.n=true"], "n"),
        (["--override", "run.theory_guard=1"], "theory_guard"),
        (["--override", "run.estimator=7"], "estimator"),
        (["--override", "run.x0=[1, NaN, 0, 0]"], "x0"),
        (["--override", "sweep.seeds=[0, 1.5]"], "seeds"),
        (["--override", "output.dir=5"], "dir"),
        (["--override", "run.coord_fraction=0"], "coord_fraction"),
        (["--override", "run.coord_fraction=1.5"], "coord_fraction"),
        (["--override", "run.mu=0"], "mu"),
        (["--override", "run.mu=-1"], "mu"),
        (["--override", "run.block_size=0"], "block_size"),
        (["--override", 'run.policy="bogus"'], "policy"),
        (["--override", "run.x0=[1, 2]"], "x0"),
        (["--override", "run.y0=[1]"], "y0"),
        (["--override", "run.divergence_factor=0"], "divergence_factor"),
        (["--override", "run.divergence_factor=-1"], "divergence_factor"),
        (["--override", "run.workers=2"], "workers"),
        # manual tables are set in sweep.manual_tables only
        (["--override", "run.manual_x=[[0, 1], [2, 3]]"], "manual_x"),
        (["--override", "run.manual_y=[[0, 1], [2, 3]]"], "manual_y"),
        # a manual table under the default "rolling" policy has no effect
        (["--override", 'sweep.manual_tables=[{"x": [[0, 1], [2, 3]], '
          '"y": [[0], [1]]}, {"x": [[0, 1], [0, 1]], "y": [[0], [1]]}]'],
         "manual_tables"),
        # out of range, caught before anything is written
        (["--override", "run.alpha=0"], "alpha"),
        (["--override", "run.beta=-1"], "beta"),
        (["--override", "run.inner_epochs=0"], "inner_epochs"),
        (["--override", "run.rounds=-1"], "rounds"),
        (["--override", "run.batch_size_f=-1"], "batch_size_f"),
        (["--override", "run.batch_size_g=-1"], "batch_size_g"),
        (["--override", 'run.download_mode="bogus"'], "download_mode"),
        (["--override", 'run.capacities=["1", "1", "1"]'], "capacities"),
        (["--override", 'sweep.capacities=[["1/2", "1", "1"]]'],
         "capacities"),
        (["--override", "problem.hetero=-1"], "hetero"),
        (["--override", "problem.lam=-1"], "lam"),
        (["--override", "problem.noise_f=-1"], "noise_f"),
        (["--override", "problem.noise_g=-1"], "noise_g"),
        (["--override", "problem.quartic=-1"], "quartic"),
        (["--override", "problem.sine_amp=-1"], "sine_amp"),
        (["--override", "problem.eig_min=0"], "eig_min"),
        (["--override", "problem.eig_max=0.5"], "eig_max"),
        (["--override", "problem.n=0"], "n"),
        (["--override", "problem.d1=0"], "d1"),
        (["--override", "problem.d2=0"], "d2"),
        (["--override", "problem.imbalance_mu=0"], "imbalance_mu"),
        (["--override", "problem.imbalance_mu=1.5"], "imbalance_mu"),
        (["--override", "problem.classes=1"], "classes"),
        (["--override", "problem.base_count=0"], "base_count"),
        # floor(5 * 0.4^2) leaves class 2 empty
        (["--override", "problem.base_count=5",
          "--override", "problem.imbalance_mu=0.4"], "base_count"),
        (["--override", "problem.ball_radius=-1"], "ball_radius"),
        # the step-size bounds come from the quadratic family's constants
        (["--override", "run.theory_guard=true",
          "--override", "problem.classes=2"], "theory_guard"),
        # caught before anything is written, not by the first variant's run
        (["--override", "run.theory_guard=true",
          "--override", "run.alpha=10"], "alpha"),
        (["--override", "run.theory_guard=true", "--override", "run.beta=10",
          "--override", "sweep.vary_problem_seed=true"], "beta"),
        (["--override", 'output.compare_baseline="est_nope"'],
         "compare_baseline"),
        # a repeated sweep entry would give two variants one key
        (["--seeds", "0,0"], "seeds"),
        (["--override", 'sweep.estimators=["rafbo", "rafbo"]'], "estimators"),
        # "1/2" and 0.5 are one capacity
        (["--override", 'sweep.capacities=["1/2", 0.5]'], "capacities"),
        # a scalar 1 and the per-client list at index 1 share the label cap1
        (["--override", 'sweep.capacities=["1", ["1/2", "1/2"]]'],
         "capacities"),
        # a case that opens with a document runs it in place of the small
        # config; a document of the wrong shape is named, not a traceback
        ([{"problem": {"family": "quadratic"}, "run": 5}], "run"),
        ([{"problem": {"family": "quadratic"}, "output": [1]}], "output"),
        ([{"problem": "quadratic"}], "problem"),
        ([[1], "--override", "run.alpha=1"], "<root>"),
        ([{"problem": {"family": ["quadratic"]}}], "family"),
        (["--override", "sweep.capacities=3"], "capacities"),
        (["--override", "run.policy=manual",
          "--override", "sweep.manual_tables=3"], "manual_tables"),
        (["--override", "run.policy=manual",
          "--override", "sweep.manual_tables=[]"], "manual_tables"),
        # a capacities list has one entry per client; the scalar is shared
        (["--override", 'run.capacities=["1/2"]'], "capacities"),
        (["--override", 'sweep.capacities=["1/2", ["1/2"]]'], "capacities"),
        # only magnitude_topk ranks blocks
        (["--override", "run.block_size=2"], "block_size"),
        (["--override", "run.policy=static",
          "--override", "run.block_size=4"], "block_size"),
        # the manual policy reads its tables from sweep.manual_tables only
        (["--override", "run.policy=manual"], "policy"),
        # an empty sweep list would run no variant and still exit 0
        (["--override", "sweep.seeds=[]"], "seeds"),
        # an empty --seeds used to be ignored: the sweep's seeds all ran
        (["--seeds", ""], "seeds"),
        # true used to run as capacity 1, false to fail as capacity 0
        (["--override", "run.capacities=true"], "run.capacities"),
        (["--override", 'run.capacities=["1/2", true]'], "run.capacities"),
        (["--override", "sweep.capacities=[true]"], "sweep.capacities"),
        (["--override", "sweep.estimators=[]"], "estimators"),
        (["--override", "sweep.capacities=[]"], "capacities"),
        # a run of 0 rounds has no cost to compare against
        (["--override", "run.rounds=0", "--override",
          'output.compare_baseline="est_exact_aid__cap1__seed_0"'],
         "compare_baseline"),
        # an integer past the float range used to raise OverflowError
        (["--override", "run.alpha=1" + "0" * 400], "alpha"),
        (["--override", "problem.lam=-1" + "0" * 400], "lam"),
    ])
    def test_mistyped_value_exit_two_names_key(self, tmp_path, capsys,
                                                flags, key):
        # flags that set a logistic-only problem key apply to a logistic
        # problem
        logistic = {f"problem.{k}" for k
                    in LOGISTIC_SECTION.keys() - QUADRATIC_SECTION.keys()}
        if not isinstance(flags[0], str):
            data, flags = flags[0], flags[1:]
        elif any(f.partition("=")[0] in logistic for f in flags):
            data = small_logistic_config()
        else:
            data = small_quadratic_config()
        path = write_config(tmp_path, data)
        code = main(["run", str(path), "--out", str(tmp_path / "out")] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"'{key}'" in err or f".{key}" in err
        assert not (tmp_path / "out").exists()

    def test_float_entry_accepts_integer_literal(self, tmp_path):
        path = write_config(tmp_path, small_quadratic_config(rounds=1))
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--override", "run.alpha=1"])
        assert code == 0

    def test_formats_is_unknown_key(self, tmp_path, capsys):
        # runs always write CSV and JSON; the option that chose is gone
        data = small_quadratic_config()
        data["output"] = {"formats": ["csv"]}
        path = write_config(tmp_path, data)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'formats' in section 'output'" in err
        assert not (tmp_path / "out").exists()

    def test_outer_divergence_names_alpha_and_x(self, tmp_path, capsys):
        # round 0's outer step pushes ||x|| to ~4e4; the inner blow-up in
        # round 1 must be reported with the outer step that caused it
        data = {"problem": {"family": "logistic", "n": 2, "classes": 3,
                            "features": 3},
                "run": {"alpha": 1e5, "estimator": "rafbo", "rounds": 5}}
        path = write_config(tmp_path, data)
        with np.errstate(all="ignore"):
            code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "beta 0.1" in err and "too large?" not in err
        assert "alpha 100000.0" in err
        norm = float(err.split("||x|| = ")[1].split()[0].rstrip(","))
        assert 1e4 < norm < 1e5

    def test_divergence_stderr_holds_only_the_failure(self, tmp_path):
        # the overflow that makes the inner gradient NaN is reported by the
        # divergence guard alone, without numpy RuntimeWarnings before it
        data = {"problem": {"family": "logistic", "n": 2, "classes": 3,
                            "features": 3},
                "run": {"alpha": 1e5, "estimator": "rafbo", "rounds": 5}}
        path = write_config(tmp_path, data)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(rabosim.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "rabosim.cli", "run", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == (
            "variant est_rafbo__cap1__seed_0 failed: round 1: client 0: "
            "||y|| = nan is non-finite at inner epoch 0 with beta 0.1; "
            "client outer iterate ||x|| = 5.306e+04 after steps of alpha "
            "100000.0\n")

    @staticmethod
    def demo_run(tmp_path, *overrides):
        """``rabosim run configs/demo_sweep.json`` for seed 0 and 2 rounds,
        in a subprocess so that stderr holds everything the run prints."""
        demo = Path(__file__).resolve().parents[1] / "configs" \
            / "demo_sweep.json"
        flags = ["--seeds", "0", "--override", "run.rounds=2", "--override",
                 "output.compare_baseline=null"]
        for entry in overrides:
            flags += ["--override", entry]
        env = dict(os.environ,
                   PYTHONPATH=str(Path(rabosim.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "rabosim.cli", "run", str(demo), "--out",
             str(tmp_path / "out")] + flags,
            capture_output=True, text=True, env=env, timeout=120)

    @pytest.mark.parametrize("entry", [
        "problem.coupling=1e300", "problem.quartic=1e308"])
    def test_non_finite_oracle_exit_three(self, tmp_path, entry):
        # round 0's outer step is finite, but the oracle solve at the new x
        # overflows; each such variant fails naming the round and the
        # oracle value instead of the run ending in a traceback (exact_aid
        # under the quartic term is caught by the inner guard in round 1)
        proc = self.demo_run(tmp_path, entry)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 6
        oracle = [line for line in lines if " failed: round 0: oracle y_star"
                  "(x) is non-finite at ||x|| = " in line]
        assert all(line.startswith("variant est_") and " failed: round "
                   in line for line in lines)
        assert len(oracle) == (6 if "coupling" in entry else 3)
        assert "||x|| = inf" not in proc.stderr
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["failures"]) == 6

    def test_overflowing_outer_aggregate_exit_three_without_warning(
            self, tmp_path):
        # the clients' hypergradients are finite but their sum overflows;
        # the finite-iterate check reports it, and numpy's overflow warning
        # used to reach stderr before the failures
        proc = self.demo_run(tmp_path, "problem.lam=1e308")
        assert proc.returncode == 3
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("variant est_") for line in lines)

    @pytest.mark.parametrize("entry", [
        "run.x0=[1e308,0,0,0,0,0,0,0]", "run.y0=[1e200,0,0,0,0,0,0,0]"])
    def test_huge_start_exit_three_without_warning(self, tmp_path, entry):
        # the start is finite, but the square of its norm overflows in the
        # divergence cap, whose numpy warning used to reach stderr first
        proc = self.demo_run(tmp_path, entry)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("variant est_") and " failed: round 0: "
                   in line for line in lines)

    @pytest.mark.parametrize("key", [
        "eig_max", "coupling", "hetero", "target_scale"])
    def test_overflowing_problem_exit_two_names_key(self, tmp_path, key):
        # the blocks or targets the value scales, or the client means the
        # problem forms of them, overflow while the problem is built
        proc = self.demo_run(tmp_path, f"problem.{key}=1e308")
        assert proc.returncode == 2
        assert proc.stderr == (
            f"config error: problem.{key} must keep the problem's entries "
            f"and their client means finite, got 1e+308\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("run_entry,tables,key", [
        ({}, [{"x": [[0, 1], [2, 9]], "y": [[0, 1], [2, 3]]}],
         "manual_tables"),
        # the run section takes no table, even under the manual policy
        ({"manual_x": [[0, 1], [2, 3]], "manual_y": [[0], [1]]},
         [{"x": [[0, 1], [2, 3]], "y": [[0], [1]]}], "manual_x"),
        ({}, [{"x": [[0], [1]], "y": [[0], [-1]]}], "manual_tables"),
        ({}, [{"x": [[0]], "y": [[0], [1]]}], "manual_tables"),
        # every capacity is positive, so every client trains a coordinate
        ({"estimator": "rafbo"}, [{"x": [[0, 1], []], "y": [[0], [1]]}],
         "manual_tables"),
        ({}, [{"x": [[0, 1], [2, 3]], "y": [[0, 1], []]}], "manual_tables"),
        # a row past the last client belongs to no client
        ({}, [{"x": [[0, 1], [2, 3], [0]], "y": [[0], [1]]}],
         "manual_tables"),
    ], ids=["sweep-table", "run-x", "sweep-y-negative", "sweep-x-short",
            "sweep-x-empty-row-rafbo", "sweep-y-empty-row", "sweep-x-long"])
    def test_manual_table_out_of_range_exit_two(self, tmp_path, capsys,
                                                run_entry, tables, key):
        data = small_quadratic_config(policy="manual", capacities="1/2",
                                      **run_entry)
        data["sweep"] = {"seeds": [0, 1], "manual_tables": tables}
        path = write_config(tmp_path, data)
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out" / "variants").exists()

    def test_diverged_baseline_exit_three_without_ratios(self, tmp_path,
                                                         capsys):
        data = small_quadratic_config(rounds=60, alpha=60.0, beta=1.9,
                                      divergence_factor=1e4)
        data["output"] = {"compare_baseline": "est_exact_aid__cap1__seed_0"}
        path = write_config(tmp_path, data)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "variant est_exact_aid__cap1__seed_0 failed" in \
            capsys.readouterr().err
        assert (tmp_path / "out" / "summary.json").exists()
        assert not (tmp_path / "out" / "cost_ratios.csv").exists()

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        # --out, else output.dir, else rabosim-out in the working directory
        monkeypatch.chdir(tmp_path)
        data = small_quadratic_config(rounds=1)
        bare = write_config(tmp_path, data, "bare.json")
        data["output"] = {"dir": str(tmp_path / "from-config")}
        with_dir = write_config(tmp_path, data, "with-dir.json")
        for argv, out in (
                ([str(with_dir), "--out", str(tmp_path / "from-flag")],
                 "from-flag"),
                ([str(with_dir)], "from-config"),
                ([str(bare)], "rabosim-out")):
            assert main(["run"] + argv) == 0
            assert (tmp_path / out / "summary.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
            "from-config", "from-flag", "rabosim-out"]


# owner -> (range table, constructor); every run setting is RunConfig's
RANGE_OWNERS = {
    "federation": (federation.RANGES, RunConfig),
    "hypergrad": (hypergrad.RANGES, RunConfig),
    "masking": (masking.RANGES, RunConfig),
    "quadratic": (quadratic.RANGES, make_quadratic),
    "logistic": (logistic.RANGES, make_logistic_tune),
}
# One value outside each tabled range, and what the error says it must be.
OUT_OF_RANGE = {
    "alpha": (0, "positive"), "beta": (-1.5, "positive"),
    "inner_epochs": (0, "at least 1"), "rounds": (-1, "nonnegative"),
    "batch_size_f": (-1, "nonnegative"), "batch_size_g": (-2, "nonnegative"),
    "divergence_factor": (0, "positive"),
    "download_mode": ("bogus", "one of masked, full"),
    "estimator": ("bogus", "one of exact_aid, rafbo"),
    "mu": (-1e-3, "positive"), "coord_fraction": (1.5, "in (0, 1]"),
    "policy": ("bogus", "one of static, rolling, magnitude_topk, manual"),
    "block_size": (0, "at least 1"), "n": (0, "at least 1"),
    "d1": (0, "at least 1"), "d2": (0, "at least 1"),
    "hetero": (-1, "nonnegative"), "noise_f": (-1, "nonnegative"),
    "noise_g": (-0.5, "nonnegative"), "lam": (-1, "nonnegative"),
    "quartic": (-1, "nonnegative"), "sine_amp": (-1, "nonnegative"),
    "eig_min": (0, "positive"), "ball_radius": (-1, "nonnegative"),
    "imbalance_mu": (0, "in (0, 1]"), "classes": (1, "at least 2"),
    "features": (0, "at least 1"), "base_count": (4, "at least 5"),
}


@pytest.mark.parametrize("owner,key", [
    (owner, key) for owner, (table, _) in RANGE_OWNERS.items()
    for key in table])
def test_range_rule_holds_at_both_boundaries(tmp_path, capsys, owner, key):
    # each row of each owner's table: the CLI exits 2 before writing, and
    # the owner's constructor raises InvalidSpec naming the same key
    construct = RANGE_OWNERS[owner][1]
    bad, want = OUT_OF_RANGE[key]
    section = "run" if key in RUN_ARGUMENTS else "problem"
    data = small_logistic_config() if owner == "logistic" \
        else small_quadratic_config()
    path = write_config(tmp_path, data)
    code = main(["run", str(path), "--out", str(tmp_path / "out"),
                 "--override", f"{section}.{key}={json.dumps(bad)}"])
    assert code == 2
    assert capsys.readouterr().err == \
        f"config error: {section}.{key} must be {want}, got {bad!r}\n"
    assert not (tmp_path / "out").exists()
    with pytest.raises(InvalidSpec) as err:
        construct(**{key: bad})
    assert err.value.key == key


TWO_CLIENT_TABLES = {"x": [[0, 1], [2, 3]], "y": [[0, 1], [2, 3]]}
EMPTY_ROW_TABLES = {"x": [[0, 1], [2, 3]], "y": [[0, 1], []]}
# rule -> (RunConfig settings, overrides of the small config, the key, the
# name the CLI's message gives the setting)
CROSS_KEY_RULES = {
    "block-size-outside-topk": (
        {"block_size": 3}, ["run.block_size=3"], "block_size",
        "run.block_size"),
    "manual-without-tables": (
        {"policy": "manual"}, ["run.policy=manual"], "policy", "run.policy"),
    "tables-outside-manual": (
        {"manual_tables": TWO_CLIENT_TABLES},
        [f"sweep.manual_tables={json.dumps([TWO_CLIENT_TABLES])}"],
        "manual_tables", "sweep.manual_tables"),
    "empty-table-row": (
        {"policy": "manual", "manual_tables": EMPTY_ROW_TABLES},
        ["run.policy=manual",
         f"sweep.manual_tables={json.dumps([EMPTY_ROW_TABLES])}"],
        "manual_tables", "sweep.manual_tables[0].y"),
    "zero-capacity": (
        {"capacities": 0}, ["run.capacities=0"], "capacities",
        "run.capacities"),
    "unparsable-capacity": (
        {"capacities": ["1/2", "abc"]}, ['run.capacities=["1/2", "abc"]'],
        "capacities", "run.capacities"),
}




def manual_rule(table: dict, level: str = "") -> tuple:
    """A FIT_RULES entry for a manual table that breaks a rule at
    ``level`` ("" for the entry itself)."""
    return ({"policy": "manual", "manual_tables": table},
            ["run.policy=manual", f"sweep.manual_tables={json.dumps([table])}"],
            "manual_tables", f"sweep.manual_tables[0]{level}")


# The rules that fit a run to the small config's problem (n = 2, d1 = d2
# = 4), in the same form as CROSS_KEY_RULES
FIT_RULES = {
    "capacities-count": (
        {"capacities": ["1"] * 3}, ['run.capacities=["1", "1", "1"]'],
        "capacities", "run.capacities"),
    "sweep-capacities-count": (
        {"capacities": ["1"] * 3}, ['sweep.capacities=[["1", "1", "1"]]'],
        "capacities", "sweep.capacities"),
    "table-rows": manual_rule(
        {**TWO_CLIENT_TABLES, "x": [[0], [1], [2]]}, ".x"),
    "table-index-range": manual_rule(
        {**TWO_CLIENT_TABLES, "x": [[0], [4]]}, ".x"),
    # a float index used to be truncated, and a bool to run as 0 or 1
    "float-entry": manual_rule({**TWO_CLIENT_TABLES, "x": [[0.5], [1]]}, ".x"),
    "bool-entry": manual_rule({**TWO_CLIENT_TABLES, "y": [[True], [1]]}, ".y"),
    # a table with no y level used to end in a TypeError, and an extra
    # level used to run
    "missing-level": manual_rule({"x": TWO_CLIENT_TABLES["x"]}),
    "extra-level": manual_rule({**TWO_CLIENT_TABLES, "Y": [[2], [2]]}),
    # the ledger charged the row's popcount, a row-length count its length
    "repeated-index": manual_rule(
        {**TWO_CLIENT_TABLES, "x": [[0, 0], [1]]}, ".x"),
    # a short x0 used to fail naming no setting, a non-finite one to run
    # until the divergence guard stopped it
    "x0-length": ({"x0": [0.0] * 3}, ["run.x0=[0, 0, 0]"], "x0", "run.x0"),
    "y0-length": ({"y0": [0.0] * 5}, ["run.y0=[0, 0, 0, 0, 0]"], "y0",
                  "run.y0"),
    "non-finite-x0": ({"x0": [math.nan, 0.0, 0.0, 0.0]},
                      ["run.x0=[NaN, 0, 0, 0]"], "x0", "run.x0"),
}


def assert_cli_rejects(tmp_path, capsys, overrides, key, name):
    """The small config with ``overrides`` exits 2 naming ``name`` before
    anything is written, and resolving it raises InvalidSpec with
    ``key``."""
    path = write_config(tmp_path, small_quadratic_config())
    flags = [flag for spec in overrides for flag in ("--override", spec)]
    code = main(["run", str(path), "--out", str(tmp_path / "out")] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(InvalidSpec) as resolved:
        parse_config(path, overrides)
    assert resolved.value.key == key


@pytest.mark.parametrize("rule", CROSS_KEY_RULES)
def test_run_rule_holds_in_library_and_cli(tmp_path, capsys, rule):
    # RunConfig and resolve_config share each rule: the constructor raises
    # InvalidSpec with the rule's key, and the CLI exits 2 naming it
    settings, overrides, key, name = CROSS_KEY_RULES[rule]
    with pytest.raises(InvalidSpec) as err:
        RunConfig(**settings)
    assert err.value.key == key
    assert_cli_rejects(tmp_path, capsys, overrides, key, name)


@pytest.mark.parametrize("rule", FIT_RULES)
def test_fit_rule_holds_in_library_and_cli(tmp_path, capsys, rule):
    # run, rabo_round and resolve_config share each rule that fits a run
    # to its problem: the library raises InvalidSpec with the rule's key,
    # and the CLI exits 2 naming the entry
    settings, overrides, key, name = FIT_RULES[rule]
    problem = make_quadratic(n=2, d1=4, d2=4)
    for call in (lambda cfg: federation.run(problem, cfg),
                 lambda cfg: federation.rabo_round(
                     problem, GlobalState(np.zeros(4), np.zeros(4)), cfg)):
        with pytest.raises(InvalidSpec) as err:
            call(RunConfig(**settings))
        assert err.value.key == key
    assert_cli_rejects(tmp_path, capsys, overrides, key, name)


def test_run_section_is_run_config(tmp_path):
    # the run section's keys and defaults are RunConfig's fields but the
    # manual tables, plus the theory guard; a resolved section builds the
    # RunConfig a library caller gets from the same settings
    fields = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    assert RUN_ARGUMENTS.keys() - fields.keys() == {"theory_guard"}
    assert fields.keys() - RUN_ARGUMENTS.keys() == {"manual_tables"}
    cfg = resolve_config({"problem": {"family": "quadratic"}})
    assert {k: v for k, v in cfg.run.items() if k != "theory_guard"} == {
        k: v for k, v in fields.items() if k != "manual_tables"}
    built = build_run_config(cfg.run, 4, 0, EXACT_AID, "1")
    assert built == RunConfig()


def test_manual_table_sweep_pins_coverage(tmp_path):
    # two pinning tables in one sweep: uniform double cover vs skewed cover
    blocks = [[0, 1], [2, 3]]
    full_y = [[0, 1, 2, 3], [0, 1, 2, 3]]
    data = {
        "problem": {"family": "quadratic", "n": 2, "d1": 4, "d2": 4},
        "run": {"alpha": 0.02, "beta": 0.2, "rounds": 3, "policy": "manual",
                "capacities": "1/2"},
        "sweep": {"manual_tables": [
            {"x": blocks, "y": full_y},                 # C*_x = 1
            {"x": [[0, 1], [0, 1]], "y": full_y},       # C*_x = 2 on coords 0,1
        ]},
    }
    cfg = parse_config(write_config(tmp_path, data))
    result = run_experiment(cfg, tmp_path / "out")
    assert len(result.variants) == 2
    c_stars = {key: v.summary["c_star_x"] for key, v in result.variants.items()}
    assert c_stars["est_exact_aid__cap1-2__tbl0__seed_0"] == 1
    assert c_stars["est_exact_aid__cap1-2__tbl1__seed_0"] == 2


def test_manual_table_sweep_validation(tmp_path):
    data = {"problem": {"family": "quadratic"},
            "sweep": {"manual_tables": [{"x": [[0]]}]}}
    with pytest.raises(InvalidSpec) as err:
        parse_config(write_config(tmp_path, data))
    assert err.value.key == "manual_tables"


def test_logistic_family_end_to_end(tmp_path):
    data = {"problem": {"family": "logistic", "n": 2, "imbalance_mu": 0.5,
                        "classes": 3, "features": 3, "base_count": 30},
            "run": {"alpha": 0.5, "beta": 0.2, "inner_epochs": 2, "rounds": 3,
                    "capacities": "1"}}
    cfg = parse_config(write_config(tmp_path, data))
    result = run_experiment(cfg, tmp_path / "out")
    assert not result.failures
    csv = next((tmp_path / "out" / "variants").glob("*/rounds.csv"))
    row = csv.read_text().strip().split("\n")[1].split(",")
    assert row[1] == "nan"      # oracle columns are sentinels for logistic


def test_logistic_exact_aid_rerun_byte_identical(tmp_path):
    # the logistic inner Hessian goes through BLAS; at a fixed thread
    # count two runs of the same config must still agree byte for byte
    data = {"problem": {"family": "logistic", "n": 3, "imbalance_mu": 0.7,
                        "classes": 4, "features": 5, "base_count": 40},
            "run": {"alpha": 0.5, "beta": 0.2, "inner_epochs": 2, "rounds": 4,
                    "capacities": "1/2", "policy": "magnitude_topk",
                    "estimator": "exact_aid", "batch_size_g": 16},
            "sweep": {"seeds": [0, 1]}}
    cfg = parse_config(write_config(tmp_path, data))
    for name in ("a", "b"):
        result = run_experiment(cfg, tmp_path / name)
        assert not result.failures
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()
    csvs = sorted((tmp_path / "a" / "variants").glob("*/rounds.csv"))
    assert len(csvs) == 2
    for csv_a in csvs:
        csv_b = tmp_path / "b" / "variants" / csv_a.parent.name / "rounds.csv"
        assert csv_a.read_bytes() == csv_b.read_bytes()


def test_stats_median_over_seeds(tmp_path):
    data = small_quadratic_config()
    data["problem"]["noise_f"] = 0.05
    data["run"]["batch_size_f"] = 1
    data["sweep"] = {"seeds": [0, 1, 2]}
    cfg = parse_config(write_config(tmp_path, data))
    result = run_experiment(cfg, tmp_path / "out")
    group = result.stats["exact_aid__cap1"]
    assert group["final_grad_phi_sq"]["count"] == 3
    values = [v.summary["final_grad_phi_sq"] for v in result.variants.values()]
    assert group["final_grad_phi_sq"]["median"] == pytest.approx(
        float(np.median(values)))
