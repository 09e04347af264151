import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rabosim
from rabosim.cli import (
    apply_override,
    build_problem,
    compare_costs,
    main,
    parse_config,
    resolve_config,
    run_experiment,
)
from rabosim.errors import MissingBaseline, ParseError, ValidationError


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


class TestParseConfig:
    def test_minimal_config_resolves_defaults(self, tmp_path):
        path = write_config(tmp_path, {"problem": {"family": "quadratic"}})
        cfg = parse_config(path)
        assert cfg.problem["n"] == 4
        assert cfg.run["alpha"] == 0.05
        assert cfg.run["capacities"] == "1"
        assert cfg.sweep["seeds"] == [0]
        assert cfg.output["formats"] == ["csv", "json"]

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"family": "quadratic"}, "run": {"alhpa": 0.1}})
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert "alhpa" in str(err.value)
        assert err.value.key == "alhpa"

    def test_unknown_problem_key_named(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"family": "quadratic", "d3": 7}})
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert err.value.key == "d3"

    def test_missing_family(self, tmp_path):
        path = write_config(tmp_path, {"problem": {"n": 3}})
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert err.value.key == "family"

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "problem": {\n')
        with pytest.raises(ParseError) as err:
            parse_config(path)
        assert err.value.line is not None
        assert err.value.column is not None

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

    def test_bad_estimator(self, tmp_path):
        path = write_config(tmp_path, small_quadratic_config(estimator="aid2"))
        with pytest.raises(ValidationError):
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
        with pytest.raises(ValidationError):
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
        from rabosim import cli
        built = []

        def counting_build(problem_cfg, seed_override=None):
            built.append(seed_override)
            return build_problem(problem_cfg, seed_override)

        monkeypatch.setattr(cli, "build_problem", counting_build)
        data = small_quadratic_config(rounds=1)
        data["sweep"] = {"seeds": [0, 1, 2], "capacities": ["1", "1/2"],
                         "vary_problem_seed": vary}
        result = run_experiment(resolve_config(data), tmp_path / "out")
        assert len(result.variants) == 6
        if vary:
            assert built == [0, 1, 2, 0, 1, 2]   # one build per variant
        else:
            assert built == [None]               # one build per sweep

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
        # a manual table under the default "rolling" policy has no effect
        (["--override", "run.manual_x=[[0, 1], [2, 3]]"], "manual_x"),
        (["--override", "run.manual_y=[[0, 1], [2, 3]]"], "manual_y"),
        (["--override", 'sweep.manual_tables=[{"x": [[0, 1], [2, 3]], '
          '"y": [[0], [1]]}, {"x": [[0, 1], [0, 1]], "y": [[0], [1]]}]'],
         "manual_tables"),
    ])
    def test_mistyped_value_exit_two_names_key(self, tmp_path, capsys,
                                                flags, key):
        path = write_config(tmp_path, small_quadratic_config())
        code = main(["run", str(path), "--out", str(tmp_path / "out")] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"'{key}'" in err or f".{key}" in err
        assert not (tmp_path / "out" / "variants").exists()

    def test_float_entry_accepts_integer_literal(self, tmp_path):
        path = write_config(tmp_path, small_quadratic_config(rounds=1))
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--override", "run.alpha=1"])
        assert code == 0

    def test_formats_string_names_list_requirement(self, tmp_path, capsys):
        data = small_quadratic_config()
        data["output"] = {"formats": "csv"}
        path = write_config(tmp_path, data)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "formats" in err and "list of strings" in err
        assert "'c'" not in err

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

    @pytest.mark.parametrize("section,entry,key", [
        ("sweep", {"manual_tables": [{"x": [[0, 1], [2, 9]],
                                      "y": [[0, 1], [2, 3]]}]},
         "manual_tables"),
        ("run", {"manual_x": [[0, 1], [2, 9]], "manual_y": [[0], [1]]},
         "manual_x"),
        ("run", {"manual_x": [[0], [1]], "manual_y": [[0], [-1]]},
         "manual_y"),
        ("run", {"manual_x": [[0]], "manual_y": [[0], [1]]}, "manual_x"),
    ], ids=["sweep-table", "run-x", "run-y-negative", "run-x-short"])
    def test_manual_table_out_of_range_exit_two(self, tmp_path, capsys,
                                                section, entry, key):
        data = small_quadratic_config(policy="manual", capacities="1/2")
        data.setdefault(section, {}).update(entry)
        data["sweep"] = {**data.get("sweep", {}), "seeds": [0, 1]}
        path = write_config(tmp_path, data)
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out" / "variants").exists()

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RABOSIM_OUT", str(tmp_path / "envout"))
        path = write_config(tmp_path, small_quadratic_config())
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "envout" / "summary.json").exists()


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
    with pytest.raises(ValidationError) as err:
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
