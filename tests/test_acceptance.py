"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred.
"""

import json
import time
from fractions import Fraction

import numpy as np

from rabosim import (
    RunConfig,
    exact_hypergradient,
    hypergrad_error_bound,
    make_logistic_tune,
    make_quadratic,
    rafbo_hypergradient,
    run,
)
from rabosim.cli import parse_config, run_experiment
from rabosim.federation import (
    GlobalState,
    aggregate_inner,
    check_theory_guard,
    client_inner_loop,
    rabo_round,
)
from rabosim.hypergrad import EXACT_AID, RAFBO
from rabosim.linalg import solve_spd
from rabosim.problems import derive_constants


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status}  {detail}")
    assert passed, f"criterion {num}: {detail}"


def full_masks(d1, d2):
    return np.ones(d1, dtype=np.uint8), np.ones(d2, dtype=np.uint8)


def full_caps(n):
    return [Fraction(1)] * n


def test_01_hypergradient_exactness():
    t0 = time.monotonic()
    prob = make_quadratic(seed=1001, n=4, d1=10, d2=10, hetero=0.5,
                          eig_min=0.6, eig_max=2.0, lam=0.7)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal(10)
        y = prob.y_star(x)
        avg = np.zeros(10)
        for i in range(4):
            mx, my = full_masks(10, 10)
            avg += exact_hypergradient(prob, i, x, y, mx, my)
        avg /= 4
        oracle = prob.grad_phi(x)
        worst = max(worst, np.linalg.norm(avg - oracle) / np.linalg.norm(oracle))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-8 and elapsed < 5.0,
           f"hypergradient exactness: max rel err {worst:.3e} (tol 1e-8), "
           f"{elapsed:.2f}s (< 5s)")


def test_02_rafbo_equals_exact_aid_on_quadratics():
    t0 = time.monotonic()
    prob = make_quadratic(seed=1002, n=4, d1=10, d2=10, hetero=0.5,
                          eig_min=1.0, eig_max=1.0, lam=0.7)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal(10)
        y = prob.y_star(x)
        for mu in (1.0, 1e-3, 1e-6):
            for i in range(4):
                mx, my = full_masks(10, 10)
                exact = exact_hypergradient(prob, i, x, y, mx, my)
                approx = rafbo_hypergradient(prob, i, x, y, mx, my, mu, 1.0)
                rel = np.linalg.norm(approx - exact) \
                    / np.linalg.norm(exact)
                worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    report(2, worst <= 1e-8 and elapsed < 10.0,
           f"second-order-free == implicit-solve estimator: max rel err "
           f"{worst:.3e} over mu in {{1,1e-3,1e-6}} (tol 1e-8), "
           f"{elapsed:.2f}s (< 10s)")


def test_03_fd_error_bound_and_scaling():
    t0 = time.monotonic()
    prob = make_quadratic(seed=1003, n=2, d1=6, d2=6, quartic=0.1,
                          eig_min=1.0, eig_max=1.0)
    consts = derive_constants(prob)
    mx, my = full_masks(6, 6)
    x = np.zeros(6)
    y = 0.4 * np.arange(1.0, 7.0) / 6.0
    mus = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    errs, below = [], True
    for mu in mus:
        exact = exact_hypergradient(prob, 0, x, y, mx, my)
        approx = rafbo_hypergradient(prob, 0, x, y, mx, my, mu, 1.0)
        err = float(np.linalg.norm(approx - exact))
        bound = float(np.sqrt(hypergrad_error_bound(
            np.count_nonzero(mx), consts.l_g1, mu, consts.l_f0)))
        below = below and err <= bound
        errs.append(err)
    slope = float(np.polyfit(np.log(mus), np.log(errs), 1)[0])
    elapsed = time.monotonic() - t0
    report(3, below and abs(slope - 1.0) <= 0.15 and elapsed < 30.0,
           f"fd estimation error: below bound {below}, log-log slope "
           f"{slope:.4f} (1.0 +- 0.15), {elapsed:.2f}s (< 30s)")


def test_04_inner_contraction():
    t0 = time.monotonic()
    prob = make_quadratic(seed=1004, n=4, d1=4, d2=4, hetero=0.0,
                          eig_min=0.05, eig_max=2.0)
    consts = derive_constants(prob)
    beta = 1.0 / (2.0 * consts.l_g1)
    factor = (1.0 - beta * consts.mu_g) * (1.0 + 1e-6)
    x = np.array([0.4, -0.3, 0.2, 0.6])
    y = np.full(4, 5.0)
    y_star = prob.y_star(x)
    masks_y = np.ones((4, 4), dtype=np.uint8)
    ok = True
    worst_ratio = 0.0
    for _ in range(100):
        err_before = float(np.sum((y - y_star) ** 2))
        g_deltas = np.array([
            client_inner_loop(prob, i, x, y.copy(), masks_y[i], beta,
                              inner_epochs=2)[1] for i in range(4)])
        y = aggregate_inner(y, masks_y, g_deltas, beta)
        ratio = float(np.sum((y - y_star) ** 2)) / err_before
        worst_ratio = max(worst_ratio, ratio)
        ok = ok and ratio <= factor
    elapsed = time.monotonic() - t0
    report(4, ok and elapsed < 5.0,
           f"inner error contraction: worst ratio {worst_ratio:.6f} <= "
           f"(1 - beta mu_g)(1+1e-6) = {factor:.6f}, {elapsed:.2f}s (< 5s)")


def test_05_full_mask_convergence_and_centralized_bit_match():
    t0 = time.monotonic()
    # part 1: n = 4 full-mask run converges to stationarity under the guard
    prob = make_quadratic(seed=1005, n=4, d1=6, d2=6, hetero=0.4, lam=0.7,
                          eig_min=0.8, eig_max=1.7)
    consts = derive_constants(prob)
    cfg = RunConfig(alpha=1.0 / (consts.L_f + 4 * consts.M_f),
                    beta=1.0 / (2 * consts.l_g1), inner_epochs=2, rounds=500,
                    capacities=full_caps(4), seed=0)
    check_theory_guard(cfg, consts)
    res = run(prob, cfg)
    final = res.logs[-1].grad_phi_sq

    # part 2: n = 1 trajectory bit-matches a standalone centralized
    # implementation built directly on the problem callbacks
    single = make_quadratic(seed=1006, n=1, d1=6, d2=6, lam=0.7,
                            eig_min=0.7, eig_max=1.7)
    alpha, beta, epochs, rounds = 0.04, 0.25, 3, 100

    def centralized_reference(x0, y0):
        x, y = x0.copy(), y0.copy()
        traj = []
        for _ in range(rounds):
            y_start = y.copy()
            for _ in range(epochs):
                y = y - beta * single.grad_g_y(0, x, y)
            delta_grad = (y_start - y) / beta
            y = y_start - beta * delta_grad
            gfy = single.grad_f_y(0, x, y)
            z = solve_spd(single.hess_yy_g(0, x, y), gfy)
            h = single.grad_f_x(0, x, y) - single.cross_xy_g_apply(0, x, y, z)
            x = x - alpha * h
            traj.append((x.copy(), y.copy()))
        return traj

    x0, y0 = np.full(6, 1.5), np.zeros(6)
    reference = centralized_reference(x0, y0)
    cfg1 = RunConfig(alpha=alpha, beta=beta, inner_epochs=epochs,
                     rounds=rounds, capacities=full_caps(1), seed=0)
    state = GlobalState(x0.copy(), y0.copy(), 0)
    bit_match = True
    for q in range(rounds):
        state, _ = rabo_round(single, state, cfg1)
        rx, ry = reference[q]
        bit_match = bit_match and np.array_equal(state.x, rx) \
            and np.array_equal(state.y, ry)
    elapsed = time.monotonic() - t0
    report(5, final <= 1e-6 and bit_match and elapsed < 30.0,
           f"full-mask convergence: final ||grad Phi||^2 {final:.3e} "
           f"(<= 1e-6); n=1 bit-match over {rounds} rounds: {bit_match}; "
           f"{elapsed:.2f}s (< 30s)")


def test_06_freeze_and_coverage():
    t0 = time.monotonic()
    prob = make_quadratic(seed=1007, n=2, d1=4, d2=4, hetero=0.3,
                          eig_min=0.8, eig_max=1.5)
    tables = {"x": [[0, 1], [1, 2]],     # coord 3 never trained
              "y": [[0], [0, 1]]}        # coords 2, 3 never trained
    x0 = 0.1 * np.arange(1.0, 5.0)
    y0 = -0.2 * np.arange(1.0, 5.0)
    cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=2, rounds=50,
                    capacities=[Fraction(1, 2)] * 2, seed=0,
                    policy="manual", manual_tables=tables, x0=x0.copy(),
                    y0=y0.copy())
    res = run(prob, cfg)
    frozen_x = res.final_state.x[3].tobytes() == np.float64(x0[3]).tobytes()
    frozen_y = (res.final_state.y[2].tobytes() == np.float64(y0[2]).tobytes()
                and res.final_state.y[3].tobytes() == np.float64(y0[3]).tobytes())
    moved = (not np.array_equal(res.final_state.x[:3], x0[:3])
             and not np.array_equal(res.final_state.y[:2], y0[:2]))
    # hand enumeration: x counts (1,2,1,0) -> C*_x = 1; y counts (2,1,0,0)
    coverage_ok = (res.coverage.c_star_x == 1 and res.coverage.c_star_y == 1)
    elapsed = time.monotonic() - t0
    report(6, frozen_x and frozen_y and moved and coverage_ok and elapsed < 10.0,
           f"freeze: uncovered coords bit-identical after 50 rounds "
           f"(x {frozen_x}, y {frozen_y}), covered coords moved {moved}, "
           f"C*_x={res.coverage.c_star_x} C*_y={res.coverage.c_star_y} "
           f"match enumeration, {elapsed:.2f}s")


def test_07_coverage_speedup_trend():
    t0 = time.monotonic()
    d = n = 8
    blocks = [[0, 1], [2, 3], [4, 5], [6, 7]]
    tables = {1: blocks + [[0, 1]] * 4,   # coords 2..7 single-covered
              2: blocks + blocks}         # every coord double-covered
    table_y = [list(range(d)) for _ in range(n)]
    max_rounds, threshold = 500, 1e-2

    def rounds_to_threshold(table_x, seed):
        prob = make_quadratic(seed=1008, n=n, d1=d, d2=d, hetero=0.0, lam=0.8,
                              noise_f=0.45, noise_g=0.1,
                              eig_min=0.8, eig_max=1.6, target_scale=0.0)
        cfg = RunConfig(alpha=0.04, beta=0.25, inner_epochs=2,
                        rounds=max_rounds,
                        capacities=[Fraction(1, 4)] * n,
                        seed=seed,
                        policy="manual",
                        manual_tables={"x": table_x, "y": table_y},
                        batch_size_f=1, batch_size_g=1,
                        x0=np.full(d, 2.0), y0=np.zeros(d))
        res = run(prob, cfg)
        assert res.coverage.c_star_x == (1 if table_x is tables[1] else 2)
        for log in res.logs:
            if log.grad_phi_sq <= threshold:
                return log.round_index + 1
        return max_rounds + 1

    medians = {}
    for c_star, table_x in tables.items():
        hits = [rounds_to_threshold(table_x, seed) for seed in range(10)]
        medians[c_star] = float(np.median(hits))
    elapsed = time.monotonic() - t0
    report(7, medians[2] < medians[1] and elapsed < 300.0,
           f"coverage speedup: median rounds to ||grad Phi||^2 <= 1e-2 is "
           f"{medians[2]:.1f} (C*_x=2) vs {medians[1]:.1f} (C*_x=1), "
           f"strictly smaller: {medians[2] < medians[1]}, "
           f"{elapsed:.1f}s (< 300s)")


def test_08_cost_accounting():
    t0 = time.monotonic()
    d, n, rounds = 8, 4, 5

    def run_with(cap, estimator, policy="rolling", fraction=1.0):
        prob = make_quadratic(seed=1009, n=n, d1=d, d2=d,
                              eig_min=1.0, eig_max=1.0)
        cfg = RunConfig(alpha=0.02, beta=0.2, inner_epochs=2, rounds=rounds,
                        estimator=estimator, coord_fraction=fraction,
                        capacities=[cap] * n, seed=0, policy=policy)
        return run(prob, cfg)

    quarter = run_with(Fraction(1, 4), EXACT_AID)
    per_round = int(np.ceil(d / 4)) * 8 * n
    legs_ok = all(total == per_round * rounds
                  for total in quarter.ledger.legs().values())

    full = run_with(Fraction(1), EXACT_AID)
    comm_ratio = (quarter.ledger.bytes_up + quarter.ledger.bytes_down) \
        / (full.ledger.bytes_up + full.ledger.bytes_down)
    ratio_ok = comm_ratio == 0.25

    flops_ok = True
    for cap in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        for policy in ("rolling", "static"):
            aid = run_with(cap, EXACT_AID, policy)
            fd = run_with(cap, RAFBO, policy)
            flops_ok = flops_ok and fd.ledger.total_flops < aid.ledger.total_flops
    elapsed = time.monotonic() - t0
    report(8, legs_ok and ratio_ok and flops_ok and elapsed < 30.0,
           f"cost accounting: every leg == ceil(d/4)*8*n per round {legs_ok}, "
           f"comm ratio vs full {comm_ratio} (== 0.25), second-order-free "
           f"flops < solve-based flops on all shared configs {flops_ok}, "
           f"{elapsed:.2f}s")


def test_09_loss_tuning_efficacy():
    t0 = time.monotonic()

    def val_loss(prob, x, y):
        return float(np.mean([prob.value_f(i, x, y) for i in range(prob.n)]))

    def inner_only(prob, x, beta, epochs, rounds):
        y = np.zeros(prob.d2)
        masks = np.ones((prob.n, prob.d2), dtype=np.uint8)
        for _ in range(rounds):
            g_deltas = np.array([
                client_inner_loop(prob, i, x, y.copy(), masks[i], beta,
                                  epochs)[1] for i in range(prob.n)])
            y = aggregate_inner(y, masks, g_deltas, beta)
        return y

    improvements = []
    for seed in range(10):
        prob = make_logistic_tune(seed=seed, n=4, imbalance_mu=0.5,
                                  classes=4, features=5, base_count=100)
        cfg = RunConfig(alpha=0.8, beta=0.3, inner_epochs=5, rounds=60,
                        capacities=full_caps(4), seed=seed)
        res = run(prob, cfg)
        tuned = val_loss(prob, res.final_state.x, res.final_state.y)
        x0 = np.zeros(prob.d1)
        baseline = val_loss(prob, x0, inner_only(prob, x0, 0.3, 5, 60))
        improvements.append((baseline - tuned) / baseline)
    median_imp = float(np.median(improvements))
    elapsed = time.monotonic() - t0
    report(9, median_imp >= 0.05 and elapsed < 300.0,
           f"loss tuning: median relative validation-loss improvement "
           f"{median_imp:.3f} (>= 0.05) over 10 seeds, {elapsed:.1f}s (< 300s)")


def test_10_determinism(tmp_path):
    t0 = time.monotonic()
    config = {
        "problem": {"family": "quadratic", "n": 4, "d1": 6, "d2": 6,
                    "hetero": 0.3, "noise_f": 0.2, "noise_g": 0.2,
                    "eig_min": 0.8, "eig_max": 1.5},
        "run": {"alpha": 0.02, "beta": 0.2, "inner_epochs": 2, "rounds": 25,
                "capacities": "1/2", "batch_size_f": 2, "batch_size_g": 2},
        "sweep": {"seeds": [0, 1]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    cfg = parse_config(path)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    byte_identical = True
    csvs = sorted((tmp_path / "a" / "variants").glob("*/rounds.csv"))
    assert csvs
    for csv_a in csvs:
        csv_b = tmp_path / "b" / "variants" / csv_a.parent.name / "rounds.csv"
        byte_identical = byte_identical and \
            csv_a.read_bytes() == csv_b.read_bytes()
    byte_identical = byte_identical and \
        (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()
    elapsed = time.monotonic() - t0
    report(10, byte_identical and elapsed < 60.0,
           f"determinism: rerun byte-identical {byte_identical}, "
           f"{elapsed:.2f}s")
