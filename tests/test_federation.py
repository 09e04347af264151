from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim import federation, hypergrad
from rabosim.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InvalidSpec,
    SingularRestrictedHessian,
)
from rabosim.federation import (
    CSV_COLUMNS,
    ClientReport,
    CostLedger,
    GlobalState,
    RunConfig,
    aggregate_inner,
    aggregate_outer,
    check_theory_guard,
    client_inner_loop,
    logs_to_csv,
    rabo_round,
    run,
)
from rabosim.hypergrad import EXACT_AID, RAFBO, HypergradEstimate, RAFBOConfig
from rabosim.masking import ClientResource, Mask, MaskPolicy
from rabosim.problems import (
    derive_constants,
    make_logistic_tune,
    make_quadratic,
)
from rabosim.problems.quadratic import QuadraticProblem, QuadraticSpec
from linear_oracle import outer_minimizer
from tests_support import one_dim_tracking_problem, partial_tables


def mask_of(bits, level="y", client=0, round_index=0):
    return Mask(np.array(bits, dtype=np.uint8), level, client, round_index)


def full_caps(n):
    return [ClientResource(Fraction(1))] * n


def report_with_delta(client, bits, g_delta, d1=2):
    return ClientReport(
        client=client, mask_x=mask_of([1] * d1, "x", client),
        mask_y=mask_of(bits, "y", client),
        g_delta=np.array(g_delta, dtype=np.float64), inner_flops=0)


def report_with_hyper(client, bits, value):
    mx = mask_of(bits, "x", client)
    my = mask_of([1] * len(bits), "y", client)
    est = HypergradEstimate(
        value=np.array(value, dtype=np.float64), flops=0)
    return ClientReport(client=client, mask_x=mx, mask_y=my,
                        g_delta=np.zeros(len(bits)), inner_flops=0,
                        hypergrad=est)


def scalar_quadratic(c=1.0):
    """g = 0.5 (y - c)^2, no outer coupling."""
    return QuadraticProblem(QuadraticSpec(
        a_mats=[np.array([[1.0]])], b_mats=[np.array([[0.0]])],
        c_vecs=[np.array([-c])], outer_targets=[np.zeros(1)],
        inner_targets=[np.zeros(1)], u_mats=None, lam=0.0,
        noise_f=0, noise_g=0, quartic=0, sine_amp=0,
        ball_radius=10.0))


class TestClientInnerLoop:
    def test_single_step_returns_masked_gradient(self):
        prob = make_quadratic(seed=1, n=2, d1=4, d2=4, eig_range=(0.8, 1.6))
        x = np.array([0.3, -0.2, 0.5, 0.1])
        y0 = np.zeros(4)
        my = mask_of([1, 0, 1, 1], "y")
        y1, g = client_inner_loop(prob, 0, x, y0, my, beta=0.5, inner_epochs=1)
        expected = prob.grad_g_y(0, x, y0) * my.bits
        assert np.array_equal(g, expected)
        assert np.array_equal(y1, y0 - 0.5 * expected)

    def test_stationary_start(self):
        prob = make_quadratic(seed=2, n=2, d1=3, d2=3, eig_range=(0.9, 1.3))
        x = np.array([0.1, 0.4, -0.2])
        spec = prob.spec
        y_opt = np.linalg.solve(spec.a_mats[0],
                                -(spec.b_mats[0] @ x + spec.c_vecs[0]))
        my = mask_of([1, 1, 1], "y")
        y_t, g = client_inner_loop(prob, 0, x, y_opt, my, beta=0.25,
                                   inner_epochs=3)
        assert np.allclose(y_t, y_opt, atol=1e-12)
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_two_step_hand_unroll(self):
        # g = 0.5 (y-1)^2, beta = 0.5, y0 = 0: y1 = 0.5, y2 = 0.75;
        # delta-gradient is oriented like a gradient: (y0 - y2)/beta = -1.5
        prob = scalar_quadratic(c=1.0)
        my = mask_of([1], "y")
        y2, g = client_inner_loop(prob, 0, np.zeros(1), np.zeros(1), my,
                                  beta=0.5, inner_epochs=2)
        assert y2[0] == pytest.approx(0.75)
        assert g[0] == pytest.approx(-1.5)

    def test_divergence_guard(self):
        prob = scalar_quadratic(c=0.0)
        my = mask_of([1], "y")
        with pytest.raises(DivergenceDetected):
            client_inner_loop(prob, 0, np.zeros(1), np.array([1.0]), my,
                              beta=5.0, inner_epochs=50, divergence_guard=100.0)

    def test_non_finite_iterate_is_divergence(self):
        # nan > guard is False, so a NaN iterate must be caught explicitly
        prob = scalar_quadratic(c=0.0)
        my = mask_of([1], "y")
        with pytest.raises(DivergenceDetected):
            client_inner_loop(prob, 0, np.zeros(1), np.array([np.nan]), my,
                              beta=0.5, inner_epochs=1, divergence_guard=100.0)

    def test_support_containment(self):
        prob = make_quadratic(seed=3, n=1, d1=4, d2=4, eig_range=(0.7, 1.5))
        my = mask_of([0, 1, 0, 1], "y")
        y_t, g = client_inner_loop(prob, 0, np.ones(4), np.zeros(4), my,
                                   beta=0.3, inner_epochs=4)
        assert np.all(g[my.bits == 0] == 0.0)
        assert np.all(y_t[my.bits == 0] == 0.0)


class TestAggregateInner:
    def test_single_client_collapse(self):
        prob = make_quadratic(seed=4, n=1, d1=3, d2=3, eig_range=(0.8, 1.4))
        my = mask_of([1, 1, 1], "y")
        y_q = np.zeros(3)
        y_t, g = client_inner_loop(prob, 0, np.ones(3), y_q, my, beta=0.5,
                                   inner_epochs=2)
        rep = ClientReport(0, mask_of([1, 1, 1], "x"), my, g, 0)
        y_next = aggregate_inner(y_q, [rep], beta=0.5)
        assert np.array_equal(y_next, y_t)

    def test_disjoint_masks(self):
        reports = [report_with_delta(0, [1, 0], [2.0, 0.0]),
                   report_with_delta(1, [0, 1], [0.0, 4.0])]
        y_next = aggregate_inner(np.zeros(2), reports, beta=0.1)
        assert np.allclose(y_next, [-0.2, -0.4])

    def test_shared_coordinate_mean(self):
        reports = [report_with_delta(0, [1], [2.0], d1=1),
                   report_with_delta(1, [1], [4.0], d1=1)]
        y_next = aggregate_inner(np.zeros(1), reports, beta=0.1)
        assert y_next[0] == pytest.approx(-0.3)

    def test_uncovered_coordinate_bit_frozen(self):
        y_q = np.array([0.1, -0.7, 0.3])
        reports = [report_with_delta(0, [1, 0, 1], [1.0, 0.0, 2.0], d1=3)]
        y_next = aggregate_inner(y_q, reports, beta=0.2)
        assert y_next[1] == y_q[1]
        assert np.float64(y_next[1]).tobytes() == np.float64(y_q[1]).tobytes()


class TestAggregateOuter:
    def test_identical_full_reports(self):
        h = [0.5, -1.0, 2.0]
        reports = [report_with_hyper(i, [1, 1, 1], h) for i in range(3)]
        x_next = aggregate_outer(np.zeros(3), reports, alpha=0.1)
        assert np.allclose(x_next, -0.1 * np.array(h))

    def test_zero_hypergradients(self):
        x_q = np.array([1.0, -2.0])
        reports = [report_with_hyper(0, [1, 1], [0.0, 0.0])]
        assert np.array_equal(aggregate_outer(x_q, reports, 0.5), x_q)

    def test_partial_coverage_mean(self):
        reports = [report_with_hyper(0, [1], [1.0]),
                   report_with_hyper(1, [1], [3.0]),
                   report_with_hyper(2, [0], [9.0])]
        x_next = aggregate_outer(np.zeros(1), reports, alpha=0.1)
        assert x_next[0] == pytest.approx(-0.2)


def covering_average_reference(v_q, masks, vectors, step):
    """Per-coordinate loop: mean over covering clients in ascending order."""
    out = v_q.copy()
    for k in range(len(v_q)):
        total, count = 0.0, 0
        for mask, vec in zip(masks, vectors):
            if mask.bits[k]:
                total += vec[k]
                count += 1
        if count:
            out[k] = v_q[k] - step * (total / count)
    return out


class TestCoveringAverageReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_both_levels_match_plain_loop(self, seed):
        gen = np.random.default_rng(seed)
        n, d1, d2 = 5, 7, 9
        reports = []
        for i in range(n):
            mx = mask_of(gen.integers(0, 2, d1), "x", i)
            my = mask_of(gen.integers(0, 2, d2), "y", i)
            est = HypergradEstimate(
                value=gen.standard_normal(d1), flops=0)
            reports.append(ClientReport(
                client=i, mask_x=mx, mask_y=my,
                g_delta=gen.standard_normal(d2), inner_flops=0, hypergrad=est))
        x_q, y_q = gen.standard_normal(d1), gen.standard_normal(d2)
        shuffled = [reports[j] for j in gen.permutation(n)]
        y_next = aggregate_inner(y_q, shuffled, beta=0.3)
        x_next = aggregate_outer(x_q, shuffled, alpha=0.7)
        assert np.array_equal(y_next, covering_average_reference(
            y_q, [r.mask_y for r in reports], [r.g_delta for r in reports],
            0.3))
        assert np.array_equal(x_next, covering_average_reference(
            x_q, [r.mask_x for r in reports],
            [r.hypergrad.value for r in reports], 0.7))

    def test_dimension_and_missing_hypergradient_checks(self):
        rep = report_with_delta(0, [1, 1], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            aggregate_inner(np.zeros(3), [rep], beta=0.1)
        with pytest.raises(InvalidSpec):
            aggregate_outer(np.zeros(2), [rep], alpha=0.1)
        hyper = report_with_hyper(0, [1, 1], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            aggregate_outer(np.zeros(3), [hyper], alpha=0.1)


class TestRabobRound:
    def test_full_capacity_coverage(self):
        prob = make_quadratic(seed=5, n=3, d1=4, d2=4, eig_range=(0.8, 1.5))
        cfg = RunConfig(alpha=0.02, beta=0.2, inner_epochs=2, rounds=1,
                        capacities=full_caps(3), seed=0)
        state = GlobalState(np.zeros(4), np.zeros(4), 0)
        new_state, log = rabo_round(prob, state, cfg)
        assert log.c_star_x_running == 3
        assert log.c_star_y_running == 3
        assert new_state.round_index == 1

    @pytest.mark.parametrize("count", [2, 4])
    def test_capacities_must_match_problem_clients(self, count):
        # a shorter list used to train a subset of the clients, a longer
        # one to end in an IndexError
        prob = make_quadratic(seed=5, n=3, d1=4, d2=4)
        cfg = RunConfig(alpha=0.02, beta=0.2, capacities=full_caps(count))
        state = GlobalState(np.zeros(4), np.zeros(4), 0)
        with pytest.raises(InvalidSpec) as err:
            rabo_round(prob, state, cfg)
        assert err.value.key == "capacities"
        assert f"{count} capacities for 3 clients" in str(err.value)

    def test_run_config_is_frozen(self):
        cfg = RunConfig(alpha=0.02, beta=0.2, capacities=full_caps(1))
        with pytest.raises(FrozenInstanceError):
            cfg.alpha = -1.0

    def test_stationary_fixed_point(self):
        prob = make_quadratic(seed=6, n=4, d1=5, d2=5, hetero=0.3, lam=0.8,
                              eig_range=(0.7, 1.8))
        x_star = outer_minimizer(prob)
        y_star = prob.y_star(x_star)
        cfg = RunConfig(alpha=0.02, beta=0.2, inner_epochs=2, rounds=1,
                        capacities=full_caps(4), seed=0)
        state = GlobalState(x_star.copy(), y_star.copy(), 0)
        new_state, _ = rabo_round(prob, state, cfg)
        assert np.linalg.norm(new_state.x - x_star) <= 1e-12

    def test_metrics_are_post_aggregation(self):
        prob = make_quadratic(seed=7, n=2, d1=3, d2=3, eig_range=(0.9, 1.4))
        cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=1, rounds=1,
                        capacities=full_caps(2), seed=0)
        state = GlobalState(np.ones(3), np.zeros(3), 0)
        new_state, log = rabo_round(prob, state, cfg)
        grad = prob.grad_phi(new_state.x)
        assert log.grad_phi_sq == pytest.approx(float(grad @ grad), rel=1e-12)

    @pytest.mark.parametrize("quartic", [0.0, 0.1])
    def test_one_inner_solve_per_round(self, quartic):
        """grad_phi, phi and inner_err share one y*(x_next) solve."""
        prob = make_quadratic(seed=7, n=2, d1=3, d2=3, eig_range=(0.9, 1.4),
                              quartic=quartic)
        cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=1, rounds=1,
                        capacities=full_caps(2), seed=0)
        state = GlobalState(np.ones(3), np.zeros(3), 0)
        _, want = rabo_round(prob, state, cfg)
        solve, calls = prob.y_star, []
        prob.y_star = lambda x: calls.append(x) or solve(x)
        _, log = rabo_round(prob, state, cfg)
        assert len(calls) == 1
        assert logs_to_csv([log]) == logs_to_csv([want])

    def test_logistic_round_with_difference_estimator(self):
        prob = make_logistic_tune(seed=8, n=2, imbalance_mu=0.5, classes=3,
                                  features=3, base_count=30)
        cfg = RunConfig(alpha=0.3, beta=0.2, inner_epochs=2, rounds=3,
                        estimator=RAFBO, rafbo=RAFBOConfig(mu=1e-4),
                        capacities=full_caps(2), seed=0)
        res = run(prob, cfg)
        assert np.all(np.isfinite(res.final_state.x))
        assert np.all(np.isfinite(res.final_state.y))

    def test_logistic_round_uses_nan_sentinels(self):
        prob = make_logistic_tune(seed=8, n=2, imbalance_mu=0.5, classes=3,
                                  features=3, base_count=30)
        cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=1, rounds=1,
                        capacities=full_caps(2), seed=0)
        state = GlobalState(np.zeros(prob.d1), np.zeros(prob.d2), 0)
        _, log = rabo_round(prob, state, cfg)
        assert np.isnan(log.grad_phi_sq) and np.isnan(log.phi)
        assert np.isnan(log.inner_err_sq)


def shared_block_quadratic(**kwargs):
    """make_quadratic's clients share one read-only A."""
    return make_quadratic(seed=11, n=6, d1=8, d2=8, hetero=0.3,
                          eig_range=(0.8, 1.6), **kwargs)


def per_client_blocks(writeable):
    """The shared-block problem with a distinct A_i per client."""
    spec = shared_block_quadratic().spec
    a_mats = []
    for i, a in enumerate(spec.a_mats):
        a_i = a + 0.01 * i * np.eye(a.shape[0])
        a_i.setflags(write=writeable)
        a_mats.append(a_i)
    return QuadraticProblem(replace(spec, a_mats=a_mats))


class TestRoundSolverMemo:
    """exact_aid factors each distinct read-only (Hessian, active set) pair
    once per round, with the bits of a factor per client."""

    CASES = {
        "shared": (shared_block_quadratic, 2),   # rolling at 1/2: 2 windows
        "writable-per-client": (lambda: per_client_blocks(True), 6),
        "read-only-per-client": (lambda: per_client_blocks(False), 6),
        "quartic": (lambda: shared_block_quadratic(quartic=0.1), 6),
    }

    @staticmethod
    def rounds(prob, monkeypatch, memo):
        """Three rounds; returns (factorizations per round, states, logs)."""
        builds, counts, states, logs = [], [], [], []
        build = hypergrad.spd_solver
        cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=2,
                        capacities=[ClientResource(Fraction(1, 2))] * prob.n,
                        log_masks=True)
        state = GlobalState(np.ones(prob.d1), np.zeros(prob.d2), 0)
        with monkeypatch.context() as patch:
            patch.setattr(hypergrad, "spd_solver",
                          lambda a: builds.append(a.shape) or build(a))
            if not memo:
                # the round's memo is exact_hypergradient's ninth argument
                patch.setattr(federation, "exact_hypergradient",
                              lambda *args: hypergrad.exact_hypergradient(
                                  *args[:8]))
            for _ in range(3):
                before = len(builds)
                state, log = federation.rabo_round(prob, state, cfg)
                counts.append(len(builds) - before)
                states.append(state)
                logs.append(log)
        return counts, states, logs

    @pytest.mark.parametrize("case", CASES)
    def test_factors_each_distinct_block_once_per_round(self, monkeypatch,
                                                        case):
        make, factored = self.CASES[case]
        prob = make()
        counts, states, logs = self.rounds(prob, monkeypatch, memo=True)
        want_counts, want_states, want_logs = self.rounds(
            prob, monkeypatch, memo=False)
        assert counts == [factored] * 3
        assert want_counts == [prob.n] * 3
        for got, want in zip(states, want_states):
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.y, want.y)
        assert logs == want_logs

    @pytest.mark.parametrize("writeable", [True, False])
    def test_singular_block_raises_through_round(self, writeable):
        a = np.diag([1.0, -1.0])
        a.setflags(write=writeable)
        prob = QuadraticProblem(QuadraticSpec(
            a_mats=[a, a], b_mats=[np.zeros((2, 2))] * 2,
            c_vecs=[np.zeros(2)] * 2, outer_targets=[np.zeros(2)] * 2,
            inner_targets=[np.zeros(2)] * 2, u_mats=None, lam=0.0,
            noise_f=0, noise_g=0, quartic=0, sine_amp=0, ball_radius=10.0))
        cfg = RunConfig(alpha=0.05, beta=0.2, capacities=full_caps(2))
        with pytest.raises(SingularRestrictedHessian, match="client 0"):
            rabo_round(prob, GlobalState(np.zeros(2), np.zeros(2), 0), cfg)


class TestRun:
    def test_zero_rounds(self):
        prob = make_quadratic(seed=9, n=2, d1=3, d2=3)
        cfg = RunConfig(alpha=0.05, beta=0.2, rounds=0,
                        capacities=full_caps(2), seed=0)
        res = run(prob, cfg)
        assert res.logs == []
        assert res.final_state.round_index == 0
        assert np.array_equal(res.final_state.x, np.zeros(3))

    def test_convergence_under_guard(self):
        prob = make_quadratic(seed=10, n=4, d1=6, d2=6, hetero=0.4, lam=0.7,
                              eig_range=(0.8, 1.7))
        consts = derive_constants(prob)
        cfg = RunConfig(alpha=1.0 / (consts.L_f + 4 * consts.M_f),
                        beta=1.0 / (2 * consts.l_g1), inner_epochs=2,
                        rounds=300, capacities=full_caps(4), seed=0)
        check_theory_guard(cfg, consts)
        res = run(prob, cfg)
        assert res.logs[-1].grad_phi_sq <= 1e-4
        assert res.logs[-1].grad_phi_sq < res.logs[0].grad_phi_sq

    def test_byte_determinism(self):
        prob = make_quadratic(seed=11, n=4, d1=5, d2=5, hetero=0.3,
                              noise_f=0.1, noise_g=0.1, eig_range=(0.8, 1.5))
        base = dict(alpha=0.02, beta=0.2, inner_epochs=2, rounds=20,
                    capacities=[ClientResource(Fraction(1, 2))] * 4, seed=3,
                    batch_size_f=2, batch_size_g=2)
        csv_a = logs_to_csv(run(prob, RunConfig(**base)).logs)
        csv_b = logs_to_csv(run(prob, RunConfig(**base)).logs)
        assert csv_a == csv_b

    def test_divergence_aborts_with_partial_logs(self):
        prob = make_quadratic(seed=12, n=2, d1=4, d2=4, eig_range=(0.9, 1.6))
        cfg = RunConfig(alpha=8.0, beta=1.8, inner_epochs=3, rounds=400,
                        capacities=full_caps(2), seed=0, divergence_factor=1e4)
        with pytest.raises(DivergenceDetected) as err:
            run(prob, cfg)
        assert 0 < len(err.value.partial_logs) < 400

    def test_non_finite_iterate_aborts_with_partial_logs(self):
        prob = make_logistic_tune(seed=0, n=2, classes=3, features=3)
        cfg = RunConfig(alpha=1e5, beta=0.1, rounds=5, estimator=RAFBO,
                        capacities=full_caps(2), seed=0)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceDetected) as err:
            run(prob, cfg)
        assert "non-finite" in str(err.value)
        assert len(err.value.partial_logs) < 5

    def test_non_finite_outer_aggregate_names_level(self):
        # grad Phi(x) = x here; a step of 10 * 0.5e308 overflows x to -inf
        # while y stays finite, and no client-side guard can see it
        prob = one_dim_tracking_problem()
        cfg = RunConfig(alpha=10.0, beta=0.5, rounds=1,
                        capacities=full_caps(1), seed=0)
        state = GlobalState(np.array([1e308]), np.zeros(1), 0)
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceDetected) as err:
            rabo_round(prob, state, cfg, divergence_guard=np.inf)
        assert "non-finite" in str(err.value)
        assert "outer" in str(err.value)

    def test_theory_guard_rejects_large_alpha(self):
        prob = make_quadratic(seed=13, n=2, d1=3, d2=3, eig_range=(0.9, 1.4))
        cfg = RunConfig(alpha=10.0, beta=0.01, rounds=1,
                        capacities=full_caps(2), seed=0)
        with pytest.raises(InvalidSpec) as err:
            check_theory_guard(cfg, derive_constants(prob))
        assert err.value.key == "alpha"

    def test_theory_guard_advisory_note(self):
        # floor = 1/mu_g - 1/(2 a L_y M_f mu_g) is positive only when
        # L_y > 2 at the alpha cap; build such constants directly
        from rabosim.problems import ProblemConstants
        consts = ProblemConstants(mu_g=0.5, l_g1=4.0, l_g2=0.0, l_f0=1.0,
                                  l_f1=1.0, M_f=9.0, L_f=81.0, L_y=8.0)
        cfg = RunConfig(alpha=1.0 / (consts.L_f + 4 * consts.M_f), beta=1e-6,
                        rounds=1, capacities=full_caps(2), seed=0)
        notes = check_theory_guard(cfg, consts)
        assert len(notes) == 1 and "floor" in notes[0]

    def test_theory_guard_no_note_when_floor_negative(self):
        prob = make_quadratic(seed=13, n=2, d1=3, d2=3, eig_range=(0.9, 1.4))
        consts = derive_constants(prob)
        cfg = RunConfig(alpha=1.0 / (consts.L_f + 4 * consts.M_f), beta=1e-6,
                        rounds=1, capacities=full_caps(2), seed=0)
        assert check_theory_guard(cfg, consts) == []

    def test_client_permutation_invariance(self):
        base = make_quadratic(seed=14, n=3, d1=4, d2=4, hetero=0.6,
                              eig_range=(0.8, 1.5))
        perm = [2, 0, 1]
        spec = base.spec
        permuted = QuadraticProblem(QuadraticSpec(
            a_mats=[spec.a_mats[p] for p in perm],
            b_mats=[spec.b_mats[p] for p in perm],
            c_vecs=[spec.c_vecs[p] for p in perm],
            outer_targets=[spec.outer_targets[p] for p in perm],
            inner_targets=[spec.inner_targets[p] for p in perm],
            u_mats=None, lam=spec.lam, noise_f=0, noise_g=0,
            quartic=0, sine_amp=0, ball_radius=10.0))
        tables = [[0, 1], [1, 2], [2, 3]]
        cfg_a = RunConfig(alpha=0.03, beta=0.2, inner_epochs=2, rounds=15,
                          capacities=full_caps(3), seed=0,
                          policy=MaskPolicy(variant="manual", table_x=tables,
                                            table_y=tables))
        perm_tables = [tables[p] for p in perm]
        cfg_b = RunConfig(alpha=0.03, beta=0.2, inner_epochs=2, rounds=15,
                          capacities=full_caps(3), seed=0,
                          policy=MaskPolicy(variant="manual",
                                            table_x=perm_tables,
                                            table_y=perm_tables))
        res_a = run(base, cfg_a)
        res_b = run(permuted, cfg_b)
        assert np.allclose(res_a.final_state.x, res_b.final_state.x, atol=1e-12)
        assert np.allclose(res_a.final_state.y, res_b.final_state.y, atol=1e-12)

    def test_full_mask_reduction_to_simultaneous_averaging(self):
        # all capacities 1: the round must match plain distributed bilevel
        # descent with simultaneous averaging, written without any masking
        # or coverage machinery
        from rabosim.linalg import solve_spd
        prob = make_quadratic(seed=22, n=4, d1=5, d2=5, hetero=0.4, lam=0.6,
                              eig_range=(0.8, 1.6))
        alpha, beta, epochs, rounds = 0.03, 0.25, 2, 30

        x = np.full(5, 1.2)
        y = np.zeros(5)
        reference = []
        for _ in range(rounds):
            deltas = []
            for i in range(4):
                yi = y.copy()
                for _ in range(epochs):
                    yi = yi - beta * prob.grad_g_y(i, x, yi)
                deltas.append((y - yi) / beta)
            mean_delta = np.zeros(5)
            for d in deltas:            # fixed client-order reduction
                mean_delta += d
            mean_delta /= 4
            y = y - beta * mean_delta
            hypers = []
            for i in range(4):
                gfy = prob.grad_f_y(i, x, y)
                z = solve_spd(prob.hess_yy_g(i, x, y), gfy)
                hypers.append(prob.grad_f_x(i, x, y)
                              - prob.cross_xy_g_apply(i, x, y, z))
            mean_h = np.zeros(5)
            for h in hypers:
                mean_h += h
            mean_h /= 4
            x = x - alpha * mean_h
            reference.append((x.copy(), y.copy()))

        cfg = RunConfig(alpha=alpha, beta=beta, inner_epochs=epochs,
                        rounds=rounds, capacities=full_caps(4), seed=0,
                        x0=np.full(5, 1.2), y0=np.zeros(5))
        res = run(prob, cfg)
        rx, ry = reference[-1]
        assert np.array_equal(res.final_state.x, rx)
        assert np.array_equal(res.final_state.y, ry)

    def test_inner_contraction(self):
        # frozen x, full masks, identical clients, beta = 1/(2 l_g1):
        # squared inner error contracts at least by (1 - beta mu_g) per round
        prob = make_quadratic(seed=15, n=4, d1=4, d2=4, hetero=0.0,
                              eig_range=(0.6, 1.8))
        consts = derive_constants(prob)
        beta = 1.0 / (2 * consts.l_g1)
        x = np.array([0.4, -0.3, 0.2, 0.6])
        y = 2.0 * np.ones(4)
        y_star = prob.y_star(x)
        masks = [mask_of([1, 1, 1, 1], "y", i) for i in range(4)]
        factor = 1.0 - beta * consts.mu_g
        for _ in range(50):
            err_before = float(np.sum((y - y_star) ** 2))
            reports = []
            for i in range(4):
                _, g = client_inner_loop(prob, i, x, y.copy(), masks[i],
                                         beta, inner_epochs=2)
                reports.append(ClientReport(i, mask_of([1] * 4, "x", i),
                                            masks[i], g, 0))
            y = aggregate_inner(y, reports, beta)
            err_after = float(np.sum((y - y_star) ** 2))
            if err_before < 1e-26:
                break
            assert err_after <= factor * err_before * (1 + 1e-6)

    def test_aggregation_unbiasedness_monte_carlo(self):
        # random masks independent of fixed deltas: E[update | covered]
        # equals the enumeration over the 2^3 mask patterns per coordinate
        deltas = np.array([1.0, 2.0, 4.0])
        beta = 1.0
        p_active = 0.5
        rng = np.random.default_rng(16)

        patterns = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        prob_mass = {pat: p_active ** sum(pat) * (1 - p_active) ** (3 - sum(pat))
                     for pat in patterns}
        expected_num = sum(m * np.mean([deltas[i] for i in range(3) if pat[i]])
                           for pat, m in prob_mass.items() if sum(pat) > 0)
        expected = expected_num / sum(m for pat, m in prob_mass.items()
                                      if sum(pat) > 0)

        updates = []
        for _ in range(1000):
            bits = rng.random(3) < p_active
            if not bits.any():
                continue
            reports = [report_with_delta(i, [int(bits[i])], [deltas[i]], d1=1)
                       for i in range(3)]
            y_next = aggregate_inner(np.zeros(1), reports, beta)
            updates.append(-y_next[0] / beta)
        assert np.mean(updates) == pytest.approx(expected, rel=0.05)


class TestStationarity:
    def test_at_minimizer(self):
        prob = make_quadratic(seed=17, n=3, d1=4, d2=4, hetero=0.3, lam=0.9,
                              eig_range=(0.8, 1.6))
        grad = prob.grad_phi(outer_minimizer(prob))
        assert grad @ grad <= 1e-16

    def test_one_dim_value(self):
        prob = one_dim_tracking_problem()
        grad = prob.grad_phi(np.array([2.0]))
        assert grad @ grad == pytest.approx(4.0)


class TestCosts:
    def run_with_caps(self, cap, estimator=EXACT_AID, d=8, rounds=3,
                      download_mode="masked", coord_fraction=1.0):
        prob = make_quadratic(seed=19, n=4, d1=d, d2=d, eig_range=(1.0, 1.0))
        cfg = RunConfig(alpha=0.02, beta=0.2, inner_epochs=2, rounds=rounds,
                        estimator=estimator,
                        rafbo=RAFBOConfig(mu=1e-3, coord_fraction=coord_fraction),
                        capacities=[ClientResource(cap)] * 4, seed=0,
                        download_mode=download_mode,
                        policy=MaskPolicy(variant="rolling"))
        return run(prob, cfg)

    def test_full_capacity_modes_agree(self):
        masked = self.run_with_caps(Fraction(1), download_mode="masked")
        full = self.run_with_caps(Fraction(1), download_mode="full")
        assert masked.ledger.legs() == full.ledger.legs()

    def test_quarter_capacity_exact_leg_bytes(self):
        res = self.run_with_caps(Fraction(1, 4), d=8, rounds=3)
        per_round = int(np.ceil(8 / 4)) * 8 * 4
        for leg, total in res.ledger.legs().items():
            assert total == per_round * 3, leg

    def test_full_download_mode_counts_full_dimension(self):
        res = self.run_with_caps(Fraction(1, 4), d=8, rounds=1,
                                 download_mode="full")
        legs = res.ledger.legs()
        assert legs["x_down"] == 8 * 8 * 4
        assert legs["g_up"] == 2 * 8 * 4      # uploads stay masked

    def test_rafbo_flops_below_exact(self):
        exact = self.run_with_caps(Fraction(1, 2), estimator=EXACT_AID)
        rafbo = self.run_with_caps(Fraction(1, 2), estimator=RAFBO)
        assert rafbo.ledger.total_flops < exact.ledger.total_flops

    def test_tally_increment_structure(self):
        reports = [report_with_delta(0, [1, 0], [1.0, 0.0]),
                   report_with_delta(1, [1, 1], [1.0, 1.0])]
        ledger = CostLedger()
        ledger.add(reports, "masked", d1=2, d2=2)
        assert ledger.g_up == 8 * (1 + 2)
        assert ledger.x_down == 8 * (2 + 2)   # helper uses full x masks

    def test_full_download_increment(self):
        reports = [report_with_delta(0, [1, 0, 0], [1.0, 0.0, 0.0], d1=4),
                   report_with_delta(1, [0, 1, 1], [0.0, 1.0, 1.0], d1=4)]
        for rep, flops in zip(reports, (5, 7)):
            rep.inner_flops = flops
        ledger = CostLedger()
        ledger.add(reports, "full", d1=4, d2=3)
        assert ledger.legs() == {"x_down": 8 * 4 * 2, "y_down": 8 * 3 * 2,
                                 "y_plus_down": 8 * 3 * 2,
                                 "g_up": 8 * (1 + 2), "h_up": 8 * (4 + 4)}
        assert ledger.flops_per_client == {0: 5, 1: 7}

    def test_round_increment_equals_ledger_change(self):
        reports = [report_with_delta(0, [1, 0, 1], [1.0, 0.0, 2.0], d1=2),
                   report_with_delta(1, [0, 1, 0], [0.0, 3.0, 0.0], d1=2)]
        reports[1].inner_flops = 11
        ledger = CostLedger()
        for mode in ("masked", "full", "masked"):
            before = (ledger.bytes_up, ledger.bytes_down, ledger.total_flops)
            inc = ledger.add(reports, mode, d1=2, d2=3)
            after = (ledger.bytes_up, ledger.bytes_down, ledger.total_flops)
            assert inc == tuple(b - a for a, b in zip(before, after))
        assert ledger.flops_per_client == {0: 0, 1: 33}


class TestCsvRendering:
    def test_fixed_header_and_nan(self):
        prob = make_logistic_tune(seed=20, n=2, imbalance_mu=0.5, classes=3,
                                  features=3, base_count=30)
        cfg = RunConfig(alpha=0.05, beta=0.2, rounds=2,
                        capacities=full_caps(2), seed=0)
        res = run(prob, cfg)
        text = logs_to_csv(res.logs)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "nan"

    def test_round_trip_floats(self):
        prob = make_quadratic(seed=21, n=2, d1=3, d2=3, eig_range=(0.9, 1.3))
        cfg = RunConfig(alpha=0.05, beta=0.25, rounds=2,
                        capacities=full_caps(2), seed=0)
        res = run(prob, cfg)
        text = logs_to_csv(res.logs)
        value = text.strip().split("\n")[1].split(",")[1]
        assert float(value) == res.logs[0].grad_phi_sq


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), d1=st.integers(2, 6),
       d2=st.integers(2, 6), estimator=st.sampled_from([EXACT_AID, RAFBO]),
       seed=st.integers(0, 2 ** 16))
def test_uncovered_coordinates_bit_frozen(data, n, d1, d2, estimator, seed):
    """A coordinate no client's manual table covers keeps its exact bits."""
    table_x = data.draw(partial_tables(n, d1, nonempty=True))
    table_y = data.draw(partial_tables(n, d2, nonempty=False))
    prob = make_quadratic(seed=seed, n=n, d1=d1, d2=d2, hetero=0.5,
                          noise_f=0.3, noise_g=0.3, eig_range=(0.6, 1.5),
                          quartic=0.1)
    cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=2, rounds=3,
                    estimator=estimator, capacities=full_caps(n), seed=seed,
                    batch_size_f=2, batch_size_g=2,
                    policy=MaskPolicy(variant="manual", table_x=table_x,
                                      table_y=table_y))
    rng = np.random.default_rng(seed)
    state = GlobalState(rng.standard_normal(d1), rng.standard_normal(d2), 0)
    free_x = ~np.isin(np.arange(d1), sum(table_x, []))
    free_y = ~np.isin(np.arange(d2), sum(table_y, []))
    x0, y0 = state.x.copy(), state.y.copy()
    for _ in range(cfg.rounds):
        state, _ = rabo_round(prob, state, cfg)
    assert np.array_equal(state.x[free_x], x0[free_x])
    assert np.array_equal(state.y[free_y], y0[free_y])
    assert not np.array_equal(state.x, x0)   # the covered part trained
