import copy
import gc
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import chain

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim import federation, hypergrad, linalg, masking
from rabosim.errors import (
    DimensionMismatch,
    DivergenceDetected,
    InvalidSpec,
    SingularRestrictedHessian,
)
from rabosim.federation import (
    CSV_COLUMNS,
    CostLedger,
    GlobalState,
    RoundLog,
    RunConfig,
    _hex_rows,
    aggregate_inner,
    aggregate_outer,
    check_theory_guard,
    client_inner_loop,
    logs_to_csv,
    rabo_round,
    run,
)
from rabosim.hypergrad import EXACT_AID, RAFBO
from rabosim.masking import (
    CoverageTracker,
    coverage,
    generate_mask,
    parse_capacities,
    schedule_period,
)
from rabosim.problems import (
    base,
    derive_constants,
    make_logistic_tune,
    make_quadratic,
)
from rabosim.problems.quadratic import QuadraticProblem, QuadraticSpec
from rabosim.rng import RngStream
from linear_oracle import outer_minimizer
from tests_support import one_dim_tracking_problem, partial_tables


def mask_of(bits):
    """One client's mask row."""
    return np.array(bits, dtype=np.uint8)


def masks_of(*rows):
    """One level's (n, d) masks, row i for client i."""
    return np.array(rows, dtype=np.uint8)


def rows_of(*rows):
    """(n, d) per-client vectors: inner deltas or hypergradients."""
    return np.array(rows, dtype=np.float64)


def full_caps(n):
    return [Fraction(1)] * n


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
        prob = make_quadratic(seed=1, n=2, d1=4, d2=4,
                              eig_min=0.8, eig_max=1.6)
        x = np.array([0.3, -0.2, 0.5, 0.1])
        y0 = np.zeros(4)
        my = mask_of([1, 0, 1, 1])
        y1, g = client_inner_loop(prob, 0, x, y0, my, beta=0.5, inner_epochs=1)
        expected = prob.grad_g_y(0, x, y0) * my
        assert np.array_equal(g, expected)
        assert np.array_equal(y1, y0 - 0.5 * expected)

    def test_stationary_start(self):
        prob = make_quadratic(seed=2, n=2, d1=3, d2=3,
                              eig_min=0.9, eig_max=1.3)
        x = np.array([0.1, 0.4, -0.2])
        spec = prob.spec
        y_opt = np.linalg.solve(spec.a_mats[0],
                                -(spec.b_mats[0] @ x + spec.c_vecs[0]))
        my = mask_of([1, 1, 1])
        y_t, g = client_inner_loop(prob, 0, x, y_opt, my, beta=0.25,
                                   inner_epochs=3)
        assert np.allclose(y_t, y_opt, atol=1e-12)
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_two_step_hand_unroll(self):
        # g = 0.5 (y-1)^2, beta = 0.5, y0 = 0: y1 = 0.5, y2 = 0.75;
        # delta-gradient is oriented like a gradient: (y0 - y2)/beta = -1.5
        prob = scalar_quadratic(c=1.0)
        my = mask_of([1])
        y2, g = client_inner_loop(prob, 0, np.zeros(1), np.zeros(1), my,
                                  beta=0.5, inner_epochs=2)
        assert y2[0] == pytest.approx(0.75)
        assert g[0] == pytest.approx(-1.5)

    def test_support_containment(self):
        prob = make_quadratic(seed=3, n=1, d1=4, d2=4,
                              eig_min=0.7, eig_max=1.5)
        my = mask_of([0, 1, 0, 1])
        y_t, g = client_inner_loop(prob, 0, np.ones(4), np.zeros(4), my,
                                   beta=0.3, inner_epochs=4)
        assert np.all(g[my == 0] == 0.0)
        assert np.all(y_t[my == 0] == 0.0)


class TestAggregateInner:
    def test_single_client_collapse(self):
        prob = make_quadratic(seed=4, n=1, d1=3, d2=3,
                              eig_min=0.8, eig_max=1.4)
        my = mask_of([1, 1, 1])
        y_q = np.zeros(3)
        y_t, g = client_inner_loop(prob, 0, np.ones(3), y_q, my, beta=0.5,
                                   inner_epochs=2)
        y_next = aggregate_inner(y_q, my[None], g[None], beta=0.5)
        assert np.array_equal(y_next, y_t)

    def test_disjoint_masks(self):
        y_next = aggregate_inner(np.zeros(2), masks_of([1, 0], [0, 1]),
                                 rows_of([2.0, 0.0], [0.0, 4.0]), beta=0.1)
        assert np.allclose(y_next, [-0.2, -0.4])

    def test_shared_coordinate_mean(self):
        y_next = aggregate_inner(np.zeros(1), masks_of([1], [1]),
                                 rows_of([2.0], [4.0]), beta=0.1)
        assert y_next[0] == pytest.approx(-0.3)

    def test_uncovered_coordinate_bit_frozen(self):
        y_q = np.array([0.1, -0.7, 0.3])
        y_next = aggregate_inner(y_q, masks_of([1, 0, 1]),
                                 rows_of([1.0, 0.0, 2.0]), beta=0.2)
        assert y_next[1] == y_q[1]
        assert np.float64(y_next[1]).tobytes() == np.float64(y_q[1]).tobytes()


class TestAggregateOuter:
    def test_identical_full_reports(self):
        h = [0.5, -1.0, 2.0]
        x_next = aggregate_outer(np.zeros(3), np.ones((3, 3), np.uint8),
                                 rows_of(h, h, h), alpha=0.1)
        assert np.allclose(x_next, -0.1 * np.array(h))

    def test_zero_hypergradients(self):
        x_q = np.array([1.0, -2.0])
        assert np.array_equal(aggregate_outer(
            x_q, masks_of([1, 1]), rows_of([0.0, 0.0]), 0.5), x_q)

    def test_partial_coverage_mean(self):
        x_next = aggregate_outer(np.zeros(1), masks_of([1], [1], [0]),
                                 rows_of([1.0], [3.0], [9.0]), alpha=0.1)
        assert x_next[0] == pytest.approx(-0.2)


def covering_average_reference(v_q, masks, vectors, step):
    """Per-coordinate loop: mean over covering clients in ascending order."""
    out = v_q.copy()
    for k in range(len(v_q)):
        total, count = 0.0, 0
        for mask, vec in zip(masks, vectors):
            if mask[k]:
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
        masks_x = gen.integers(0, 2, (n, d1)).astype(np.uint8)
        masks_y = gen.integers(0, 2, (n, d2)).astype(np.uint8)
        hypergrads = gen.standard_normal((n, d1))
        g_deltas = gen.standard_normal((n, d2))
        x_q, y_q = gen.standard_normal(d1), gen.standard_normal(d2)
        y_next = aggregate_inner(y_q, masks_y, g_deltas, beta=0.3)
        x_next = aggregate_outer(x_q, masks_x, hypergrads, alpha=0.7)
        assert np.array_equal(y_next, covering_average_reference(
            y_q, masks_y, g_deltas, 0.3))
        assert np.array_equal(x_next, covering_average_reference(
            x_q, masks_x, hypergrads, 0.7))

    def test_update_rows_must_match_mask_rows(self):
        with pytest.raises(DimensionMismatch, match="inner"):
            aggregate_inner(np.zeros(2), masks_of([1, 1]),
                            rows_of([1.0, 1.0], [1.0, 1.0]), beta=0.1)
        with pytest.raises(DimensionMismatch, match="outer"):
            aggregate_outer(np.zeros(2), masks_of([1, 1]), rows_of([1.0]),
                            alpha=0.1)


# Mask arrays every reader rejects. The first three are the inputs the
# old per-client ``Mask`` value rejected (a bit of 2, a -1 that wrapped
# to 255 as uint8, a second axis where one was expected), lifted to the
# (n, d) layout.
BAD_MASKS = {
    "non-binary": [[0, 2, 1]],
    "negative": [[1, -1, 1]],
    "3-D": np.ones((2, 2, 3), dtype=np.uint8),
    "1-D": np.ones(3, dtype=np.uint8),
}


class TestMaskArrayCheck:
    """A mask array enters the aggregators, ``coverage`` and the ledger
    through one shape and 0/1 check, which names the level."""

    def test_wrong_width_is_a_dimension_mismatch(self):
        # two-wide masks against three-wide iterates and updates used to
        # reach numpy's broadcasting and raise a bare ValueError
        with pytest.raises(DimensionMismatch, match="inner"):
            aggregate_inner(np.zeros(3), np.ones((1, 2), np.uint8),
                            np.ones((1, 3)), beta=0.1)
        with pytest.raises(DimensionMismatch, match="outer"):
            aggregate_outer(np.zeros(3), np.ones((1, 2), np.uint8),
                            np.ones((1, 3)), alpha=0.1)

    @pytest.mark.parametrize("name", BAD_MASKS)
    def test_every_reader_rejects(self, name):
        bad, good = BAD_MASKS[name], np.ones((1, 3), np.uint8)
        with pytest.raises(DimensionMismatch, match="inner"):
            aggregate_inner(np.zeros(3), bad, np.ones((1, 3)), beta=0.1)
        with pytest.raises(DimensionMismatch, match="outer"):
            aggregate_outer(np.zeros(3), bad, np.ones((1, 3)), alpha=0.1)
        with pytest.raises(DimensionMismatch):
            coverage(bad)
        ledger, cfg = CostLedger(), RunConfig(alpha=0.1, beta=0.1)
        with pytest.raises(DimensionMismatch, match="outer"):
            ledger.add(bad, good, cfg)
        with pytest.raises(DimensionMismatch, match="inner"):
            ledger.add(good, bad, cfg)
        assert ledger.legs() == CostLedger().legs()

    def test_ledger_rows_must_pair_up(self):
        with pytest.raises(DimensionMismatch, match="inner"):
            CostLedger().add(np.ones((2, 3), np.uint8),
                             np.ones((3, 3), np.uint8),
                             RunConfig(alpha=0.1, beta=0.1))

    def test_accepts_bool_and_empty_levels(self):
        masks = np.array([[True, False], [True, True]])
        assert coverage(masks) == 1
        assert np.array_equal(
            aggregate_inner(np.zeros(2), masks, rows_of([1.0, 0.0],
                                                        [3.0, 2.0]), 1.0),
            [-2.0, -2.0])
        assert coverage(np.zeros((2, 0), np.uint8)) is None


class TestRabobRound:
    def test_full_capacity_coverage(self):
        prob = make_quadratic(seed=5, n=3, d1=4, d2=4,
                              eig_min=0.8, eig_max=1.5)
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
        assert str(err.value) == \
            f"capacities lists {count} capacities for 3 clients"

    def test_one_generate_mask_call_per_level(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(masking.generate_mask(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(federation, "generate_mask", spy)
        prob = make_quadratic(seed=5, n=3, d1=4, d2=5)
        cfg = RunConfig(alpha=0.02, beta=0.2,
                        capacities=[Fraction(1, 2)] * 3)
        rabo_round(prob, GlobalState(np.zeros(4), np.zeros(5), 0), cfg)
        assert [masks.shape for masks in calls] == [(3, 4), (3, 5)]
        for masks in calls:
            with pytest.raises(ValueError, match="read-only"):
                masks[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                masks[1][0] = 1

    def test_run_config_is_frozen(self):
        cfg = RunConfig(alpha=0.02, beta=0.2, capacities=full_caps(1))
        with pytest.raises(FrozenInstanceError):
            cfg.alpha = -1.0

    @pytest.mark.parametrize("capacities", [
        [Fraction(1, 2)] * 2, ["1/2"] * 2, [0.5, 0.5], "1/2"],
        ids=["fractions", "strings", "decimals", "shared"])
    def test_capacity_forms_run_alike(self, capacities):
        # a list of Fraction, string or decimal capacities used to end in
        # AttributeError: 'Fraction' object has no attribute 'active_count'
        prob = make_quadratic(seed=1, n=2, d1=4, d2=4)
        cfg = RunConfig(capacities=capacities, rounds=3)
        want = run(prob, RunConfig(capacities=[Fraction(1, 2)] * 2, rounds=3))
        assert logs_to_csv(run(prob, cfg).logs) == logs_to_csv(want.logs)

    @pytest.mark.parametrize("level", ["x", "y"])
    def test_manual_table_rows_must_match_problem_clients(self, level):
        # a third row for two clients used to be ignored
        prob = make_quadratic(seed=1, n=2, d1=4, d2=4)
        tables = {"x": [[0], [1]], "y": [[0], [1]]}
        tables[level] = [[0], [1], [2]]
        cfg = RunConfig(policy="manual", manual_tables=tables)
        with pytest.raises(InvalidSpec) as err:
            rabo_round(prob, GlobalState(np.zeros(4), np.zeros(4), 0), cfg)
        assert err.value.key == "manual_tables"
        assert str(err.value) == f"manual_tables.{level} has 3 rows for 2 clients"

    def test_stationary_fixed_point(self):
        prob = make_quadratic(seed=6, n=4, d1=5, d2=5, hetero=0.3, lam=0.8,
                              eig_min=0.7, eig_max=1.8)
        x_star = outer_minimizer(prob)
        y_star = prob.y_star(x_star)
        cfg = RunConfig(alpha=0.02, beta=0.2, inner_epochs=2, rounds=1,
                        capacities=full_caps(4), seed=0)
        state = GlobalState(x_star.copy(), y_star.copy(), 0)
        new_state, _ = rabo_round(prob, state, cfg)
        assert np.linalg.norm(new_state.x - x_star) <= 1e-12

    def test_metrics_are_post_aggregation(self):
        prob = make_quadratic(seed=7, n=2, d1=3, d2=3,
                              eig_min=0.9, eig_max=1.4)
        cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=1, rounds=1,
                        capacities=full_caps(2), seed=0)
        state = GlobalState(np.ones(3), np.zeros(3), 0)
        new_state, log = rabo_round(prob, state, cfg)
        grad = prob.grad_phi(new_state.x)
        assert log.grad_phi_sq == pytest.approx(float(grad @ grad), rel=1e-12)

    @pytest.mark.parametrize("quartic", [0.0, 0.1])
    def test_one_inner_solve_per_round(self, quartic):
        """grad_phi, phi and inner_err share one y*(x_next) solve."""
        prob = make_quadratic(seed=7, n=2, d1=3, d2=3,
                              eig_min=0.9, eig_max=1.4, quartic=quartic)
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
                        estimator=RAFBO, mu=1e-4,
                        capacities=full_caps(2), seed=0)
        res = run(prob, cfg)
        assert np.all(np.isfinite(res.final_state.x))
        assert np.all(np.isfinite(res.final_state.y))

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

    def test_logistic_round_uses_nan_sentinels(self):
        prob = make_logistic_tune(seed=8, n=2, imbalance_mu=0.5, classes=3,
                                  features=3, base_count=30)
        cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=1, rounds=1,
                        capacities=full_caps(2), seed=0)
        state = GlobalState(np.zeros(prob.d1), np.zeros(prob.d2), 0)
        _, log = rabo_round(prob, state, cfg)
        assert np.isnan(log.grad_phi_sq) and np.isnan(log.phi)
        assert np.isnan(log.inner_err_sq)


def round_problem(case, **kwargs):
    """make_quadratic's 8 clients, which share one A and one B, or with a
    distinct writable or read-only A_i per client."""
    prob = make_quadratic(seed=11, n=8, d1=8, d2=8, hetero=0.3, eig_min=0.8,
                          eig_max=1.6, quartic=0.1 * (case == "quartic"),
                          **kwargs)
    if case.endswith("per-client"):
        a_mats = [a + 0.01 * i * np.eye(8)
                  for i, a in enumerate(prob.spec.a_mats)]
        for a in a_mats:
            a.setflags(write=case.startswith("writable"))
        prob = QuadraticProblem(replace(prob.spec, a_mats=a_mats))
    return prob


def one_by_one(fn):
    """``fn`` over clients as rows, called one client at a time: arrays
    and rafbo's list of streams are split by row, and batches, one per
    call or ``client_inner_loop``'s one per epoch, pass through as they
    are."""
    def row(a, r):
        per_row = isinstance(a, np.ndarray) or (
            isinstance(a, list) and any(isinstance(s, RngStream) for s in a))
        return a[r] if per_row else a

    def call(problem, i, *args):
        outs = [fn(problem, c, *(row(a, r) for a in args))
                for r, c in enumerate(i.tolist())]
        return tuple(map(np.array, zip(*outs))) \
            if isinstance(outs[0], tuple) else np.array(outs)
    return call


def three_rounds(prob, monkeypatch, rows, capacity=Fraction(1, 2),
                 estimator=EXACT_AID, noise=False):
    """Three rounds, with clients as rows or with every round phase called
    one client at a time; returns ((factorizations, LAPACK ``potrs``
    calls) per round, each round's bytes of x and y and log, products per
    round), where products lists each ``np.matvec`` with an A_i, a B_i or
    a B_i^T as ((block id, transposed), its rows' bytes)."""
    built, solved, counts, rounds, products = [], [], [], [], []
    blocks = {id(b) for b in prob.spec.a_mats + prob.spec.b_mats}

    def block_key(a):
        """(block id, transposed) of an A_i, a B_i or a B_i^T, else None."""
        return (id(a), False) if id(a) in blocks else \
            (id(a.base), True) if id(a.base) in blocks else None
    build, potrs, matvec = base.spd_solver, linalg.dpotrs, np.matvec
    batch = 2 if noise else 0
    cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=2, estimator=estimator,
                    capacities=[capacity] * prob.n,
                    batch_size_f=batch, batch_size_g=batch, log_masks=True)
    state = GlobalState(np.ones(prob.d1), np.zeros(prob.d2), 0)
    with monkeypatch.context() as patch:
        patch.setattr(base, "spd_solver",
                      lambda a: built.append(a.shape) or build(a))
        patch.setattr(linalg, "dpotrs", lambda c, b, **kwargs:
                      solved.append(b.shape) or potrs(c, b, **kwargs))
        patch.setattr(np, "matvec", lambda a, v: (key := block_key(a)) and
                      products[-1].append((key, [r.tobytes() for r in v]))
                      or matvec(a, v))
        for name in [] if rows else ["client_inner_loop",
                                     "exact_hypergradient",
                                     "rafbo_hypergradient"]:
            patch.setattr(federation, name,
                          one_by_one(getattr(federation, name)))
        for _ in range(3):
            before = len(built), len(solved)
            products.append([])
            state, log = federation.rabo_round(prob, state, cfg)
            counts.append((len(built) - before[0], len(solved) - before[1]))
            rounds.append((state.x.tobytes(), state.y.tobytes(), log))
    return counts, rounds, products


class TestRoundSharing:
    """A round's call factors a shared A once per active set, solves each
    factor once for all of its rows and multiplies each block once over
    its distinct rows, with the bits of a round that runs its clients one
    at a time."""

    CASES = ["shared", "writable-per-client", "read-only-per-client",
             "quartic"]
    FACTORED = {"shared": 2}   # rolling at 1/2: 2 windows; else one each

    @pytest.mark.parametrize("case", CASES)
    def test_factors_each_distinct_block_once_per_round(self, monkeypatch,
                                                        case):
        prob = round_problem(case)
        got = three_rounds(prob, monkeypatch, rows=True)
        want = three_rounds(prob, monkeypatch, rows=False)
        factored = self.FACTORED.get(case, prob.n)
        # one potrs call per factor, and one more for the oracle metrics'
        # y_star, against the client-average A
        assert got[0] == [(factored, factored + 1)] * 3
        assert want[0] == [(prob.n, prob.n + 1)] * 3
        assert got[1] == want[1]

    @pytest.mark.parametrize("estimator", [EXACT_AID, RAFBO])
    @pytest.mark.parametrize("noise", [False, True], ids=["exact", "noisy"])
    @pytest.mark.parametrize("capacity", [Fraction(1, 2), Fraction(1, 4)],
                             ids=["1-2", "1-4"])
    @pytest.mark.parametrize("case", CASES)
    def test_products_once_per_distinct_row_per_call(
            self, monkeypatch, case, capacity, noise, estimator):
        scale = 0.1 if noise else 0.0
        prob = round_problem(case, noise_f=scale, noise_g=scale)
        run = dict(capacity=capacity, estimator=estimator, noise=noise)
        _, rounds, got = three_rounds(prob, monkeypatch, rows=True, **run)
        _, want_rounds, want = three_rounds(prob, monkeypatch, rows=False,
                                            **run)
        assert rounds == want_rounds
        # each of the two inner epochs' lower gradients takes one product
        # with its client's A_i and one with its B_i, and the hypergradient
        # one with B_i^T: exact_aid's cross term, rafbo's implicit term
        users = Counter([(id(a), False) for a in prob.spec.a_mats]
                        + [(id(b), t) for b in prob.spec.b_mats
                           for t in (False, True)])
        calls = {key: 1 if key[1] else 2 for key in users}
        for products, want_products in zip(got, want, strict=True):
            assert Counter(key for key, _ in want_products) \
                == {key: n * calls[key] for key, n in users.items()}
            assert Counter(key for key, _ in products) == calls
            for key in users:
                inputs = [rows for k, rows in products if k == key]
                assert all(len(set(rows)) == len(rows) for rows in inputs)
                assert set(chain(*inputs)) \
                    == {row for k, [row] in want_products if k == key}
            if case == "shared":
                # a window's clients repeat their products one at a time
                assert sum(len(rows) for _, rows in products) \
                    < len(want_products)

    def test_large_shared_block_rows_agree_to_rounding(self):
        # one 397 x 397 A shared by 16 clients at capacity 1: a single
        # potrs call solves all 16 rows, and OpenBLAS blocks its triangular
        # solve by 384 columns, so a size that is not a multiple of 8 may
        # round otherwise than 16 one-row solves; the rows are backward
        # stable solves of one system, so they agree within c eps kappa(A)
        rng = np.random.default_rng(397)
        n, d1, d2 = 16, 6, 397
        q, _ = np.linalg.qr(rng.standard_normal((d2, d2)))
        a = linalg.symmetrize(q @ np.diag(rng.uniform(0.5, 3.0, d2)) @ q.T)
        b = rng.standard_normal((d2, d1))
        for m in a, b:
            m.setflags(write=False)
        prob = QuadraticProblem(QuadraticSpec(
            a_mats=[a] * n, b_mats=[b] * n,
            c_vecs=list(rng.standard_normal((n, d2))),
            outer_targets=list(rng.standard_normal((n, d1))),
            inner_targets=list(rng.standard_normal((n, d2))), u_mats=None,
            lam=1.0, noise_f=0, noise_g=0, quartic=0, sine_amp=0,
            ball_radius=10.0))
        clients = np.arange(n)
        x, y = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
        mask_x, mask_y = np.ones((n, d1)), np.ones((n, d2))
        got = hypergrad.exact_hypergradient(prob, clients, x, y, mask_x,
                                            mask_y)
        want = one_by_one(hypergrad.exact_hypergradient)(
            prob, clients, x, y, mask_x, mask_y)
        lo, hi = linalg.spectral_bounds(a)
        z = [linalg.solve_spd(a, g) for g in prob.grad_f_y(clients, x, y)]
        bound = 32 * np.finfo(float).eps * (hi / lo) \
            * linalg.spectral_norm(b) * np.linalg.norm(z, axis=1)
        assert np.all(np.linalg.norm(got - want, axis=1) <= bound)


# capacities of periods 1, 2, 3 and 4: a list of them repeats its rolling
# masks every lcm of its periods, up to 12 rounds
MIXED_CAPACITIES = ["1", "1/2", "2/3", "1/3", "1/4", "3/4"]


@st.composite
def schedule_cases(draw):
    """(n, d1, d2, policy, capacities entry, manual tables or None)."""
    n, d1, d2 = (draw(st.integers(lo, 6)) for lo in (1, 2, 2))
    policy = draw(st.sampled_from(["static", "rolling", "manual"]))
    capacities = draw(st.one_of(
        st.sampled_from(MIXED_CAPACITIES),
        st.lists(st.sampled_from(MIXED_CAPACITIES), min_size=n, max_size=n)))
    tables = {"x": draw(partial_tables(n, d1)),
              "y": draw(partial_tables(n, d2))} if policy == "manual" else None
    return n, d1, d2, policy, capacities, tables


@settings(max_examples=40, deadline=None)
@given(case=schedule_cases(), estimator=st.sampled_from([EXACT_AID, RAFBO]),
       download_mode=st.sampled_from(["masked", "full"]),
       seed=st.integers(0, 2 ** 16))
def test_schedule_matches_the_per_round_build(case, estimator, download_mode,
                                              seed):
    """Past one period of rounds, each round reads the masks, C* and
    ledger charge that ``generate_mask``, ``coverage`` and
    ``CostLedger.add`` give for that round."""
    n, d1, d2, policy, capacities, tables = case
    prob = make_quadratic(seed=seed, n=n, d1=d1, d2=d2, hetero=0.3,
                          noise_f=0.2, noise_g=0.2, eig_min=0.8, eig_max=1.5)
    cfg = RunConfig(alpha=0.02, beta=0.2, estimator=estimator,
                    coord_fraction=0.5, policy=policy, capacities=capacities,
                    download_mode=download_mode, log_masks=True,
                    batch_size_f=2, batch_size_g=2, manual_tables=tables)
    caps = parse_capacities(capacities)
    caps = caps if isinstance(caps, tuple) else (caps,) * n
    period = schedule_period(policy, caps)
    tracker, ledger, want_tracker, want_ledger = \
        CoverageTracker(), CostLedger(), CoverageTracker(), CostLedger()
    state = GlobalState(np.zeros(d1), np.zeros(d2), 0)
    for q in range(2 * period + 1):
        masks = [generate_mask(np.zeros(d), caps, policy, q,
                               table=(tables or {}).get(level))
                 for d, level in ((d1, "x"), (d2, "y"))]
        phase = cfg.mask_phase(prob, q, state.x, state.y)
        assert phase.masks_x.tobytes() == masks[0].tobytes()
        assert phase.masks_y.tobytes() == masks[1].tobytes()
        assert (phase.c_star_x, phase.c_star_y) == tuple(map(coverage, masks))
        want = want_ledger.add(*masks, cfg)
        want_tracker.observe(*map(coverage, masks))
        state, log = rabo_round(prob, state, cfg, tracker, ledger)
        assert (log.bytes_up, log.bytes_down, log.flops) == want
        assert (log.masks_x_hex, log.masks_y_hex) == \
            tuple(map(_hex_rows, masks))
        assert ledger.legs() == want_ledger.legs()
        assert list(ledger.flops_per_client.items()) == \
            list(want_ledger.flops_per_client.items())
        assert (tracker.c_star_x, tracker.c_star_y) == \
            (want_tracker.c_star_x, want_tracker.c_star_y)


class TestMaskSchedule:
    def test_one_config_on_two_problem_shapes(self):
        # the schedule is held per problem shape, so a RunConfig reused on
        # another (n, d1, d2) builds that shape's own masks
        cfg = RunConfig(alpha=0.02, beta=0.2, capacities="1/2",
                        log_masks=True)
        probs = [make_quadratic(seed=1, n=2, d1=4, d2=4),
                 make_quadratic(seed=2, n=3, d1=6, d2=5)]
        states = [GlobalState(np.zeros(p.d1), np.zeros(p.d2), 0)
                  for p in probs]
        for _ in range(3):
            for k, prob in enumerate(probs):
                q = states[k].round_index
                states[k], log = rabo_round(prob, states[k], cfg)
                want = [generate_mask(np.zeros(d), [Fraction(1, 2)] * prob.n,
                                      "rolling", q)
                        for d in (prob.d1, prob.d2)]
                assert (log.masks_x_hex, log.masks_y_hex) == \
                    tuple(map(_hex_rows, want))
        for prob in probs:
            assert logs_to_csv(run(prob, cfg).logs) == \
                logs_to_csv(run(prob, replace(cfg)).logs)

    def test_caller_table_change_does_not_reach_the_run(self):
        # the config used to hold the caller's dict, which a change after
        # the check could make out of range
        prob = make_quadratic(seed=3, n=2, d1=4, d2=4)
        tables = {"x": [[0, 1], [2]], "y": [[0], [1, 3]]}
        want = run(prob, RunConfig(rounds=3, policy="manual",
                                   manual_tables=copy.deepcopy(tables)))
        cfg = RunConfig(rounds=3, policy="manual", manual_tables=tables)
        tables["x"][0].append(9)
        tables["y"] = [[0, 1, 2, 3]] * 2
        assert logs_to_csv(run(prob, cfg).logs) == logs_to_csv(want.logs)
        assert cfg.manual_tables == {"x": ((0, 1), (2,)), "y": ((0,), (1, 3))}
        with pytest.raises(TypeError):
            cfg.manual_tables["x"] = ((0,), (1,))

    @pytest.mark.parametrize("policy,period", [
        ("rolling", 12), ("static", 1), ("manual", 1)])
    def test_steady_state_rebuilds_and_rechecks_nothing(self, policy, period,
                                                        monkeypatch):
        prob = make_quadratic(seed=4, n=4, d1=6, d2=5)
        tables = {"x": [[0, 1], [2, 3], [4, 5], [0]],
                  "y": [[0], [1], [2], [3, 4]]}
        cfg = RunConfig(policy=policy, capacities="1" if policy == "manual"
                        else ["1/2", "1/3", "2/3", "1/4"],
                        manual_tables=tables if policy == "manual" else None)
        calls = Counter()
        for module, name in ((masking, "check_rows"), (masking, "check_table"),
                             (federation, "check_fit"),
                             (federation, "generate_mask"),
                             (federation, "coverage")):
            def counted(*args, _name=name, _original=getattr(module, name),
                        **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        state = GlobalState(np.zeros(6), np.zeros(5), 0)
        for _ in range(period):
            state, _ = rabo_round(prob, state, cfg)
        # each phase built once, and the fit checked once
        assert calls["generate_mask"] == 2 * period
        assert calls["check_fit"] == 1
        calls.clear()
        for _ in range(2 * period + 1):
            state, _ = rabo_round(prob, state, cfg)
        assert not calls

    def test_magnitude_topk_builds_every_round(self, monkeypatch):
        calls = []
        monkeypatch.setattr(federation, "generate_mask", lambda *args: (
            calls.append(args[3]) or generate_mask(*args)))
        prob = make_quadratic(seed=5, n=3, d1=4, d2=4)
        cfg = RunConfig(policy="magnitude_topk", capacities="1/2")
        state = GlobalState(np.arange(4.0), np.arange(4.0), 0)
        for _ in range(3):
            state, _ = rabo_round(prob, state, cfg)
        assert calls == [0, 0, 1, 1, 2, 2]

    def test_schedule_is_freed_with_its_config(self):
        # no reference cycle: the masks go with the last reference to the
        # config, without waiting for the cycle collector
        prob = make_quadratic(seed=6, n=3, d1=4, d2=4)
        cfg = RunConfig(capacities="1/2")
        rabo_round(prob, GlobalState(np.zeros(4), np.zeros(4), 0), cfg)
        held = weakref.ref(cfg.mask_phase(prob, 0, None, None).masks_x)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del cfg
            assert held() is None
        finally:
            if enabled:
                gc.enable()


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
                              eig_min=0.8, eig_max=1.7)
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
                              noise_f=0.1, noise_g=0.1,
                              eig_min=0.8, eig_max=1.5)
        base = dict(alpha=0.02, beta=0.2, inner_epochs=2, rounds=20,
                    capacities=[Fraction(1, 2)] * 4, seed=3,
                    batch_size_f=2, batch_size_g=2)
        csv_a = logs_to_csv(run(prob, RunConfig(**base)).logs)
        csv_b = logs_to_csv(run(prob, RunConfig(**base)).logs)
        assert csv_a == csv_b

    def test_divergence_aborts_with_partial_logs(self):
        prob = make_quadratic(seed=12, n=2, d1=4, d2=4,
                              eig_min=0.9, eig_max=1.6)
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

    def test_overflowing_oracle_metric_names_round_and_value(self):
        # lam 1e300 moves round 0's x to about 1e299, which is finite, but
        # lam (x - a) squared overflows grad_phi_sq; the run fails naming
        # the round and the value instead of logging inf
        prob = make_quadratic(seed=3, n=2, d1=3, d2=3, lam=1e300)
        cfg = RunConfig(rounds=3, capacities=full_caps(2))
        with pytest.raises(DivergenceDetected) as err:
            run(prob, cfg)
        assert str(err.value) == (
            "round 0: oracle grad_phi_sq = inf is non-finite at ||x|| = "
            "1.242e+299 after steps of alpha 0.05")
        assert err.value.partial_logs == []

    def test_theory_guard_rejects_large_alpha(self):
        prob = make_quadratic(seed=13, n=2, d1=3, d2=3,
                              eig_min=0.9, eig_max=1.4)
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
        prob = make_quadratic(seed=13, n=2, d1=3, d2=3,
                              eig_min=0.9, eig_max=1.4)
        consts = derive_constants(prob)
        cfg = RunConfig(alpha=1.0 / (consts.L_f + 4 * consts.M_f), beta=1e-6,
                        rounds=1, capacities=full_caps(2), seed=0)
        assert check_theory_guard(cfg, consts) == []

    def test_client_permutation_invariance(self):
        base = make_quadratic(seed=14, n=3, d1=4, d2=4, hetero=0.6,
                              eig_min=0.8, eig_max=1.5)
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
                          policy="manual",
                          manual_tables={"x": tables, "y": tables})
        perm_tables = [tables[p] for p in perm]
        cfg_b = RunConfig(alpha=0.03, beta=0.2, inner_epochs=2, rounds=15,
                          capacities=full_caps(3), seed=0,
                          policy="manual",
                          manual_tables={"x": perm_tables, "y": perm_tables})
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
                              eig_min=0.8, eig_max=1.6)
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
                              eig_min=0.6, eig_max=1.8)
        consts = derive_constants(prob)
        beta = 1.0 / (2 * consts.l_g1)
        x = np.array([0.4, -0.3, 0.2, 0.6])
        y = 2.0 * np.ones(4)
        y_star = prob.y_star(x)
        masks = np.ones((4, 4), dtype=np.uint8)
        factor = 1.0 - beta * consts.mu_g
        for _ in range(50):
            err_before = float(np.sum((y - y_star) ** 2))
            g_deltas = np.array([
                client_inner_loop(prob, i, x, y.copy(), masks[i], beta,
                                  inner_epochs=2)[1] for i in range(4)])
            y = aggregate_inner(y, masks, g_deltas, beta)
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
            y_next = aggregate_inner(np.zeros(1), bits[:, None],
                                     deltas[:, None], beta)
            updates.append(-y_next[0] / beta)
        assert np.mean(updates) == pytest.approx(expected, rel=0.05)


class TestStationarity:
    def test_at_minimizer(self):
        prob = make_quadratic(seed=17, n=3, d1=4, d2=4, hetero=0.3, lam=0.9,
                              eig_min=0.8, eig_max=1.6)
        grad = prob.grad_phi(outer_minimizer(prob))
        assert grad @ grad <= 1e-16

    def test_one_dim_value(self):
        prob = one_dim_tracking_problem()
        grad = prob.grad_phi(np.array([2.0]))
        assert grad @ grad == pytest.approx(4.0)


class TestCosts:
    def run_with_caps(self, cap, estimator=EXACT_AID, d=8, rounds=3,
                      download_mode="masked", coord_fraction=1.0):
        prob = make_quadratic(seed=19, n=4, d1=d, d2=d,
                              eig_min=1.0, eig_max=1.0)
        cfg = RunConfig(alpha=0.02, beta=0.2, inner_epochs=2, rounds=rounds,
                        estimator=estimator, coord_fraction=coord_fraction,
                        capacities=[cap] * 4, seed=0,
                        download_mode=download_mode, policy="rolling")
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
        ledger = CostLedger()
        ledger.add(np.ones((2, 2), np.uint8), masks_of([1, 0], [1, 1]),
                   RunConfig(alpha=0.1, beta=0.1))
        assert ledger.g_up == 8 * (1 + 2)
        assert ledger.x_down == 8 * (2 + 2)   # full x masks

    def test_full_download_increment(self):
        ledger = CostLedger()
        ledger.add(np.ones((2, 4), np.uint8), masks_of([1, 0, 0], [0, 1, 1]),
                   RunConfig(alpha=0.1, beta=0.1, download_mode="full"))
        assert ledger.legs() == {"x_down": 8 * 4 * 2, "y_down": 8 * 3 * 2,
                                 "y_plus_down": 8 * 3 * 2,
                                 "g_up": 8 * (1 + 2), "h_up": 8 * (4 + 4)}
        # one exact_aid epoch: (ax, ay) = (4, 1) and (4, 2)
        assert ledger.flops_per_client == {0: 421, 1: 690}

    def test_round_increment_equals_ledger_change(self):
        masks = np.ones((2, 2), np.uint8), masks_of([1, 0, 1], [0, 1, 0])
        cfg = RunConfig(alpha=0.1, beta=0.1, estimator=RAFBO)
        once = CostLedger()
        once.add(*masks, cfg)
        ledger = CostLedger()
        for mode in ("masked", "full", "masked"):
            before = (ledger.bytes_up, ledger.bytes_down, ledger.total_flops)
            inc = ledger.add(*masks, replace(cfg, download_mode=mode))
            after = (ledger.bytes_up, ledger.bytes_down, ledger.total_flops)
            assert inc == tuple(b - a for a, b in zip(before, after))
        assert ledger.flops_per_client == {
            client: 3 * flops for client, flops in once.flops_per_client.items()}

    @pytest.mark.parametrize("estimator,fraction,want", [
        (EXACT_AID, 1.0, {0: 141, 1: 792}),
        (RAFBO, 1.0, {0: 158, 1: 759}),     # |P| = 2, 3
        (RAFBO, 0.5, {0: 119, 1: 608}),     # |P| = 1, 2
    ])
    def test_flops_per_client_hand_values(self, estimator, fraction, want):
        # (ax, ay) = (2, 1) and (3, 3); with T = 2 inner epochs the inner
        # loop costs 2 (2 (ax + ay)^2 + 2 ay) = 40 and 156, and the
        # hypergradient the rest: exact 101 and 636, rafbo 118 and 603 at
        # |P| = ax, 79 and 452 at |P| = ceil(ax / 2)
        prob = make_quadratic(seed=23, n=2, d1=4, d2=4,
                              eig_min=0.8, eig_max=1.5)
        tables = {"x": ((0, 1), (1, 2, 3)), "y": ((2,), (0, 1, 3))}
        cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=2,
                        estimator=estimator, coord_fraction=fraction,
                        capacities=full_caps(2), policy="manual",
                        manual_tables=tables)
        ledger = CostLedger()
        _, log = rabo_round(prob, GlobalState(np.ones(4), np.ones(4), 0),
                            cfg, ledger=ledger)
        assert ledger.flops_per_client == want
        assert log.flops == sum(want.values())


class TestCsvRendering:
    def test_columns_are_round_log_fields_in_order(self):
        # each column is the RoundLog field in its place; the mask rows
        # stay out
        log = RoundLog(3, 0.5, 1.5, 2.5, None, 2, 64, 128, 1000, 0.25, 0.75,
                       ("ff",), ("0f",))
        assert logs_to_csv([log]) == (",".join(CSV_COLUMNS) + "\n"
                                      "3,0.5,1.5,2.5,nan,2,64,128,1000,0.25,"
                                      "0.75\n")

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
        prob = make_quadratic(seed=21, n=2, d1=3, d2=3,
                              eig_min=0.9, eig_max=1.3)
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
    table_x = data.draw(partial_tables(n, d1))
    table_y = data.draw(partial_tables(n, d2))
    prob = make_quadratic(seed=seed, n=n, d1=d1, d2=d2, hetero=0.5,
                          noise_f=0.3, noise_g=0.3, eig_min=0.6, eig_max=1.5,
                          quartic=0.1)
    cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=2, rounds=3,
                    estimator=estimator, capacities=full_caps(n), seed=seed,
                    batch_size_f=2, batch_size_g=2,
                    policy="manual",
                    manual_tables={"x": table_x, "y": table_y})
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
