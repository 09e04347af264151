import dataclasses
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rabosim.problems.quadratic as quadratic_module
from rabosim.cli import build_problem, resolve_config
from rabosim.errors import (
    DimensionMismatch,
    InvalidSpec,
    NonFiniteValue,
    UnsupportedProblem,
)
from rabosim.federation import RunConfig, logs_to_csv, run
from rabosim.hypergrad import EXACT_AID, RAFBO
from rabosim.linalg import solve_spd, spectral_bounds, spectral_norm
from rabosim.masking import generate_mask
from rabosim.problems import (
    BilevelProblem,
    SampleBatch,
    derive_constants,
    make_logistic_tune,
    make_quadratic,
)
from rabosim.problems.quadratic import QuadraticProblem, QuadraticSpec
from rabosim.rng import RngStream
from linear_oracle import outer_minimizer
from tests_support import (
    EPS,
    bits,
    implicit_row_bound,
    per_row_products,
    signed_zeros,
)


def one_dim_problem(lam=0.0):
    """g = 0.5 (y - x)^2, f = 0.5 y^2 (+ lam/2 x^2)."""
    spec = QuadraticSpec(
        a_mats=[np.array([[1.0]])], b_mats=[np.array([[-1.0]])],
        c_vecs=[np.zeros(1)], outer_targets=[np.zeros(1)],
        inner_targets=[np.zeros(1)], u_mats=None, lam=lam,
        noise_f=0.0, noise_g=0.0, quartic=0.0, sine_amp=0.0,
        ball_radius=10.0)
    return QuadraticProblem(spec)


def distinct_copies(spec):
    """The same spec with every client holding its own copy of each array."""
    def copies(arrays):
        return None if arrays is None else [np.array(a) for a in arrays]
    return dataclasses.replace(
        spec, a_mats=copies(spec.a_mats), b_mats=copies(spec.b_mats),
        c_vecs=copies(spec.c_vecs), outer_targets=copies(spec.outer_targets),
        inner_targets=copies(spec.inner_targets), u_mats=copies(spec.u_mats))


def small_spec(n=3, d1=3, d2=2, **fields):
    """A valid hand-built spec whose clients alias one A, one B and one U."""
    rng = np.random.default_rng(0)
    data = dict(
        a_mats=[np.eye(d2)] * n, b_mats=[rng.standard_normal((d2, d1))] * n,
        c_vecs=[rng.standard_normal(d2) for _ in range(n)],
        outer_targets=[rng.standard_normal(d1) for _ in range(n)],
        inner_targets=[rng.standard_normal(d2) for _ in range(n)],
        u_mats=[np.eye(d2)] * n, lam=0.5, noise_f=0.0, noise_g=0.0,
        quartic=0.1, sine_amp=0.0, ball_radius=10.0)
    data.update(fields)
    return QuadraticSpec(**data)


def with_entry(spec, name, i, value):
    entries = list(getattr(spec, name))
    entries[i] = value
    return dataclasses.replace(spec, **{name: entries})


class TestSpecValidation:
    def test_short_client_vector_does_not_broadcast(self):
        # d2 = 2 and a length-1 c_1: A y + B x + c_1 broadcast to [1, 1]
        # and moved y_star(0) to [-0.5, -0.5] before the shape check
        spec = QuadraticSpec(
            a_mats=[np.eye(2)] * 2, b_mats=[np.zeros((2, 1))] * 2,
            c_vecs=[np.zeros(2), np.ones(1)], outer_targets=[np.zeros(1)] * 2,
            inner_targets=[np.zeros(2)] * 2, u_mats=None, lam=0.0,
            noise_f=0.0, noise_g=0.0, quartic=0.0, sine_amp=0.0,
            ball_radius=10.0)
        with pytest.raises(InvalidSpec, match=r"client 1: c_vecs"):
            QuadraticProblem(spec)

    @pytest.mark.parametrize("name,i,value", [
        ("a_mats", 1, np.eye(3)),
        ("u_mats", 2, np.ones((2, 3))),
        ("b_mats", 1, np.ones((2, 2))),
        ("b_mats", 2, np.ones(2)),
        ("c_vecs", 1, np.ones(1)),
        ("c_vecs", 0, np.ones((2, 1))),
        ("inner_targets", 2, np.ones(3)),
        ("outer_targets", 1, np.ones(2)),
    ])
    def test_mis_shaped_entry_named(self, name, i, value):
        spec = with_entry(small_spec(), name, i, value)
        with pytest.raises(InvalidSpec, match=rf"client {i}: {name} has shape"):
            QuadraticProblem(spec)

    # a_mats sets n, so every other list is checked against its length
    @pytest.mark.parametrize("name", ["b_mats", "c_vecs", "outer_targets",
                                      "inner_targets", "u_mats"])
    @pytest.mark.parametrize("count", [2, 4])
    def test_list_length_named(self, name, count):
        spec = small_spec()
        entries = getattr(spec, name)
        spec = dataclasses.replace(spec, **{name: (entries * 2)[:count]})
        with pytest.raises(InvalidSpec, match=rf"{name} has {count} entries "
                                              r"for 3 clients"):
            QuadraticProblem(spec)

    def test_no_clients(self):
        spec = dataclasses.replace(
            small_spec(), a_mats=[], b_mats=[], c_vecs=[], outer_targets=[],
            inner_targets=[], u_mats=[])
        with pytest.raises(InvalidSpec, match="at least one client"):
            QuadraticProblem(spec)

    def test_nan_in_distinct_block_among_aliases(self):
        spec = small_spec(n=4)
        shared = spec.a_mats[0]
        bad = np.eye(2)
        bad[1, 0] = np.nan
        spec = dataclasses.replace(spec, a_mats=[shared, shared, bad, shared])
        with pytest.raises(InvalidSpec, match="client 2: a_mats is not finite"):
            QuadraticProblem(spec)


class TestSharedBlocks:
    """make_quadratic holds one read-only A and one B for all clients."""

    @pytest.mark.parametrize("eig_min,eig_max", [(1.0, 1.0), (0.6, 1.8)])
    def test_clients_alias_read_only_blocks(self, eig_min, eig_max):
        prob = make_quadratic(seed=27, n=4, d1=3, d2=5, eig_min=eig_min,
                              eig_max=eig_max)
        spec = prob.spec
        assert all(a is spec.a_mats[0] for a in spec.a_mats)
        assert all(b is spec.b_mats[0] for b in spec.b_mats)
        with pytest.raises(ValueError):
            spec.a_mats[0][0, 0] = 2.0
        with pytest.raises(ValueError):
            spec.b_mats[3][1, 2] = 2.0
        hess = prob.hess_yy_g(2, np.ones(3), np.ones(5))
        assert hess is spec.a_mats[0]
        with pytest.raises(ValueError):
            hess[0, 0] = 2.0

    def test_memory_held_after_make_quadratic(self):
        n, d1, d2 = 64, 200, 200
        # Held: the shared A and B and the problem's client means A_bar
        # and B_bar, the per-client vectors c_i, b_i (d2 each) and a_i
        # (d1), and 256 KiB for array headers and the lists. n copies of
        # A and B would hold 41 MB.
        blocks = 8 * 2 * (d2 * d2 + d2 * d1)
        vectors = 8 * n * (d1 + 2 * d2)
        bound = blocks + vectors + 256 * 1024             # 1,849,344 bytes
        # a first build, so that lazy imports are not counted
        make_quadratic(seed=28, n=2, d1=3, d2=3, eig_min=0.8, eig_max=1.6)
        tracemalloc.start()
        try:
            prob = make_quadratic(seed=28, n=n, d1=d1, d2=d2, hetero=0.3,
                                  eig_min=0.8, eig_max=1.6)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prob.n == n
        assert held <= bound

    @pytest.mark.parametrize("estimator", [EXACT_AID, RAFBO])
    def test_aliases_and_copies_give_same_rounds_csv(self, estimator,
                                                     monkeypatch):
        # an aliased block multiplies its clients' rows with one GEMM and
        # each copy its client's row with one GEMV; with one GEMV per row
        # (per_row_products) the runs are the same bytes, and the products'
        # rounding is bounded in tests/test_rows.py
        per_row_products(monkeypatch)
        aliased = make_quadratic(seed=29, n=3, d1=6, d2=5, hetero=0.4,
                                 noise_f=0.2, noise_g=0.2,
                                 eig_min=0.7, eig_max=1.5, quartic=0.1)
        copied = QuadraticProblem(distinct_copies(aliased.spec))
        assert copied.spec.a_mats[1] is not copied.spec.a_mats[0]

        def rounds_csv(prob):
            cfg = RunConfig(alpha=0.03, beta=0.2, inner_epochs=2, rounds=3,
                            estimator=estimator,
                            capacities=[Fraction(1, 2)] * 3,
                            seed=4, batch_size_f=1, batch_size_g=1)
            return logs_to_csv(run(prob, cfg).logs)

        assert rounds_csv(aliased) == rounds_csv(copied)


class TestMakeQuadratic:
    def test_zero_hetero_identical_clients(self):
        prob = make_quadratic(seed=1, n=4, d1=3, d2=5, hetero=0.0,
                              eig_min=0.5, eig_max=2.0)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(3), rng.standard_normal(5)
        for i in range(1, 4):
            assert prob.value_g(i, x, y) == prob.value_g(0, x, y)
            assert np.array_equal(prob.grad_g_y(i, x, y), prob.grad_g_y(0, x, y))
            assert prob.value_f(i, x, y) == prob.value_f(0, x, y)

    def test_noiseless_gradient_is_exact_even_with_batch(self):
        prob = make_quadratic(seed=2, n=2, d1=3, d2=4, noise_g=0.0)
        x, y = np.ones(3), np.ones(4)
        batch = SampleBatch("g", seed=0)
        assert np.array_equal(prob.grad_g_y(0, x, y, batch),
                              prob.grad_g_y(0, x, y))

    def test_zero_hetero_zero_spread(self):
        prob = make_quadratic(seed=4, n=3, d1=3, d2=3, hetero=0.0)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        # identical data: per-client gradients are bit-identical (spread 0);
        # the float mean of n identical vectors may differ by one ulp
        ref = prob.grad_g_y(0, x, y)
        assert max(np.linalg.norm(prob.grad_g_y(i, x, y) - ref)
                   for i in range(3)) == 0.0
        mean_y = sum(prob.grad_g_y(i, x, y) for i in range(3)) / 3
        assert np.linalg.norm(ref - mean_y) <= 1e-14

    def test_invalid_eig_bounds(self):
        # each error names the argument that breaks its rule
        with pytest.raises(InvalidSpec) as err:
            make_quadratic(seed=0, n=2, d1=2, d2=2, eig_min=0.0, eig_max=1.0)
        assert err.value.key == "eig_min"
        with pytest.raises(InvalidSpec) as err:
            make_quadratic(eig_min=2, eig_max=1)
        assert err.value.key == "eig_max"
        assert str(err.value) == "eig_max must be at least eig_min 2, got 1"

    @pytest.mark.parametrize("kwargs,key,want", [
        ({"n": 2.5}, "n", "an integer"), ({"d1": 3.0}, "d1", "an integer"),
        ({"seed": True}, "seed", "an integer"),
        ({"hetero": "0.1"}, "hetero", "a finite number"),
        ({"eig_max": float("nan")}, "eig_max", "a finite number")])
    def test_mistyped_argument_named(self, kwargs, key, want):
        # make_quadratic(n=2.5) used to end in a TypeError from range(n)
        with pytest.raises(InvalidSpec) as err:
            make_quadratic(**kwargs)
        assert err.value.key == key
        assert str(err.value) == f"{key} must be {want}, got {kwargs[key]!r}"

    @pytest.mark.parametrize("kwargs,key", [
        ({"eig_max": 1e308}, "eig_max"),
        ({"eig_min": 1e308, "eig_max": 1e308}, "eig_max"),
        ({"coupling": 1e308}, "coupling"),
        # B is finite, but its sum over 64 clients overflows
        ({"n": 64, "coupling": 1e307}, "coupling"),
        ({"target_scale": 1e308}, "target_scale"),
        ({"hetero": 1e308}, "hetero"),
    ])
    def test_overflowing_value_named(self, kwargs, key):
        # a numpy overflow warning on the way would fail the test, as
        # pytest turns warnings into errors here
        with pytest.raises(InvalidSpec) as err:
            make_quadratic(**{"seed": 0, "d1": 5, "d2": 5, **kwargs})
        assert err.value.key == key
        assert str(err.value) == (
            f"{key} must keep the problem's entries and their client means "
            f"finite, got {kwargs[key]!r}")

    def test_eigenvalues_inside_range(self):
        prob = make_quadratic(seed=5, n=3, d1=4, d2=6,
                              eig_min=0.7, eig_max=2.5)
        for a in prob.spec.a_mats:
            lo, hi = spectral_bounds(a)
            assert lo >= 0.7 - 1e-9 and hi <= 2.5 + 1e-9

    def test_config_round_trip(self):
        # the echoed problem section rebuilds the same instance
        prob = make_quadratic(seed=6, n=3, d1=4, d2=5, hetero=0.3,
                              noise_f=0.1, noise_g=0.2,
                              eig_min=0.9, eig_max=1.8,
                              quartic=0.05)
        section = {"family": "quadratic", "seed": 6, "n": 3, "d1": 4,
                   "d2": 5, "hetero": 0.3, "noise_f": 0.1, "noise_g": 0.2,
                   "eig_min": 0.9, "eig_max": 1.8, "quartic": 0.05}
        echo = json.loads(json.dumps(
            resolve_config({"problem": section}).echo()))
        clone = build_problem(resolve_config(echo).problem)
        assert np.array_equal(prob.spec.a_mats[1], clone.spec.a_mats[1])
        assert np.array_equal(prob.spec.c_vecs[2], clone.spec.c_vecs[2])
        assert np.array_equal(prob.spec.u_mats[0], clone.spec.u_mats[0])


class TestInnerOptimumOracle:
    def test_one_dim_tracking(self):
        prob = one_dim_problem()
        for x in (-2.0, 0.3, 5.0):
            assert prob.y_star(np.array([x]))[0] == pytest.approx(x)

    def test_zero_offsets_zero_optimum(self):
        prob = make_quadratic(seed=7, n=2, d1=3, d2=3)
        spec = prob.spec
        zeroed = QuadraticProblem(QuadraticSpec(
            a_mats=spec.a_mats, b_mats=spec.b_mats,
            c_vecs=[np.zeros(3)] * 2, outer_targets=spec.outer_targets,
            inner_targets=spec.inner_targets, u_mats=None, lam=spec.lam,
            noise_f=0, noise_g=0, quartic=0, sine_amp=0,
            ball_radius=10.0))
        assert np.array_equal(zeroed.y_star(np.zeros(3)),
                              np.zeros(3))

    def test_stationarity_of_oracle(self):
        prob = make_quadratic(seed=8, n=4, d1=4, d2=5, hetero=0.5,
                              eig_min=0.6, eig_max=2.0)
        x = np.linspace(-1, 1, 4)
        ys = prob.y_star(x)
        mean_g = sum(prob.grad_g_y(i, x, ys) for i in range(prob.n)) / prob.n
        assert np.linalg.norm(mean_g) <= 1e-9

    def test_matches_gradient_descent(self):
        prob = make_quadratic(seed=9, n=3, d1=4, d2=5, hetero=0.4,
                              eig_min=0.5, eig_max=1.5)
        x = np.array([0.2, -0.7, 1.1, 0.4])
        y = np.zeros(5)
        for _ in range(4000):  # descend the averaged lower objective
            g = sum(prob.grad_g_y(i, x, y) for i in range(prob.n)) / prob.n
            if np.linalg.norm(g) < 1e-12:
                break
            y = y - 0.5 * g
        oracle = prob.y_star(x)
        assert np.linalg.norm(y - oracle) <= 1e-8

    @pytest.mark.parametrize("quartic", [0.0, 0.3])
    def test_reused_solves_bit_identical(self, quartic):
        # without the quartic term the factor of A_bar and the Jacobian are
        # computed once and reused; every call must equal a fresh solve
        prob = make_quadratic(seed=12, n=3, d1=6, d2=9, hetero=0.4,
                              eig_min=0.6, eig_max=1.8, quartic=quartic)
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rng.standard_normal(6)
            ys = prob.y_star(x)
            assert np.array_equal(ys, solve_spd(prob._hess_bar(x),
                                                -(prob._b_bar @ x + prob._c_bar)))
            rhs = prob._b_bar.copy()
            if quartic:
                rhs = rhs + quartic * np.outer(prob._u_bar @ ys, x)
            assert np.array_equal(prob.jac_y_star(x),
                                  -np.linalg.solve(prob._hess_bar(x), rhs))
        with pytest.raises(NonFiniteValue):
            prob.y_star(np.full(6, np.nan))

    def test_cached_jacobian_read_only(self):
        prob = make_quadratic(seed=12, n=2, d1=4, d2=5,
                              eig_min=0.6, eig_max=1.8)
        jac = prob.jac_y_star(np.zeros(4))
        assert not jac.flags.writeable
        with pytest.raises(ValueError):
            jac[0, 0] = 1.0
        assert prob.jac_y_star(np.ones(4)) is jac


class TestTrueHypergradientOracle:
    def test_one_dim_closed_form(self):
        prob = one_dim_problem()
        for x in (-1.5, 0.0, 2.0):
            grad = prob.grad_phi(np.array([x]))
            assert grad[0] == pytest.approx(x, abs=1e-12)

    def test_stationary_by_construction(self):
        base = make_quadratic(seed=10, n=3, d1=4, d2=4, hetero=0.2, lam=0.0)
        x_hat = np.array([0.5, -0.3, 0.8, 0.0])
        ys = base.y_star(x_hat)
        spec = base.spec
        pinned = QuadraticProblem(QuadraticSpec(
            a_mats=spec.a_mats, b_mats=spec.b_mats, c_vecs=spec.c_vecs,
            outer_targets=spec.outer_targets,
            inner_targets=[ys.copy() for _ in range(3)], u_mats=None,
            lam=0.0, noise_f=0, noise_g=0, quartic=0,
            sine_amp=0, ball_radius=10.0))
        grad = pinned.grad_phi(x_hat)
        assert np.linalg.norm(grad) <= 1e-12

    @pytest.mark.parametrize("kwargs", [
        {},
        {"quartic": 0.1},
        {"sine_amp": 0.3},
        {"eig_min": 0.6, "eig_max": 1.8, "hetero": 0.5},
    ])
    def test_central_difference_consistency(self, kwargs):
        prob = make_quadratic(seed=11, n=4, d1=6, d2=6, lam=0.7, **kwargs)
        rng = np.random.default_rng(3)
        x = 0.5 * rng.standard_normal(6)
        oracle = prob.grad_phi(x)
        h = 1e-5
        fd = np.zeros(6)
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            fd[k] = (prob.phi(x + e) - prob.phi(x - e)) / (2 * h)
        assert np.linalg.norm(fd - oracle) <= 1e-6 * max(1.0, np.linalg.norm(oracle))

    def test_directional_differences_20_directions(self):
        prob = make_quadratic(seed=12, n=3, d1=6, d2=6, hetero=0.3, lam=0.5,
                              eig_min=0.8, eig_max=1.6)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(6) * 0.3
        oracle = prob.grad_phi(x)
        h = 1e-5
        for _ in range(20):
            u = rng.standard_normal(6)
            u /= np.linalg.norm(u)
            fd = (prob.phi(x + h * u) - prob.phi(x - h * u)) / (2 * h)
            assert fd == pytest.approx(float(oracle @ u),
                                       rel=1e-6, abs=1e-8)

    def test_analytic_minimizer_is_stationary(self):
        prob = make_quadratic(seed=13, n=4, d1=5, d2=5, hetero=0.4, lam=0.8,
                              eig_min=0.7, eig_max=1.9)
        x_star = outer_minimizer(prob)
        grad = prob.grad_phi(x_star)
        assert float(grad @ grad) <= 1e-16


class TestDeriveConstants:
    def test_identity_curvature(self):
        prob = make_quadratic(seed=14, n=3, d1=4, d2=4,
                              eig_min=1.0, eig_max=1.0)
        consts = derive_constants(prob)
        assert consts.mu_g == pytest.approx(1.0, abs=1e-12)
        assert consts.l_g2 == 0.0
        assert consts.L_y == consts.l_g1 / consts.mu_g
        # cross-check l_g1 against a direct spectral oracle of the joint block
        b = prob.spec.b_mats[0]
        joint = np.zeros((8, 8))
        joint[:4, :4] = prob.spec.a_mats[0]
        joint[:4, 4:] = b
        joint[4:, :4] = b.T
        assert consts.l_g1 == pytest.approx(abs(np.linalg.eigvalsh(joint)).max(),
                                            rel=1e-10)

    def test_decoupled_levels(self):
        prob = make_quadratic(seed=15, n=2, d1=3, d2=3, coupling=0.0)
        consts = derive_constants(prob)
        assert consts.L_y >= 0
        y1 = prob.y_star(np.zeros(3))
        y2 = prob.y_star(np.ones(3))
        assert np.linalg.norm(y1 - y2) == 0.0

    def test_lipschitz_probe_100_pairs(self):
        prob = make_quadratic(seed=16, n=4, d1=5, d2=6, hetero=0.5,
                              eig_min=0.6, eig_max=2.2)
        consts = derive_constants(prob)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x1, x2 = rng.standard_normal((2, 5))
            lhs = np.linalg.norm(prob.y_star(x1) - prob.y_star(x2))
            assert lhs <= consts.L_y * np.linalg.norm(x1 - x2) + 1e-12

    def test_sector_bounds_on_probes(self):
        prob = make_quadratic(seed=17, n=3, d1=4, d2=5, hetero=0.3,
                              eig_min=0.5, eig_max=2.0)
        consts = derive_constants(prob)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal(4)
            y = rng.standard_normal(5)
            dy = rng.standard_normal(5)
            i = int(rng.integers(0, 3))
            diff = np.linalg.norm(prob.grad_g_y(i, x, y + dy)
                                  - prob.grad_g_y(i, x, y))
            assert consts.mu_g * np.linalg.norm(dy) <= diff + 1e-10
            assert diff <= consts.l_g1 * np.linalg.norm(dy) + 1e-10

    def test_unsupported_for_logistic(self):
        logi = make_logistic_tune(seed=0, n=1, imbalance_mu=1.0)
        with pytest.raises(UnsupportedProblem):
            derive_constants(logi)

    @pytest.mark.parametrize("quartic", [0.0, 0.2])
    def test_aliases_give_constants_of_distinct_copies(self, quartic):
        prob = make_quadratic(seed=30, n=4, d1=5, d2=6, hetero=0.5,
                              eig_min=0.6, eig_max=2.2, quartic=quartic)
        copied = QuadraticProblem(distinct_copies(prob.spec))
        assert derive_constants(prob) == derive_constants(copied)

    def test_each_distinct_block_decomposed_once(self, monkeypatch):
        a0, a1 = np.eye(2), 2.0 * np.eye(2)
        b0, b1 = np.ones((2, 3)), np.zeros((2, 3))
        u0 = np.eye(2)
        spec = small_spec(n=5, a_mats=[a0, a0, a1, a1, a0],
                          b_mats=[b0, b1, b0, b0, b0], u_mats=[u0] * 5)
        prob = QuadraticProblem(spec)
        bounds_of, norms_of = [], []

        def bounds(a):
            bounds_of.append(a)
            return spectral_bounds(a)

        def norm(a):
            norms_of.append(a)
            return spectral_norm(a)

        monkeypatch.setattr(quadratic_module, "spectral_bounds", bounds)
        monkeypatch.setattr(quadratic_module, "spectral_norm", norm)
        consts = derive_constants(prob)
        assert [id(a) for a in bounds_of] == [id(a0), id(a1)]
        # joint blocks of (a0, b0), (a0, b1), (a1, b0), then U once
        assert len(norms_of) == 4 and norms_of[-1] is u0
        assert consts.mu_g == 1.0
        assert consts == derive_constants(QuadraticProblem(
            distinct_copies(spec)))


class TestDerivativeCallbacks:
    @pytest.mark.parametrize("rows", [False, True], ids=["one", "rows"])
    def test_grad_f_draws_each_batch_once(self, rows, monkeypatch):
        # both gradients take their parts of the call's one (n, d1 + d2)
        # block, row i of it for client i, with the bits of adding each
        # part to the exact gradient
        prob = make_quadratic(seed=20, n=3, d1=3, d2=4, hetero=0.2,
                              noise_f=0.4, sine_amp=0.3)
        s, rng = prob.spec, np.random.default_rng(3)
        x, y = rng.standard_normal((3, 3)), rng.standard_normal((3, 4))
        batch = SampleBatch("f", 5, round_index=2, draw=0, size=2)
        block = batch.noise_stream().generator().standard_normal((3, 7))
        want_x, want_y = [], []
        for i in range(3):
            gx = s.lam * (x[i] - s.outer_targets[i]) \
                + s.sine_amp * np.cos(x[i])
            gy = y[i] - s.inner_targets[i]
            joint = block[i] * (0.4 / np.sqrt(2))
            gx += joint[:3]
            gy += joint[3:]
            want_x.append(gx)
            want_y.append(gy)
        draws, normal = [], RngStream.normal
        monkeypatch.setattr(RngStream, "normal", lambda self, *args: (
            draws.append((self, args))) or normal(self, *args))
        if rows:
            got = prob.grad_f(np.arange(3), x, y, batch)
            want = np.array(want_x), np.array(want_y)
        else:
            got, want = prob.grad_f(1, x[1], y[1], batch), \
                (want_x[1], want_y[1])
        # one draw of the whole block, whichever rows the call holds
        assert draws == [(batch.noise_stream(), ((3, 7),))]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        for g, callback in zip(got, (prob.grad_f_x, prob.grad_f_y)):
            args = (np.arange(3), x, y, batch) if rows else \
                (1, x[1], y[1], batch)
            assert callback(*args).tobytes() == g.tobytes()

    def test_hessian_is_curvature_block(self):
        prob = make_quadratic(seed=18, n=2, d1=3, d2=4,
                              eig_min=0.5, eig_max=1.5)
        x1, y1 = np.ones(3), np.ones(4)
        x2, y2 = -np.ones(3), np.zeros(4)
        h1 = prob.hess_yy_g(0, x1, y1)
        h2 = prob.hess_yy_g(0, x2, y2)
        assert np.array_equal(h1, prob.spec.a_mats[0])
        assert np.array_equal(h1, h2)

    def test_cross_apply_matches_columns_and_fd(self):
        prob = make_quadratic(seed=19, n=2, d1=3, d2=4,
                              eig_min=0.7, eig_max=1.4)
        b = prob.spec.b_mats[0]
        x, y = np.array([0.1, -0.2, 0.4]), np.array([0.3, 0.1, -0.5, 0.2])
        for k in range(4):
            e_k = np.zeros(4)
            e_k[k] = 1.0
            col = prob.cross_xy_g_apply(0, x, y, e_k)
            assert np.allclose(col, b.T[:, k], atol=1e-14)
        # finite-difference oracle: columns of d(grad_g_y)/dx equal B columns
        h = 1e-6
        for s in range(3):
            e_s = np.zeros(3)
            e_s[s] = h
            fd_col = (prob.grad_g_y(0, x + e_s, y)
                      - prob.grad_g_y(0, x - e_s, y)) / (2 * h)
            assert np.linalg.norm(fd_col - b[:, s]) <= 1e-8

    def test_cross_apply_fd_with_quartic(self):
        prob = make_quadratic(seed=20, n=2, d1=3, d2=4, quartic=0.2)
        rng = np.random.default_rng(7)
        x, y, v = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
        applied = prob.cross_xy_g_apply(0, x, y, v)
        h = 1e-6
        fd = np.zeros(3)
        for s in range(3):
            e_s = np.zeros(3)
            e_s[s] = h
            fd[s] = float((prob.grad_g_y(0, x + e_s, y)
                           - prob.grad_g_y(0, x - e_s, y)) @ v) / (2 * h)
        assert np.linalg.norm(fd - applied) <= 1e-6

    def test_grad_f_fd_consistency(self):
        prob = make_quadratic(seed=21, n=2, d1=4, d2=3, lam=0.6, sine_amp=0.2,
                              hetero=0.3)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal(4), rng.standard_normal(3)
        h = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd = (prob.value_f(0, x + e, y) - prob.value_f(0, x - e, y)) / (2 * h)
            assert fd == pytest.approx(prob.grad_f_x(0, x, y)[k], abs=1e-7)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (prob.value_f(0, x, y + e) - prob.value_f(0, x, y - e)) / (2 * h)
            assert fd == pytest.approx(prob.grad_f_y(0, x, y)[k], abs=1e-7)

    def test_noisy_gradient_unbiased(self):
        prob = make_quadratic(seed=22, n=2, d1=3, d2=4, noise_g=0.5)
        x, y = np.ones(3), np.ones(4)
        exact = prob.grad_g_y(0, x, y)
        draws = np.stack([
            prob.grad_g_y(0, x, y, SampleBatch("g", seed=99, draw=t))
            for t in range(10 ** 4)])
        err = np.abs(draws.mean(axis=0) - exact)
        assert np.all(err <= 4 * 0.5 / 100)

    def test_common_random_numbers_cancel_noise(self):
        prob = make_quadratic(seed=23, n=2, d1=3, d2=4, noise_g=1.0)
        batch = SampleBatch("g", seed=5, draw=2)
        x, y = np.ones(3), np.ones(4)
        x2 = x.copy()
        x2[0] += 0.1
        noisy_diff = prob.grad_g_y(0, x2, y, batch) - prob.grad_g_y(0, x, y, batch)
        clean_diff = prob.grad_g_y(0, x2, y) - prob.grad_g_y(0, x, y)
        assert np.allclose(noisy_diff, clean_diff, atol=1e-12)

    def test_batch_averaging_shrinks_variance(self):
        prob = make_quadratic(seed=24, n=1, d1=2, d2=3, noise_g=1.0)
        x, y = np.zeros(2), np.zeros(3)
        exact = prob.grad_g_y(0, x, y)
        trials = 400

        def empirical_var(size):
            sq = 0.0
            for t in range(trials):
                draw = prob.grad_g_y(0, x, y, SampleBatch(
                    "g", seed=1000 + size, draw=t, size=size))
                sq += float(np.sum((draw - exact) ** 2))
            return sq / trials

        base = empirical_var(1)
        for size in (4, 16, 64):
            ratio = empirical_var(size) * size / base
            assert 0.8 <= ratio <= 1.2


class TestGradGyBatch:
    """Row calls over equal rows, which share their products, and over
    blocks that change between calls: every returned row is the caller's
    own, and nothing is kept from one call to the next."""

    @pytest.mark.parametrize("quartic", [0.0, 0.2])
    def test_shared_products_never_reach_the_caller(self, quartic):
        # equal rows of a call share their products with A, B and B^T;
        # overwriting one returned row or term must leave the other rows
        # and a later call's bits as they were
        prob = make_quadratic(seed=25, n=3, d1=6, d2=5, hetero=0.4,
                              eig_min=0.6, eig_max=1.7, quartic=quartic,
                              noise_g=0.7)
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(6), rng.standard_normal(5)
        batch = SampleBatch("g", seed=4, draw=3)
        want = prob.grad_g_y(1, x, y, batch)
        rows = (np.array([1, 1, 1]), np.tile(x, (3, 1)), np.tile(y, (3, 1)))
        for _ in range(2):
            got = prob.grad_g_y(*rows, batch)
            assert all(np.array_equal(row, want) for row in got)
            got[0] = np.nan
            assert all(np.array_equal(row, want) for row in got[1:])
        # the implicit terms of equal rows share one B^T v product
        v = np.tile(rng.standard_normal(5), (3, 1))
        terms = prob.implicit_term(*rows, [np.array([0, 5, 5])] * 3, 1e-3,
                                   v, batch)
        first = terms[0].copy()
        terms[0][...] = np.nan
        assert all(np.array_equal(term, first) for term in terms[1:])
        assert np.array_equal(prob.grad_g_y(1, x, y, batch), want)

    def test_writable_blocks_are_read_at_each_call(self):
        # nothing is kept between calls: a block that changes between
        # them gives the second call the changed block's bits
        spec = distinct_copies(small_spec(n=2, d1=3, d2=2))
        prob = QuadraticProblem(spec)
        x, y = np.ones((2, 3)), np.ones((2, 2))
        before = prob.grad_g_y(np.array([1, 1]), x, y)
        spec.a_mats[1][0, 0] += 1.0
        spec.b_mats[1][0, 0] += 1.0
        after = prob.grad_g_y(np.array([1, 1]), x, y)
        assert not np.array_equal(after, before)
        assert all(np.array_equal(row, prob.grad_g_y(1, x[0], y[0]))
                   for row in after)


def rolling_call(prob, noise=False):
    """A row call's arguments for every client of ``prob`` at rolling
    capacity 1/2 in round 0: masked x and y rows, each client's
    perturbation set (all its active outer coordinates) and, with
    ``noise``, a batch for the call. Even clients share one window's set,
    odd ones the other's."""
    rng = np.random.default_rng(31)
    caps = [Fraction(1, 2)] * prob.n
    mx, my = (generate_mask(np.zeros(d), caps, "rolling", 0)
              for d in (prob.d1, prob.d2))
    x = rng.standard_normal(mx.shape) * mx
    y = rng.standard_normal(my.shape) * my
    batch = SampleBatch("g", seed=4, draw=2) if noise else None
    return np.arange(prob.n), x, y, [np.flatnonzero(m) for m in mx], batch


class TestImplicitTerm:
    """``implicit_term``: the closed form -(B_i^T v)[P] - (tau/2)(2 x_P +
    mu) <U_i y, v> of the exact difference, against the base default's
    difference of ``grad_g_y`` rows. ``tests/test_rows.py`` checks that a
    row call gives its rows' one-client bits."""

    # c of the bound c eps ||grad_y g|| ||v|| / mu, fixed before the first
    # run: each delta_p of the rows carries the rounding of two lower
    # gradients, each within about (d + 4) eps of terms of the order of
    # ||grad_y g||, over mu; the closed form rounds far less
    C = 64

    @pytest.mark.parametrize("quartic", [0.0, 0.3])
    @pytest.mark.parametrize("mu", [1e-6, 1e-3, 0.1])
    def test_within_rounding_of_difference_rows(self, quartic, mu):
        prob = make_quadratic(seed=29, n=8, d1=9, d2=7, hetero=0.4,
                              eig_min=0.5, eig_max=2.0, quartic=quartic,
                              noise_g=0.5)
        i, x, y, coords, batch = rolling_call(prob, noise=True)
        v = np.random.default_rng(7).standard_normal((prob.n, prob.d2))
        closed = prob.implicit_term(i, x, y, coords, mu, v, batch)
        rows = BilevelProblem.implicit_term(prob, i, x, y, coords, mu, v,
                                            batch)
        grad = prob.grad_g_y(i, x, y, batch)
        for r in range(prob.n):
            bound = self.C * EPS * np.linalg.norm(grad[r]) \
                * np.linalg.norm(v[r]) / mu
            assert closed[r].shape == coords[r].shape
            assert np.max(np.abs(closed[r] - rows[r])) <= bound

    @pytest.mark.parametrize("quartic", [0.0, 0.3])
    def test_closed_form_draws_no_noise(self, quartic):
        # the batch's additive noise cancels exactly: the terms under a
        # batch are the noiseless terms, bit for bit
        prob = make_quadratic(seed=29, n=8, d1=9, d2=7, hetero=0.4,
                              eig_min=0.5, eig_max=2.0, quartic=quartic,
                              noise_g=0.5)
        i, x, y, coords, batch = rolling_call(prob, noise=True)
        v = np.random.default_rng(7).standard_normal((prob.n, prob.d2))
        noisy = prob.implicit_term(i, x, y, coords, 1e-3, v, batch)
        clean = prob.implicit_term(i, x, y, coords, 1e-3, v)
        for r in range(prob.n):
            assert np.array_equal(noisy[r], clean[r])
            if not quartic:
                # the call's GEMM over B's rows against one GEMV
                want = -(prob.spec.b_mats[r].T @ v[r])[coords[r]]
                assert np.all(np.abs(clean[r] - want) <= implicit_row_bound(
                    prob, r, x[r], y[r], coords[r], 1e-3, v[r]))

    @pytest.mark.parametrize("kwargs,batch", [
        ({}, None),
        ({"quartic": 0.3}, None),
        ({"noise_g": 0.7, "quartic": 0.2},
         SampleBatch("g", seed=4, round_index=2, draw=3, size=2)),
    ], ids=["plain", "quartic", "noisy"])
    def test_default_equals_single_calls(self, kwargs, batch):
        # the base default's terms are the difference of separate grad_g_y
        # calls, bit for bit, and a second call gives the first's bits
        prob = make_quadratic(seed=25, n=3, d1=37, d2=23, hetero=0.4,
                              eig_min=0.6, eig_max=1.7, **kwargs)
        rng = np.random.default_rng(9)
        x, y, v = (rng.standard_normal(d) for d in (37, 23, 23))
        coords = np.array([0, 5, 5, 36, 17, 2, 30])  # a repeat, both ends
        for mu in (1e-3, 0.7):
            rows = np.empty((coords.size, 23))
            for k, p in enumerate(coords):
                x_pert = x.copy()
                x_pert[p] += mu
                rows[k] = prob.grad_g_y(1, x_pert, y, batch)
            want = ((prob.grad_g_y(1, x, y, batch) - rows) / mu) @ v
            for _ in range(2):
                assert np.array_equal(BilevelProblem.implicit_term(
                    prob, 1, x, y, coords, mu, v, batch), want)

    def test_default_leaves_blocks_as_they_were(self):
        # every client holds its own writable B_i; the default's in-place
        # difference step must leave B_i as it was
        spec = distinct_copies(small_spec(n=2, d1=5, d2=4, noise_g=0.3))
        assert spec.b_mats[1].flags.writeable
        b_before = spec.b_mats[1].copy()
        rng = np.random.default_rng(13)
        BilevelProblem.implicit_term(
            QuadraticProblem(spec), 1, rng.standard_normal(5),
            rng.standard_normal(4), np.array([0, 3, 4]), 1e-3,
            rng.standard_normal(4), SampleBatch("g", seed=8, draw=1))
        assert np.array_equal(spec.b_mats[1], b_before)

    def test_rejects_wrong_row_width(self):
        prob = make_quadratic(seed=26, n=1, d1=3, d2=2)
        with pytest.raises(DimensionMismatch):
            prob.implicit_term(0, np.zeros(3), np.zeros(3), np.array([0, 2]),
                               1e-3, np.zeros(2))

    @pytest.mark.parametrize("coords", [
        np.array([[0, 1]]), np.array([0, 3]), np.array([-1]),
        np.array([0.0, 1.0])], ids=["2-d", "past-end", "negative", "float"])
    def test_rejects_bad_coords(self, coords):
        prob = make_quadratic(seed=26, n=1, d1=3, d2=2)
        with pytest.raises(DimensionMismatch):
            prob.implicit_term(0, np.zeros(3), np.zeros(2), coords, 1e-3,
                               np.zeros(2))


class TestRowForms:
    """Each client-indexed quantity taken over rows at once keeps the bits
    of the per-client loop it stands for."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 12),
           d1=st.integers(1, 9), d2=st.integers(1, 9),
           sine_amp=st.sampled_from([0.0, 0.3]),
           quartic=st.sampled_from([0.0, 0.2]),
           target_scale=st.sampled_from([0.0, 1.0]),
           solved=st.booleans())
    def test_phi_is_the_mean_of_value_f(self, seed, n, d1, d2, sine_amp,
                                        quartic, target_scale, solved):
        prob = make_quadratic(
            seed=seed, n=n, d1=d1, d2=d2, hetero=0.4, eig_min=0.7,
            eig_max=1.5, sine_amp=sine_amp, quartic=quartic,
            target_scale=target_scale)
        rng = np.random.default_rng(seed)
        x = signed_zeros(rng, rng.standard_normal(d1))
        ys = prob.y_star(x)
        want = float(np.mean([prob.value_f(i, x, ys) for i in range(n)]))
        got = prob.phi(x, ys) if solved else prob.phi(x)
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("layout", [
        lambda vecs: vecs, lambda vecs: list(np.stack(vecs)[::-1]),
        lambda vecs: [vecs[0], vecs[1] + 1.0, *vecs[2:]],
        lambda vecs: [vecs[0]] * len(vecs)],
        ids=["rows-of-one-array", "reversed-rows", "one-replaced", "aliased"])
    def test_target_rows_follow_the_spec_lists(self, layout):
        # the stacked targets are read in place only when the entries are
        # one array's rows in order; any other list is copied as it is
        spec = make_quadratic(seed=5, n=4, d1=3, d2=2, hetero=0.5,
                              sine_amp=0.2).spec
        spec = dataclasses.replace(spec, **{
            name: layout(getattr(spec, name))
            for name in ("c_vecs", "outer_targets", "inner_targets")})
        prob = QuadraticProblem(spec)
        x, y = np.array([0.5, -1.0, 2.0]), np.array([1.5, -0.25])
        for i in range(4):
            gx, gy = prob.grad_f(i, x, y)
            assert np.array_equal(gx, spec.lam * (x - spec.outer_targets[i])
                                  + spec.sine_amp * np.cos(x))
            assert np.array_equal(gy, y - spec.inner_targets[i])
            assert np.array_equal(prob.grad_g_y(i, np.zeros(3), np.zeros(2)),
                                  spec.c_vecs[i])
        assert prob.phi(x, y) == float(np.mean(
            [prob.value_f(i, x, y) for i in range(4)]))

    def test_phi_checks_its_dims(self):
        prob = make_quadratic(seed=3, n=2, d1=3, d2=2)
        with pytest.raises(DimensionMismatch):
            prob.phi(np.zeros(3), np.zeros(3))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_noise_rows_match_per_row_draws(self, data):
        seed = data.draw(st.integers(0, 2 ** 16))
        n, d1, d2 = (data.draw(st.integers(1, 6)) for _ in range(3))
        noise_f, noise_g = (data.draw(st.sampled_from([0.0, 0.3]))
                            for _ in range(2))
        prob = make_quadratic(
            seed=seed, n=n, d1=d1, d2=d2, hetero=0.4, noise_f=noise_f,
            noise_g=noise_g, target_scale=data.draw(st.sampled_from(
                [0.0, 1.0])))
        quiet = QuadraticProblem(dataclasses.replace(
            prob.spec, noise_f=0.0, noise_g=0.0))
        k = data.draw(st.integers(1, 6))
        ids = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                          min_size=k, max_size=k)))
        rng = np.random.default_rng(seed)
        x, y = (signed_zeros(rng, rng.standard_normal((k, d)))
                for d in (d1, d2))
        sizes = st.sampled_from([1, 2, 3, 7, 10 ** 6])

        def batch(level):
            if data.draw(st.booleans()):
                return None
            return SampleBatch(level, 11, round_index=3,
                               draw=data.draw(st.integers(0, 2)),
                               size=data.draw(sizes))

        def noised(rows, batch, scale, *parts):
            # the per-row loop: each row's own draw of d1 + d2, its
            # client's row of the batch's block, replayed from the key and
            # the client alone (a block of c + 1 rows ends in row c)
            if batch is not None and scale:
                for r, c in enumerate(ids.tolist()):
                    own = batch.noise_stream().generator().standard_normal(
                        (c + 1, d1 + d2))[c]
                    joint = own * (scale / np.sqrt(batch.size))
                    for out, part in zip(rows, parts):
                        out[r] += joint[part]
            return rows

        bg, bf = batch("g"), batch("f")
        (want_g,) = noised([quiet.grad_g_y(ids, x, y)], bg, noise_g,
                           slice(None, d2))
        want_x, want_y = noised(list(quiet.grad_f(ids, x, y)), bf, noise_f,
                                slice(None, d1), slice(d1, None))
        got_x, got_y = prob.grad_f(ids, x, y, bf)
        assert np.array_equal(bits(prob.grad_g_y(ids, x, y, bg)),
                              bits(want_g))
        assert np.array_equal(bits(got_x), bits(want_x))
        assert np.array_equal(bits(got_y), bits(want_y))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_noise_is_its_rows_of_one_fresh_block(self, data):
        # at x = y = 0 with zero targets each gradient is its noise alone,
        # so row r of any call (a subset, repeated rows, any order, or a
        # one-client call) is row i[r] of the key's fresh (n, d1 + d2)
        # block, scaled, bit for bit
        n, d1, d2 = (data.draw(st.integers(1, 6)) for _ in range(3))
        noise_f, noise_g = 0.3, 0.7
        prob = make_quadratic(seed=data.draw(st.integers(0, 2 ** 16)), n=n,
                              d1=d1, d2=d2, noise_f=noise_f, noise_g=noise_g,
                              target_scale=0.0)
        if data.draw(st.booleans()):
            ids, lead = data.draw(st.integers(0, n - 1)), ()
        else:
            ids = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                              min_size=1, max_size=8)))
            lead = (len(ids),)
        x, y = np.zeros(lead + (d1,)), np.zeros(lead + (d2,))
        size = data.draw(st.sampled_from([1, 2, 3, 7, 10 ** 6]))
        for level, scale in (("f", noise_f), ("g", noise_g)):
            batch = SampleBatch(level, data.draw(st.integers(0, 2 ** 63)),
                                round_index=data.draw(st.integers(0, 10 ** 6)),
                                draw=data.draw(st.integers(0, 3)), size=size)
            block = batch.noise_stream().generator().standard_normal(
                (n, d1 + d2))
            want = block[ids] * (scale / np.sqrt(size))
            if level == "f":
                got = np.concatenate(prob.grad_f(ids, x, y, batch), axis=-1)
            else:
                got, want = prob.grad_g_y(ids, x, y, batch), want[..., :d2]
            assert np.array_equal(bits(got), bits(want))


class TestRowProducts:
    """A row call multiplies each block's distinct rows with one GEMM, and
    a block that holds one distinct row with ``np.matvec``'s GEMV."""

    @staticmethod
    def call(transpose):
        """Three blocks of a client each and one shared by four rows, of
        which rows 1 and 5 are equal; returns (mats, i, vecs)."""
        rng = np.random.default_rng(17)
        own = [rng.standard_normal((23, 37)) for _ in range(3)]
        mats = own + [rng.standard_normal((23, 37))] * 3
        i = np.array([0, 3, 1, 4, 2, 5, 3])
        vecs = rng.standard_normal((7, 23 if transpose else 37))
        vecs[5] = vecs[1]
        return mats, i, vecs

    @pytest.mark.parametrize("transpose", [False, True])
    def test_one_row_block_has_matvec_bits(self, transpose):
        # the shared block's rows all equal row 1: one distinct row, as
        # are the three blocks of one client each
        mats, i, vecs = self.call(transpose)
        vecs[[3, 5, 6]] = vecs[1]
        got = QuadraticProblem._apply(mats, i, vecs, transpose)
        for r, j in enumerate(i):
            m = mats[j].T if transpose else mats[j]
            assert got[r].tobytes() == np.matvec(m, vecs[r]).tobytes()
            one = QuadraticProblem._apply(mats, i[r:r + 1], vecs[r:r + 1],
                                          transpose)
            assert one[0].tobytes() == got[r].tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_distinct_rows_take_one_gemm(self, transpose):
        # the shared block's distinct rows 1, 3 and 6 (row 5 repeats row
        # 1) are one GEMM's rows, within the GEMV's rounding of each
        mats, i, vecs = self.call(transpose)
        got = QuadraticProblem._apply(mats, i, vecs, transpose)
        m = mats[3].T if transpose else mats[3]
        gemm = np.matmul(vecs[[1, 3, 6]], m.T)
        assert got[[1, 3, 6, 5]].tobytes() == gemm[[0, 1, 2, 0]].tobytes()
        bound = 2 * (37 + 4) * EPS * (np.abs(vecs[[1, 3, 6]]) @ np.abs(m.T))
        assert np.all(np.abs(gemm - np.matvec(m, vecs[[1, 3, 6]])) <= bound)

    def test_repeated_calls_are_bit_identical(self):
        prob = make_quadratic(seed=8, n=8, d1=64, d2=48, hetero=0.4,
                              noise_g=0.3, eig_min=0.6, eig_max=1.7,
                              quartic=0.2)
        i, x, y, coords, batch = rolling_call(prob, noise=True)
        v = np.random.default_rng(2).standard_normal((prob.n, prob.d2))

        def calls():
            return [prob.grad_g_y(i, x, y, batch),
                    prob.cross_xy_g_apply(i, x, y, v, batch),
                    *prob.implicit_term(i, x, y, coords, 1e-3, v, batch)]

        first = calls()
        for _ in range(3):
            assert [a.tobytes() for a in calls()] \
                == [a.tobytes() for a in first]
