import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim.errors import EmptyMask, InvalidSpec
from rabosim.federation import (
    CostLedger,
    RunConfig,
    inner_loop_flops,
    rafbo_flops,
)
from rabosim.hypergrad import (
    EXACT_AID,
    RAFBO,
    build_perturbation_set,
    exact_hypergradient,
    hypergrad_error_bound,
    jacobian_column_fd,
    rafbo_hypergradient,
)
from rabosim.masking import apply_mask, mask_deviation
from rabosim.problems import (
    SampleBatch,
    derive_constants,
    make_logistic_tune,
    make_quadratic,
)
from rabosim.problems.quadratic import QuadraticProblem, QuadraticSpec
from rabosim.rng import RngStream
from tests_support import (
    EPS,
    grad_g_y_row_bound,
    rafbo_masked_deltas_reference,
)


def full_mask(d):
    return np.ones(d, dtype=np.uint8)


def mask_from(bits):
    return np.array(bits, dtype=np.uint8)


def ledger_hypergrad_flops(mx, my, estimator, coord_fraction=1.0):
    """The ledger's hypergradient charge for a client holding ``mx``, ``my``:
    its round's charge less the inner loop's."""
    cfg = RunConfig(estimator=estimator, coord_fraction=coord_fraction)
    ledger = CostLedger()
    ledger.add(mx[None], my[None], cfg)
    return ledger.flops_per_client[0] - inner_loop_flops(
        np.count_nonzero(mx), np.count_nonzero(my), cfg.inner_epochs)


def one_dim_problem():
    """g = 0.5 (y - x)^2, f = 0.5 y^2."""
    return QuadraticProblem(QuadraticSpec(
        a_mats=[np.array([[1.0]])], b_mats=[np.array([[-1.0]])],
        c_vecs=[np.zeros(1)], outer_targets=[np.zeros(1)],
        inner_targets=[np.zeros(1)], u_mats=None, lam=0.0,
        noise_f=0, noise_g=0, quartic=0, sine_amp=0,
        ball_radius=10.0))


def unit_curvature_problem(seed=5, n=3, d=8, hetero=0.3):
    return make_quadratic(seed=seed, n=n, d1=d, d2=d, hetero=hetero,
                          eig_min=1.0, eig_max=1.0)


class TestExactHypergradient:
    def test_one_dim_matches_oracle(self):
        prob = one_dim_problem()
        for xv in (-1.0, 0.5, 2.0):
            x = np.array([xv])
            est = exact_hypergradient(prob, 0, x, x.copy(),
                                      full_mask(1), full_mask(1))
            assert est[0] == pytest.approx(xv, abs=1e-12)
            oracle = prob.grad_phi(x)
            assert est[0] == pytest.approx(oracle[0], abs=1e-12)

    def test_correction_vanishes_when_f_ignores_y(self):
        prob = make_quadratic(seed=1, n=2, d1=4, d2=4,
                              eig_min=0.5, eig_max=2.0)
        x = np.array([0.3, -0.1, 0.7, 0.2])
        y = prob.spec.inner_targets[0].copy()   # grad_f_y == 0 here
        est = exact_hypergradient(prob, 0, x, y, full_mask(4),
                                  full_mask(4))
        assert np.array_equal(est, prob.grad_f_x(0, x, y))

    def test_matches_oracle_at_inner_optimum(self):
        prob = make_quadratic(seed=2, n=4, d1=8, d2=8, hetero=0.4,
                              eig_min=0.6, eig_max=2.1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(8)
            y = prob.y_star(x)
            avg = np.mean([
                exact_hypergradient(prob, i, x, y, full_mask(8),
                                    full_mask(8))
                for i in range(4)], axis=0)
            oracle = prob.grad_phi(x)
            assert np.linalg.norm(avg - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_support_containment(self):
        prob = make_quadratic(seed=3, n=2, d1=6, d2=6,
                              eig_min=0.8, eig_max=1.5)
        mx = mask_from([1, 0, 1, 1, 0, 0])
        my = mask_from([0, 1, 1, 0, 1, 1])
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6) * mx
        y = rng.standard_normal(6) * my
        est = exact_hypergradient(prob, 0, x, y, mx, my)
        assert np.all(est[mx == 0] == 0.0)


class TestPerturbationSet:
    def test_full_mask_all_coordinates(self):
        coords = build_perturbation_set(full_mask(3), 1.0)
        assert np.array_equal(coords, [0, 1, 2])
        assert coords.dtype == np.int64

    def test_respects_support(self):
        coords = build_perturbation_set(mask_from([1, 0, 1, 1]), 1.0)
        assert np.array_equal(coords, [0, 2, 3])

    def test_sampled_subset_reproducible(self):
        rng = RngStream(7, 0, 0, "pset")
        a = build_perturbation_set(full_mask(10), 0.5, rng)
        b = build_perturbation_set(full_mask(10), 0.5, rng)
        assert len(a) == 5
        assert len(set(a.tolist())) == 5
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.sort(a))
        assert a.dtype == np.int64

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyMask):
            build_perturbation_set(mask_from([0, 0]), 1.0)

    def test_subset_requires_rng(self):
        with pytest.raises(ValueError):
            build_perturbation_set(full_mask(4), 0.5)


class TestJacobianColumnFd:
    def test_quadratic_exact_any_mu(self):
        prob = make_quadratic(seed=4, n=2, d1=4, d2=5,
                              eig_min=0.7, eig_max=1.8)
        b = prob.spec.b_mats[0]
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(4), rng.standard_normal(5)
        for mu in (1.0, 1e-3, 1e-7):
            for p in range(4):
                delta = jacobian_column_fd(prob, 0, x, y, p, mu)
                # descent-response orientation: minus the cross column
                assert np.allclose(delta, -b[:, p], atol=1e-7 if mu < 1e-6 else 1e-12)

    def test_decoupled_levels_zero(self):
        prob = make_quadratic(seed=5, n=2, d1=3, d2=3, coupling=0.0)
        x, y = np.ones(3), np.ones(3)
        for mu in (1.0, 1e-4):
            for p in range(3):
                assert np.array_equal(
                    jacobian_column_fd(prob, 0, x, y, p, mu), np.zeros(3))

    def test_quartic_bias_linear_in_mu(self):
        prob = make_quadratic(seed=6, n=2, d1=4, d2=4, quartic=0.2)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        b = prob.spec.b_mats[0]
        u = prob.spec.u_mats[0]
        tau = prob.spec.quartic
        errors = []
        for mu in (1e-2, 1e-3):
            p = 1
            analytic = -(b[:, p] + tau * x[p] * (u @ y))
            delta = jacobian_column_fd(prob, 0, x, y, p, mu)
            errors.append(np.linalg.norm(delta - analytic))
        ratio = errors[0] / errors[1]
        assert 8.0 <= ratio <= 12.0

    def test_nonpositive_mu(self):
        prob = make_quadratic(seed=7, n=1, d1=2, d2=2)
        with pytest.raises(InvalidSpec) as err:
            jacobian_column_fd(prob, 0, np.zeros(2), np.zeros(2), 0, 0.0)
        assert err.value.key == "mu"

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1e-3])
    def test_non_finite_or_negative_mu(self, mu):
        # a NaN step makes every delta NaN and the run then fails blaming
        # alpha; reject it where the step is set and where it is used
        prob = make_quadratic(seed=7, n=1, d1=2, d2=2)
        with pytest.raises(InvalidSpec) as err:
            RunConfig(mu=mu)
        assert err.value.key == "mu"
        with pytest.raises(InvalidSpec) as err:
            jacobian_column_fd(prob, 0, np.zeros(2), np.zeros(2), 0, mu)
        assert err.value.key == "mu"
        with pytest.raises(InvalidSpec) as err:
            rafbo_hypergradient(prob, 0, np.zeros(2), np.zeros(2),
                                full_mask(2), full_mask(2), mu, 1.0)
        assert err.value.key == "mu"

    def test_masked_output(self):
        prob = make_quadratic(seed=8, n=1, d1=3, d2=4,
                              eig_min=0.9, eig_max=1.4)
        my = mask_from([1, 0, 1, 0])
        delta = jacobian_column_fd(prob, 0, np.ones(3), np.ones(4), 0, 1e-3,
                                   mask_y=my)
        assert np.all(delta[my == 0] == 0.0)

    def test_common_random_numbers_cancel_noise(self):
        prob = make_quadratic(seed=9, n=1, d1=3, d2=4, noise_g=2.0,
                              eig_min=1.0, eig_max=1.0)
        batch = SampleBatch("g", seed=11, client=0, draw=0)
        clean = jacobian_column_fd(prob, 0, np.ones(3), np.ones(4), 1, 1e-3)
        noisy = jacobian_column_fd(prob, 0, np.ones(3), np.ones(4), 1, 1e-3,
                                   batch=batch)
        assert np.allclose(noisy, clean, atol=1e-9)


class TestRafboHypergradient:
    @pytest.mark.parametrize("mu", [1.0, 1e-2, 1e-4, 1e-6])
    def test_agreement_with_exact_on_unit_curvature(self, mu):
        prob = unit_curvature_problem()
        rng = np.random.default_rng(4)
        mx, my = full_mask(8), full_mask(8)
        for i in range(prob.n):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            exact = exact_hypergradient(prob, i, x, y, mx, my)
            approx = rafbo_hypergradient(prob, i, x, y, mx, my, mu, 1.0)
            rel = np.linalg.norm(approx - exact) \
                / np.linalg.norm(exact)
            assert rel <= 1e-9

    def test_agreement_under_partial_masks(self):
        prob = unit_curvature_problem(seed=10, d=6)
        mx = mask_from([1, 1, 0, 1, 0, 0])
        my = mask_from([0, 1, 1, 1, 0, 1])
        rng = np.random.default_rng(5)
        x = rng.standard_normal(6) * mx
        y = rng.standard_normal(6) * my
        exact = exact_hypergradient(prob, 0, x, y, mx, my)
        approx = rafbo_hypergradient(prob, 0, x, y, mx, my, 1e-3, 1.0)
        assert np.allclose(approx, exact, atol=1e-10)

    def test_agreement_with_shared_noisy_batches(self):
        prob = make_quadratic(seed=11, n=2, d1=5, d2=5, noise_f=0.3,
                              noise_g=0.4, eig_min=1.0, eig_max=1.0)
        mx, my = full_mask(5), full_mask(5)
        batch_f = SampleBatch("f", seed=3, client=0, draw=0)
        batch_g = SampleBatch("g", seed=3, client=0, draw=1)
        x, y = np.ones(5), -np.ones(5)
        exact = exact_hypergradient(prob, 0, x, y, mx, my, batch_f, batch_g)
        approx = rafbo_hypergradient(prob, 0, x, y, mx, my,
                                     1e-3, 1.0, batch_f, batch_g)
        assert np.allclose(approx, exact, atol=1e-9)

    def test_reduces_to_direct_term_when_f_ignores_y(self):
        prob = make_quadratic(seed=12, n=2, d1=4, d2=4,
                              eig_min=0.6, eig_max=1.9)
        x = np.array([0.2, -0.4, 0.1, 0.9])
        y = prob.spec.inner_targets[1].copy()
        for mu in (1.0, 1e-4):
            est = rafbo_hypergradient(prob, 1, x, y, full_mask(4),
                                      full_mask(4), mu, 1.0)
            assert np.allclose(est, prob.grad_f_x(1, x, y), atol=1e-14)

    def test_support_containment(self):
        prob = unit_curvature_problem(seed=13, d=6)
        mx = mask_from([0, 1, 1, 0, 1, 0])
        my = full_mask(6)
        est = rafbo_hypergradient(prob, 0, np.zeros(6), np.ones(6), mx, my,
                                  1e-3, 1.0)
        assert np.all(est[mx == 0] == 0.0)

    def test_quartic_error_below_analytic_bound(self):
        prob = make_quadratic(seed=14, n=2, d1=6, d2=6, quartic=0.1,
                              eig_min=1.0, eig_max=1.0)
        consts = derive_constants(prob)
        mx, my = full_mask(6), full_mask(6)
        x = np.zeros(6)
        y = 0.5 * np.ones(6)
        for mu in (1e-1, 1e-2, 1e-3):
            exact = exact_hypergradient(prob, 0, x, y, mx, my)
            approx = rafbo_hypergradient(prob, 0, x, y, mx, my, mu, 1.0)
            err = np.linalg.norm(approx - exact)
            bound = np.sqrt(hypergrad_error_bound(
                np.count_nonzero(mx), consts.l_g1, mu, consts.l_f0))
            assert err <= bound

    def test_fd_bias_scaling_slope(self):
        prob = make_quadratic(seed=15, n=2, d1=6, d2=6, quartic=0.1,
                              eig_min=1.0, eig_max=1.0)
        mx, my = full_mask(6), full_mask(6)
        x = np.zeros(6)
        y = 0.4 * np.arange(1.0, 7.0) / 6.0
        mus = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        errs = []
        for mu in mus:
            exact = exact_hypergradient(prob, 0, x, y, mx, my)
            approx = rafbo_hypergradient(prob, 0, x, y, mx, my, mu, 1.0)
            errs.append(np.linalg.norm(approx - exact))
        slope = np.polyfit(np.log(mus), np.log(errs), 1)[0]
        assert abs(slope - 1.0) <= 0.15

    def test_cost_tally(self):
        mx, my = full_mask(8), full_mask(8)
        # 2|P| + 2 gradient evaluations and |P| inner products, |P| = 8
        assert ledger_hypergrad_flops(mx, my, RAFBO) \
            == rafbo_flops(8, 8, 8)

    @pytest.mark.parametrize("mx_bits,my_bits,fraction", [
        ([1] * 8, [1] * 8, 0.5),            # |P| = 4 < 8 active inner
        ([1, 1, 1, 0, 0, 0, 0, 0], [1] * 8, 1.0),   # |P| = 3 < 8
        ([1] * 8, [1, 1, 1, 1, 0, 0, 0, 0], 0.25),  # |P| = 2 < 4
        ([1, 0, 0, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0, 0], 1.0),  # 1 < 2
    ])
    def test_rafbo_cheaper_when_sampling_below_inner_dim(self, mx_bits,
                                                         my_bits, fraction):
        mx, my = mask_from(mx_bits), mask_from(my_bits)
        coords = build_perturbation_set(mx, fraction,
                                        RngStream(1, 0, 0, "pset"))
        assert coords.size < np.count_nonzero(my)
        rafbo = ledger_hypergrad_flops(mx, my, RAFBO, fraction)
        assert rafbo == rafbo_flops(np.count_nonzero(mx), np.count_nonzero(my),
                                    coords.size)
        assert rafbo < ledger_hypergrad_flops(mx, my, EXACT_AID)


def loop_reference(prob, i, x, y, mx, my, mu, coord_fraction, batch_f=None,
                   batch_g=None, rng=None):
    """The estimator as one jacobian_column_fd call per perturbed coordinate.

    The deltas come from the loop; their inner products with grad_y f are
    taken in one matrix-vector product, as the default ``implicit_term``
    takes them, so a family that keeps the default matches the estimator
    bit for bit. Returns the value and an entrywise bound on how far the
    quadratic closed form may lie from it. The loop's delta_p lies within
    ``grad_g_y_row_bound`` (with ``x_base``, for the two evaluations it
    differences) over mu of the exact difference, plus the rounding of
    the difference and the division (a few eps of |delta_p|); the two
    products then round differently, by up to d2 eps of
    |delta_p| @ |grad_y f| each, and the final add by eps of the value.
    """
    coords = build_perturbation_set(mx, coord_fraction, rng)
    gfy = prob.grad_f_y(i, x, y, batch_f)
    value = prob.grad_f_x(i, x, y, batch_f).copy()
    deltas = np.empty((len(coords), prob.d2))
    bound = np.zeros_like(value)
    for k, p in enumerate(coords):
        deltas[k] = jacobian_column_fd(prob, i, x, y, int(p), mu, batch_g, my)
        x_pert = x.copy()
        x_pert[p] += mu
        rows = grad_g_y_row_bound(prob, i, x_pert, y, batch_g, x_base=x)[0]
        bound[p] = (rows / mu) @ np.abs(gfy) \
            + (2 * prob.d2 + 8) * EPS * (np.abs(deltas[k]) @ np.abs(gfy))
    value[coords] += deltas @ gfy
    bound += 2 * EPS * np.abs(value)
    return apply_mask(value, mx), bound


def assert_within(value, ref_and_bound):
    ref, bound = ref_and_bound
    assert np.all(np.abs(value - ref) <= bound), np.max(np.abs(value - ref) - bound)


class TestRafboBatchedEquivalence:
    """The batched estimator equals the per-coordinate loop: bit for bit on
    the logistic family, within ``loop_reference``'s bound on the
    quadratic one, whose implicit term is the exact difference the loop
    rounds.
    """

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    @pytest.mark.parametrize("kwargs", [
        {}, {"quartic": 0.2, "noise_f": 0.3, "noise_g": 0.5}],
        ids=["plain", "quartic-noisy"])
    def test_quadratic_matches_loop(self, fraction, kwargs):
        prob = make_quadratic(seed=30, n=2, d1=7, d2=6, hetero=0.3,
                              eig_min=0.7, eig_max=1.6, **kwargs)
        mx = mask_from([1, 1, 0, 1, 1, 0, 1])
        my = mask_from([0, 1, 1, 1, 0, 1])
        rng = np.random.default_rng(10)
        x = rng.standard_normal(7) * mx
        y = rng.standard_normal(6) * my
        batch_f = SampleBatch("f", seed=6, client=1, draw=0)
        batch_g = SampleBatch("g", seed=6, client=1, draw=2)
        est = rafbo_hypergradient(prob, 1, x, y, mx, my, 1e-3, fraction,
                                  batch_f, batch_g, RngStream(3, 1, 0, "pset"))
        ref = loop_reference(prob, 1, x, y, mx, my, 1e-3, fraction, batch_f,
                             batch_g, RngStream(3, 1, 0, "pset"))
        assert ledger_hypergrad_flops(mx, my, RAFBO, fraction) \
            == rafbo_flops(5, 4, 5 if fraction == 1.0 else 3)
        assert_within(est, ref)

    @pytest.mark.parametrize("size", [10 ** 6, 8])
    def test_logistic_matches_loop(self, size):
        prob = make_logistic_tune(seed=3, n=2, imbalance_mu=0.7, classes=3,
                                  features=3, base_count=30)
        mx = full_mask(prob.d1)
        my = mask_from([1, 0, 1, 1, 1, 0, 1, 1, 0])
        rng = np.random.default_rng(11)
        x = rng.standard_normal(prob.d1) * 0.3
        y = rng.standard_normal(prob.d2) * 0.3 * my
        batch_g = SampleBatch("g", seed=7, client=0, draw=1, size=size)
        for fraction in (1.0, 0.5):
            est = rafbo_hypergradient(prob, 0, x, y, mx, my, 1e-3, fraction,
                                      None, batch_g, RngStream(4, 0, 0, "pset"))
            ref, _ = loop_reference(prob, 0, x, y, mx, my, 1e-3, fraction,
                                    None, batch_g, RngStream(4, 0, 0, "pset"))
            assert np.array_equal(est, ref)

    @pytest.mark.parametrize("family", ["quadratic", "logistic"])
    def test_one_implicit_term_call(self, family, monkeypatch):
        if family == "quadratic":
            prob = make_quadratic(seed=31, n=3, d1=6, d2=5)
        else:
            prob = make_logistic_tune(seed=4, n=3, classes=3, features=2,
                                      base_count=20)
        calls = []   # (callback, clients): an index array or one client
        for name in ("implicit_term", "grad_g_y", "grad_g_y_perturbed"):
            original = getattr(prob, name)

            def counted(i, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, list(i) if np.ndim(i) else int(i)))
                return _original(i, *args, **kwargs)

            monkeypatch.setattr(prob, name, counted)
        mx, my = (np.ones((prob.n, d), np.uint8) for d in (prob.d1, prob.d2))
        clients = list(range(prob.n))
        rafbo_hypergradient(prob, clients, np.zeros(mx.shape),
                            np.zeros(my.shape), mx, my, 1e-3, 1.0)
        # the quadratic closed form evaluates no lower gradient; the
        # logistic default takes one row call of grad_g_y_perturbed, which
        # evaluates each client's points, base included, in that client's
        # stacked pass
        inner = [] if family == "quadratic" else \
            [("grad_g_y_perturbed", clients)] + \
            [("grad_g_y_perturbed", i) for i in clients]
        assert calls == [("implicit_term", clients)] + inner
        assert ledger_hypergrad_flops(mx[0], my[0], RAFBO) \
            == rafbo_flops(prob.d1, prob.d2, prob.d1)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d1=st.integers(1, 6), d2=st.integers(1, 6),
       mu=st.floats(1e-6, 1.0), quartic=st.sampled_from([0.0, 0.05, 0.4]),
       noise_g=st.sampled_from([0.0, 0.5]), fraction=st.floats(0.1, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_batched_rafbo_matches_loop_to_rounding(data, d1, d2, mu, quartic,
                                               noise_g, fraction, seed):
    bits_x = data.draw(st.lists(st.integers(0, 1), min_size=d1, max_size=d1)
                       .filter(any))
    bits_y = data.draw(st.lists(st.integers(0, 1), min_size=d2, max_size=d2))
    prob = make_quadratic(seed=seed, n=2, d1=d1, d2=d2, hetero=0.5,
                          eig_min=0.5, eig_max=2.0, quartic=quartic,
                          noise_f=0.2, noise_g=noise_g)
    mx, my = mask_from(bits_x), mask_from(bits_y)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d1) * mx
    y = rng.standard_normal(d2) * my
    batch_f = SampleBatch("f", seed=seed, client=1, draw=0)
    batch_g = SampleBatch("g", seed=seed, client=1, draw=1)
    est = rafbo_hypergradient(prob, 1, x, y, mx, my, mu, fraction, batch_f,
                              batch_g, RngStream(seed, 1, 0, "pset"))
    ref = loop_reference(prob, 1, x, y, mx, my, mu, fraction, batch_f,
                         batch_g, RngStream(seed, 1, 0, "pset"))
    assert_within(est, ref)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), mu=st.floats(1e-6, 1.0),
       fraction=st.one_of(st.just(1.0), st.floats(0.1, 0.95)),
       seed=st.integers(0, 2 ** 16))
def test_rafbo_equals_masked_deltas_bit_for_bit(data, mu, fraction, seed):
    """Masking grad_y f and working in place on the rows gives the bits of
    masking every delta_p out of place, on the logistic family, whose
    implicit term is the default difference of rows. The quadratic closed
    form is checked against those rows to rounding in
    ``test_quadratic_implicit_term_within_rounding_of_rows``."""
    prob = make_logistic_tune(
        seed=seed, n=2, imbalance_mu=0.8,
        classes=data.draw(st.integers(2, 4)),
        features=data.draw(st.integers(1, 4)), base_count=30)
    m = prob.spec.clients[1].x_train.shape[0]
    size = data.draw(st.one_of(st.just(10 ** 6), st.integers(1, m - 1)))
    bits_x = data.draw(st.lists(st.integers(0, 1), min_size=prob.d1,
                                max_size=prob.d1).filter(any))
    # at least one inner coordinate inactive
    bits_y = data.draw(st.lists(st.integers(0, 1), min_size=prob.d2,
                                max_size=prob.d2).filter(lambda b: not all(b)))
    mx, my = mask_from(bits_x), mask_from(bits_y)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(prob.d1) * 0.5 * mx
    y = rng.standard_normal(prob.d2) * 0.5 * my
    batch_f = SampleBatch("f", seed=seed, client=1, draw=0)
    batch_g = SampleBatch("g", seed=seed, client=1, draw=1, size=size)
    est = rafbo_hypergradient(prob, 1, x, y, mx, my, mu, fraction, batch_f,
                              batch_g, RngStream(seed, 1, 0, "pset"))
    ref = rafbo_masked_deltas_reference(prob, 1, x, y, mx, my, mu, fraction,
                                        batch_f, batch_g,
                                        RngStream(seed, 1, 0, "pset"))
    assert np.array_equal(est, ref)


class TestErrorBound:
    def test_zero_mu(self):
        assert hypergrad_error_bound(5, 2.0, 0.0, 3.0) == 0.0

    def test_hand_value(self):
        assert hypergrad_error_bound(2, 1.0, 0.1, 1.0) == pytest.approx(0.01)

    def test_mu_homogeneity(self):
        base = hypergrad_error_bound(3, 1.5, 0.2, 2.0)
        assert hypergrad_error_bound(3, 1.5, 0.4, 2.0) == pytest.approx(4 * base)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hypergrad_error_bound(-1, 1.0, 0.1, 1.0)


class TestMaskDriftDiagnostic:
    def test_masked_evaluation_drift_bound(self):
        # ||grad f_i(x*m, y*m) - grad f_i(x, y)||^2
        #   <= 2 M_f^2 w1^2 ||x||^2 + 2 M_f^2 w2^2 ||y||^2
        prob = make_quadratic(seed=18, n=3, d1=6, d2=6, hetero=0.4, lam=0.8,
                              eig_min=0.7, eig_max=1.6)
        consts = derive_constants(prob)
        rng = np.random.default_rng(6)
        from rabosim.masking import apply_mask
        for _ in range(30):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            mx = mask_from(rng.integers(0, 2, size=6))
            my = mask_from(rng.integers(0, 2, size=6))
            if not mx.any() or not my.any():
                continue
            i = int(rng.integers(0, 3))
            xm, ym = apply_mask(x, mx), apply_mask(y, my)
            drift = (np.sum((prob.grad_f_x(i, xm, ym) - prob.grad_f_x(i, x, y)) ** 2)
                     + np.sum((prob.grad_f_y(i, xm, ym) - prob.grad_f_y(i, x, y)) ** 2))
            w1sq = mask_deviation(x, mx[None])
            w2sq = mask_deviation(y, my[None])
            bound = 2 * consts.M_f ** 2 * (w1sq * np.sum(x ** 2)
                                           + w2sq * np.sum(y ** 2))
            assert drift <= bound + 1e-12
