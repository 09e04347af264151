import json

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim.cli import build_problem, resolve_config
from rabosim.errors import DimensionMismatch, InvalidSpec
from rabosim.problems import (
    BilevelProblem,
    LogisticTuneProblem,
    SampleBatch,
    make_logistic_tune,
)
from tests_support import assert_caller_owns_rows


def class_counts(problem, client=0):
    data = problem.spec.clients[client]
    labels = np.concatenate([data.y_train, data.y_val])
    return np.bincount(labels, minlength=problem.classes)


class TestConstruction:
    def test_balanced_when_mu_is_one(self):
        prob = make_logistic_tune(seed=0, n=2, imbalance_mu=1.0,
                                  classes=3, base_count=40)
        assert np.array_equal(class_counts(prob), [40, 40, 40])

    def test_longtail_decay_counts(self):
        prob = make_logistic_tune(seed=1, n=1, imbalance_mu=0.5,
                                  classes=4, base_count=100)
        assert np.array_equal(class_counts(prob), [100, 50, 25, 12])

    def test_empty_class_raises(self):
        with pytest.raises(InvalidSpec):
            make_logistic_tune(seed=2, n=1, imbalance_mu=0.1, classes=4,
                               base_count=100)

    def test_mu_out_of_range(self):
        with pytest.raises(InvalidSpec):
            make_logistic_tune(seed=0, n=1, imbalance_mu=0.0)
        with pytest.raises(InvalidSpec):
            make_logistic_tune(seed=0, n=1, imbalance_mu=1.5)

    def test_split_is_80_20_per_class(self):
        prob = make_logistic_tune(seed=3, n=1, imbalance_mu=0.5, classes=4,
                                  base_count=100)
        data = prob.spec.clients[0]
        val_counts = np.bincount(data.y_val, minlength=4)
        for c, total in enumerate([100, 50, 25, 12]):
            assert val_counts[c] == total // 5

    def test_dimensions(self):
        prob = make_logistic_tune(seed=4, n=2, classes=3, features=6)
        assert prob.d1 == 7 and prob.d2 == 18

    def test_config_round_trip(self):
        # the echoed problem section rebuilds the same instance
        prob = make_logistic_tune(seed=5, n=2, imbalance_mu=0.7, classes=3,
                                  features=4, base_count=40)
        section = {"family": "logistic", "seed": 5, "n": 2,
                   "imbalance_mu": 0.7, "classes": 3, "features": 4,
                   "base_count": 40}
        echo = json.loads(json.dumps(
            resolve_config({"problem": section}).echo()))
        clone = build_problem(resolve_config(echo).problem)
        for a, b in zip(prob.spec.clients, clone.spec.clients):
            assert np.array_equal(a.x_train, b.x_train)
            assert np.array_equal(a.y_val, b.y_val)


def plain_regularized_ce(y_flat, feats, labels, classes, features, reg=1.0):
    """Independent implementation of l2-regularized softmax CE."""
    w = y_flat.reshape(classes, features)
    logits = feats @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    ce = -logp[np.arange(len(labels)), labels].mean()
    return ce + 0.5 * reg * float(y_flat @ y_flat)


def plain_regularized_ce_grad(y_flat, feats, labels, classes, features, reg=1.0):
    w = y_flat.reshape(classes, features)
    logits = feats @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(labels)), labels] -= 1.0
    return (probs.T @ feats / len(labels)).ravel() + reg * y_flat


class TestObjectives:
    def test_zero_x_is_plain_regularized_loss(self):
        prob = make_logistic_tune(seed=5, n=1, imbalance_mu=0.5, classes=3,
                                  features=4, base_count=60)
        data = prob.spec.clients[0]
        rng = np.random.default_rng(1)
        x0 = np.zeros(prob.d1)
        for _ in range(5):
            y = rng.standard_normal(prob.d2) * 0.3
            ours = prob.value_g(0, x0, y)
            independent = plain_regularized_ce(
                y, data.x_train, data.y_train, 3, 4)
            assert ours == pytest.approx(independent, rel=1e-12)

    def test_inner_optimum_matches_convex_solver(self):
        prob = make_logistic_tune(seed=6, n=1, imbalance_mu=0.5, classes=3,
                                  features=4, base_count=60)
        data = prob.spec.clients[0]
        x0 = np.zeros(prob.d1)

        res = scipy.optimize.minimize(
            plain_regularized_ce, np.zeros(prob.d2),
            jac=plain_regularized_ce_grad,
            args=(data.x_train, data.y_train, 3, 4), method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 2000})
        assert res.success

        # Newton on our callbacks must land on the same optimum
        y = np.zeros(prob.d2)
        for _ in range(20):
            grad = prob.grad_g_y(0, x0, y)
            if np.linalg.norm(grad) < 1e-13:
                break
            y = y - np.linalg.solve(prob.hess_yy_g(0, x0, y), grad)
        assert np.linalg.norm(y - res.x) <= 1e-6
        assert np.linalg.norm(prob.grad_g_y(0, x0, res.x)) <= 1e-5

    def test_strong_convexity_floor(self):
        prob = make_logistic_tune(seed=7, n=1, classes=3, features=4,
                                  base_count=40)
        rng = np.random.default_rng(2)
        for reg_raw in (-1.0, 0.0, 0.7):
            x = rng.standard_normal(prob.d1) * 0.5
            x[-1] = reg_raw
            y = rng.standard_normal(prob.d2) * 0.4
            hess = prob.hess_yy_g(0, x, y)
            min_eig = np.linalg.eigvalsh(hess)[0]
            assert min_eig >= np.exp(reg_raw) - 1e-10


class TestDerivatives:
    @pytest.fixture()
    def setup(self):
        prob = make_logistic_tune(seed=8, n=2, imbalance_mu=0.5, classes=3,
                                  features=4, base_count=50)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(prob.d1) * 0.4
        y = rng.standard_normal(prob.d2) * 0.3
        return prob, x, y

    def test_grad_g_y_fd(self, setup):
        prob, x, y = setup
        grad = prob.grad_g_y(0, x, y)
        h = 1e-6
        for k in range(prob.d2):
            e = np.zeros(prob.d2)
            e[k] = h
            fd = (prob.value_g(0, x, y + e) - prob.value_g(0, x, y - e)) / (2 * h)
            assert fd == pytest.approx(grad[k], abs=2e-6)

    def test_hessian_fd(self, setup):
        prob, x, y = setup
        hess = prob.hess_yy_g(0, x, y)
        h = 1e-5
        for k in range(0, prob.d2, 3):
            e = np.zeros(prob.d2)
            e[k] = h
            fd_row = (prob.grad_g_y(0, x, y + e)
                      - prob.grad_g_y(0, x, y - e)) / (2 * h)
            assert np.allclose(fd_row, hess[k], atol=1e-6)

    def test_cross_apply_fd(self, setup):
        prob, x, y = setup
        rng = np.random.default_rng(4)
        v = rng.standard_normal(prob.d2)
        applied = prob.cross_xy_g_apply(0, x, y, v)
        h = 1e-6
        fd = np.zeros(prob.d1)
        for s in range(prob.d1):
            e = np.zeros(prob.d1)
            e[s] = h
            fd[s] = float((prob.grad_g_y(0, x + e, y)
                           - prob.grad_g_y(0, x - e, y)) @ v) / (2 * h)
        assert np.allclose(fd, applied, atol=1e-5)

    def test_grad_f_y_fd(self, setup):
        prob, x, y = setup
        grad = prob.grad_f_y(0, x, y)
        h = 1e-6
        for k in range(prob.d2):
            e = np.zeros(prob.d2)
            e[k] = h
            fd = (prob.value_f(0, x, y + e) - prob.value_f(0, x, y - e)) / (2 * h)
            assert fd == pytest.approx(grad[k], abs=2e-6)

    def test_upper_level_ignores_x(self, setup):
        prob, x, y = setup
        assert np.array_equal(prob.grad_f_x(0, x, y), np.zeros(prob.d1))
        assert prob.value_f(0, x, y) == prob.value_f(0, x + 1.0, y)

    def test_subsampled_gradient_is_unbiased(self, setup):
        prob, x, y = setup
        full = prob.grad_g_y(0, x, y)
        draws = np.stack([
            prob.grad_g_y(0, x, y, SampleBatch("g", seed=50, client=0,
                                               draw=t, size=16))
            for t in range(3000)])
        err = np.linalg.norm(draws.mean(axis=0) - full)
        spread = np.linalg.norm(draws.std(axis=0)) / np.sqrt(3000)
        assert err <= 6 * spread

    def test_batch_is_reproducible(self, setup):
        prob, x, y = setup
        batch = SampleBatch("g", seed=51, client=0, draw=3, size=8)
        assert np.array_equal(prob.grad_g_y(0, x, y, batch),
                              prob.grad_g_y(0, x, y, batch))


def plain_hessian(prob, i, x, y, batch=None):
    """Per-sample sum of w_j kron(S_j, phi_j phi_j^T) / m + reg I."""
    weights, offsets, reg = prob._unpack_x(x)
    feats, labels = prob._train_slice(i, batch)
    hess = np.zeros((prob.d2, prob.d2))
    for phi, label in zip(feats, labels):
        logits = prob._weight_matrix(y) @ phi + offsets
        p = np.exp(logits - logits.max())
        p /= p.sum()
        s = np.diag(p) - np.outer(p, p)
        hess += weights[label] * np.kron(s, np.outer(phi, phi))
    return hess / len(labels) + reg * np.eye(prob.d2)


class TestHessianForm:
    """The GEMM Hessian against a plain per-sample Kronecker sum.

    The summation order differs, so entries agree to a tolerance of
    1e-12 relative to the entry or to the largest entry, not bit for bit.
    """

    @pytest.mark.parametrize("classes,batch", [
        (3, None),
        (3, SampleBatch("g", seed=53, client=1, draw=4, size=9)),
        (2, None),
    ], ids=["full-batch", "subsampled", "two-classes"])
    def test_matches_per_sample_sum(self, classes, batch):
        prob = make_logistic_tune(seed=10, n=2, imbalance_mu=0.6,
                                  classes=classes, features=4, base_count=40)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(prob.d1) * 0.5
        y = rng.standard_normal(prob.d2) * 0.4
        hess = prob.hess_yy_g(1, x, y, batch)
        assert np.array_equal(hess, hess.T)
        ref = plain_hessian(prob, 1, x, y, batch)
        assert np.allclose(hess, ref, rtol=1e-12,
                           atol=1e-12 * np.abs(ref).max())

    @settings(max_examples=25, deadline=None)
    @given(classes=st.integers(2, 5), features=st.integers(1, 6),
           base_count=st.integers(5, 30), seed=st.integers(0, 2 ** 16))
    def test_matches_per_sample_sum_property(self, classes, features,
                                             base_count, seed):
        prob = make_logistic_tune(seed=seed, n=1, classes=classes,
                                  features=features, base_count=base_count)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(prob.d1) * 0.5
        y = rng.standard_normal(prob.d2) * 0.4
        hess = prob.hess_yy_g(0, x, y)
        assert np.array_equal(hess, hess.T)
        ref = plain_hessian(prob, 0, x, y)
        assert np.allclose(hess, ref, rtol=1e-12,
                           atol=1e-12 * np.abs(ref).max())


def assert_rows_are_single_calls(perturbed, prob, i, x, y, coords, mu,
                                 batch):
    """``perturbed``'s base and every row equal ``grad_g_y`` calls, bit
    for bit; returns them."""
    base, rows = perturbed(prob, i, x, y, coords, mu, batch)
    assert np.array_equal(base, prob.grad_g_y(i, x, y, batch))
    assert rows.shape == (coords.size, prob.d2)
    for p, row in zip(coords, rows):
        x_pert = x.copy()
        x_pert[p] += mu
        assert np.array_equal(row, prob.grad_g_y(i, x_pert, y, batch))
    return base, rows


# the logistic override and the base default it replaces
PERTURBED = (LogisticTuneProblem.grad_g_y_perturbed,
             BilevelProblem.grad_g_y_perturbed)


class TestGradGyBatch:
    """``grad_g_y_perturbed``, both the logistic override and the base
    default: the base and every row equal separate ``grad_g_y`` calls, bit
    for bit."""

    @pytest.mark.parametrize("batch", [
        None,
        SampleBatch("g", seed=52, client=1, draw=2, size=10 ** 6),
        SampleBatch("g", seed=52, client=1, draw=2, size=8),
    ], ids=["noiseless", "full-batch", "subsampled"])
    def test_rows_equal_single_calls(self, batch):
        prob = make_logistic_tune(seed=9, n=2, imbalance_mu=0.6, classes=3,
                                  features=4, base_count=40)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(prob.d1) * 0.4
        y = rng.standard_normal(prob.d2) * 0.3
        # weights, a repeated weight, an offset and reg
        coords = np.array([0, 2, 2, 4, prob.d1 - 1])
        for perturbed in PERTURBED:
            base, rows = assert_rows_are_single_calls(
                perturbed, prob, 1, x, y, coords, 1e-3, batch)
            again = perturbed(prob, 1, x, y, coords, 1e-3, batch)
            assert np.array_equal(again[0], base)
            assert np.array_equal(again[1], rows)

    @pytest.mark.parametrize("perturbed", PERTURBED,
                             ids=["override", "default"])
    def test_caller_owns_rows(self, perturbed):
        prob = make_logistic_tune(seed=9, n=2, imbalance_mu=0.6, classes=3,
                                  features=4, base_count=40)
        rng = np.random.default_rng(6)
        batch = SampleBatch("g", seed=52, client=1, draw=2, size=8)
        assert_caller_owns_rows(perturbed, prob, 1,
                                rng.standard_normal(prob.d1) * 0.4,
                                rng.standard_normal(prob.d2) * 0.3,
                                np.array([0, 4, prob.d1 - 1]), 1e-3, batch)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), classes=st.integers(2, 5),
           features=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
           mu=st.sampled_from([1e-6, 1e-3, 0.5]),
           kind=st.sampled_from(["noiseless", "full-batch", "subsampled"]))
    def test_override_matches_single_calls_property(self, data, classes,
                                                    features, seed, mu, kind):
        prob = make_logistic_tune(seed=seed, n=2, imbalance_mu=0.8,
                                  classes=classes, features=features,
                                  base_count=30)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(prob.d1) * 0.5
        y = rng.standard_normal(prob.d2) * 0.4
        # at least one weight, one offset and reg, then any coordinates,
        # then a repeat, in a drawn order
        mixed = [data.draw(st.integers(0, classes - 1)),
                 data.draw(st.integers(classes, 2 * classes - 1)),
                 2 * classes]
        mixed += data.draw(st.lists(st.integers(0, prob.d1 - 1),
                                    max_size=2 * prob.d1))
        mixed.append(data.draw(st.sampled_from(mixed)))
        coords = np.array(data.draw(st.permutations(mixed)))
        m = prob.spec.clients[1].x_train.shape[0]
        batch = {"noiseless": None,
                 "full-batch": SampleBatch("g", seed=seed, client=1,
                                           size=10 ** 6),
                 "subsampled": SampleBatch(
                     "g", seed=seed, client=1,
                     size=data.draw(st.integers(1, m - 1)))}[kind]
        base, rows = assert_rows_are_single_calls(
            LogisticTuneProblem.grad_g_y_perturbed, prob, 1, x, y, coords,
            mu, batch)
        default = BilevelProblem.grad_g_y_perturbed(prob, 1, x, y, coords,
                                                    mu, batch)
        assert np.array_equal(default[0], base)
        assert np.array_equal(default[1], rows)

    @pytest.mark.parametrize("coords,y_len", [
        (np.array([[0]]), None), (np.array([99]), None),
        (np.array([0]), 1)], ids=["2-d", "past-end", "bad-y"])
    def test_rejects_bad_shapes(self, coords, y_len):
        prob = make_logistic_tune(seed=9, n=2, classes=3, features=4,
                                  base_count=40)
        y = np.zeros(prob.d2 if y_len is None else y_len)
        for perturbed in PERTURBED:
            with pytest.raises(DimensionMismatch):
                perturbed(prob, 0, np.zeros(prob.d1), y, coords, 1e-3)
