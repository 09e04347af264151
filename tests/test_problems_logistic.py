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
        with pytest.raises(InvalidSpec) as err:
            make_logistic_tune(seed=2, n=1, imbalance_mu=0.1, classes=4,
                               base_count=100)
        assert err.value.key == "base_count"
        assert str(err.value) == ("base_count 100 leaves the last class "
                                  "empty after decay by imbalance_mu 0.1")

    def test_fewest_samples_leave_a_validation_split(self):
        # class 0 gives len // 5 of its base_count samples to validation
        with pytest.raises(InvalidSpec) as err:
            make_logistic_tune(n=2, classes=2, features=2, base_count=4)
        assert err.value.key == "base_count"
        prob = make_logistic_tune(n=2, classes=2, features=2, base_count=5)
        for i, data in enumerate(prob.spec.clients):
            assert len(data.y_val) == 2
            grad = prob.grad_f_y(i, np.zeros(prob.d1), np.ones(prob.d2))
            assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("kwargs,key,want", [
        ({"n": 2.5}, "n", "an integer"),
        ({"classes": 3.0}, "classes", "an integer"),
        ({"class_sep": None}, "class_sep", "a finite number")])
    def test_mistyped_argument_named(self, kwargs, key, want):
        # make_logistic_tune(n=2.5) used to end in a TypeError from range(n)
        with pytest.raises(InvalidSpec) as err:
            make_logistic_tune(**kwargs)
        assert err.value.key == key
        assert str(err.value) == f"{key} must be {want}, got {kwargs[key]!r}"

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

    def test_grad_f_is_both_gradients(self, setup):
        # the base default: one grad_f_x and one grad_f_y call
        prob, x, y = setup
        for args in ((1, x, y), ([0, 1], np.array([x, -x]), np.array([y, y]))):
            gx, gy = prob.grad_f(*args)
            assert gx.tobytes() == prob.grad_f_x(*args).tobytes()
            assert gy.tobytes() == prob.grad_f_y(*args).tobytes()

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
            prob.grad_g_y(0, x, y, SampleBatch("g", seed=50, draw=t,
                                               size=16))
            for t in range(3000)])
        err = np.linalg.norm(draws.mean(axis=0) - full)
        spread = np.linalg.norm(draws.std(axis=0)) / np.sqrt(3000)
        assert err <= 6 * spread

    def test_batch_is_reproducible(self, setup):
        prob, x, y = setup
        batch = SampleBatch("g", seed=51, draw=3, size=8)
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
        (3, SampleBatch("g", seed=53, draw=4, size=9)),
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


# the logistic override and the base default it replaces
IMPLICIT = (LogisticTuneProblem.implicit_term, BilevelProblem.implicit_term)


def assert_override_is_default(prob, i, x, y, coords, mu, v, batch):
    """The override's terms equal the base default's, bit for bit, and a
    second call gives the first's bits."""
    want = BilevelProblem.implicit_term(prob, i, x, y, coords, mu, v, batch)
    assert want.shape == coords.shape
    for _ in range(2):
        got = LogisticTuneProblem.implicit_term(prob, i, x, y, coords, mu, v,
                                                batch)
        assert np.array_equal(got, want)


class TestImplicitTerm:
    """``implicit_term``'s logistic override, one stacked pass of
    ``grad_g_y``'s operations, against the base default, one ``grad_g_y``
    call per point; both end in the same difference step."""

    @pytest.mark.parametrize("batch", [
        None,
        SampleBatch("g", seed=52, draw=2, size=10 ** 6),
        SampleBatch("g", seed=52, draw=2, size=8),
    ], ids=["noiseless", "full-batch", "subsampled"])
    def test_override_equals_default(self, batch):
        prob = make_logistic_tune(seed=9, n=2, imbalance_mu=0.6, classes=3,
                                  features=4, base_count=40)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(prob.d1) * 0.4
        y = rng.standard_normal(prob.d2) * 0.3
        v = rng.standard_normal(prob.d2)
        # weights, a repeated weight, an offset and reg
        coords = np.array([0, 2, 2, 4, prob.d1 - 1])
        assert_override_is_default(prob, 1, x, y, coords, 1e-3, v, batch)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), classes=st.integers(2, 5),
           features=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
           mu=st.sampled_from([1e-6, 1e-3, 0.5]),
           kind=st.sampled_from(["noiseless", "full-batch", "subsampled"]))
    def test_override_equals_default_property(self, data, classes, features,
                                              seed, mu, kind):
        prob = make_logistic_tune(seed=seed, n=2, imbalance_mu=0.8,
                                  classes=classes, features=features,
                                  base_count=30)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(prob.d1) * 0.5
        y = rng.standard_normal(prob.d2) * 0.4
        v = rng.standard_normal(prob.d2)
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
                 "full-batch": SampleBatch("g", seed=seed, size=10 ** 6),
                 "subsampled": SampleBatch(
                     "g", seed=seed,
                     size=data.draw(st.integers(1, m - 1)))}[kind]
        assert_override_is_default(prob, 1, x, y, coords, mu, v, batch)

    @pytest.mark.parametrize("coords,y_len", [
        (np.array([[0]]), None), (np.array([99]), None),
        (np.array([0]), 1)], ids=["2-d", "past-end", "bad-y"])
    def test_rejects_bad_shapes(self, coords, y_len):
        prob = make_logistic_tune(seed=9, n=2, classes=3, features=4,
                                  base_count=40)
        y = np.zeros(prob.d2 if y_len is None else y_len)
        for implicit in IMPLICIT:
            with pytest.raises(DimensionMismatch):
                implicit(prob, 0, np.zeros(prob.d1), y, coords, 1e-3,
                         np.zeros(prob.d2))
