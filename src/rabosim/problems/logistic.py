"""Loss-function tuning on long-tail imbalanced data, desk scale.

The outer variable collects the knobs of the training loss for a linear
softmax classifier: per-class log-weights, per-class logit offsets, and a
log-regularization strength,

    x = [w_raw (C), offsets (C), reg_raw (1)],  d1 = 2C + 1.

The inner variable is the flattened classifier weight matrix W (C x p),
d2 = C * p. Per client the objectives are

    g_i(x, y) = mean_train exp(w_raw[c_j]) * CE(W phi_j + offsets, c_j)
                + (exp(reg_raw) / 2) * ||y||^2
    f_i(x, y) = mean_val CE(W phi_j, c_j)

so the lower level is the weighted, offset, regularized training loss and
the upper level is the plain validation loss. The explicit l2 term with
coefficient exp(reg_raw) > 0 keeps g strongly convex in y for every fixed
x, and exponential weight parameterization keeps all sample weights
positive. At x = 0 the training loss reduces to plain l2-regularized
logistic regression with unit coefficient.

Class imbalance follows an exponential long-tail decay: class c keeps
floor(base_count * mu^c) samples. Each client splits its data 80/20 into
train/validation once at construction; the split is fixed for the run.
Stochastic evaluations subsample the train split without replacement.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..errors import InvalidSpec, check_ranges, check_types
from ..rng import RngStream
from .base import BilevelProblem, SampleBatch, _difference


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax(z: np.ndarray) -> np.ndarray:
    return np.exp(_log_softmax(z))


@dataclass(frozen=True)
class _ClientData:
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray


@dataclass(frozen=True)
class LogisticTuneSpec:
    """Per-client datasets and their shape."""

    clients: list
    classes: int
    features: int


class LogisticTuneProblem(BilevelProblem):
    def __init__(self, spec: LogisticTuneSpec):
        for data in spec.clients:
            if not (np.all(np.isfinite(data.x_train))
                    and np.all(np.isfinite(data.x_val))):
                raise InvalidSpec("feature matrices must be finite")
        self.spec = spec
        self.n = len(spec.clients)
        self.classes = spec.classes
        self.features = spec.features
        self.d1, self.d2 = dims(vars(spec))

    def each_row(self, callback, batch, i, x, y, *more) -> np.ndarray:
        """A row call as its rows' one-client calls, stacked."""
        return np.array([*map(callback, *self.rows(i, x, y, *more)[1:],
                              repeat(batch))])

    # -- parameter unpacking -------------------------------------------------
    def _unpack_x(self, x: np.ndarray):
        """(weights, offsets, reg) of one outer point, or of each row of a
        stack of them."""
        c = self.classes
        return np.exp(x[..., :c]), x[..., c:2 * c], np.exp(x[..., 2 * c])

    def _weight_matrix(self, y: np.ndarray) -> np.ndarray:
        return y.reshape(self.classes, self.features)

    def _train_slice(self, i: int, batch: SampleBatch | None):
        data = self.spec.clients[i]
        n_tr = data.x_train.shape[0]
        if batch is None or batch.size >= n_tr:
            return data.x_train, data.y_train
        gen = batch.stream(i).generator()
        idx = gen.choice(n_tr, size=batch.size, replace=False)
        idx.sort()
        return data.x_train[idx], data.y_train[idx]

    # -- lower level ------------------------------------------------------------
    def value_g(self, i, x, y, batch=None):
        self.check_dims(x, y)
        weights, offsets, reg = self._unpack_x(x)
        feats, labels = self._train_slice(i, batch)
        logits = feats @ self._weight_matrix(y).T + offsets
        ce = -_log_softmax(logits)[np.arange(len(labels)), labels]
        return float(np.mean(weights[labels] * ce)) + 0.5 * reg * float(y @ y)

    def grad_g_y(self, i, x, y, batch=None):
        if np.ndim(i):
            return self.each_row(self.grad_g_y, batch, i, x, y)
        self.check_dims(x, y)
        weights, offsets, reg = self._unpack_x(x)
        feats, labels = self._train_slice(i, batch)
        probs = _softmax(feats @ self._weight_matrix(y).T + offsets)
        resid = probs.copy()
        resid[np.arange(len(labels)), labels] -= 1.0
        wr = weights[labels][:, None] * resid
        grad_w = wr.T @ feats / len(labels)
        return grad_w.ravel() + reg * y

    def implicit_term(self, i, x, y, coords, mu, v, batch=None):
        if np.ndim(i):   # the base's loop over rows, which calls this
            return super().implicit_term(i, x, y, coords, mu, v, batch)
        # grad_g_y's operations on a stack of the base and every x + mu e_p,
        # elementwise or reduced along the last axis, so each row equals its
        # single call bit for bit, then the base's difference step. Weight
        # and reg perturbations reuse the base softmax; only offsets rerun it.
        self.check_dims(x, y)
        self.check_coords(coords)
        c = self.classes
        points = np.repeat(x[None, :], coords.size + 1, axis=0)
        points[np.arange(1, coords.size + 1), coords] += mu
        weights, offsets, reg = self._unpack_x(points)
        feats, labels = self._train_slice(i, batch)
        m = len(labels)
        # the points with logits of their own: the base and each offset
        own = np.r_[0, 1 + np.flatnonzero((coords >= c) & (coords < 2 * c))]
        softmax_of = np.zeros(coords.size + 1, dtype=np.intp)
        softmax_of[own] = np.arange(own.size)
        resid = _softmax(feats @ self._weight_matrix(y).T
                         + offsets[own, None, :])
        resid[:, np.arange(m), labels] -= 1.0
        wr = resid[softmax_of]
        wr *= weights[:, labels, None]
        grad_w = np.matmul(wr.transpose(0, 2, 1), feats) / m
        grads = grad_w.reshape(coords.size + 1, self.d2) + reg[:, None] * y
        return _difference(grads[0], grads[1:], mu, v)

    def hess_yy_g(self, i, x, y, batch=None, active=None):
        if np.ndim(i):   # each row's block, formed when reached
            _, i, x, y, active = self.rows(i, x, y, active)
            return (([r], block) for r, block in enumerate(
                map(self.hess_yy_g, i, x, y, repeat(batch), active)))
        self.check_dims(x, y)
        if active is None:
            active = np.arange(self.d2)
        self.check_active(active)
        weights, offsets, reg = self._unpack_x(x)
        feats, labels = self._train_slice(i, batch)
        m = len(labels)
        probs = _softmax(feats @ self._weight_matrix(y).T + offsets)
        w = weights[labels]
        # sum_j w_j S_j kron phi_j phi_j^T with S_j = diag(p_j) - p_j p_j^T
        # is a rank-one part -Z^T diag(w) Z, row j of Z being p_j kron phi_j
        # (scaled by sqrt(w_j) here, as w > 0, so one copy of Z suffices),
        # plus one block F^T diag(w * p_{.a}) F per class a on the diagonal.
        # Only the columns in active are formed. Coordinate k is class
        # k // p, feature k % p; ascending indices put class a's in
        # bounds[a]:bounds[a + 1]. The gathers are C-ordered (x[:, idx]
        # is not), so with every column the products give the bits of
        # the full form.
        p = self.features
        cls, feat = np.divmod(active, p)
        bounds = np.searchsorted(cls, np.arange(self.classes + 1))
        phi = np.take(feats, feat, axis=1)
        z = np.repeat(np.sqrt(w)[:, None] * probs, np.diff(bounds), axis=1)
        z *= phi
        hess = z.T @ z
        np.negative(hess, out=hess)
        wp = w[:, None] * probs
        for a, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo < hi:
                f = phi[:, lo:hi]
                hess[lo:hi, lo:hi] += (wp[:, a, None] * f).T @ f
        hess /= m
        # solve_spd needs exact symmetry, which the GEMMs do not promise
        hess += hess.T
        hess /= 2.0
        hess.flat[::active.size + 1] += reg
        return hess

    def cross_xy_g_apply(self, i, x, y, v, batch=None):
        if np.ndim(i):
            return self.each_row(self.cross_xy_g_apply, batch, i, x, y, v)
        self.check_dims(x, y)
        weights, offsets, reg = self._unpack_x(x)
        feats, labels = self._train_slice(i, batch)
        m = len(labels)
        vmat = self._weight_matrix(np.asarray(v))
        probs = _softmax(feats @ self._weight_matrix(y).T + offsets)
        resid = probs.copy()
        resid[np.arange(m), labels] -= 1.0
        vphi = feats @ vmat.T                       # m x C, row j is V phi_j

        out = np.zeros(self.d1)
        per_sample = np.einsum("jc,jc->j", resid, vphi)
        np.add.at(out[: self.classes], labels, weights[labels] * per_sample)
        out[: self.classes] /= m
        # d(resid_j)/d offset_c' = S_j[:, c']; contract with V phi_j
        s_vphi = probs * (vphi - np.einsum("jc,jc->j", probs, vphi)[:, None])
        out[self.classes:2 * self.classes] = \
            (weights[labels][:, None] * s_vphi).sum(axis=0) / m
        out[-1] = reg * float(y @ np.asarray(v))
        return out

    # -- upper level ---------------------------------------------------------------
    def value_f(self, i, x, y, batch=None):
        self.check_dims(x, y)
        data = self.spec.clients[i]
        logits = data.x_val @ self._weight_matrix(y).T
        ce = -_log_softmax(logits)[np.arange(len(data.y_val)), data.y_val]
        return float(np.mean(ce))

    def grad_f_x(self, i, x, y, batch=None):
        if np.ndim(i):
            return self.each_row(self.grad_f_x, batch, i, x, y)
        self.check_dims(x, y)
        return np.zeros(self.d1)

    def grad_f_y(self, i, x, y, batch=None):
        if np.ndim(i):
            return self.each_row(self.grad_f_y, batch, i, x, y)
        self.check_dims(x, y)
        data = self.spec.clients[i]
        probs = _softmax(data.x_val @ self._weight_matrix(y).T)
        resid = probs.copy()
        resid[np.arange(len(data.y_val)), data.y_val] -= 1.0
        return (resid.T @ data.x_val / len(data.y_val)).ravel()


# make_logistic_tune's arguments. Class 0 holds base_count samples and
# gives len // 5 of them to validation, so 5 leaves the split nonempty.
RANGES = {"n": "at least 1", "imbalance_mu": "in (0, 1]",
          "classes": "at least 2", "features": "at least 1",
          "base_count": "at least 5"}


def check_args(args: dict, prefix: str = "") -> None:
    """Raise InvalidSpec naming the first argument in ``args`` that breaks
    a rule of ``make_logistic_tune``: its type, by its default in
    ``ARGUMENTS``, then its range; ``prefix`` leads the message."""
    check_types(args, ARGUMENTS, prefix)
    check_ranges(args, RANGES, prefix)
    # the decay leaves the last class the fewest samples
    if math.floor(args["base_count"]
                  * args["imbalance_mu"] ** (args["classes"] - 1)) < 1:
        raise InvalidSpec(
            f"{prefix}base_count {args['base_count']} leaves the last class "
            f"empty after decay by imbalance_mu {args['imbalance_mu']!r}",
            key="base_count")


def dims(args: dict) -> tuple[int, int]:
    """(d1, d2) of ``make_logistic_tune(**args)``, or of a spec's fields."""
    return 2 * args["classes"] + 1, args["classes"] * args["features"]


def make_logistic_tune(seed: int = 0, n: int = 4, imbalance_mu: float = 1.0,
                       *, classes: int = 4, features: int = 5,
                       base_count: int = 100,
                       class_sep: float = 2.0) -> LogisticTuneProblem:
    """Build the loss-tuning problem on synthetic data from the arguments,
    and defaults, of a config's logistic ``problem`` section.

    Each client draws Gaussian blobs around shared class means with
    long-tail counts floor(base_count * mu^c), then splits 80/20 into
    train/validation per class.
    """
    check_args(locals())

    gen = RngStream(seed, purpose="make-logistic").generator()
    means = class_sep * gen.standard_normal((classes, features))
    counts = [math.floor(base_count * imbalance_mu ** c)
              for c in range(classes)]
    clients: list[_ClientData] = []
    for _ in range(n):
        # train x, train y, validation x, validation y: the first 80% of
        # each class's samples train
        parts = ([], [], [], [])
        for c, cnt in enumerate(counts):
            feats = means[c] + gen.standard_normal((cnt, features))
            labels = np.full(cnt, c, dtype=np.int64)
            cut = cnt - cnt // 5
            for part, arr in zip(parts, (feats[:cut], labels[:cut],
                                         feats[cut:], labels[cut:])):
                part.append(arr)
        clients.append(_ClientData(*map(np.concatenate, parts)))
    return LogisticTuneProblem(
        LogisticTuneSpec(clients=clients, classes=classes, features=features))


# make_logistic_tune's arguments and their defaults, the keys and defaults
# of a config's logistic problem section
ARGUMENTS = {name: param.default for name, param
             in inspect.signature(make_logistic_tune).parameters.items()}
