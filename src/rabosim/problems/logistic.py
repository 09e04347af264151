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

from ..errors import InvalidSpec, check_ranges, check_size, check_types
from ..rng import RngStream
from .base import BilevelProblem, SampleBatch, restricted_solver


def _log_softmax(z: np.ndarray) -> np.ndarray:
    # numpy reduces a short last axis one row at a time; the max of a
    # class-major copy is the same value, taken a class at a time
    top = np.ascontiguousarray(np.moveaxis(z, -1, 0)).max(axis=0)
    shifted = z - top[..., None]
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
        """(weights, offsets, reg) of one outer point."""
        c = self.classes
        return np.exp(x[:c]), x[c:2 * c], np.exp(x[2 * c])

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

    def _train_probs(self, x: np.ndarray, y: np.ndarray, feats: np.ndarray):
        """(weights, reg, probs): x's class weights and l2 coefficient, and
        the training softmax of ``feats`` at (x, y)."""
        weights, offsets, reg = self._unpack_x(x)
        return weights, reg, _softmax(feats @ self._weight_matrix(y).T
                                      + offsets)

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
        feats, labels = self._train_slice(i, batch)
        weights, reg, resid = self._train_probs(x, y, feats)
        resid[np.arange(len(labels)), labels] -= 1.0
        wr = weights[labels][:, None] * resid
        grad_w = wr.T @ feats / len(labels)
        return grad_w.ravel() + reg * y

    def implicit_term(self, i, x, y, coords, mu, v, batch=None):
        if np.ndim(i):   # the base's loop over rows, which calls this
            return super().implicit_term(i, x, y, coords, mu, v, batch)
        # The exact forward difference, from the base softmax p_j alone.
        # <grad_g_y, v> is sum_j w_{c_j} r_j . V phi_j / m + reg <y, v>,
        # with r_j = p_j - e_{c_j}. A weight or reg step scales its factor
        # by e^mu = 1 + E; an offset step moves p_j to softmax(z_j + mu e_c)
        # = p_j + E p_jc (e_c - p_j) / (1 + E p_jc), with no second exp.
        self.check_dims(x, y)
        self.check_coords(coords)
        feats, labels = self._train_slice(i, batch)
        weights, reg, probs = self._train_probs(x, y, feats)
        m = len(labels)
        vphi = feats @ self._weight_matrix(v).T     # m x C, row j is V phi_j
        pv = np.vecdot(probs, vphi)                 # p_j . V phi_j
        e = np.expm1(mu)
        per_class = np.bincount(labels, pv - vphi[np.arange(m), labels],
                                self.classes)
        ep = e * probs
        shift = ep * (vphi - pv[:, None]) / (1.0 + ep)
        terms = np.concatenate([(e / mu) * weights * per_class / m,
                                weights[labels] @ shift / (mu * m),
                                [(e / mu) * reg * float(y @ v)]])
        return -terms[coords]

    def hess_yy_g(self, i, x, y, batch=None, active=None):
        if np.ndim(i):   # each row's block, formed when reached
            _, i, x, y, active = self.rows(i, x, y, active)
            return (([r], block) for r, block in enumerate(
                map(self.hess_yy_g, i, x, y, repeat(batch), active)))
        self.check_dims(x, y)
        if active is None:
            active = np.arange(self.d2)
        self.check_active(active)
        feats, labels = self._train_slice(i, batch)
        weights, reg, probs = self._train_probs(x, y, feats)
        return self._hessian_block(feats, weights[labels], probs, reg, active)

    def _hessian_block(self, feats, w, probs, reg, active, scratch=None):
        """The ``active`` block of a client's Hessian from its training
        pass, ``w`` its samples' weights. The two (m, |active|) gathers
        go to ``scratch`` when given, a buffer of at least 2 m |active|
        floats."""
        # sum_j w_j S_j kron phi_j phi_j^T with S_j = diag(p_j) - p_j p_j^T
        # is a rank-one part -Z^T diag(w) Z, row j of Z being p_j kron phi_j
        # (scaled by sqrt(w_j) here, as w > 0, so one copy of Z suffices),
        # plus one block F^T diag(w * p_{.a}) F per class a on the diagonal.
        # Only the columns in active are formed. Coordinate k is class
        # k // p, feature k % p; ascending indices put class a's in
        # bounds[a]:bounds[a + 1]. The gathers are C-ordered (x[:, idx]
        # is not), so with every column the products give the bits of
        # the full form. active is checked, so "clip" clips nothing; it
        # lets np.take write into a buffer without a copy of its own.
        m, p = len(w), self.features
        cls, feat = np.divmod(active, p)
        bounds = np.searchsorted(cls, np.arange(self.classes + 1))
        phi, z = (None, None) if scratch is None else \
            scratch[:2 * m * active.size].reshape(2, m, active.size)
        phi = np.take(feats, feat, axis=1, out=phi, mode="clip")
        z = np.take(np.sqrt(w)[:, None] * probs, cls, axis=1, out=z,
                    mode="clip")
        z *= phi
        hess = z.T @ z
        np.negative(hess, out=hess)
        # Z is spent: it takes w_j p_ja phi_j, whose class-a columns give
        # that class's block (the same products and sums, read in place)
        np.take(w[:, None] * probs, cls, axis=1, out=z, mode="clip")
        z *= phi
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo < hi:
                hess[lo:hi, lo:hi] += z[:, lo:hi].T @ phi[:, lo:hi]
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
        feats, labels = self._train_slice(i, batch)
        weights, reg, probs = self._train_probs(x, y, feats)
        return self._cross_term(feats, labels, weights, probs, reg, y,
                                np.asarray(v))

    def _cross_term(self, feats, labels, weights, probs, reg, y, v):
        """(d^2 g/dx dy) @ v from a client's training pass."""
        m, c = len(labels), self.classes
        resid = probs.copy()
        resid[np.arange(m), labels] -= 1.0
        vphi = feats @ self._weight_matrix(v).T     # m x C, row j is V phi_j
        out = np.empty(self.d1)
        per_sample = np.einsum("jc,jc->j", resid, vphi)
        out[:c] = np.bincount(labels, weights[labels] * per_sample, c) / m
        # d(resid_j)/d offset_c' = S_j[:, c']; contract with V phi_j
        s_vphi = probs * (vphi - np.einsum("jc,jc->j", probs, vphi)[:, None])
        out[c:2 * c] = (weights[labels][:, None] * s_vphi).sum(axis=0) / m
        out[-1] = reg * float(y @ v)
        return out

    def aid_term(self, i, x, y, active, v, batch=None):
        # The base default's blocks, solves and cross terms, each client's
        # from one training pass; every row's gathers reuse one buffer.
        one, i, x, y, active, v = self.rows(i, x, y, active, v)
        for a in active:
            self.check_active(a)
        slices = [self._train_slice(c, batch) for c in i]
        scratch = np.empty(2 * max(len(labels) for _, labels in slices)
                           * max(a.size for a in active))
        out = np.empty(x.shape)
        for r, ((feats, labels), a) in enumerate(zip(slices, active)):
            weights, reg, probs = self._train_probs(x[r], y[r], feats)
            hess = self._hessian_block(feats, weights[labels], probs, reg,
                                       a, scratch)
            z = np.zeros(self.d2)
            z[a] = restricted_solver(hess, i[r])(v[r, a])
            out[r] = self._cross_term(feats, labels, weights, probs, reg,
                                      y[r], z)
        return out[0] if one else out

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
    ``ARGUMENTS``, its range, then the size rule (``check_size``);
    ``prefix`` leads the message."""
    check_types(args, ARGUMENTS, prefix)
    check_ranges(args, RANGES, prefix)
    # the size rule goes first, as past the float range the decay's
    # product below overflows: at most base_count * classes samples per
    # client of features + 1 entries, the Hessian's (samples, d2) factor
    # and (d2, d2) product, and n rows of d1 + d2
    n, count = args["n"], args["base_count"] * args["classes"]
    d1, d2 = dims(args)
    check_size(args, n * count * (args["features"] + 1) + count * d2
               + d2 * d2 + n * (d1 + d2),
               ("n", "classes", "features", "base_count"), prefix)
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
