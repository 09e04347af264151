"""``hess_yy_g(..., active=a)``: each family forms only the active block."""

from fractions import Fraction

import numpy as np
import pytest

from rabosim.errors import DimensionMismatch
from rabosim.federation import GlobalState, RunConfig, rabo_round
from rabosim.hypergrad import EXACT_AID
from rabosim.problems import (
    LogisticTuneProblem,
    SampleBatch,
    make_logistic_tune,
    make_quadratic,
)
from tests_support import full_hessian_reference

# d2 = 12 in every family; the logistic one is 3 classes x 4 features, so
# coordinates 0-3, 4-7 and 8-11 are one class each
FAMILIES = {
    "quadratic": lambda: make_quadratic(seed=31, n=3, d1=5, d2=12,
                                        hetero=0.3, eig_min=0.8,
                                        eig_max=1.6),
    "quartic": lambda: make_quadratic(seed=31, n=3, d1=5, d2=12, hetero=0.3,
                                      eig_min=0.8, eig_max=1.6, quartic=0.1),
    "logistic": lambda: make_logistic_tune(seed=10, n=3, imbalance_mu=0.6,
                                           classes=3, features=4,
                                           base_count=40),
}
ACTIVE = {
    "split-classes": [1, 2, 4, 5, 6, 7, 9],
    "skips-a-class": [0, 1, 2, 3, 8, 11],
    "single": [10],
    "all": list(range(12)),
}
BATCHES = {"full": None,
           "subsampled": SampleBatch("g", seed=53, draw=4, size=9)}


def point(prob, seed=6):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(prob.d1) * 0.5,
            rng.standard_normal(prob.d2) * 0.4)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("active", ACTIVE)
@pytest.mark.parametrize("family", FAMILIES)
def test_active_block_of_the_full_hessian(family, active, batch):
    prob = FAMILIES[family]()
    x, y = point(prob)
    idx = np.array(ACTIVE[active])
    full = prob.hess_yy_g(1, x, y, BATCHES[batch])
    block = prob.hess_yy_g(1, x, y, BATCHES[batch], active=idx)
    want = full[np.ix_(idx, idx)]
    assert block.shape == (idx.size, idx.size)
    if family == "logistic" and active != "all":
        # the Gram product sums over fewer columns, in another order
        assert np.array_equal(block, block.T)
        assert np.allclose(block, want, rtol=1e-12,
                           atol=1e-12 * np.abs(want).max())
    else:
        assert np.array_equal(block, want)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("family", FAMILIES)
def test_no_active_set_keeps_the_full_hessian_bits(family, batch):
    prob = FAMILIES[family]()
    x, y = point(prob)
    got = prob.hess_yy_g(2, x, y, BATCHES[batch])
    assert got.shape == (prob.d2, prob.d2)
    assert np.array_equal(got, full_hessian_reference(prob, 2, x, y,
                                                      BATCHES[batch]))


def test_shared_block_restriction_is_formed_once_per_active_set():
    # make_quadratic's clients share one A: a row call forms its block once
    # per distinct active set, in order of first use, as a fresh array
    prob = FAMILIES["quadratic"]()
    x, y = point(prob)
    active = [np.array([1, 2, 9]), np.array([1, 9]), np.array([1, 2, 9])]
    xs, ys = np.tile(x, (3, 1)), np.tile(y, (3, 1))
    clients = np.array([0, 2, 1])
    pairs = list(prob.hess_yy_g(clients, xs, ys, active=active))
    assert [rows for rows, _ in pairs] == [[0, 2], [1]]
    for rows, block in pairs:
        c, a = clients[rows[0]], active[rows[0]]
        assert block.flags.writeable
        assert not np.shares_memory(block, prob.spec.a_mats[c])
        assert np.array_equal(block, prob.hess_yy_g(c, x, y, active=a))


@pytest.mark.parametrize("family", ["quartic", "logistic"])
def test_curved_hessians_are_fresh(family):
    # the quartic term and the logistic Hessian depend on the row's point,
    # so every row gets a block of its own, even on one active set
    prob = FAMILIES[family]()
    x, y = point(prob)
    active = [np.array([1, 2])] * 2
    xs, ys = np.tile(x, (2, 1)), np.tile(y, (2, 1))
    want = prob.hess_yy_g(0, x, y, active=active[0])
    pairs = list(prob.hess_yy_g(np.array([0, 0]), xs, ys, active=active))
    assert [rows for rows, _ in pairs] == [[0], [1]]
    assert all(np.array_equal(block, want) for _, block in pairs)
    pairs[0][1][...] = np.nan
    assert np.array_equal(pairs[1][1], want)
    assert np.array_equal(prob.hess_yy_g(0, x, y, active=active[0]), want)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("active", [[2, 1], [1, 1], [0, 12], [-1, 0]],
                         ids=["descending", "repeated", "above", "negative"])
def test_bad_active_set_raises(family, active):
    prob = FAMILIES[family]()
    x, y = point(prob)
    with pytest.raises(DimensionMismatch, match="active"):
        prob.hess_yy_g(0, x, y, active=np.array(active))
    with pytest.raises(DimensionMismatch, match="active"):
        prob.aid_term(0, x, y, np.array(active), y)


def test_exact_aid_asks_for_the_active_block_only(monkeypatch):
    """One logistic exact_aid round at capacity 1/2 under magnitude_topk:
    the round makes one ``aid_term`` row call for every client, with each
    client's active set, and every Hessian block it forms is |a| x |a|,
    never d2 x d2."""
    prob = make_logistic_tune(seed=4, n=4, imbalance_mu=0.8, classes=4,
                              features=6, base_count=30)
    calls = []
    aid, block = LogisticTuneProblem.aid_term, \
        LogisticTuneProblem._hessian_block

    def spy(self, i, x, y, active, v, batch=None):
        calls.append((list(i), active, []))
        return aid(self, i, x, y, active, v, batch)

    def block_spy(self, *args, **kwargs):
        out = block(self, *args, **kwargs)
        calls[-1][2].append(out)
        return out

    monkeypatch.setattr(LogisticTuneProblem, "aid_term", spy)
    monkeypatch.setattr(LogisticTuneProblem, "_hessian_block", block_spy)
    cfg = RunConfig(alpha=0.05, beta=0.2, inner_epochs=2, estimator=EXACT_AID,
                    policy="magnitude_topk",
                    capacities=[Fraction(1, 2)] * prob.n)
    y0 = np.random.default_rng(2).standard_normal(prob.d2)
    rabo_round(prob, GlobalState(np.zeros(prob.d1), y0, 0), cfg)
    [(clients, actives, blocks)] = calls
    assert clients == list(range(prob.n))
    for active, hess in zip(actives, blocks, strict=True):
        assert active is not None
        assert 0 < active.size < prob.d2
        assert hess.shape == (active.size, active.size)
