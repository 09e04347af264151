"""Clients are rows: a call over k clients gives the bits and failures of
its rows' one-client calls, and shares work where rows share structure."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim import hypergrad, masking, problems
from rabosim.errors import DivergenceDetected, SingularRestrictedHessian
from rabosim.federation import GlobalState, RunConfig, rabo_round
from rabosim.federation import client_inner_loop as inner_loop
from rabosim.rng import RngStream


@st.composite
def families(draw):
    """A logistic problem, or a quadratic one with make_quadratic's aliased
    blocks or distinct ones per client, the quartic term, noise."""
    seed, n = draw(st.integers(0, 2 ** 16)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return problems.make_logistic_tune(
            seed=seed, n=n, classes=draw(st.integers(2, 3)),
            features=draw(st.integers(1, 3)), base_count=15)
    noise = draw(st.sampled_from([0.0, 0.5]))
    prob = problems.make_quadratic(
        seed=seed, n=n, d1=draw(st.integers(1, 5)), d2=draw(st.integers(1, 5)),
        hetero=0.4, noise_f=noise, noise_g=noise, eig_min=0.6, eig_max=1.7,
        quartic=draw(st.sampled_from([0.0, 0.3])))
    if draw(st.booleans()):   # a distinct A_i and B_i per client
        s = prob.spec
        prob = problems.QuadraticProblem(replace(s, a_mats=[
            a + 0.1 * i * np.eye(prob.d2) for i, a in enumerate(s.a_mats)],
            b_mats=[(1 + 0.1 * i) * b for i, b in enumerate(s.b_mats)]))
    return prob


@settings(max_examples=100, deadline=None)
@given(data=st.data(), prob=families())
def test_row_calls_equal_one_client_calls(data, prob):
    k = data.draw(st.integers(1, 5))
    ids = np.array(data.draw(st.lists(st.integers(0, prob.n - 1),
                                      min_size=k, max_size=k)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    mx, my = (rng.integers(0, 2, (k, d), np.uint8) for d in (prob.d1, prob.d2))
    mx[:, 0] = 1   # rafbo perturbs a coordinate
    x, y, v = (rng.standard_normal((k, d)) for d in (prob.d1, prob.d2, prob.d2))
    # a row may copy an earlier one, as the clients of one window do
    src = [data.draw(st.integers(0, r)) for r in range(k)]
    mx, my, x, y = mx[src], my[src], x[src] * mx[src], y[src] * my[src]
    size = data.draw(st.sampled_from([0, 1, 3, 10 ** 6]))
    bf, bg = ([data.draw(st.sampled_from([None, problems.SampleBatch(
        level, 7, int(c), 2, 1, size)])) for c in ids] if size else None
        for level in "fg")
    epochs = None if bg is None else [[b] * 2 for b in bg]
    active, coords = ([np.flatnonzero(m) for m in ms] for ms in (my, mx))

    def check(call, *args, rows=None):
        """call(ids, *args) against call(ids[r], *row r of each args)."""
        got = list(call(ids, *args) if rows is None else rows)
        assert len(got) == k
        for r, c in enumerate(ids):
            want = call(c, *(a[r] if isinstance(a, (list, np.ndarray))
                             else a for a in args))
            for g, w in zip(*(v if isinstance(v, tuple) else (v,)
                              for v in (got[r], want)), strict=True):
                assert np.array_equal(g, w)

    for callback in (prob.grad_f_x, prob.grad_f_y):
        check(callback, x, y, bf)
    check(prob.grad_g_y, x, y, bg)
    check(prob.cross_xy_g_apply, x, y, v, bg)
    blocks = {r: b for rows, b in prob.hess_yy_g(ids, x, y, bg, active)
              for r in rows}
    check(prob.hess_yy_g, x, y, bg, active, rows=map(blocks.get, range(k)))
    check(prob.grad_g_y_perturbed, x, y, coords, 0.1, bg)
    check(prob.implicit_term, x, y, coords, 0.1, v, bg)
    loop = partial(inner_loop, prob)
    check(loop, x, y, my, 0.1, 2, epochs,
          rows=zip(*loop(ids, x, y, my, 0.1, 2, epochs)))
    check(partial(hypergrad.exact_hypergradient, prob), x, y, mx, my, bf, bg)
    check(partial(hypergrad.rafbo_hypergradient, prob), x, y, mx, my, 1e-3,
          0.5, bf, bg, [RngStream(5, int(c), 2, "p") for c in ids])


@pytest.mark.parametrize("shared", [True, False])
def test_factors_and_products_per_call(monkeypatch, shared):
    """An exact_aid round of 8 clients at rolling 1/2 (clients 0, 2, 4, 6 on
    one window) with make_quadratic's shared A or an A_i per client."""
    s = problems.make_quadratic(seed=11, n=8, d1=8, d2=8, hetero=0.3,
                                eig_min=0.8, eig_max=1.6).spec
    if not shared:
        s = replace(s, a_mats=[a + 0.01 * i for i, a in enumerate(s.a_mats)])
    prob = problems.QuadraticProblem(s)
    names = {id(a): "A" for a in s.a_mats} | {id(s.b_mats[0]): "B"}
    built, products = [], []
    build, matvec = hypergrad.spd_solver, np.matvec
    monkeypatch.setattr(hypergrad, "spd_solver",
                        lambda h: built.append(h.shape) or build(h))
    monkeypatch.setattr(np, "matvec", lambda a, v: products.append(
        (names.get(id(a)) or names[id(a.base)] + "T", len(v))) or matvec(a, v))
    rabo_round(prob, GlobalState(np.ones(8), np.zeros(8), 0),
               RunConfig(inner_epochs=2, capacities="1/2"))
    # one factor per window's active set of the shared A
    assert built == [(4, 4)] * (2 if shared else 8)
    # a block multiplies each distinct row once per call: the first
    # epoch's y rows are all 0 and a window's x rows are equal; the second
    # epoch's y rows and the cross term's z rows all differ
    first, second = ([("A", 1)], [("A", 8)]) if shared else \
        ([("A", 1)] * 8, [("A", 1)] * 8)
    assert products == first + [("B", 2)] + second + [("B", 2), ("BT", 8)]


def diagonal_clients(*diags):
    """g_i = 0.5 y'A_i y, A_i = diag(diags[i]) (one array per distinct
    list): an inner step scales y by 1 - beta A_i."""
    mats = {id(a): np.diag(np.array(a)) for a in diags}
    spec = problems.make_quadratic(n=len(diags), d1=len(diags[0]),
                                   d2=len(diags[0]), coupling=0.0,
                                   target_scale=0.0).spec
    return problems.QuadraticProblem(replace(
        spec, a_mats=[mats[id(a)] for a in diags]))


def assert_fails_one_by_one(call, clients, want):
    """``call(clients)`` raises ``want``, the message of the lowest client
    whose one-client call raises, as when clients run one by one."""
    raised = []
    for c in clients:
        try:
            call(c)
        except DivergenceDetected as exc:
            raised.append(str(exc))
    assert raised[0] == want
    with pytest.raises(DivergenceDetected) as err:
        call(np.array(clients))
    assert str(err.value) == want


def test_divergence_names_the_lowest_failing_client():
    # beta 1 scales y by 1 - A_i per epoch: client 1 by -2 (|y| passes 50
    # at epoch 5), 2 by -100 (epoch 0), 3 by -8 (epoch 1); 4 starts at NaN
    prob = diagonal_clients([1.0], [3.0], [101.0], [9.0], [1.0])
    x, y0 = np.full((5, 1), 2.0), np.array([[1.0]] * 4 + [[np.nan]])

    def loop(i):
        return inner_loop(prob, i, x[i], y0[i], np.ones(y0[i].shape, np.uint8),
                          1.0, 8, divergence_guard=50.0)

    tail = " with beta 1.0; client outer iterate ||x|| = 2.000e+00"
    first = "client 1: ||y|| = 6.400e+01 exceeded guard 5.000e+01 at inner " \
        "epoch 5" + tail
    assert_fails_one_by_one(loop, [0, 1, 2, 3, 4], first)
    assert_fails_one_by_one(loop, [0, 2, 4], "client 2: ||y|| = 1.000e+02 "
                            "exceeded guard 5.000e+01 at inner epoch 0" + tail)
    assert_fails_one_by_one(loop, [0, 4], "client 4: ||y|| = nan is "
                            "non-finite at inner epoch 0" + tail)
    with pytest.raises(DivergenceDetected) as err:
        rabo_round(prob, GlobalState(np.full(1, 2.0), np.ones(1), 0),
                   RunConfig(beta=1.0, inner_epochs=8), divergence_guard=50.0)
    assert str(err.value) == f"round 0: {first} after steps of alpha 0.05"


@pytest.mark.parametrize("shared", [True, False])
def test_singular_block_names_the_lowest_failing_client(shared):
    # shared: clients 1 and 3 train coordinate 1 of one A, whose block is
    # -1; else clients 1 and 3 hold an indefinite A_i of their own
    bad = [1.0, -1.0]
    prob = diagonal_clients(*[bad] * 4) if shared else \
        diagonal_clients([1.0, 1.0], bad, [1.0, 1.0], [-1.0, 1.0])
    cfg = RunConfig(capacities="1/2" if shared else "1")
    masks = masking.generate_mask(np.zeros(2), [cfg.capacities] * 4,
                                  "rolling", 0)
    want = "client 1: restricted inner Hessian is not SPD " \
        f"({1 if shared else 2} active coordinates)"
    assert_fails_one_by_one(lambda i: hypergrad.exact_hypergradient(
        prob, i, masks[i] * 1.0, masks[i] * 0.5, masks[i], masks[i]),
        range(4), want)
    with pytest.raises(SingularRestrictedHessian) as err:
        rabo_round(prob, GlobalState(np.ones(2), np.zeros(2), 0), cfg)
    assert str(err.value) == f"round 0: {want}"
