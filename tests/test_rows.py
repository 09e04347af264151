"""Clients are rows: a call over k clients gives the failures of its rows'
one-client calls and their bits, but for the rounding of the quadratic
family's products, and shares work where rows share structure."""

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
from tests_support import (
    cross_row_bound,
    grad_g_y_row_bound,
    implicit_row_bound,
    per_row_products,
    spy_block_products,
)


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
    bf, bg = (data.draw(st.sampled_from([None, problems.SampleBatch(
        level, 7, round_index=2, draw=1, size=size)])) if size else None
        for level in "fg")
    epochs = data.draw(st.sampled_from([None, [bg, None]]))
    active, coords = ([np.flatnonzero(m) for m in ms] for ms in (my, mx))

    def check(call, *args, rows=None, bound=None):
        """call(ids, *args) against call(ids[r], *row r of each args): a
        batch, or the inner loop's list of one per epoch, is the call's;
        ``bound(r)``, if given, bounds row r's difference entrywise."""
        got = list(call(ids, *args) if rows is None else rows)
        assert len(got) == k
        for r, c in enumerate(ids):
            want = call(c, *(a[r] if isinstance(a, (list, np.ndarray))
                             and a is not epochs else a for a in args))
            for g, w in zip(*(v if isinstance(v, tuple) else (v,)
                              for v in (got[r], want)), strict=True):
                if bound is None:
                    assert np.array_equal(g, w)
                else:
                    assert np.all(np.abs(g - w) <= bound(r))

    def check_calls(bounded):
        """Every callback and round phase; ``bounded``: the products'
        callbacks within their bounds, and no round phase."""
        def bound(row_bound, *args):
            return (lambda r: row_bound(prob, ids[r], *(
                a[r] if isinstance(a, (list, np.ndarray)) else a
                for a in args))) if bounded else None

        for callback in (prob.grad_f_x, prob.grad_f_y):
            check(callback, x, y, bf)
        check(prob.grad_g_y, x, y, bg, bound=bound(
            lambda p, c, xr, yr: grad_g_y_row_bound(p, c, xr, yr, bg)[0],
            x, y))
        check(prob.cross_xy_g_apply, x, y, v, bg,
              bound=bound(cross_row_bound, x, y, v))
        blocks = {r: b for rows, b in prob.hess_yy_g(ids, x, y, bg, active)
                  for r in rows}
        check(prob.hess_yy_g, x, y, bg, active,
              rows=map(blocks.get, range(k)))
        check(prob.implicit_term, x, y, coords, 0.1, v, bg,
              bound=bound(implicit_row_bound, x, y, coords, 0.1, v))
        if bounded:
            return
        loop = partial(inner_loop, prob)
        check(loop, x, y, my, 0.1, 2, epochs,
              rows=zip(*loop(ids, x, y, my, 0.1, 2, epochs)))
        check(partial(hypergrad.exact_hypergradient, prob), x, y, mx, my,
              bf, bg)
        check(partial(hypergrad.rafbo_hypergradient, prob), x, y, mx, my,
              1e-3, 0.5, bf, bg, [RngStream(5, int(c), 2, "p") for c in ids])

    # a quadratic block multiplies its rows with one GEMM, and its
    # one-client calls with one GEMV each: the products' rows agree
    # within their rounding bounds, and with one GEMV per row every call
    # has its rows' one-client bits
    if isinstance(prob, problems.QuadraticProblem):
        check_calls(bounded=True)
    with pytest.MonkeyPatch.context() as patch:
        per_row_products(patch)
        check_calls(bounded=False)


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
    build = problems.base.spd_solver
    monkeypatch.setattr(problems.base, "spd_solver",
                        lambda h: built.append(h.shape) or build(h))
    spy_block_products(monkeypatch, s.a_mats + s.b_mats[:1],
                       lambda block, transposed, rows: products.append(
                           (names[id(block)] + "T" * transposed, len(rows))))
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


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_a_rows_client_keys_its_draw(family):
    # the batch names no client: row r of a call, like the one-client
    # call of client i[r], takes row i[r] of the batch's noise block
    # (quadratic) or draws from the batch's stream of i[r] (logistic)
    c, size = 2, 5
    batch = problems.SampleBatch("g", 9, round_index=4, draw=1, size=size)
    if family == "quadratic":
        prob = problems.make_quadratic(seed=3, n=4, d1=3, d2=5, hetero=0.4,
                                       noise_g=0.6)
        noise = batch.noise_stream().generator().standard_normal(
            (prob.n, prob.d1 + prob.d2))[c, :prob.d2]

        def want(x, y):
            return prob.grad_g_y(c, x, y) + (0.6 / np.sqrt(size)) * noise
    else:
        prob = problems.make_logistic_tune(seed=3, n=4, classes=3,
                                           features=2, base_count=20)
        data = prob.spec.clients[c]
        idx = batch.stream(c).generator().choice(
            len(data.y_train), size=size, replace=False)
        idx.sort()
        clients = list(prob.spec.clients)
        clients[c] = replace(data, x_train=data.x_train[idx],
                             y_train=data.y_train[idx])
        subsample = problems.LogisticTuneProblem(
            replace(prob.spec, clients=clients))

        def want(x, y):
            return subsample.grad_g_y(c, x, y)
    rng = np.random.default_rng(5)
    ids = np.array([0, c, 3, c])
    x, y = (rng.standard_normal((4, d)) for d in (prob.d1, prob.d2))
    rows = prob.grad_g_y(ids, x, y, batch)
    for r in (1, 3):
        w = want(x[r], y[r]).tobytes()
        assert prob.grad_g_y(c, x[r], y[r], batch).tobytes() == w
        assert rows[r].tobytes() == w


def test_noise_key_is_no_client_stream():
    # a call's noise block has a key of its own: no client stream of any
    # batch here has it, and the levels, draws and rounds each key their
    # own block
    batches = [problems.SampleBatch(level, 7, round_index=q, draw=k)
               for level in "fg" for q in range(3) for k in range(3)]
    blocks = {b.noise_stream()._key() for b in batches}
    clients = {b.stream(c)._key() for b in batches for c in range(64)}
    assert len(blocks) == len(batches)
    assert not blocks & clients


def test_noise_blocks_are_standard_normal_across_keys():
    # K = 4000 keys' (4, 8) blocks, each flattened to 32 entries. For
    # independent standard normals a mean entry has standard error
    # 1/sqrt(K), a covariance entry off the diagonal 1/sqrt(K) and a
    # variance sqrt(2/K); a cross covariance of two of a key's neighbours
    # (the next round, the other level, the next draw) over m pairs has
    # 1/sqrt(m). About 3,600 entries are checked, so each must lie within
    # 6 standard errors: an honest entry fails with probability ~2e-9.
    seeds, levels, draws, rounds = range(5), "fg", range(2), range(200)
    z = np.array([[[[problems.SampleBatch(
        level, seed, round_index=q, draw=k).noise_stream().normal(
            (4, 8)).ravel() for q in rounds] for k in draws]
        for level in levels] for seed in seeds])
    flat = z.reshape(-1, 32)
    k = len(flat)
    assert k == 4000
    assert np.all(np.abs(flat.mean(axis=0)) <= 6 / np.sqrt(k))
    cov = np.cov(flat, rowvar=False)
    off = ~np.eye(32, dtype=bool)
    assert np.all(np.abs(cov[off]) <= 6 / np.sqrt(k))
    assert np.all(np.abs(np.diag(cov) - 1.0) <= 6 * np.sqrt(2 / k))
    for a, b in ((z[..., :-1, :], z[..., 1:, :]),   # next round
                 (z[:, 0], z[:, 1]),                # other level
                 (z[:, :, 0], z[:, :, 1])):         # next draw
        a, b = a.reshape(-1, 32), b.reshape(-1, 32)
        cross = (a - a.mean(axis=0)).T @ (b - b.mean(axis=0)) / len(a)
        assert np.all(np.abs(cross) <= 6 / np.sqrt(len(a)))


def test_batch_fields_after_the_seed_are_keywords():
    # the client field is gone; an old positional call would shift
    # round, draw and size into the wrong fields
    with pytest.raises(TypeError):
        problems.SampleBatch("f", 5, 1, 2, 0, 2)


@pytest.mark.parametrize("size", [2.5, 2.0, True, "2", 0, -1])
def test_batch_size_is_a_positive_integer(size):
    # a fractional size used to scale the quadratic noise by 1/sqrt(size),
    # and True ran as a batch of 1
    with pytest.raises(ValueError, match="batch size"):
        problems.SampleBatch("g", 0, size=size)
