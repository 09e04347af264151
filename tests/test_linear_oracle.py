"""The exact round map of ``linear_oracle`` against the simulator's rounds."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim.errors import UnsupportedProblem
from rabosim.federation import GlobalState, RunConfig, rabo_round, run
from rabosim.hypergrad import EXACT_AID, RAFBO
from rabosim.problems import make_logistic_tune, make_quadratic
from rabosim.problems.quadratic import QuadraticProblem, QuadraticSpec
from linear_oracle import mask_period, period_map, round_map
from tests_support import EPS, partial_tables

# How far one rabo_round may sit from one map round z_next = M_q z + c_q.
# exact_aid differs from the map only in summation order and in how the
# restricted block is factored: a few tens of eps, relative to
# ||z|| + ||c_q||. rafbo's forward difference (base - row) / mu also rounds
# each entry of delta_p by about 2 eps |grad_y g| / mu, which reaches x
# through alpha <delta_p, grad_y f> on each of the d1 coordinates p: at most
# 2 sqrt(d1) alpha eps / mu ||grad_y g|| ||grad_y f||. Both gradients hold
# the spec's constants (c_i, the inner targets), so they stay of order one
# when z is small, and grow with z when it is large.
def round_bound(prob, cfg, z, z_next, c_q):
    bound = 1e-14 * (np.linalg.norm(z) + np.linalg.norm(c_q))
    if cfg.estimator == RAFBO:
        s, d1 = prob.spec, prob.d1
        norm_x, norm_y = np.linalg.norm(z[:d1]), np.linalg.norm(z[d1:])
        grad_g = max(np.linalg.norm(a, 2) * norm_y
                     + np.linalg.norm(b, 2) * norm_x + np.linalg.norm(c)
                     for a, b, c in zip(s.a_mats, s.b_mats, s.c_vecs))
        grad_f = np.linalg.norm(z_next[d1:]) \
            + max(np.linalg.norm(t) for t in s.inner_targets)
        bound += (2 * np.sqrt(d1) * cfg.alpha * EPS / cfg.mu
                  * grad_g * grad_f)
    return bound


CAPACITIES = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
              Fraction(1, 4)]


def distinct_curvature_problem(seed, n, d1, d2):
    """A noiseless hand-built spec whose clients each hold their own A_i
    (eigenvalues in [0.6, 1.8]) and B_i."""
    rng = np.random.default_rng(seed)
    a_mats = []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((d2, d2)))
        a = (q * rng.uniform(0.6, 1.8, d2)) @ q.T
        a_mats.append((a + a.T) / 2)
    return QuadraticProblem(QuadraticSpec(
        a_mats=a_mats,
        b_mats=[0.3 * rng.standard_normal((d2, d1)) for _ in range(n)],
        c_vecs=[rng.standard_normal(d2) for _ in range(n)],
        outer_targets=[rng.standard_normal(d1) for _ in range(n)],
        inner_targets=[rng.standard_normal(d2) for _ in range(n)],
        u_mats=None, lam=0.5, noise_f=0.0, noise_g=0.0, quartic=0.0,
        sine_amp=0.0, ball_radius=10.0))


def assert_round_agrees(prob, cfg, z, q):
    m_q, c_q = round_map(prob, cfg, q)
    state, _ = rabo_round(prob, GlobalState(z[:prob.d1], z[prob.d1:], q), cfg)
    z_next = m_q @ z + c_q
    err = np.linalg.norm(np.concatenate([state.x, state.y]) - z_next)
    assert err <= round_bound(prob, cfg, z, z_next, c_q)


# policy -> its RunConfig settings
POLICIES = {
    "rolling": {"policy": "rolling"},
    "static": {"policy": "static"},
    # outer coordinate 5 and inner coordinate 4 are left uncovered
    "manual": {"policy": "manual", "manual_tables": {
        "x": ((0, 1, 2), (2, 3), (1, 4), (0, 3)),
        "y": ((0, 1), (1, 2, 3), (0,), (2, 3))}},
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("estimator", [EXACT_AID, RAFBO])
def test_one_round_matches_rabo_round(estimator, policy):
    prob = distinct_curvature_problem(seed=3, n=4, d1=6, d2=5)
    cfg = RunConfig(alpha=0.1, beta=0.3, inner_epochs=3, estimator=estimator,
                    capacities=CAPACITIES[1:], **POLICIES[policy])
    rng = np.random.default_rng(7)
    for q in range(mask_period(cfg)):
        assert_round_agrees(prob, cfg, rng.standard_normal(11), q)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), d1=st.integers(2, 6),
       d2=st.integers(2, 6), estimator=st.sampled_from([EXACT_AID, RAFBO]),
       policy=st.sampled_from(["rolling", "static", "manual"]),
       inner_epochs=st.integers(1, 3), q=st.integers(0, 11),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2 ** 16))
def test_round_map_property(data, n, d1, d2, estimator, policy, inner_epochs,
                            q, scale, seed):
    """One rabo_round is one map round from any state, at any capacities,
    under any manual tables, including ones that leave coordinates of both
    levels uncovered."""
    caps = data.draw(st.lists(st.sampled_from(CAPACITIES), min_size=n,
                              max_size=n))
    tables = None
    if policy == "manual":
        tables = {"x": data.draw(partial_tables(n, d1)),
                  "y": data.draw(partial_tables(n, d2))}
    prob = distinct_curvature_problem(seed, n, d1, d2)
    cfg = RunConfig(alpha=0.1, beta=0.3, inner_epochs=inner_epochs,
                    estimator=estimator, policy=policy, capacities=caps,
                    manual_tables=tables)
    z = scale * np.random.default_rng(seed).standard_normal(d1 + d2)
    assert_round_agrees(prob, cfg, z, q)


# The late-round window of a run sits on the map's orbit to this relative
# tolerance, fixed beforehand: each round contracts by 0.95 here, so after
# 280 rounds about 6e-7 of the start's distance to the orbit is left.
FLOOR_RTOL = 1e-5


@pytest.mark.parametrize("capacity, floors", [
    ("1/2", {EXACT_AID: 0.455072, RAFBO: 0.499862}),
    ("1/4", {EXACT_AID: 1.217811, RAFBO: 1.333787}),
])
def test_run_settles_on_the_map_floor(capacity, floors):
    prob = make_quadratic(seed=0, n=4, d1=10, d2=10, hetero=0.3,
                          eig_min=0.8, eig_max=1.6)
    for estimator, reference in floors.items():
        cfg = RunConfig(alpha=0.1, beta=0.3, inner_epochs=5, rounds=320,
                        estimator=estimator, policy="rolling",
                        capacities=[capacity] * 4,
                        x0=np.ones(10))
        floor = period_map(prob, cfg).floor()
        assert floor == pytest.approx(reference, abs=5e-7)
        late = np.mean([log.grad_phi_sq for log in run(prob, cfg).logs[280:]])
        assert late == pytest.approx(floor, rel=FLOOR_RTOL)


def test_full_capacity_floors():
    prob = make_quadratic(seed=0, n=4, d1=10, d2=10, hetero=0.3,
                          eig_min=0.8, eig_max=1.6)
    caps = [1] * 4
    exact = period_map(prob, RunConfig(alpha=0.1, beta=0.3, inner_epochs=5,
                                       capacities=caps))
    rafbo = period_map(prob, RunConfig(alpha=0.1, beta=0.3, inner_epochs=5,
                                       estimator=RAFBO, capacities=caps))
    assert exact.rho < 1 and exact.floor() <= 1e-20
    # rafbo drops the inverse inner Hessian and stalls at a biased point
    assert rafbo.floor() == pytest.approx(0.0994, abs=5e-5)


@pytest.mark.parametrize("problem_kwargs, run_kwargs, reason", [
    ({"quartic": 0.1}, {}, "quartic"),
    ({"sine_amp": 0.2}, {}, "sine"),
    ({"noise_g": 0.1}, {"batch_size_g": 2}, "noise"),
    ({}, {"policy": "magnitude_topk"}, "magnitude_topk"),
    ({}, {"estimator": RAFBO, "coord_fraction": 0.5}, "coord_fraction"),
])
def test_rejects_what_is_not_affine(problem_kwargs, run_kwargs, reason):
    prob = make_quadratic(seed=1, n=2, d1=3, d2=3, **problem_kwargs)
    cfg = RunConfig(alpha=0.1, beta=0.3,
                    capacities=[Fraction(1, 2)] * 2,
                    **run_kwargs)
    with pytest.raises(UnsupportedProblem, match=reason):
        period_map(prob, cfg)


def test_rejects_logistic():
    prob = make_logistic_tune(seed=0, n=1, imbalance_mu=1.0)
    cfg = RunConfig(alpha=0.1, beta=0.3, capacities=[1])
    with pytest.raises(UnsupportedProblem, match="not a quadratic"):
        round_map(prob, cfg, 0)
