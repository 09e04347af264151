import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim.errors import DimensionMismatch, InvalidCapacity, InvalidSpec
from rabosim.masking import (
    CoverageTracker,
    _block_scores,
    _topk_order,
    active_count,
    apply_mask,
    check_masks,
    coverage,
    generate_mask,
    mask_deviation,
    parse_capacities,
    parse_capacity,
    period,
    schedule_period,
)
from rabosim.federation import RunConfig, _hex_rows
from tests_support import bits, signed_zeros, topk_indices_loop


def mask_of(bits):
    """One client's mask row."""
    return np.array(bits, dtype=np.uint8)


def masks_of(*rows):
    """One level's (n, d) masks, row i for client i."""
    return np.array(rows, dtype=np.uint8)


class TestCapacity:
    def test_parse_fraction_string(self):
        assert parse_capacity("1/4") == Fraction(1, 4)
        assert parse_capacity(0.25) == Fraction(1, 4)
        assert parse_capacity(1) == Fraction(1)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidCapacity):
            parse_capacity(Fraction(0))
        with pytest.raises(InvalidCapacity):
            parse_capacity(Fraction(3, 2))

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_booleans(self, value):
        # True used to parse as capacity 1, False to fail as capacity 0
        for entry in (value, ["1/2", value]):
            with pytest.raises(InvalidSpec, match="cannot parse") as err:
                RunConfig(capacities=entry)
            assert err.value.key == "capacities"

    def test_parse_capacities_keeps_the_entry_form(self):
        assert parse_capacities("1/2") == Fraction(1, 2)
        assert parse_capacities(["1/2", 0.25, 1]) == (
            Fraction(1, 2), Fraction(1, 4), Fraction(1))

    def test_active_count_rounds_up(self):
        assert active_count(Fraction(1, 4), 10) == 3
        assert active_count(Fraction(1), 10) == 10

    @pytest.mark.parametrize("capacity", [
        Fraction(1, 7), Fraction(1, 3), 0.3, Fraction(2, 3), 1])
    def test_integer_ceilings_match_fraction_forms(self, capacity):
        cap = parse_capacity(capacity)
        assert period(cap) == math.ceil(Fraction(1) / cap)
        for d in range(1, 65):
            assert active_count(cap, d) == math.ceil(cap * d)


def caps(*values):
    return [Fraction(v) for v in values]


# (params, capacities, policy, round, block size, table, expected masks):
# each case of the former per-client tests, as rows of one round-level
# call.
MANUAL_X, MANUAL_Y = [[0, 2], [1]], [[3], [0, 1]]
MASK_CASES = {
    **{f"full-capacity-{policy}": (
        [3.0, -1.0, 2.0, 0.5], caps(1, 1), policy, 5, 1, None,
        [[1, 1, 1, 1]] * 2)
       for policy in ("static", "rolling", "magnitude_topk")},
    "topk-example": ([5.0, 1.0, 4.0, 2.0], caps("1/2"), "magnitude_topk", 0,
                     1, None, [[1, 0, 1, 0]]),
    "topk-blockwise": ([1.0, 1.0, 9.0, 9.0], caps("1/2"), "magnitude_topk",
                       0, 2, None, [[0, 0, 1, 1]]),
    "topk-ties-prefer-lower-index": ([2.0] * 4, caps("1/2"),
                                     "magnitude_topk", 0, 1, None,
                                     [[1, 1, 0, 0]]),
    # one ranking, cut at each row's own popcount
    "topk-per-client-popcounts": (
        [0.5, -3.0, 2.0, 0.0], caps("1/4", "1/2", "3/4", 1),
        "magnitude_topk", 0, 1, None,
        [[0, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1]]),
    **{f"rolling-period-two-round-{rnd}": (
        np.zeros(4), caps("1/2"), "rolling", rnd, 1, None, [bits])
       for rnd, bits in {0: [1, 1, 0, 0], 1: [0, 0, 1, 1],
                         2: [1, 1, 0, 0]}.items()},
    "rolling-client-stagger": (np.zeros(4), caps("1/2", "1/2"), "rolling",
                               0, 1, None, [[1, 1, 0, 0], [0, 0, 1, 1]]),
    "manual-x": (np.zeros(4), caps("1/2", "1/2"), "manual", 0, 1, MANUAL_X,
                 [[1, 0, 1, 0], [0, 1, 0, 0]]),
    "manual-y": (np.zeros(4), caps("1/2", "1/2"), "manual", 0, 1, MANUAL_Y,
                 [[0, 0, 0, 1], [1, 1, 0, 0]]),
}


class TestGenerateMask:
    @pytest.mark.parametrize("case", MASK_CASES)
    def test_round_masks(self, case):
        params, capacities, policy, rnd, block_size, table, expected = \
            MASK_CASES[case]
        masks = generate_mask(np.asarray(params, dtype=np.float64),
                              capacities, policy, rnd, block_size, table)
        assert masks.dtype == np.uint8
        assert np.array_equal(masks, expected)

    def test_static_ignores_round(self):
        params = np.arange(8.0)
        rounds = [generate_mask(params, caps("1/4", "1/4"), "static", rnd)
                  for rnd in range(5)]
        for masks in rounds[1:]:
            assert np.array_equal(masks, rounds[0])

    def test_popcount_matches_ceiling(self):
        params = np.arange(10.0)
        capacities = caps("1/3", "2/7", "1/2")
        for policy in ("static", "rolling", "magnitude_topk"):
            masks = generate_mask(params, capacities, policy, 3)
            assert masks.sum(axis=1).tolist() == [
                math.ceil(cap * 10) for cap in capacities]

    def test_deterministic(self):
        params = np.linspace(-1, 1, 12)
        capacities = caps(*["1/4"] * 4)
        a = generate_mask(params, capacities, "rolling", 7)
        b = generate_mask(params, capacities, "rolling", 7)
        assert np.array_equal(a, b)

    def test_manual_table_index_out_of_range(self):
        with pytest.raises(InvalidSpec, match=r"table row 1 must list one or "
                           r"more distinct integer indices in \[0, 2\)") as err:
            generate_mask(np.zeros(2), caps(1, 1), "manual", 0,
                          table=[[0], [2]])
        assert err.value.key == "manual_tables"

    @pytest.mark.parametrize("table", [
        None, [[0], [1], [0]], [[0]], [[0], 1], [[0], []], [[-1], [1]],
        [[0.5], [1]], [[True], [1]], [[0, 0], [1]]],
        ids=["none", "long", "short", "row-not-list", "empty-row", "negative",
             "float", "bool", "repeated"])
    def test_manual_table_rule(self, table):
        # a float index used to be truncated, a bool to run as 0 or 1, a
        # repeated index to be charged twice by a row-length count and a
        # missing table to end in a TypeError
        with pytest.raises(InvalidSpec) as err:
            generate_mask(np.zeros(2), caps(1, 1), "manual", 0, table=table)
        assert err.value.key == "manual_tables"


class TestApplyMask:
    def test_identity_and_zero(self):
        v = np.array([3.0, -2.0, 7.0])
        assert np.array_equal(apply_mask(v, mask_of([1, 1, 1])), v)
        assert np.array_equal(apply_mask(v, mask_of([0, 0, 0])), np.zeros(3))

    def test_elementwise_product(self):
        v = np.array([3.0, -2.0, 7.0])
        out = apply_mask(v, mask_of([1, 0, 1]))
        assert np.array_equal(out, [3.0, 0.0, 7.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16)
        m = mask_of(rng.integers(0, 2, size=16))
        once = apply_mask(v, m)
        assert np.array_equal(apply_mask(once, m), once)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_mask(np.ones(3), mask_of([1, 0]))
        with pytest.raises(DimensionMismatch):
            apply_mask(np.ones((2, 3)), mask_of([1, 0]))

    def test_rows_masked_like_vectors(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((4, 6))
        m = mask_of(rng.integers(0, 2, size=6))
        out = apply_mask(rows, m)
        for row, got in zip(rows, out):
            assert np.array_equal(got, apply_mask(row, m))


class TestCoverage:
    def test_full_masks(self):
        assert coverage(np.ones((4, 3), np.uint8)) == 4

    def test_disjoint_partition(self):
        assert coverage(masks_of([1, 1, 0, 0], [0, 0, 1, 1])) == 1

    def test_untrained_coordinates_excluded(self):
        assert coverage(masks_of([1, 1, 0, 0], [1, 0, 0, 0])) == 1
        assert coverage(masks_of([0, 0, 0, 0])) is None

    def test_permutation_invariance(self):
        masks = masks_of([1, 0, 1], [0, 1, 1], [1, 1, 0])
        assert coverage(masks) == coverage(masks[::-1]) == 2

    def test_rolling_staggered_full_coverage(self):
        # capacity 1/K with n >= K staggered clients trains every coordinate
        d, k, n = 8, 4, 6
        for rnd in range(6):
            masks = generate_mask(np.zeros(d), caps(*[Fraction(1, k)] * n),
                                  "rolling", rnd)
            assert masks.sum(axis=0).min() >= 1
            assert coverage(masks) >= n // k

    def test_tracker_running_minima(self):
        tracker = CoverageTracker()
        for mx in (masks_of([1, 1], [1, 0]), masks_of([1, 1], [1, 1])):
            tracker.observe(coverage(mx), coverage(np.ones((2, 2), np.uint8)))
        assert tracker.c_star_x == 1
        assert tracker.c_star_y == 2


class TestMaskDeviation:
    def test_full_mask_zero(self):
        assert mask_deviation(np.array([1.0, 2.0]), masks_of([1, 1])) == 0.0

    def test_half_energy(self):
        assert mask_deviation(np.array([1.0, 1.0]),
                              masks_of([1, 0])) == pytest.approx(0.5)

    def test_three_four_five(self):
        assert mask_deviation(np.array([3.0, 4.0]),
                              masks_of([0, 1])) == pytest.approx(0.36)

    def test_mean_over_clients(self):
        masks = masks_of([0, 1], [1, 1], [1, 0])
        assert mask_deviation(np.array([3.0, 4.0]),
                              masks) == pytest.approx((0.36 + 0.0 + 0.64) / 3)

    def test_zero_norm_is_zero(self):
        # a zero vector loses nothing to pruning
        assert mask_deviation(np.zeros(3), masks_of([1, 0, 1])) == 0.0

    def test_zero_iff_support_contained(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bits = rng.integers(0, 2, size=10)
            m = masks_of(bits)
            v = rng.standard_normal(10) * bits  # support inside mask
            if not v.any():
                continue
            assert mask_deviation(v, m) == 0.0
            outside = np.flatnonzero(bits == 0)
            if outside.size:
                v2 = v.copy()
                v2[outside[0]] = 1.0
                assert mask_deviation(v2, m) > 0.0


def deviation_loop(v, masks):
    """mask_deviation as one residual and its r @ r per mask row."""
    v = np.asarray(v, dtype=np.float64)
    denom = float(v @ v)
    if denom == 0.0:
        return 0.0
    return float(np.mean([float(r @ r) / denom
                          for r in v - apply_mask(v, masks)]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_deviation_rows_match_the_client_loop(data):
    n = data.draw(st.one_of(st.just(1), st.integers(1, 64)))
    d = data.draw(st.one_of(st.just(1), st.integers(1, 401)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    kind = data.draw(st.sampled_from(["normal", "zeros", "zero"]))
    v = rng.standard_normal(d) * data.draw(st.sampled_from([1.0, 1e-160,
                                                            1e150]))
    if kind == "zeros":     # entries of 0.0 and -0.0
        v = signed_zeros(rng, v)
    elif kind == "zero":    # a zero vector, of either sign
        v = np.copysign(np.zeros(d), rng.standard_normal(d))
    masks = rng.integers(0, 2, (n, d), dtype=np.uint8)
    # rows that keep every coordinate, and rows that keep none
    masks[rng.random(n) < 0.2] = 1
    masks[rng.random(n) < 0.2] = 0
    assert bits(mask_deviation(v, masks)) == bits(deviation_loop(v, masks))


def test_hex_round_trip():
    # masks.csv stores each row's hex; its bytes unpack to the row's bits,
    # zero-padded
    rng = np.random.default_rng(2)
    masks = rng.integers(0, 2, size=(3, 19)).astype(np.uint8)
    for hexstr, row in zip(_hex_rows(masks), masks):
        raw = np.frombuffer(bytes.fromhex(hexstr), dtype=np.uint8)
        unpacked = np.unpackbits(raw)
        assert np.array_equal(unpacked[:19], row)
        assert not unpacked[19:].any()


class TestCheckMasks:
    # the inputs a single-client mask value used to reject (a bit of 2, a
    # -1 that wrapped to 255 as uint8, a second axis where one was
    # expected), and the wrong ranks of the (n, d) layout
    @pytest.mark.parametrize("bad", [
        [[0, 2, 1]], [[1, -1]], np.ones(2, dtype=np.uint8),
        np.ones((2, 2, 2), dtype=np.uint8)],
        ids=["non-binary", "negative", "1-D", "3-D"])
    def test_rejects(self, bad):
        with pytest.raises(DimensionMismatch, match="inner"):
            check_masks(bad, "inner")

    def test_width_and_rows(self):
        masks = np.ones((2, 3), dtype=np.uint8)
        assert check_masks(masks, "x", n=2, d=3) is masks
        with pytest.raises(DimensionMismatch, match="x masks"):
            check_masks(masks, "x", d=2)
        with pytest.raises(DimensionMismatch, match="x masks"):
            check_masks(masks, "x", n=3)

    def test_accepts_empty_level(self):
        masks = np.zeros((2, 0), dtype=np.uint8)
        assert check_masks(masks, "y", d=0).shape == (2, 0)


capacities = st.builds(
    lambda den, num: Fraction(min(num, den), den),
    st.integers(1, 16), st.integers(1, 16))


@settings(max_examples=80)
@given(d=st.integers(1, 120), capacity_list=st.lists(capacities, min_size=1,
                                                     max_size=41),
       policy=st.sampled_from(["static", "rolling", "magnitude_topk"]),
       block_size=st.integers(1, 5), round_index=st.integers(0, 500),
       seed=st.integers(0, 2 ** 32), ties=st.booleans())
def test_generated_masks_are_binary_readonly_with_ceiling_popcount(
        d, capacity_list, policy, block_size, round_index, seed, ties):
    rng = np.random.default_rng(seed)
    # small integer magnitudes give ties, the zero start's worst case
    params = (rng.integers(-2, 3, size=d).astype(np.float64) if ties
              else rng.standard_normal(d))
    masks = generate_mask(params, capacity_list, policy, round_index,
                          block_size)
    assert masks.sum(axis=1).tolist() == [
        math.ceil(c * d) for c in capacity_list]
    assert masks.dtype == np.uint8 and masks.shape == (len(capacity_list), d)
    assert set(np.unique(masks)) <= {0, 1}
    assert not masks.flags.writeable
    with pytest.raises(ValueError):
        masks[-1, 0] = 1
    with pytest.raises(ValueError):
        masks[0][0] = 1


@settings(max_examples=150)
@given(d=st.integers(1, 60), block_size=st.integers(1, 12),
       kind=st.sampled_from(["normal", "ties", "zeros", "signed-zeros"]),
       data=st.data(), seed=st.integers(0, 2 ** 32))
def test_topk_ranking_matches_block_loop(d, block_size, kind, data, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        params = rng.standard_normal(d)
    elif kind == "ties":
        params = rng.integers(-2, 3, size=d).astype(np.float64)
    elif kind == "zeros":
        params = np.zeros(d)
    else:
        params = np.where(rng.random(d) < 0.5, 0.0, -0.0)
    target = data.draw(st.integers(1, d))
    assert np.array_equal(_topk_order(params, block_size)[:target],
                          topk_indices_loop(params, target, block_size))


def block_scores_loop(mags, block_size):
    """The block scores as the slice loop ``_topk_order`` used to run."""
    return np.array([mags[b:b + block_size].sum()
                     for b in range(0, len(mags), block_size)])


@pytest.mark.parametrize("d", [1, 7, 12, 23, 24, 25, 64, 119])
@pytest.mark.parametrize("block_size", [1, 2, 3, 5, 8, 9, 16, 24])
def test_block_scores_equal_the_slice_loop(d, block_size):
    # ragged tails (d not a multiple of the block size), a block wider than
    # d, and signed zeros among the magnitudes, compared bit for bit
    rng = np.random.default_rng(1000 * d + block_size)
    params = rng.standard_normal(d) * np.exp(rng.uniform(-20, 20, d))
    params[rng.random(d) < 0.3] = -0.0
    params[rng.random(d) < 0.2] = 0.0
    mags = np.abs(params)
    got, want = _block_scores(mags, block_size), block_scores_loop(
        mags, block_size)
    assert got.shape == want.shape == (math.ceil(d / block_size),)
    assert got.tobytes() == want.tobytes()


def window_masks_loop(d, capacities, policy, round_index):
    """Window masks as the per-client loop ``generate_mask`` used to run:
    client i's row holds ceil(c_i d) coordinates from offset
    ((r + i) mod period) ceil(c_i d) on (r = 0 under ``static``), mod d."""
    masks = np.zeros((len(capacities), d), dtype=np.uint8)
    for i, capacity in enumerate(capacities):
        target = math.ceil(capacity * d)
        phase = (round_index if policy == "rolling" else 0) + i
        offset = (phase % math.ceil(1 / capacity)) * target
        masks[i, (offset + np.arange(target)) % d] = 1
    return masks


@settings(max_examples=150)
@given(d=st.integers(1, 40), capacity_list=st.lists(capacities, min_size=1,
                                                    max_size=30),
       policy=st.sampled_from(["static", "rolling"]),
       round_index=st.integers(-30, 500))
def test_window_rows_match_the_client_loop(d, capacity_list, policy,
                                           round_index):
    masks = generate_mask(np.zeros(d), capacity_list, policy, round_index)
    assert np.array_equal(masks, window_masks_loop(
        d, capacity_list, policy, round_index))


class TestSchedulePeriod:
    @pytest.mark.parametrize("values,want", [
        (("1",), 1), (("1/2",), 2), (("2/3",), 2), (("1/3", "3/4"), 6),
        # the lcm, not the largest period (4)
        (("1/2", "1/3", "2/3", "1/4"), 12), (("1/5", "1/4", "2/7"), 20)])
    def test_rolling_is_the_lcm_of_the_periods(self, values, want):
        assert schedule_period("rolling", caps(*values)) == want

    def test_other_policies(self):
        capacities = caps("1/2", "1/3")
        assert schedule_period("static", capacities) == 1
        assert schedule_period("manual", capacities) == 1
        assert schedule_period("magnitude_topk", capacities) is None

    @settings(max_examples=60)
    @given(d=st.integers(1, 30),
           capacity_list=st.lists(capacities, min_size=1, max_size=6),
           policy=st.sampled_from(["static", "rolling"]),
           round_index=st.integers(0, 300))
    def test_masks_repeat_every_period(self, d, capacity_list, policy,
                                       round_index):
        p = schedule_period(policy, capacity_list)
        params = np.zeros(d)
        assert np.array_equal(
            generate_mask(params, capacity_list, policy, round_index),
            generate_mask(params, capacity_list, policy, round_index + p))

