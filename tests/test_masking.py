import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim.errors import DimensionMismatch, InvalidCapacity
from rabosim.masking import (
    ClientResource,
    CoverageTracker,
    Mask,
    MaskPolicy,
    _topk_indices,
    apply_mask,
    coverage,
    generate_mask,
    mask_deviation,
    parse_capacity,
)
from tests_support import topk_indices_loop


def mask_of(bits):
    return Mask(np.array(bits, dtype=np.uint8))


class TestClientResource:
    def test_parse_fraction_string(self):
        assert parse_capacity("1/4") == Fraction(1, 4)
        assert parse_capacity(0.25) == Fraction(1, 4)
        assert parse_capacity(1) == Fraction(1)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidCapacity):
            ClientResource(Fraction(0))
        with pytest.raises(InvalidCapacity):
            ClientResource(Fraction(3, 2))

    def test_active_count_rounds_up(self):
        assert ClientResource(Fraction(1, 4)).active_count(10) == 3
        assert ClientResource(Fraction(1)).active_count(10) == 10

    @pytest.mark.parametrize("capacity", [
        Fraction(1, 7), Fraction(1, 3), 0.3, Fraction(2, 3), 1])
    def test_integer_ceilings_match_fraction_forms(self, capacity):
        res = ClientResource(capacity)
        assert res.period == math.ceil(Fraction(1) / res.capacity)
        for d in range(1, 65):
            assert res.active_count(d) == math.ceil(res.capacity * d)


class TestGenerateMask:
    @pytest.mark.parametrize("variant", ["static", "rolling", "magnitude_topk"])
    def test_full_capacity_all_ones(self, variant):
        params = np.array([3.0, -1.0, 2.0, 0.5])
        m = generate_mask(params, ClientResource(Fraction(1)),
                          MaskPolicy(variant=variant), 0, 5)
        assert np.array_equal(m.bits, np.ones(4, dtype=np.uint8))

    def test_magnitude_topk_example(self):
        params = np.array([5.0, 1.0, 4.0, 2.0])
        m = generate_mask(params, ClientResource(Fraction(1, 2)),
                          MaskPolicy(variant="magnitude_topk", block_size=1),
                          0, 0)
        assert np.array_equal(m.bits, [1, 0, 1, 0])

    def test_magnitude_topk_blockwise(self):
        params = np.array([1.0, 1.0, 9.0, 9.0])
        m = generate_mask(params, ClientResource(Fraction(1, 2)),
                          MaskPolicy(variant="magnitude_topk", block_size=2),
                          0, 0)
        assert np.array_equal(m.bits, [0, 0, 1, 1])

    def test_magnitude_ties_prefer_lower_index(self):
        params = np.array([2.0, 2.0, 2.0, 2.0])
        m = generate_mask(params, ClientResource(Fraction(1, 2)),
                          MaskPolicy(variant="magnitude_topk"), 0, 0)
        assert np.array_equal(m.bits, [1, 1, 0, 0])

    def test_rolling_period_two(self):
        params = np.zeros(4)
        policy = MaskPolicy(variant="rolling", block_size=2)
        res = ClientResource(Fraction(1, 2))
        expected = {0: [1, 1, 0, 0], 1: [0, 0, 1, 1], 2: [1, 1, 0, 0]}
        for rnd, bits in expected.items():
            m = generate_mask(params, res, policy, 0, rnd)
            assert np.array_equal(m.bits, bits), rnd

    def test_rolling_client_stagger(self):
        params = np.zeros(4)
        res = ClientResource(Fraction(1, 2))
        m0 = generate_mask(params, res, MaskPolicy(variant="rolling"), 0, 0)
        m1 = generate_mask(params, res, MaskPolicy(variant="rolling"), 1, 0)
        assert np.array_equal(m0.bits, [1, 1, 0, 0])
        assert np.array_equal(m1.bits, [0, 0, 1, 1])

    def test_static_ignores_round(self):
        params = np.arange(8.0)
        res = ClientResource(Fraction(1, 4))
        policy = MaskPolicy(variant="static")
        masks = [generate_mask(params, res, policy, 1, rnd) for rnd in range(5)]
        for m in masks[1:]:
            assert np.array_equal(m.bits, masks[0].bits)

    def test_popcount_matches_ceiling(self):
        params = np.arange(10.0)
        for cap in (Fraction(1, 3), Fraction(2, 7), Fraction(1, 2)):
            for variant in ("static", "rolling", "magnitude_topk"):
                m = generate_mask(params, ClientResource(cap),
                                  MaskPolicy(variant=variant), 2, 3)
                assert m.active_count == int(np.ceil(float(cap) * 10))

    def test_deterministic(self):
        params = np.linspace(-1, 1, 12)
        res = ClientResource(Fraction(1, 4))
        a = generate_mask(params, res, MaskPolicy(variant="rolling"), 3, 7)
        b = generate_mask(params, res, MaskPolicy(variant="rolling"), 3, 7)
        assert np.array_equal(a.bits, b.bits)

    def test_manual_tables(self):
        policy = MaskPolicy(variant="manual", table_x=[[0, 2], [1]],
                            table_y=[[3], [0, 1]])
        m = generate_mask(np.zeros(4), ClientResource(Fraction(1, 2)),
                          policy, 0, 0, level="x")
        assert np.array_equal(m.bits, [1, 0, 1, 0])
        m = generate_mask(np.zeros(4), ClientResource(Fraction(1, 2)),
                          policy, 1, 0, level="y")
        assert np.array_equal(m.bits, [1, 1, 0, 0])

    def test_manual_requires_tables(self):
        with pytest.raises(ValueError):
            MaskPolicy(variant="manual")


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
        masks = [mask_of([1, 1, 1])] * 4
        assert coverage(masks, 3) == 4

    def test_disjoint_partition(self):
        masks = [mask_of([1, 1, 0, 0]), mask_of([0, 0, 1, 1])]
        assert coverage(masks, 4) == 1

    def test_untrained_coordinates_excluded(self):
        masks = [mask_of([1, 1, 0, 0]), mask_of([1, 0, 0, 0])]
        assert coverage(masks, 4) == 1
        assert coverage([mask_of([0, 0, 0, 0])], 4) is None

    def test_permutation_invariance(self):
        masks = [mask_of([1, 0, 1]), mask_of([0, 1, 1]),
                 mask_of([1, 1, 0])]
        assert coverage(masks, 3) == coverage(masks[::-1], 3) == 2

    def test_rolling_staggered_full_coverage(self):
        # capacity 1/K with n >= K staggered clients trains every coordinate
        d, k, n = 8, 4, 6
        res = ClientResource(Fraction(1, k))
        policy = MaskPolicy(variant="rolling")
        for rnd in range(6):
            masks = [generate_mask(np.zeros(d), res, policy, c, rnd, "y")
                     for c in range(n)]
            assert np.stack([m.bits for m in masks]).sum(axis=0).min() >= 1
            assert coverage(masks, d) >= n // k

    def test_tracker_running_minima(self):
        tracker = CoverageTracker()
        for bits in [([1, 1], [1, 0]), ([1, 1], [1, 1])]:
            mx = [mask_of(bits[0]), mask_of(bits[1])]
            my = [mask_of([1, 1]), mask_of([1, 1])]
            tracker.observe(coverage(mx, 2), coverage(my, 2))
        assert tracker.c_star_x == 1
        assert tracker.c_star_y == 2


class TestMaskDeviation:
    def test_full_mask_zero(self):
        assert mask_deviation(np.array([1.0, 2.0]), mask_of([1, 1])) == 0.0

    def test_half_energy(self):
        assert mask_deviation(np.array([1.0, 1.0]),
                              mask_of([1, 0])) == pytest.approx(0.5)

    def test_three_four_five(self):
        assert mask_deviation(np.array([3.0, 4.0]),
                              mask_of([0, 1])) == pytest.approx(0.36)

    def test_zero_norm_is_zero(self):
        # a zero vector loses nothing to pruning
        assert mask_deviation(np.zeros(3), mask_of([1, 0, 1])) == 0.0

    def test_zero_iff_support_contained(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            bits = rng.integers(0, 2, size=10)
            m = mask_of(bits)
            v = rng.standard_normal(10) * bits  # support inside mask
            if not v.any():
                continue
            assert mask_deviation(v, m) == 0.0
            outside = np.flatnonzero(bits == 0)
            if outside.size:
                v2 = v.copy()
                v2[outside[0]] = 1.0
                assert mask_deviation(v2, m) > 0.0


def test_hex_round_trip():
    # masks.csv stores to_hex(); its bytes unpack to the bits, zero-padded
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=19)
    m = mask_of(bits)
    raw = np.frombuffer(bytes.fromhex(m.to_hex()), dtype=np.uint8)
    unpacked = np.unpackbits(raw)
    assert np.array_equal(unpacked[:19], m.bits)
    assert not unpacked[19:].any()


class TestMaskValidation:
    def test_rejects_non_binary_bit(self):
        with pytest.raises(ValueError):
            mask_of([0, 2, 1])
        with pytest.raises(ValueError):
            Mask(np.array([1, -1]))  # wraps to 255 as uint8

    def test_rejects_2d_bits(self):
        with pytest.raises(DimensionMismatch):
            Mask(np.ones((2, 2), dtype=np.uint8))

    def test_accepts_empty_vector(self):
        m = mask_of([])
        assert len(m) == 0 and m.active_count == 0


capacities = st.builds(
    lambda den, num: Fraction(min(num, den), den),
    st.integers(1, 16), st.integers(1, 16))


@settings(max_examples=80)
@given(d=st.integers(1, 120), capacity=capacities,
       variant=st.sampled_from(["static", "rolling", "magnitude_topk"]),
       block_size=st.integers(1, 5), client=st.integers(0, 40),
       round_index=st.integers(0, 500), seed=st.integers(0, 2 ** 32),
       ties=st.booleans())
def test_generated_masks_are_binary_readonly_with_ceiling_popcount(
        d, capacity, variant, block_size, client, round_index, seed, ties):
    rng = np.random.default_rng(seed)
    # small integer magnitudes give ties, the zero start's worst case
    params = (rng.integers(-2, 3, size=d).astype(np.float64) if ties
              else rng.standard_normal(d))
    policy = MaskPolicy(variant=variant, block_size=block_size)
    m = generate_mask(params, ClientResource(capacity), policy, client,
                      round_index, level="y")
    assert m.active_count == math.ceil(capacity * d)
    assert m.bits.dtype == np.uint8 and m.bits.shape == (d,)
    assert set(np.unique(m.bits)) <= {0, 1}
    assert not m.bits.flags.writeable
    with pytest.raises(ValueError):
        m.bits[0] = 1


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
    assert np.array_equal(_topk_indices(params, target, block_size),
                          topk_indices_loop(params, target, block_size))
