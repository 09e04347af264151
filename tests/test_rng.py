import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rabosim.rng import RngStream
from tests_support import bits


def test_same_key_identical_draws():
    a = RngStream(42, client=3, round_index=7, purpose="grad")
    b = RngStream(42, client=3, round_index=7, purpose="grad")
    assert np.array_equal(a.generator().standard_normal(100),
                          b.generator().standard_normal(100))


def test_stateless_replay():
    s = RngStream(11, client=0, round_index=0, purpose="grad")
    first = s.generator().standard_normal(10)
    again = s.generator().standard_normal(10)
    assert np.array_equal(first, again)


def test_client_separation():
    base = RngStream(9, client=0, round_index=0, purpose="grad")
    other = RngStream(9, client=1, round_index=0, purpose="grad")
    assert not np.array_equal(base.generator().standard_normal(100),
                              other.generator().standard_normal(100))


def test_round_and_purpose_separation():
    draws = {
        key: RngStream(5, 2, rnd, purpose).generator().standard_normal(50)
        for key, (rnd, purpose) in {
            "r0-g": (0, "grad"), "r1-g": (1, "grad"),
            "r0-h": (0, "hyper"), "r1-h": (1, "hyper")}.items()
    }
    keys = list(draws)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert not np.array_equal(draws[keys[i]], draws[keys[j]])


def test_gaussian_sample_mean():
    # 1e6 standard normals: |mean| must sit within 5 standard errors of 0
    draws = RngStream(123, purpose="stat-check").generator().standard_normal(10 ** 6)
    assert abs(draws.mean()) <= 5.0 / 1000.0


def test_cross_stream_independence_statistics():
    # correlation between two distinct streams should be at noise level
    a = RngStream(77, client=0, purpose="a").generator().standard_normal(10 ** 5)
    b = RngStream(77, client=1, purpose="a").generator().standard_normal(10 ** 5)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


# -- normal() reuses one Philox per thread; each draw must equal a fresh one

def philox_key(stream):
    """The stream's key, derived here apart from the package: BLAKE2b-128
    of "seed|client|round|purpose" as two native-order uint64 words."""
    payload = (f"{stream.seed}|{stream.client}|{stream.round_index}|"
               f"{stream.purpose}").encode()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


def fresh_normal(stream, size, scale=1.0):
    """The reference draw: a new Philox keyed like the stream, counter 0."""
    return scale * np.random.Generator(
        np.random.Philox(key=philox_key(stream))).standard_normal(size)


streams = st.builds(RngStream, seed=st.integers(0, 2 ** 63),
                    client=st.integers(0, 1000),
                    round_index=st.integers(0, 10 ** 6),
                    purpose=st.text(max_size=12))
# 0, 1, sizes that leave Philox's 4-word output buffer part-used, and
# sizes past it
sizes = st.one_of(st.sampled_from([0, 1, 3, 4, 5, 9]), st.integers(0, 300))
scales = st.sampled_from([1.0, 0.5, -2.0, 1e-3])


@settings(max_examples=60)
@given(stream=streams, size=sizes, scale=scales)
def test_normal_equals_fresh_philox(stream, size, scale):
    assert np.array_equal(stream.normal(size, scale),
                          fresh_normal(stream, size, scale))


@settings(max_examples=40)
@given(pool=st.lists(streams, min_size=1, max_size=4),
       calls=st.lists(st.tuples(st.integers(0, 3), sizes, scales),
                      min_size=1, max_size=12))
def test_interleaved_streams_equal_fresh_philox(pool, calls):
    for which, size, scale in calls:
        stream = pool[which % len(pool)]
        assert np.array_equal(stream.normal(size, scale),
                              fresh_normal(stream, size, scale))


@settings(max_examples=300)
@given(stream=streams, size=sizes)
def test_rekey_and_generator_equal_fresh_philox(stream, size):
    # normal() re-keys this thread's Philox; generator() builds a new one
    fresh = np.random.Generator(np.random.Philox(key=philox_key(stream)))
    want = fresh.standard_normal(size)
    held = stream.generator()
    assert np.array_equal(bits(stream.normal(size)), bits(want))
    assert np.array_equal(bits(held.standard_normal(size)), bits(want))
    assert np.array_equal(held.bit_generator.state["state"]["key"],
                          philox_key(stream))
    # the held generator's next draws continue the fresh one's stream
    assert np.array_equal(bits(held.standard_normal(5)),
                          bits(fresh.standard_normal(5)))


def test_many_keys_equal_fresh_philox():
    for k in range(3000):
        stream = RngStream(k * 7919, k % 13, k // 13, f"batch-g-{k % 3}")
        size = 1 + k % 37
        assert np.array_equal(bits(stream.normal(size)),
                              bits(fresh_normal(stream, size)))


def test_concurrent_threads_equal_fresh_philox():
    per_thread = [[RngStream(13, client, rnd, "g") for rnd in range(3000)]
                  for client in (0, 1)]
    sizes_ = [1 + (k * 7) % 23 for k in range(3000)]
    want = [[fresh_normal(s, n) for s, n in zip(row, sizes_)]
            for row in per_thread]
    start = threading.Barrier(2, timeout=30)

    def draw(row):
        start.wait()
        return [s.normal(n) for s, n in zip(row, sizes_)]

    # enough draws that each thread outlasts several GIL switch intervals:
    # a generator shared by both threads then gets re-keyed by one between
    # the other's re-key and draw
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(draw, per_thread))
    for got_row, want_row in zip(got, want):
        assert all(np.array_equal(g, w) for g, w in zip(got_row, want_row))


def test_held_generator_unaffected_by_normal():
    s = RngStream(21, client=2, round_index=5, purpose="hyper")
    held = s.generator()
    head = held.standard_normal(3)
    s.normal(10)
    RngStream(22, purpose="other").normal(6)
    tail = held.standard_normal(5)
    ref = s.generator()
    assert np.array_equal(head, ref.standard_normal(3))
    assert np.array_equal(tail, ref.standard_normal(5))

