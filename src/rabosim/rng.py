"""Reproducible per-stream random number generation.

Every stochastic draw in the simulator comes from an ``RngStream`` keyed by
``(seed, client, round, purpose)``. Streams are built on the counter-based
Philox generator, so any single client-round can be replayed without
replaying the run, and distinct keys give statistically independent
sequences. Keys are hashed with BLAKE2b, which is stable across platforms
and Python processes (unlike the builtin ``hash``).

Philox is counter-based: its key and counter fully place a stream. So
``normal()`` does not build a generator per draw; it re-keys one Philox
per thread, setting counter 0, the stream's key and an empty buffer, which
yields exactly the draws of a freshly built one. ``generator()`` still
returns a new, independent generator, since callers hold on to it.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np


def _derive_key(seed: int, client: int, round_index: int, purpose: str) -> np.ndarray:
    payload = f"{seed}|{client}|{round_index}|{purpose}".encode()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


_local = threading.local()


def _rekeyed(key: np.ndarray) -> np.random.Generator:
    """This thread's reused generator, reset to a fresh Philox(key=key)."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=key))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return gen


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream for one (client, round, purpose) slot.

    The stream is stateless: ``generator()`` always starts the sequence from
    the beginning, so identical keys yield identical draws across runs.
    """

    seed: int
    client: int = 0
    round_index: int = 0
    purpose: str = ""

    def generator(self) -> np.random.Generator:
        key = _derive_key(self.seed, self.client, self.round_index, self.purpose)
        return np.random.Generator(np.random.Philox(key=key))

    def normal(self, size, scale: float = 1.0) -> np.ndarray:
        key = _derive_key(self.seed, self.client, self.round_index, self.purpose)
        return scale * _rekeyed(key).standard_normal(size)

    def child(self, suffix: str) -> "RngStream":
        """Derive a sub-stream, e.g. one per inner epoch or per draw."""
        return RngStream(self.seed, self.client, self.round_index,
                         f"{self.purpose}/{suffix}")


def rng_stream(seed: int, client: int = 0, round_index: int = 0,
               purpose: str = "") -> RngStream:
    """Build the stream for a (seed, client, round, purpose) key."""
    return RngStream(seed, client, round_index, purpose)
