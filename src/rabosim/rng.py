"""Reproducible per-stream random number generation.

Every stochastic draw in the simulator comes from an ``RngStream`` keyed by
``(seed, client, round, purpose)``. Streams are built on the counter-based
Philox generator, so any single client-round can be replayed without
replaying the run, and distinct keys give statistically independent
sequences. Keys are hashed with BLAKE2b, which is stable across platforms
and Python processes (unlike the builtin ``hash``).

A stream need not belong to one client. A ``SampleBatch``'s noise is one
stream per derivative call, keyed by (seed, round, level, draw) with
client 0 and a purpose no client stream has, and one ``normal((n, d))``
draw fills the call's whole block, row c for client c. Standard normals
fill the block in row order, so row c does not depend on n, and a client's
draw replays from the key and the client alone.

Philox is counter-based: its key and counter fully place a stream. So
``normal()`` does not build a generator per draw; it re-keys one Philox
per thread, setting counter 0, the stream's key and an empty buffer, which
yields exactly the draws of a freshly built one. The key goes in as its
two 64-bit words and the counter and buffer as zeros, all plain Python
ints, which the state setter reads faster than numpy arrays.
``generator()`` still returns a new, independent generator, since callers
hold on to it, keyed by the same two words.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass

import numpy as np


_local = threading.local()
_ZEROS = (0, 0, 0, 0)


def _rekeyed(key: tuple[int, int]) -> np.random.Generator:
    """This thread's reused generator, reset to a fresh Philox(key=key)."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
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
        return np.random.Generator(np.random.Philox(
            key=np.array(self._key(), dtype=np.uint64)))

    def normal(self, size, scale: float = 1.0) -> np.ndarray:
        draws = _rekeyed(self._key()).standard_normal(size)
        return draws if scale == 1.0 else scale * draws   # 1.0 * z is z

    def _key(self) -> tuple[int, int]:
        """The stream's Philox key: the BLAKE2b-128 digest of its fields as
        two 64-bit words in native byte order, as ``np.frombuffer`` reads
        them."""
        payload = f"{self.seed}|{self.client}|{self.round_index}|{self.purpose}"
        digest = hashlib.blake2b(payload.encode(), digest_size=16).digest()
        return struct.unpack("=2Q", digest)
