"""Splittable counter-based random number generation.

Every stochastic operation in the package draws from an RngState so that a
whole run is a pure function of its seeds. Philox is counter-based, which
gives bit-identical streams for the same (seed, draw sequence) on every
platform, and children derived with split() are statistically independent
of the parent and of each other.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngState:
    """A named, splittable random stream.

    Child streams are derived deterministically from (seed, label), so e.g.
    client 3's noise stream is independent of the server's regardless of
    scheduling order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def split(self, label: str) -> "RngState":
        """Derive an independent child stream named by `label`."""
        h = hashlib.blake2b(
            self.seed.to_bytes(8, "little") + label.encode("utf-8"),
            digest_size=8,
        )
        return RngState(int.from_bytes(h.digest(), "little"))

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape, dtype=np.float32)

    def uniform(self, shape=()) -> np.ndarray:
        return self._gen.random(shape, dtype=np.float32)

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in the inclusive range [low, high]."""
        return self._gen.integers(low, high, size=shape, endpoint=True)

    def shuffle(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed:#x})"
