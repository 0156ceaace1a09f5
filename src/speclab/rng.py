"""Counter-based, splittable random streams.

Every random draw in speclab is a pure function of a :class:`StreamKey`
identifying (master seed, ensemble label, dimension, replicate).  Distinct
keys give statistically independent streams; equal keys replay bit-identical
streams regardless of evaluation order or worker count, which is what makes
replicate-level parallelism safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator


@dataclass(frozen=True)
class StreamKey:
    """Identifier of one independent random stream."""

    master_seed: int
    ensemble: str
    n: int
    replicate: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if self.replicate < 0:
            raise ValueError(f"replicate must be nonnegative, got {self.replicate}")

    def philox_key(self) -> int:
        """128-bit Philox key derived by hashing the key fields."""
        tag = f"speclab|{self.master_seed}|{self.ensemble}|{self.n}|{self.replicate}"
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return int.from_bytes(digest[:16], "little")

    def generator(self) -> Generator:
        """Fresh generator positioned at the start of this key's stream."""
        # imported here: commands that draw nothing do not load numpy.random
        from numpy.random import Generator, Philox

        return Generator(Philox(key=self.philox_key()))


def subkey(key: StreamKey, label: str) -> StreamKey:
    """Derive an independent key for a named sub-stream (e.g. the Haar factor
    inside a compression model)."""
    return StreamKey(key.master_seed, f"{key.ensemble}/{label}", key.n, key.replicate)


def standard_complex_normal(rng: Generator, shape) -> np.ndarray:
    """i.i.d. complex standard normals: real and imaginary parts N(0, 1/2).

    All real parts are drawn first, then all imaginary parts, straight into
    one complex buffer.  The scaling multiplies by 1/sqrt(2), which is what
    numpy's division of a complex array by a real scalar computes, so the
    values are bitwise those of ``(re + 1j * im) / np.sqrt(2.0)``.
    """
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= 1.0 / np.sqrt(2.0)
    return out
