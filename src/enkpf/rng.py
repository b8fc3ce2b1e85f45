"""Deterministic hierarchical random streams.

Streams are addressed by a path of keys on top of a counter-based bit
generator (Philox). Sibling streams are statistically independent and fully
isolated: skipping or reordering draws in one stream never shifts another.
That is what lets the bridged update reuse identical noise for every probed
value of the bridge parameter, and what makes experiment output independent
of evaluation order.

A node's stream is numpy's Generator(Philox(SeedSequence(seed,
spawn_key=path))). `generator()` returns that Generator; `standard_normal`
draws the same normals as its `standard_normal`, bit for bit, in the
compiled kernel of _rng.c, and through the Generator where the kernel
cannot be built or loaded (see enkpf.compiled).
"""

from __future__ import annotations

import ctypes
import functools
import zlib
from dataclasses import dataclass

import numpy as np

from . import compiled

__all__ = ["RngNode"]

_KEY_SPACE = 2**32
_POOL_SIZE = 4  # SeedSequence's pool, in uint32 words


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_key(key) -> int:
    """Map a path element (small int or short string) to a 32-bit key."""
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if not _is_integer(key):
        raise ValueError(f"stream keys must be strings or integers, got {key!r}")
    if not 0 <= key < _KEY_SPACE:
        raise ValueError(f"integer stream keys must lie in [0, 2^32), got {key}")
    return int(key)


@dataclass(frozen=True)
class RngNode:
    """One node in a seeded stream tree; `child(...)` derives sub-nodes by key."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "path", tuple(map(_as_key, self.path)))

    def child(self, *keys) -> "RngNode":
        return RngNode(self.seed, self.path + keys)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def standard_normal(self, shape) -> np.ndarray:
        """The array `self.generator().standard_normal(shape)` gives, bit
        for bit."""
        draw = _normal_kernel()
        if draw is None:
            return self.generator().standard_normal(shape)
        out = np.empty(shape)
        words = self._entropy()
        draw(words, len(words), out.ctypes.data, out.size)
        return out

    def _entropy(self):
        """The uint32 words SeedSequence assembles from the seed and the
        path: the seed's little-endian words, zero-padded to the pool size,
        then one word per key. SeedSequence pads only where there is a
        path, but zero words up to the pool size mix as absent ones do."""
        seed, words = self.seed, []
        while True:
            words.append(seed & 0xFFFFFFFF)
            seed >>= 32
            if not seed:
                break
        words += [0] * (_POOL_SIZE - len(words)) + list(self.path)
        return (ctypes.c_uint32 * len(words))(*words)


@functools.cache
def _normal_kernel():
    """rng_standard_normal of _rng.c, or None where the library cannot be
    built or loaded (see enkpf.compiled)."""
    dll = compiled.load("_rng")
    if dll is None:
        return None
    draw = dll.rng_standard_normal
    draw.argtypes = [ctypes.POINTER(ctypes.c_uint32), ctypes.c_long, ctypes.c_void_p, ctypes.c_long]
    draw.restype = None
    return draw
