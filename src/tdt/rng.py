"""Counter-based splittable random stream.

Draw ``i`` of a stream is a pure integer hash of ``(seed, counter + i)``, so
identical seeds give identical sequences on every platform and independent
child streams can be split off by label without consuming parent state.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import UsageError

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array."""
    z = x + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class RngStream:
    """Deterministic stream of draws identified by (seed, counter)."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.counter = int(counter) & 0xFFFFFFFFFFFFFFFF

    def split(self, label) -> "RngStream":
        """Independent child stream derived from a string or int label."""
        if isinstance(label, int):
            tag = _fnv1a(label.to_bytes(8, "little", signed=False))
        else:
            tag = _fnv1a(str(label).encode("utf-8"))
        base = np.uint64((self.seed ^ tag) & 0xFFFFFFFFFFFFFFFF)
        with np.errstate(over="ignore"):
            child = int(_mix(_mix(base)))
        return RngStream(child)

    def u64(self, n: int = 1) -> np.ndarray:
        idx = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter = (self.counter + n) & 0xFFFFFFFFFFFFFFFF
        with np.errstate(over="ignore"):
            return _mix(idx * np.uint64(0x2545F4914F6CDD1D) + np.uint64(self.seed))

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform draws in [low, high) from the top 53 bits of each word."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        u = (self.u64(n) >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        out = low + (high - low) * u
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Standard Box-Muller pairs; deterministic for a given counter."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        u1 = np.asarray(self.uniform((half,)))
        u2 = np.asarray(self.uniform((half,)))
        r = np.sqrt(-2.0 * np.log(1.0 - u1))  # 1-u1 in (0,1] keeps log finite
        theta = 2.0 * math.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        out = mean + std * z
        return out.reshape(shape) if shape else float(out[0])

    def randint(self, low: int, high: int, n: int = 1) -> np.ndarray:
        """Integers in [low, high) with negligible modulo bias for small ranges."""
        if high <= low:
            raise UsageError(f"randint requires high > low, got [{low}, {high})")
        span = np.uint64(high - low)
        return (low + (self.u64(n) % span).astype(np.int64)).astype(np.int64)

    def choice_int(self, low: int, high: int) -> int:
        return int(self.randint(low, high, 1)[0])

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffle of a copy of ``items``. Its ``n - 1`` words
        are drawn in one call; the swap at ``i`` takes ``word % (i + 1)``,
        the index ``choice_int(0, i + 1)`` would draw from the same word."""
        out = list(items)
        words = self.u64(max(len(out) - 1, 0)).tolist()
        for i, word in zip(range(len(out) - 1, 0, -1), words):
            j = word % (i + 1)
            out[i], out[j] = out[j], out[i]
        return out
