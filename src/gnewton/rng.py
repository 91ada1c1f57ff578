"""Deterministic random draws.

Seeded sampling (random points, perturbed starts, random pair selection) is
part of the observable contract: the same seed gives the same draws. The
package owns a SplitMix64 stream plus a Box-Muller transform rather than
depend on the algorithms of Python's or numpy's generators; the constants
are the standard SplitMix64 ones. The integer stream is portable bit for
bit; the gaussians go through libm's log, cos and sin, whose last bits
differ between implementations, so they are byte-identical on one platform.
SplitMix64 is counter-based (Steele, Lea & Flood, OOPSLA 2014): j steps on,
the state is seed + j gamma, so `prefetch` mixes a block of it at once.
"""

from math import cos, log, pi, sin, sqrt

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z):
    """The output for state z: an int, or a uint64 array (products wrap)."""
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit SplitMix generator with uniform and gaussian output."""

    def __init__(self, seed: int):
        self.state = seed & _MASK
        self._block = []  # prefetched outputs, the next one last

    def prefetch(self, k: int):
        """Mix the next k outputs in one pass; the draws take them first."""
        z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._block[:0] = _mix(z + np.uint64(self.state))[::-1].tolist()
        self.state = (self.state + k * _GAMMA) & _MASK

    def next_u64(self) -> int:
        if self._block:
            return self._block.pop()
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def uniform(self) -> float:
        # 53 high bits -> [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def gaussians(self, k: int) -> np.ndarray:
        """k standard normals via Box-Muller; draws are made in pairs and
        the spare from an odd request is discarded, so consecutive calls
        depend only on call order."""
        u = [self.uniform() for _ in range(k + k % 2)]
        out = []
        for u1, u2 in zip(u[::2], u[1::2]):
            r = sqrt(-2.0 * log(max(u1, 2.0 ** -53)))  # avoid log(0)
            out += (r * cos(2 * pi * u2), r * sin(2 * pi * u2))
        return np.array(out[:k])
