"""Deterministic random draws.

Seeded sampling (random points, perturbed starts, random pair selection) is
part of the observable contract: the same seed gives the same draws. The
package owns a SplitMix64 stream plus a Box-Muller transform rather than
depend on the algorithms of Python's or numpy's generators; the constants
are the standard SplitMix64 ones. The integer stream is portable bit for
bit; the gaussians go through libm's log, cos and sin, whose last bits
differ between implementations, so they are byte-identical on one platform.
"""

from math import cos, log, pi, sin, sqrt

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit SplitMix generator with uniform and gaussian output."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z ^= z >> 30
        z = (z * _MIX1) & _MASK
        z ^= z >> 27
        z = (z * _MIX2) & _MASK
        z ^= z >> 31
        return z

    def uniform(self) -> float:
        # 53 high bits -> [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def gaussians(self, k: int) -> np.ndarray:
        """k standard normals via Box-Muller; draws are made in pairs and
        the spare from an odd request is discarded, so consecutive calls
        depend only on call order."""
        out = []
        while len(out) < k:
            u1 = max(self.uniform(), 2.0 ** -53)  # avoid log(0)
            u2 = self.uniform()
            r = sqrt(-2.0 * log(u1))
            out.append(r * cos(2 * pi * u2))
            out.append(r * sin(2 * pi * u2))
        return np.array(out[:k])
