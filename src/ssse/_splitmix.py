"""Counter-based pseudo-random stream used by the trainer.

SplitMix64 is a tiny stateless mixer: output i is a pure function of
(seed, i). That keeps parameter initialization and epoch shuffling
reproducible across platforms and numpy versions, which matters because
retraining from scratch must start from bit-identical initial weights.
Because each output depends only on its counter, a whole run of draws is
computed at once with numpy's wrapping uint64 arithmetic.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class SplitMix64:
    """Deterministic u64 / float stream derived from a single integer seed."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def _draws(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniform_vector(self, size: int, low: float, high: float) -> np.ndarray:
        # 53 significant bits per draw, uniform in [low, high).
        return low + (high - low) * ((self._draws(size) >> np.uint64(11)) * 2.0**-53)

    def shuffle(self, items: list | np.ndarray) -> None:
        """In-place Fisher-Yates using this stream's draws.

        A list is swapped in place. An array is shuffled as a list of its
        items, which swaps far faster than numpy scalars do, and written back.
        """
        n = len(items)
        if n < 2:
            return
        picks = (self._draws(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        out = items if isinstance(items, list) else items.tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            out[i], out[j] = out[j], out[i]
        if out is not items:
            items[:] = out
