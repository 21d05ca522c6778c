"""Keyed random streams for reproducible estimation.

The stream for (seed, index...) is numpy's default generator, PCG64, seeded
through a SeedSequence with one 64-bit key mixed from the words, so any
worker can open the stream for its block independently and the draws never
depend on scheduling.  Mixing uses splitmix64 so that nearby seeds give
unrelated keys, and the SeedSequence hash spreads each key over PCG64's
whole state.  PCG64 draws a double in well under half of Philox's time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_SEED", "substream", "spawn_key"]

# the seed of every command and of every statistical check's default
DEFAULT_SEED = 20260808

_MASK = (1 << 64) - 1


def spawn_key(seed: int, *indices: int) -> int:
    """Fold (seed, indices...) into one 64-bit key (splitmix64 finalizer chain)."""
    acc = 0x9E3779B97F4A7C15
    for w in (seed, *indices):
        # a wider word would alias the one with its low 64 bits: -1 would repeat 2^64 - 1
        if not (isinstance(w, (int, np.integer)) and 0 <= w <= _MASK):
            raise ValueError(f"seed words must be integers in [0, 2^64), got {w!r}")
        acc = (acc + int(w)) & _MASK
        z = acc
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        acc = z ^ (z >> 31)
    return acc


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Open the deterministic stream for (seed, indices...)."""
    return np.random.default_rng(spawn_key(seed, *indices))
