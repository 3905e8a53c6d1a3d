"""Derived random streams for order-independent, reproducible simulation.

Every random decision in a run draws from a generator addressed by a path of
integers under one master seed, e.g. ``substream(seed, 1, round, 1, client)``.
Two calls with the same path always yield identical streams, and streams with
different paths are statistically independent, so per-client work can be
reordered or parallelized without changing any result.  Trailing zeros do not
make a path different: ``(seed, 1, t)`` and ``(seed, 1, t, 0)`` are one stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "k_subset"]


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``path`` under ``master_seed``."""
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, path)]))


def k_subset(keys: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the ``k`` smallest keys along the last axis: a
    uniform k-subset per row for i.i.d. uniform keys; a ``+inf`` key is
    never chosen while a row has ``k`` finite keys."""
    return np.sort(np.argpartition(keys, k - 1, axis=-1)[..., :k], axis=-1)
