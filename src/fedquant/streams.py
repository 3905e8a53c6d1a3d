"""Derived random streams for order-independent, reproducible simulation.

The engine's round streams are counter-based Philox streams (Salmon et al.,
SC'11) keyed ``(seed, role)``, whose counter starts at ``(0, t, client, 0)``.
Only counter word 0 advances as a stream draws, so each address names its own
stream, and :func:`rekey` re-points a pooled generator at one in a few
microseconds.  Data generation, analysis and the verifiers draw a handful of
``SeedSequence`` streams addressed by a path (:func:`substream`).  Streams
with different addresses are statistically independent, so per-client work
can be reordered without changing any result.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "k_subset", "ROUND", "CLIENT", "philox_stream", "rekey"]

# the second Philox key word: which party of a round draws
ROUND, CLIENT = 0, 1
_EMPTY_BUFFER = (0, 0, 0, 0)
_BUFFER_SIZE = 4  # Philox emits four 64-bit words per counter step


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``path`` under ``master_seed``.

    ``SeedSequence`` ignores trailing zeros, so ``(s, 1, t)`` and
    ``(s, 1, t, 0)`` address one stream: no path may be a zero-extension of
    another.
    """
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), *map(int, path)]))


def philox_stream(seed: int, role: int, t: int, client: int = 0) -> np.random.Generator:
    """A fresh generator keyed ``(seed, role)``, counter ``(0, t, client, 0)``;
    every argument must fit in 64 unsigned bits."""
    return np.random.Generator(np.random.Philox(
        counter=np.array([0, t, client, 0], dtype=np.uint64),
        key=np.array([seed, role], dtype=np.uint64)))


def rekey(rng: np.random.Generator, seed: int, role: int, t: int,
          client: int = 0) -> np.random.Generator:
    """Point a Philox-backed ``rng`` at the start of
    ``philox_stream(seed, role, t, client)``, discarding its buffered output
    and any half-used 32-bit word; returns ``rng``."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, t, client, 0), "key": (seed, role)},
        "buffer": _EMPTY_BUFFER, "buffer_pos": _BUFFER_SIZE,
        "has_uint32": 0, "uinteger": 0,
    }
    return rng


def k_subset(keys: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the ``k`` smallest keys along the last axis: a
    uniform k-subset per row for i.i.d. uniform keys; a ``+inf`` key is
    never chosen while a row has ``k`` finite keys."""
    return np.sort(np.argpartition(keys, k - 1, axis=-1)[..., :k], axis=-1)
