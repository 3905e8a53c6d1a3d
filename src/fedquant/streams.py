"""Derived random streams for order-independent, reproducible simulation.

Every random draw comes from a counter-based Philox stream (Salmon et al.,
SC'11) keyed ``(seed, role)``, whose counter starts at ``(0, t, client, 0)``.
Only counter word 0 advances as a stream draws, so each
``(seed, role, t, client)`` address names its own stream: no address is a
prefix or a zero-extension of another.  :func:`rekey` re-points a pooled
generator at one in a few microseconds.  Streams with different addresses
are statistically independent, so per-client work can be reordered without
changing any result.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ROUND", "CLIENT", "DATA", "SPLIT", "PILOT", "NOISE", "VERIFY",
           "philox_stream", "rekey", "k_subset"]

# The second Philox key word: which party draws.  Each seed draws from each
# (role, t, client) address at most once:
#   ROUND  (t)          round t's selection keys and broadcast uniforms
#   CLIENT (t, client)  a client's batch keys and upload uniforms in round t
#   DATA   (0)          a synthetic dataset's features (and labels)
#   SPLIT  (0)          the shuffle that shards a dataset across clients
#   PILOT  (0)          perturbations of the pilot run's probe weights
#   NOISE  (0)          mini-batches of the noise-constant estimate
#   VERIFY (0 | 1 | 2)  verify's input vectors | rounding | differential trials
ROUND, CLIENT, DATA, SPLIT, PILOT, NOISE, VERIFY = range(7)
_EMPTY_BUFFER = (0, 0, 0, 0)
_BUFFER_SIZE = 4  # Philox emits four 64-bit words per counter step


def philox_stream(seed: int, role: int, t: int = 0, client: int = 0) -> np.random.Generator:
    """A fresh generator keyed ``(seed, role)``, counter ``(0, t, client, 0)``;
    ``seed`` must lie in ``[0, 2**64)``, a Philox key word."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must satisfy 0 <= seed < 2**64, a Philox key word")
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
