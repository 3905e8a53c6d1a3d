"""Synthetic client datasets.

``gen_quadratic_clients`` builds one sample cloud per client for the
quadratic model.  The logistic model draws one labeled source set with
``gen_logistic_dataset``, and ``partition_iid`` splits it into disjoint,
near-equal client shards that together cover it exactly.  Everything is
deterministic under its seed: a generator draws from the seed's ``DATA``
stream and a split from its ``SPLIT`` stream, so a dataset and its split
never share draws, at one seed or across seeds.  ``tight_weight_bound``
gives a tight ``weight_bound`` that every weight of a quadratic run
respects.
"""

from __future__ import annotations

import numpy as np

from .models import ClientDataset
from .streams import DATA, SPLIT, philox_stream

__all__ = [
    "partition_iid",
    "gen_quadratic_clients",
    "tight_weight_bound",
    "gen_logistic_dataset",
]


def partition_iid(dataset: ClientDataset, n_clients: int, seed: int) -> list[ClientDataset]:
    """Shuffle and split into ``n_clients`` near-equal disjoint shards.

    Each shard keeps its samples in source order, and the shards' union is
    the source dataset.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if n_clients > dataset.size:
        raise ValueError(
            f"cannot split {dataset.size} samples across {n_clients} clients"
        )
    perm = philox_stream(seed, SPLIT).permutation(dataset.size)
    shards = []
    for chunk in np.array_split(perm, n_clients):
        idx = np.sort(chunk)
        labels = dataset.labels[idx] if dataset.labels is not None else None
        shards.append(ClientDataset(dataset.features[idx], labels))
    return shards


def gen_quadratic_clients(
    n_clients: int,
    dim: int,
    spread: float,
    seed: int,
    samples_per_client: int = 20,
    noise_std: float = 0.5,
) -> list[ClientDataset]:
    """Per-client sample clouds with centers at distance controlled by spread.

    Cloud noise is re-centered within each client so the empirical client
    mean equals its center exactly; the heterogeneity measure then scales
    exactly quadratically in ``spread`` (and is zero at spread = 0).
    """
    if n_clients < 1 or dim < 1 or samples_per_client < 1:
        raise ValueError("n_clients, dim, samples_per_client must be >= 1")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    rng = philox_stream(seed, DATA)
    directions = rng.standard_normal((n_clients, dim))
    datasets = []
    for k in range(n_clients):
        center = spread * directions[k]
        noise = noise_std * rng.standard_normal((samples_per_client, dim))
        if samples_per_client > 1:
            noise -= noise.mean(axis=0)
        else:
            noise[:] = 0.0
        datasets.append(ClientDataset(center[None, :] + noise))
    return datasets


def tight_weight_bound(datasets: list[ClientDataset], batch_size: int) -> float:
    """Largest attainable |mini-batch mean| per coordinate, over all clients.

    Quadratic locals are convex combinations of the delivered model and
    batch means, so this bounds every weight a quadratic run can visit
    (checked at runtime by the engine).
    """
    worst = 0.0
    for ds in datasets:
        ranked = np.sort(ds.features, axis=0)
        worst = max(
            worst,
            float(np.max(np.abs(ranked[:batch_size].mean(axis=0)))),
            float(np.max(np.abs(ranked[-batch_size:].mean(axis=0)))),
        )
    return worst * (1 + 1e-9)


def gen_logistic_dataset(
    n_samples: int,
    dim: int,
    seed: int,
    feature_scales: np.ndarray | None = None,
    true_weights: np.ndarray | None = None,
) -> ClientDataset:
    """Synthetic binary classification data with optional per-coordinate
    feature scales (informative weights shrink as feature scale grows)."""
    if n_samples < 1 or dim < 1:
        raise ValueError("n_samples and dim must be >= 1")
    rng = philox_stream(seed, DATA)
    scales = np.ones(dim) if feature_scales is None else np.asarray(feature_scales, float)
    if scales.shape != (dim,) or np.any(scales <= 0):
        raise ValueError("feature_scales must be positive and match dim")
    x = rng.standard_normal((n_samples, dim)) * scales
    if true_weights is None:
        true_weights = rng.standard_normal(dim) / scales
    z = x @ true_weights
    probs = 1.0 / (1.0 + np.exp(-z))
    labels = (rng.random(n_samples) < probs).astype(np.int64)
    return ClientDataset(x, labels)
