"""Loss models, gradients, and the local mini-batch SGD update.

Two strongly convex problems are provided so convergence behavior can be
checked against closed forms at desk scale:

* quadratic-per-sample, ``f(w, z) = 0.5 * ||w - z||^2`` -- smoothness and
  strong convexity constants are exactly 1 and the optimum is the sample mean;
* l2-regularized logistic regression -- strong convexity equals the
  regularization weight and smoothness is bounded by the regularization plus
  the top eigenvalue of the empirical feature second-moment matrix.

:func:`grad` also takes batched features ``(..., bs, d)`` with weights
``(..., d)``, one gradient per leading index.  :func:`batch_inputs` turns a
block of pooled batch row indices, of any leading shape, into what local SGD
reads: the batch means on the quadratic model, whose gradient is
``w - mean(batch)``, and the gathered features and labels on the logistic
one.  :func:`local_train_clients` steps one round's selected clients on their
slice of it as one array program: each client's row of the result is
bit-identical to :func:`local_train` on that client alone, which stays as
the reference the tests compare against.  Sums call ``np.add.reduce``
directly, the ufunc that ``ndarray.sum`` wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .streams import k_subset

__all__ = [
    "LossKind",
    "LossModel",
    "ClientDataset",
    "OptimumInfo",
    "SolverError",
    "loss",
    "grad",
    "local_train",
    "batch_inputs",
    "local_train_clients",
    "solve_optimum",
    "pooled_dataset",
    "estimate_smoothness",
]


class LossKind(Enum):
    QUADRATIC = "quadratic"
    LOGISTIC = "logistic"


class SolverError(RuntimeError):
    """The optimum solver failed to reach its gradient tolerance."""


@dataclass(frozen=True)
class LossModel:
    kind: LossKind
    regularization: float = 0.0

    def __post_init__(self) -> None:
        if self.regularization < 0:
            raise ValueError("regularization must be non-negative")
        if self.kind is LossKind.QUADRATIC and self.regularization != 0.0:
            # keeps the quadratic model's constants mu = L = 1 exact
            raise ValueError("quadratic model does not take regularization")


@dataclass
class ClientDataset:
    """One client's local samples; labels are present for classification."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError("labels must align with samples")

    @property
    def size(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class OptimumInfo:
    w_star: np.ndarray
    f_star: float
    smoothness: float  # estimate_smoothness of the pooled problem


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-z) for z >= 0 and
    e^z/(1+e^z) below, both through e = exp(-|z|) <= 1."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def loss(model: LossModel, w: np.ndarray, features: np.ndarray,
         labels: np.ndarray | None = None) -> float:
    """Average per-sample loss plus the l2 penalty."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim < 2:
        features = features.reshape(1, -1)
    n = features.shape[0]
    if n == 0:
        raise ValueError("empty sample set")
    w = np.asarray(w, dtype=np.float64)
    if model.kind is LossKind.QUADRATIC:
        diffs = w[None, :] - features
        return 0.5 * float(np.add.reduce(np.add.reduce(diffs * diffs, axis=1)) / n)
    if labels is None:
        raise ValueError("logistic loss requires labels")
    z = features @ w
    ce = np.logaddexp(0.0, z) - labels * z
    penalty = 0.5 * model.regularization * float(w @ w)
    return float(np.add.reduce(ce) / n) + penalty


def grad(model: LossModel, w: np.ndarray, features: np.ndarray,
         labels: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of the batch-average loss.

    ``features`` is one batch ``(bs, d)`` or a stack ``(..., bs, d)`` with
    ``w`` of shape ``(d,)`` or ``(..., d)`` and ``labels`` ``(..., bs)``; each
    stacked gradient equals the one-batch call on its slice bit for bit,
    because every slice goes through the same matrix-vector products.
    Averages are a sum divided by the count, the two steps of ``np.mean``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim < 2:
        features = features.reshape(1, -1)
    batch = features.shape[-2]
    if batch == 0:
        raise ValueError("empty batch")
    w = np.asarray(w, dtype=np.float64)
    if model.kind is LossKind.QUADRATIC:
        return w - np.add.reduce(features, axis=-2) / batch
    if labels is None:
        raise ValueError("logistic gradient requires labels")
    z = np.matmul(features, w[..., None])[..., 0]
    residual = _sigmoid(z) - labels
    back = np.matmul(residual[..., None, :], features)[..., 0, :]
    return back / batch + model.regularization * w


def local_train(
    w: np.ndarray,
    model: LossModel,
    data: ClientDataset,
    steps: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run ``steps`` sequential mini-batch SGD steps from ``w``.

    Each step uses a fresh uniform batch without replacement within the
    step, in index order (so a full-size batch is exact full-batch descent);
    all ``steps`` batches come from one ``rng.random((steps, n))`` draw.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 1 <= batch_size <= data.size:
        raise ValueError("batch size must be in [1, dataset size]")
    w = np.asarray(w, dtype=np.float64).copy()
    for idx in k_subset(rng.random((steps, data.size)), batch_size):
        batch_labels = data.labels[idx] if data.labels is not None else None
        w -= lr * grad(model, w, data.features[idx], batch_labels)
    return w


def batch_inputs(model: LossModel, pooled: ClientDataset,
                 rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """What :func:`local_train_clients` reads of the batches at ``rows``.

    ``rows`` holds ``pooled`` row indices of shape ``(..., K, E, bs)``: each
    client's E batches, the sorted batch indices :func:`local_train` would
    pick on that client's keys, offset to where its samples start in
    ``pooled``.  Every batch is gathered in one indexing call.  The quadratic
    model returns ``(means,)``, every batch reduced to its mean ``(..., K, E,
    d)`` in one call that adds each batch's rows in the order :func:`grad`
    does; the logistic model returns ``(features, labels)``, of shapes
    ``(..., K, E, bs, d)`` and ``(..., K, E, bs)``.  Each entry along the
    leading axes equals the call on that entry alone, bit for bit.
    """
    rows = np.asarray(rows)
    if rows.ndim < 3 or 0 in rows.shape:
        raise ValueError("rows need one non-empty (steps, batch_size) block per client")
    features = pooled.features[rows]
    if model.kind is LossKind.QUADRATIC:
        return (np.add.reduce(features, axis=-2) / rows.shape[-1],)
    if pooled.labels is None:
        raise ValueError("logistic gradient requires labels")
    return features, pooled.labels[rows]


def local_train_clients(
    w: np.ndarray,
    model: LossModel,
    inputs: tuple[np.ndarray, ...],
    lr: float,
) -> np.ndarray:
    """:func:`local_train` for K clients at once; returns the ``(K, d)`` block.

    ``inputs`` is :func:`batch_inputs` of one round's ``(K, E, bs)`` row
    block, or that round's slice of a larger block's.  Row k of the result is
    bit-identical to ``local_train`` on client k, whatever the other rows are.
    """
    block = np.repeat(np.asarray(w, dtype=np.float64)[None, :], len(inputs[0]), axis=0)
    if model.kind is LossKind.QUADRATIC:
        means, = inputs
        for step in range(means.shape[1]):
            block -= lr * (block - means[:, step])
        return block
    features, labels = inputs
    for step in range(features.shape[1]):
        block -= lr * grad(model, block, features[:, step], labels[:, step])
    return block


def pooled_dataset(datasets: list[ClientDataset]) -> ClientDataset:
    """Concatenate all clients' samples in client order."""
    features = np.concatenate([ds.features for ds in datasets], axis=0)
    if datasets[0].labels is not None:
        labels = np.concatenate([ds.labels for ds in datasets], axis=0)
    else:
        labels = None
    return ClientDataset(features, labels)


def estimate_smoothness(model: LossModel, datasets: list[ClientDataset],
                        tol: float = 1e-8, max_iters: int = 10_000) -> float:
    """Smoothness bound: regularization plus the top eigenvalue of the
    empirical feature second-moment matrix, found by power iteration."""
    if model.kind is LossKind.QUADRATIC:
        return 1.0
    pooled = pooled_dataset(datasets)
    x = pooled.features
    gram = x.T @ x / x.shape[0]
    v = np.ones(gram.shape[0]) / math.sqrt(gram.shape[0])
    eig = 0.0
    for _ in range(max_iters):
        nxt = gram @ v
        norm = float(np.linalg.norm(nxt))
        if norm == 0.0:
            eig = 0.0
            break
        v = nxt / norm
        if abs(norm - eig) <= tol * max(1.0, norm):
            eig = norm
            break
        eig = norm
    return model.regularization + eig


def solve_optimum(model: LossModel, datasets: list[ClientDataset],
                  grad_tol: float = 1e-9, max_iters: int = 500_000) -> OptimumInfo:
    """Global optimum of the pooled objective.

    Quadratic uses the closed form (mean of all samples); logistic runs
    full-batch gradient descent at step 1/L until the gradient norm is
    within tolerance.  The returned info carries L, the
    :func:`estimate_smoothness` value (exactly 1 for quadratic).
    """
    pooled = pooled_dataset(datasets)
    if model.kind is LossKind.QUADRATIC:
        w_star = pooled.features.mean(axis=0)
        return OptimumInfo(w_star, loss(model, w_star, pooled.features), 1.0)
    if model.regularization <= 0:
        raise ValueError("logistic solve requires positive regularization")
    smooth = estimate_smoothness(model, datasets)
    lr = 1.0 / smooth
    w = np.zeros(pooled.features.shape[1])
    for _ in range(max_iters):
        g = grad(model, w, pooled.features, pooled.labels)
        if float(np.linalg.norm(g)) <= grad_tol:
            return OptimumInfo(w, loss(model, w, pooled.features, pooled.labels), smooth)
        w -= lr * g
    raise SolverError(
        f"gradient norm above {grad_tol} after {max_iters} iterations"
    )

