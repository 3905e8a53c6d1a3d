"""Scalar reference implementations that the tests use as oracles.

The engine never calls these.  Each is written apart from the code it
checks: the pipeline quantizer one scalar at a time (scale up, round, limit,
scale down), the symmetric grid's stochastic-rounding moments from the
scalar two-outcome distribution, and local mini-batch SGD for one client
drawing from a generator, against which the engine's batched kernels are
compared draw for draw or bit for bit.
"""

import math

import numpy as np

from fedquant.models import ClientDataset, LossModel, grad
from fedquant.quantizer import GridKind, QuantizerSpec, Rounding, grid_distribution, half_step
from fedquant.streams import k_subset


def _require_finite(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"non-finite input: {x!r}")


def round_nearest(x: float) -> int:
    """Round to the nearest integer; a fractional part of exactly 0.5 rounds up."""
    _require_finite(x)
    floor = math.floor(x)
    return floor if x - floor < 0.5 else floor + 1


def round_stochastic(x: float, rng: np.random.Generator) -> int:
    """Round to floor(x) or floor(x)+1 with probability proportional to proximity.

    The expectation over the rounding randomness equals x.
    """
    _require_finite(x)
    floor = math.floor(x)
    frac = x - floor
    return floor + (1 if rng.random() < frac else 0)


def clamp_limit(r: int, bits: int) -> int:
    """Limit an integer to the signed range of ``bits`` bits."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return min(max(int(r), lo), hi)


def quantize_pipeline(w: float, spec: QuantizerSpec, gain: float,
                      rng: np.random.Generator | None = None) -> tuple[int, float]:
    """Run one scalar through scale-up by ``gain``, rounding, limit, scale-down.

    Returns (codeword, dequantized value).  The plain pipeline at every
    width: at one bit the engine's pipeline spec is the enhanced quantizer,
    which this does not model.
    """
    if spec.grid is not GridKind.PIPELINE:
        raise ValueError("quantize_pipeline requires a pipeline-grid spec")
    if not (gain > 0 and math.isfinite(gain)):
        raise ValueError("scale must be positive and finite")
    _require_finite(w)
    amplified = w * gain
    if spec.rounding is Rounding.NEAREST:
        rounded = round_nearest(amplified)
    else:
        if rng is None:
            raise ValueError("stochastic rounding requires an rng")
        rounded = round_stochastic(amplified, rng)
    code = clamp_limit(rounded, spec.bits)
    return code, code / gain


def grid_moments(w: float, range_bound: float, bits: int) -> tuple[float, float]:
    """Analytic mean and variance of stochastic rounding on the grid.

    Computed by enumerating the two possible outcomes with their
    probabilities.  The variance never exceeds ``half_step ** 2``.
    """
    lo_code, _, p_hi = grid_distribution(w, range_bound, bits)
    q = half_step(range_bound, bits)
    mean = lo_code * q + p_hi * (2.0 * q)
    var = (2.0 * q) ** 2 * (p_hi * (1.0 - p_hi))
    return mean, var


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
