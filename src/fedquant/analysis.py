"""Convergence-bound machinery and executable moment verifiers.

The bound on the expected optimality gap after t rounds is

    (2 kappa / (gamma + t)) * (D / mu + (2 L + E mu / 4) * ||w0 - w*||^2)

where D aggregates SGD variance, heterogeneity, local drift, client-sampling
error, and the transmission mode's quantization error:

    D = sum_k sigma_k^2 / N^2 + 6 L Gamma + 8 (E-1)^2 H^2
        + ((N-K)/(N-1)) (4/K) E^2 H^2 + <mode term>

mode term:  weight uplink  -> d M^2 / K
            differential   -> 4 d E^2 H^2 / (K (2^B - 1)^2)
            downlink       -> d M^2

The per-client SGD variance sigma_k^2 and the gradient bound H^2 are uniform
bounds that cannot be certified numerically; they are estimated as maxima
over a probe set of weights, so bound checks are conditional on the
estimated constants.  The probe perturbations draw from the seed's ``PILOT``
stream, the mini-batches from its ``NOISE`` stream, and the verifiers'
trials from its ``VERIFY`` streams (``streams``), apart from every stream of
the run they estimate.

The differential term assumes each coordinate errs by at most the spacing of
2^B levels over the upload's peak; its verifier checks the engine's own
differential uploads (``federation.differential_uploads``) against that, up
to 4 ulps of the peak for the float arithmetic of the decode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import federation as fed
from .models import ClientDataset, LossModel, grad, solve_optimum
from .quantizer import Rounding, grid_moments, half_step, quantize_grid_sr
from .streams import NOISE, PILOT, VERIFY, k_subset, philox_stream

__all__ = [
    "BoundVariant",
    "BoundParams",
    "CheckResult",
    "VerificationReport",
    "noniid_gamma",
    "estimate_noise_bounds",
    "pilot_probe_weights",
    "bound_constant",
    "convergence_bound",
    "check_sampling_moments",
    "check_rounding_moments",
    "check_differential_moments",
]


class BoundVariant(Enum):
    WEIGHT = "weight"            # scheduled-width direct weight uploads
    DIFFERENTIAL = "differential"  # constant-width differential uploads
    DOWNLINK = "downlink"        # scheduled-width quantized broadcasts


@dataclass
class BoundParams:
    """Everything the gap bound needs; kappa and gamma are derived."""

    mu: float
    lipschitz: float
    sigma_sq: np.ndarray          # per-client SGD variance estimates
    h_sq: float                   # squared gradient-norm bound estimate
    gamma_noniid: float           # heterogeneity F* - mean_k F_k*
    weight_bound: float           # magnitude bound M
    dim: int
    local_steps: int
    clients_per_round: int
    num_clients: int
    w0_gap_sq: float
    kappa: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.mu > 0 or self.lipschitz < self.mu:
            raise ValueError("need 0 < mu <= lipschitz")
        if self.num_clients == 1 and self.clients_per_round != 1:
            raise ValueError("single-client problems force full participation")
        self.sigma_sq = np.asarray(self.sigma_sq, dtype=np.float64)
        if self.sigma_sq.shape != (self.num_clients,):
            raise ValueError("sigma_sq must have one entry per client")
        self.kappa = self.lipschitz / self.mu
        self.gamma = fed.gamma_offset(self.mu, self.lipschitz, self.local_steps)


def noniid_gamma(model: LossModel, datasets: list[ClientDataset]) -> float:
    """Heterogeneity Gamma = F* - (1/N) sum_k F_k*; non-negative for convex
    losses (tiny negative solver residue is clamped, larger is an error)."""
    f_star = solve_optimum(model, datasets).f_star
    per_client = [solve_optimum(model, [ds]).f_star for ds in datasets]
    value = f_star - float(np.mean(per_client))
    if value < 0:
        if value < -1e-9:
            raise ValueError(f"negative heterogeneity {value}: solver failure")
        return 0.0
    return value


def pilot_probe_weights(
    config: fed.FederationConfig,
    model: LossModel,
    datasets: list[ClientDataset],
    pilot_rounds: int = 16,
    stride: int = 4,
    perturbations: int = 2,
    perturbation_scale: float = 0.5,
    seed: int | None = None,
) -> list[np.ndarray]:
    """Probe weights for constant estimation: globals visited by a short
    unquantized pilot run (every ``stride`` rounds) plus random perturbations
    around them."""
    # a float run reads no rounding, so it keeps the default
    pilot_cfg = replace(config, rounds=pilot_rounds, uplink_mode=fed.UplinkMode.FLOAT,
                        downlink_mode=fed.DownlinkMode.FLOAT, rounding=Rounding.STOCHASTIC)
    visited: list[np.ndarray] = [np.zeros(config.dimension)]
    fed.run_federation(
        pilot_cfg, model, datasets,
        observer=lambda t, w: visited.append(w.copy())
        if (t + 1) % stride == 0 else None,
    )
    rng = philox_stream(config.seed if seed is None else seed, PILOT)
    probes = list(visited)
    for w in visited:
        for _ in range(perturbations):
            probes.append(w + perturbation_scale * rng.standard_normal(w.size))
    return probes


def estimate_noise_bounds(
    model: LossModel,
    datasets: list[ClientDataset],
    probe_weights: Sequence[np.ndarray],
    batch_size: int,
    draws: int = 1000,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Empirical surrogates for the SGD noise constants.

    sigma_k^2 is the largest (over probe weights) mean squared deviation of a
    mini-batch gradient from the full local gradient; H^2 is the largest
    observed squared mini-batch gradient norm.  Both are estimates, not
    certified bounds.
    """
    if draws < 1000:
        raise ValueError("draws must be >= 1000")
    if not probe_weights:
        raise ValueError("need at least one probe weight")
    rng = philox_stream(seed, NOISE)
    sigma_sq = np.zeros(len(datasets))
    h_sq = 0.0
    for k, ds in enumerate(datasets):
        bs = min(batch_size, ds.size)
        for w in probe_weights:
            w = np.asarray(w, dtype=np.float64)
            full = grad(model, w, ds.features, ds.labels)
            # each row a uniform size-bs subset, sorted so that a full batch
            # reproduces the full gradient exactly
            idx = k_subset(rng.random((draws, ds.size)), bs)
            labels = ds.labels[idx] if ds.labels is not None else None
            grads = grad(model, w, ds.features[idx], labels)
            sigma_sq[k] = max(
                sigma_sq[k], float(np.mean(np.sum((grads - full) ** 2, axis=1)))
            )
            h_sq = max(h_sq, float(np.max(np.sum(grads * grads, axis=1))))
    return sigma_sq, h_sq


def _square(x: float) -> float:
    """``x ** 2`` rounded as Python's float power rounds it, but ``inf``
    where that overflows instead of an ``OverflowError``."""
    with np.errstate(over="ignore"):
        return float(np.float64(x) ** 2)


def bound_constant(variant: BoundVariant, p: BoundParams,
                   bits: int | None = None) -> float:
    """The aggregate constant D for one transmission mode; ``inf`` where it
    overflows a float."""
    n, k = p.num_clients, p.clients_per_round
    e, h_sq = p.local_steps, p.h_sq
    base = (
        float(np.sum(p.sigma_sq)) / n ** 2
        + 6.0 * p.lipschitz * p.gamma_noniid
        + 8.0 * (e - 1) ** 2 * h_sq
    )
    sampling = 0.0 if n == 1 else (n - k) / (n - 1) * (4.0 / k) * e ** 2 * h_sq
    if variant is BoundVariant.WEIGHT:
        mode = p.dim * _square(p.weight_bound) / k
    elif variant is BoundVariant.DIFFERENTIAL:
        if bits is None or bits < 1:
            raise ValueError("differential variant requires bits >= 1")
        mode = 4.0 * p.dim * e ** 2 * h_sq / (k * (2.0 ** bits - 1.0) ** 2)
    else:
        mode = p.dim * _square(p.weight_bound)
    return base + sampling + mode


def convergence_bound(t: int, p: BoundParams, d_const: float) -> float:
    """Upper bound on the expected optimality gap after ``t`` rounds."""
    if t < 0:
        raise ValueError("t must be >= 0")
    weight_term = (2.0 * p.lipschitz + p.local_steps * p.mu / 4.0) * p.w0_gap_sq
    return 2.0 * p.kappa / (p.gamma + t) * (d_const / p.mu + weight_term)


# ---------------------------------------------------------------------------
# Executable verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    title: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"report: {self.title}"]
        for c in self.checks:
            lines.append(f"{c.name}.value: {c.value:.17g}")
            lines.append(f"{c.name}.threshold: {c.threshold:.17g}")
            lines.append(f"{c.name}.pass: {str(c.passed).lower()}")
        lines.append(f"pass: {str(self.passed).lower()}")
        return "\n".join(lines)


_MAX_ENUMERATION = 10 ** 6


def check_sampling_moments(n: int, k: int,
                           client_vectors: np.ndarray) -> VerificationReport:
    """Exhaustively enumerate all K-subsets and verify the subset-mean moments.

    The average of subset means must equal the global mean, and the average
    squared deviation must equal ((1 - K/N) / (K (N-1))) * sum_i ||v_i - v_bar||^2.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if math.comb(n, k) > _MAX_ENUMERATION:
        raise ValueError(
            f"C({n},{k}) = {math.comb(n, k)} subsets exceed the enumeration limit"
        )
    vectors = np.atleast_2d(np.asarray(client_vectors, dtype=np.float64))
    if vectors.shape[0] != n:
        raise ValueError("need one vector per client")
    v_bar = vectors.mean(axis=0)
    subset_means = np.stack([
        vectors[list(subset)].mean(axis=0)
        for subset in itertools.combinations(range(n), k)
    ])
    mean_err = float(np.max(np.abs(subset_means.mean(axis=0) - v_bar)))
    actual_var = float(np.mean(np.sum((subset_means - v_bar) ** 2, axis=1)))
    if n == 1 or k == n:
        predicted_var = 0.0
    else:
        predicted_var = (
            (1.0 - k / n) / (k * (n - 1))
            * float(np.sum((vectors - v_bar) ** 2))
        )
    var_err = abs(actual_var - predicted_var)
    checks = (
        CheckResult("unbiased", mean_err, 1e-12, mean_err <= 1e-12),
        CheckResult("variance_identity", var_err, 1e-10, var_err <= 1e-10),
    )
    return VerificationReport(f"subset sampling moments N={n} K={k}", checks)


def check_rounding_moments(range_bound: float, bits: int,
                           trials: int = 10_000, seed: int = 0) -> VerificationReport:
    """Stochastic-rounding moments on the symmetric grid.

    For random inputs on [-M, M]: the analytic expectation (enumerating both
    outcomes) matches the input to 1e-12, the analytic variance stays within
    (M/(2^B-1))^2, and a Monte-Carlo mean lands within four standard errors.
    """
    if trials < 10_000:
        raise ValueError("trials must be >= 10000")
    var_bound = half_step(range_bound, bits) ** 2
    rng = philox_stream(seed, VERIFY, 1)
    probes = rng.uniform(-range_bound, range_bound, size=1000)
    worst_bias, worst_excess = 0.0, -math.inf
    for w in probes:
        mean, var = grid_moments(float(w), range_bound, bits)
        worst_bias = max(worst_bias, abs(mean - float(w)))
        worst_excess = max(worst_excess, var - var_bound)

    w_mc = float(rng.uniform(-range_bound, range_bound))
    _, var_mc = grid_moments(w_mc, range_bound, bits)
    draws = np.array([quantize_grid_sr(w_mc, range_bound, bits, rng)
                      for _ in range(trials)])
    se = math.sqrt(var_mc / trials)
    mc_dev = abs(float(draws.mean()) - w_mc)
    mc_limit = 4.0 * se if se > 0 else 1e-12
    checks = (
        CheckResult("unbiased", worst_bias, 1e-12, worst_bias <= 1e-12),
        CheckResult("variance_bound_excess", worst_excess, 0.0, worst_excess <= 0.0),
        CheckResult("monte_carlo_dev", mc_dev, mc_limit, mc_dev <= mc_limit),
    )
    return VerificationReport(
        f"stochastic rounding moments M={range_bound:g} B={bits}", checks
    )


def check_differential_moments(d_vec: np.ndarray, bits: int,
                               trials: int = 10_000,
                               seed: int = 0) -> VerificationReport:
    """Moments of differential quantization on the symmetric grid over max|d|.

    The analytic expectation of stochastic rounding must equal the vector and
    its analytic total squared error must stay within dim * ||d||^2 / (2^B - 1)^2;
    a Monte-Carlo mean squared error cross-checks the analytic value.  The
    engine's nearest upload of the vector must err by at most the grid's
    half-step max|d| / (2^B - 1) in every coordinate, plus 4 ulps of max|d|:
    the check judges the rounding, not the last bit of its float arithmetic,
    since the decode c / G of codeword +/-1 can land an ulp past the half-step
    and a coordinate at a tie (an exact zero, say) an ulp or two further.
    """
    if trials < 10_000:
        raise ValueError("trials must be >= 10000")
    d_vec = np.asarray(d_vec, dtype=np.float64)
    if d_vec.size == 0:
        raise ValueError("differential vector must not be empty")
    peak = float(np.max(np.abs(d_vec)))
    if peak == 0.0:
        raise ValueError("differential vector must have a nonzero coordinate")
    nearest = fed.differential_uploads(d_vec[None], bits, Rounding.NEAREST, None)
    max_error = float(np.max(np.abs(nearest - d_vec)))
    bias, mse = 0.0, 0.0
    for w in d_vec:
        mean, var = grid_moments(float(w), peak, bits)
        bias = max(bias, abs(mean - float(w)))
        mse += var
    limit = d_vec.size * float(d_vec @ d_vec) / (2.0 ** bits - 1.0) ** 2

    rng = philox_stream(seed, VERIFY, 2)
    sq_errors = np.empty(trials)
    for i in range(trials):
        sample = np.array([quantize_grid_sr(float(w), peak, bits, rng) for w in d_vec])
        sq_errors[i] = float(np.sum((sample - d_vec) ** 2))
    mc_dev = abs(float(sq_errors.mean()) - mse)
    mc_limit = 4.0 * float(sq_errors.std(ddof=1)) / math.sqrt(trials)
    if mc_limit == 0.0:
        mc_limit = 1e-12
    nearest_limit = half_step(peak, bits) + 4.0 * float(np.spacing(peak))
    checks = (
        CheckResult("unbiased", bias, 1e-12, bias <= 1e-12),
        CheckResult("mse_within_bound", mse, limit, mse <= limit),
        CheckResult("monte_carlo_mse_dev", mc_dev, mc_limit, mc_dev <= mc_limit),
        CheckResult("nearest_max_error", max_error, nearest_limit,
                    max_error <= nearest_limit),
    )
    return VerificationReport(f"differential quantization moments B={bits}", checks)
