"""Federated averaging engine with quantized uplink/downlink communication.

Each round: the server broadcasts the global model to a sampled subset of
clients (optionally quantized, one draw shared by all recipients), every
selected client runs local mini-batch SGD, uploads either its weights or its
weight differential (optionally quantized), and the server averages the
uploads.  The global model is a plain array; a layered broadcast takes its
layer layout from ``FederationConfig.layer_bounds``, and its static gains
(``lq_static``) are fixed once by :func:`init_state`.  All randomness is drawn from per-round and per-client streams
derived from the master seed, so results are independent of execution order.
Both are Philox streams (``streams.philox_stream``); each round re-keys the
``clients_per_round + 1`` generators that :func:`init_state` pools on the state.

A round runs its K selected clients as one array program: local SGD advances
a ``(K, d)`` block of weights (``models.local_train_clients``), the uploads
are quantized as one ``(K, d)`` block with one stream per row, and the block
is averaged directly.  Each client still draws only from its own stream, so
every row is bit-identical to running that client alone.  Every quantized
link picks its family and one scale per row (or layer), then makes one
quantizer call per row block (or layer).

Link cost accounting: a quantized vector costs ``dim * bits`` payload bits
plus a 17-byte gain header; unquantized vectors cost 32 bits per coordinate.
Downlink cost is counted once per round (broadcast), uplink once per client.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import quantizer as qz
from .models import (
    ClientDataset,
    LossKind,
    LossModel,
    OptimumInfo,
    local_train_clients,
    loss,
    pooled_dataset,
    solve_optimum,
)
from .data import gen_logistic_dataset, gen_quadratic_clients, partition_iid
from .streams import CLIENT, ROUND, k_subset, philox_stream, rekey

__all__ = [
    "UplinkMode",
    "DownlinkMode",
    "ScheduleKind",
    "ScheduleSpec",
    "FederationConfig",
    "RoundRecord",
    "FederationState",
    "ConfigError",
    "AssumptionViolation",
    "gamma_offset",
    "lr_schedule",
    "weight_uplink_bits",
    "downlink_log_bits",
    "step_log_bits",
    "schedule_bits",
    "sample_clients",
    "aggregate_weights",
    "aggregate_differentials",
    "broadcast",
    "build_problem",
    "check_smoothness",
    "init_state",
    "run_round",
    "run_federation",
    "STREAM_SCHEME",
    "round_stream",
    "client_stream",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class AssumptionViolation(RuntimeError):
    """A runtime weight exceeded the configured magnitude bound."""


class UplinkMode(Enum):
    FLOAT = "float"
    WEIGHT = "weight"
    DIFFERENTIAL = "differential"


class DownlinkMode(Enum):
    # differential downlink is not representable: newly sampled clients have
    # no base model to reconstruct from
    FLOAT = "float"
    QUANTIZED = "quantized"
    LAYERED = "layered"


class ScheduleKind(Enum):
    CONSTANT = "constant"
    WEIGHT_LOG = "weight_log"
    DOWNLINK_LOG = "downlink_log"
    STEP_LOG = "step_log"


@dataclass(frozen=True)
class ScheduleSpec:
    """Bit-width schedule; every produced width is an integer >= 1."""

    kind: ScheduleKind
    bits: int | None = None
    f: float | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind is ScheduleKind.CONSTANT:
            if self.bits is None or self.bits < 1:
                raise ConfigError("constant schedule requires bits >= 1")
        elif self.kind is ScheduleKind.STEP_LOG:
            if self.f is None or self.f < 2:
                raise ConfigError("step_log schedule requires f >= 2")
            if self.p is None or not self.p > 0:
                raise ConfigError("step_log schedule requires p > 0")

    @classmethod
    def constant(cls, bits: int) -> "ScheduleSpec":
        return cls(ScheduleKind.CONSTANT, bits=bits)


@dataclass(frozen=True)
class FederationConfig:
    """All knobs of one experiment, including the synthetic problem recipe."""

    num_clients: int = 20
    clients_per_round: int = 5
    local_steps: int = 5
    rounds: int = 100
    batch_size: int = 5
    mu: float = 1.0
    lipschitz: float = 1.0
    uplink_mode: UplinkMode = UplinkMode.FLOAT
    downlink_mode: DownlinkMode = DownlinkMode.FLOAT
    uplink_schedule: ScheduleSpec = ScheduleSpec.constant(4)
    downlink_schedule: ScheduleSpec = ScheduleSpec.constant(4)
    rounding: qz.Rounding = qz.Rounding.STOCHASTIC
    structure: qz.Structure = qz.Structure.TUNED
    grid: qz.GridKind = qz.GridKind.SYMMETRIC
    weight_bound: float = 1.0
    one_bit_enhanced: bool = True
    lq_static: bool = False
    seed: int = 0
    model: LossKind = LossKind.QUADRATIC
    regularization: float = 0.0
    dimension: int = 10
    spread: float = 1.0
    samples_per_client: int = 20
    noise_std: float = 0.5
    layer_sizes: tuple[int, ...] | None = None
    layer_feature_scales: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigError("num_clients must be >= 1")
        if not 1 <= self.clients_per_round <= self.num_clients:
            raise ConfigError(
                "clients_per_round must satisfy 1 <= clients_per_round <= num_clients"
            )
        if self.local_steps < 1:
            raise ConfigError("local_steps must be >= 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not self.mu > 0:
            raise ConfigError("mu must be positive")
        if self.lipschitz < self.mu:
            raise ConfigError("lipschitz must be >= mu")
        if not self.weight_bound > 0:
            raise ConfigError("weight_bound must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must satisfy 0 <= seed < 2**64, a Philox key word")
        if (self.grid is qz.GridKind.SYMMETRIC
                and self.rounding is not qz.Rounding.STOCHASTIC):
            raise ConfigError("grid=symmetric requires rounding=stochastic")
        if self.model is LossKind.LOGISTIC and not self.regularization > 0:
            raise ConfigError("logistic model requires regularization > 0")
        if self.model is LossKind.LOGISTIC and self.mu > self.regularization:
            raise ConfigError("logistic model requires mu <= regularization, "
                              "its strong convexity")
        if self.model is LossKind.QUADRATIC and self.regularization != 0:
            raise ConfigError("quadratic model takes no regularization")
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if self.spread < 0:
            raise ConfigError("spread must be non-negative")
        if self.samples_per_client < 1:
            raise ConfigError("samples_per_client must be >= 1")
        if self.batch_size > self.samples_per_client:
            raise ConfigError("batch_size must be <= samples_per_client")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")
        if self.layer_sizes is not None:
            if any(s < 1 for s in self.layer_sizes):
                raise ConfigError("layer_sizes entries must be >= 1")
            if sum(self.layer_sizes) != self.dimension:
                raise ConfigError("layer_sizes must sum to dimension")
        if self.layer_feature_scales is not None:
            if self.layer_sizes is None:
                raise ConfigError("layer_feature_scales requires layer_sizes")
            if len(self.layer_feature_scales) != len(self.layer_sizes):
                raise ConfigError("layer_feature_scales must match layer_sizes")
            if any(not s > 0 for s in self.layer_feature_scales):
                raise ConfigError("layer_feature_scales must be positive")

    def layer_bounds(self) -> tuple[tuple[int, int], ...]:
        if self.layer_sizes is None:
            return ((0, self.dimension),)
        bounds, cursor = [], 0
        for size in self.layer_sizes:
            bounds.append((cursor, cursor + size))
            cursor += size
        return tuple(bounds)


@dataclass(frozen=True)
class RoundRecord:
    round: int
    eta: float
    bits_up: int
    bits_down: int
    train_loss: float
    gap: float
    uplink_bits_cum: int
    downlink_bits_cum: int


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def gamma_offset(mu: float, lipschitz: float, local_steps: int) -> float:
    """Schedule offset max(8 L / mu, E)."""
    return max(8.0 * lipschitz / mu, float(local_steps))


def lr_schedule(t: int, mu: float, gamma: float) -> float:
    """Decaying learning rate 2 / (mu * (gamma + t))."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return 2.0 / (mu * (gamma + t))


def weight_uplink_bits(t: int, mu: float, gamma: float) -> int:
    """Log-growing width for direct weight uploads: ceil(log2(mu(gamma+t-1)/2 + 1)).

    Equivalently ceil(log2(1/eta + 1)) for the learning rate of the previous
    index, which keeps the quantization noise shrinking with the step size.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    return max(1, math.ceil(math.log2(mu * (gamma + t - 1) / 2.0 + 1.0)))


def downlink_log_bits(t: int, mu: float, gamma: float) -> int:
    """Broadcast width ceil(log2(1 + sqrt(1 - eta*mu)/eta)) at round t."""
    eta = lr_schedule(t, mu, gamma)
    if eta * mu >= 1.0:
        raise ValueError("requires eta * mu < 1")
    return max(1, math.ceil(math.log2(1.0 + math.sqrt(1.0 - eta * mu) / eta)))


def step_log_bits(r: int, f: float, p: float) -> int:
    """Stepwise-logarithmic width floor(log2(f + (r-1)/p)) for 1-based round r."""
    if r < 1:
        raise ValueError("round index r must be >= 1")
    if f < 2 or not p > 0:
        raise ValueError("requires f >= 2 and p > 0")
    return max(1, math.floor(math.log2(f + (r - 1) / p)))


def schedule_bits(spec: ScheduleSpec, t: int, mu: float, gamma: float) -> int:
    """Bit-width for 0-based round ``t`` under a schedule."""
    if spec.kind is ScheduleKind.CONSTANT:
        return spec.bits
    if spec.kind is ScheduleKind.WEIGHT_LOG:
        return weight_uplink_bits(t + 1, mu, gamma)
    if spec.kind is ScheduleKind.DOWNLINK_LOG:
        return downlink_log_bits(t, mu, gamma)
    return step_log_bits(t + 1, spec.f, spec.p)


# ---------------------------------------------------------------------------
# Random-stream addressing (public so reference loops can reproduce runs)
# ---------------------------------------------------------------------------

# written to manifest.json; a new value means every run draws differently.
# The engine's streams are Philox; data generation and analysis keep substream.
STREAM_SCHEME = "philox-round-client/k-smallest-keys/seedsequence-data-analysis"


def round_stream(seed: int, t: int) -> np.random.Generator:
    """Round ``t``'s server draws: the client selection, then the broadcast."""
    return philox_stream(seed, ROUND, t)


def client_stream(seed: int, t: int, client: int) -> np.random.Generator:
    """``client``'s draws in round ``t``: its ``E x n`` batch keys, then its
    upload's ``d`` uniforms."""
    return philox_stream(seed, CLIENT, t, client)


# ---------------------------------------------------------------------------
# Round primitives
# ---------------------------------------------------------------------------

def sample_clients(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform K-subset of [0, n), sorted: the k smallest of n uniform keys."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return k_subset(rng.random(n), k)


def aggregate_weights(uploads: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Unweighted mean of the uploaded (dequantized) weight vectors, given as
    a sequence of vectors or as a ``(K, d)`` block."""
    if len(uploads) == 0:
        raise ValueError("no uploads to aggregate")
    # row-major, so the sum adds rows in client order however it was built
    stack = np.ascontiguousarray(uploads, dtype=np.float64)
    if stack.ndim != 2:
        raise ValueError("uploads must share one dimension")
    return stack.sum(axis=0) / stack.shape[0]


def aggregate_differentials(prev_global: np.ndarray,
                            uploads: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Previous global plus the mean of the uploaded differentials."""
    return np.asarray(prev_global, dtype=np.float64) + aggregate_weights(uploads)


def _link_spec(config: FederationConfig, bits: int, symmetric: bool,
               scale: float) -> qz.QuantizerSpec:
    """A symmetric grid of half-range ``scale``, or a pipeline of gain
    ``scale`` in the configured rounding (enhanced at one bit if configured)."""
    if symmetric:
        return qz.QuantizerSpec.symmetric_grid(scale, bits)
    return qz.QuantizerSpec.tuned(bits, scale, config.rounding,
                                  bits == 1 and config.one_bit_enhanced)


def _check_weight_bound(rows: np.ndarray, config: FederationConfig,
                        t: int = 0, clients: Sequence[int] | None = None) -> None:
    """Abort when a scale derived from ``weight_bound`` would clamp: the
    broadcast vector, or upload rows of ``clients`` in round ``t``.  Rows are
    checked in order: the first row over the bound or non-finite decides, and
    a NaN row (never over the bound) falls through to the quantizer's error."""
    peaks = np.max(np.abs(np.atleast_2d(rows)), axis=1)
    first = np.flatnonzero(~(peaks <= config.weight_bound))[:1]
    if first.size and peaks[first[0]] > config.weight_bound:
        who = ("broadcast" if clients is None
               else f"round {t} client {clients[first[0]]}: local weight")
        raise AssumptionViolation(
            f"{who} magnitude {peaks[first[0]]:.6g} exceeds weight_bound "
            f"{config.weight_bound:.6g}"
        )


def broadcast(
    w_global: np.ndarray,
    config: FederationConfig,
    bits: int,
    rng: np.random.Generator | None,
    frozen_extra_gains: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Produce the model delivered to every selected client this round.

    One quantization draw is shared by all recipients; a float downlink
    draws nothing, takes ``rng=None`` and delivers ``w_global`` itself, not a
    copy.  A quantized downlink is the one-layer case of the layered one.  A
    layered downlink ignores ``grid`` and ``structure``: it quantizes each
    layer of ``config.layer_bounds()`` on the pipeline, with extra gains set
    from each layer's 90th-percentile magnitude, or ``frozen_extra_gains``
    when given (static layered quantization).  Returns the delivered model
    and the accounted broadcast bits.
    """
    if config.downlink_mode is DownlinkMode.FLOAT:
        return w_global, qz.float_bits(w_global.size)

    base, symmetric = 2.0 ** (bits - 1), False
    if config.downlink_mode is DownlinkMode.LAYERED:
        # per-layer pipeline gains matched to each layer's magnitude
        layers, extras = config.layer_bounds(), frozen_extra_gains
        if extras is None:
            extras = qz.layered_gains(w_global, layers, bits)[1]
        scales = base * extras
    else:
        layers = ((0, w_global.size),)
        if config.grid is qz.GridKind.SYMMETRIC:
            _check_weight_bound(w_global, config)
            symmetric, scales = True, (config.weight_bound,)
        elif config.structure is qz.Structure.NATIVE:
            scales = (base,)
        else:
            scales = base * qz.layered_gains(w_global, layers, bits)[1]
    delivered = np.empty_like(w_global)
    for (start, stop), scale in zip(layers, scales):
        spec = _link_spec(config, bits, symmetric, float(scale))
        delivered[start:stop] = qz.quantize_vector(
            w_global[start:stop], spec, rng).dequantize()
    total_bits = sum(qz.wire_bits(stop - start, bits) for start, stop in layers)
    return delivered, total_bits


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

@dataclass
class FederationState:
    w_global: np.ndarray
    model: LossModel
    optimum: OptimumInfo
    pooled: ClientDataset
    # client k's samples are pooled rows starts[k] : starts[k] + sizes[k]
    starts: tuple[int, ...] = ()
    sizes: tuple[int, ...] = ()
    uplink_bits_cum: int = 0
    downlink_bits_cum: int = 0
    # static layered quantization: the extra gains of the initial model, kept
    # for every round's broadcast
    frozen_extra_gains: np.ndarray | None = None
    # Philox generators each round re-keys: its round stream, then one per client
    pool: tuple[np.random.Generator, ...] = ()


def build_problem(config: FederationConfig) -> tuple[LossModel, list[ClientDataset]]:
    """Construct the synthetic model and client datasets a config describes."""
    if config.model is LossKind.QUADRATIC:
        model = LossModel(LossKind.QUADRATIC)
        datasets = gen_quadratic_clients(
            config.num_clients, config.dimension, config.spread,
            seed=config.seed, samples_per_client=config.samples_per_client,
            noise_std=config.noise_std,
        )
        return model, datasets
    model = LossModel(LossKind.LOGISTIC, config.regularization)
    scales = None
    if config.layer_feature_scales is not None:
        scales = np.repeat(np.asarray(config.layer_feature_scales, dtype=np.float64),
                           np.asarray(config.layer_sizes))
    source = gen_logistic_dataset(
        config.num_clients * config.samples_per_client, config.dimension,
        seed=config.seed, feature_scales=scales,
    )
    return model, partition_iid(source, config.num_clients, seed=config.seed + 1)


def check_smoothness(config: FederationConfig, optimum: OptimumInfo) -> None:
    """Reject a ``lipschitz`` below the smoothness estimate the optimum solver
    used: the step-size offset ``gamma`` would not be backed by it."""
    if config.lipschitz < optimum.smoothness:
        raise ConfigError(f"lipschitz {config.lipschitz:.6g} is below the problem's "
                          f"smoothness estimate {optimum.smoothness:.6g}")


def init_state(
    config: FederationConfig,
    model: LossModel | None = None,
    datasets: list[ClientDataset] | None = None,
) -> FederationState:
    """Solve the optimum oracle and set up the zero-initialized global model,
    the static layered gains (fixed from that model at round 0's downlink
    width) and the round streams' generator pool.  A problem built here from
    the config is checked against the config's ``lipschitz``; a caller that
    supplies ``model`` and ``datasets`` owns that check."""
    if (model is None) != (datasets is None):
        raise ValueError("supply both model and datasets, or neither")
    built = model is None
    if built:
        model, datasets = build_problem(config)
    optimum = solve_optimum(model, datasets)
    if built:
        check_smoothness(config, optimum)
    w0 = np.zeros(config.dimension)
    frozen = None
    if config.downlink_mode is DownlinkMode.LAYERED and config.lq_static:
        gamma = gamma_offset(config.mu, config.lipschitz, config.local_steps)
        bits = schedule_bits(config.downlink_schedule, 0, config.mu, gamma)
        frozen = qz.layered_gains(w0, config.layer_bounds(), bits)[1]
    sizes = tuple(ds.size for ds in datasets)
    starts = tuple(int(a) for a in np.cumsum((0,) + sizes[:-1]))
    pool = tuple(np.random.Generator(np.random.Philox(key=0))
                 for _ in range(config.clients_per_round + 1))
    return FederationState(
        w_global=w0, model=model, optimum=optimum,
        pooled=pooled_dataset(datasets), starts=starts, sizes=sizes,
        frozen_extra_gains=frozen, pool=pool,
    )


def run_round(
    state: FederationState, config: FederationConfig, t: int
) -> tuple[FederationState, RoundRecord]:
    """Execute round ``t``: download, local training, upload, aggregation."""
    gamma = gamma_offset(config.mu, config.lipschitz, config.local_steps)
    eta = lr_schedule(t, config.mu, gamma)

    if config.downlink_mode is DownlinkMode.FLOAT:
        bits_down = qz.FLOAT_BITS_PER_COORD
    else:
        bits_down = schedule_bits(config.downlink_schedule, t, config.mu, gamma)
    if config.uplink_mode is UplinkMode.FLOAT:
        bits_up = qz.FLOAT_BITS_PER_COORD
    else:
        bits_up = schedule_bits(config.uplink_schedule, t, config.mu, gamma)

    server_rng = rekey(state.pool[0], config.seed, ROUND, t)
    selected = sample_clients(config.num_clients, config.clients_per_round, server_rng)

    quantized_down = config.downlink_mode is not DownlinkMode.FLOAT
    delivered, down_bits = broadcast(
        state.w_global, config, bits_down, server_rng if quantized_down else None,
        frozen_extra_gains=state.frozen_extra_gains,
    )

    clients = [int(c) for c in selected]
    rngs = [rekey(rng, config.seed, CLIENT, t, c)
            for rng, c in zip(state.pool[1:], clients)]
    w_locals = local_train_clients(
        delivered, state.model, state.pooled,
        [state.starts[c] for c in clients], [state.sizes[c] for c in clients],
        config.local_steps, config.batch_size, eta, rngs,
    )
    dim = w_locals.shape[1]
    differential = config.uplink_mode is UplinkMode.DIFFERENTIAL
    if config.uplink_mode is UplinkMode.FLOAT:
        uploads = w_locals
        up_bits = len(clients) * qz.float_bits(dim)
    else:
        if differential:
            # each row on its own scale: a symmetric grid over the row's peak
            # for stochastic rounding, the row's differential gain for nearest
            rows = w_locals - delivered
            peaks = np.abs(rows).max(axis=1)
            symmetric = config.rounding is qz.Rounding.STOCHASTIC
            scales = (np.where(peaks == 0.0, 1.0, peaks) if symmetric
                      else np.array([qz.differential_gain(row, bits_up) for row in rows]))
        else:
            rows, symmetric = w_locals, config.grid is qz.GridKind.SYMMETRIC
            tuned = config.structure is qz.Structure.TUNED
            if symmetric or tuned:
                _check_weight_bound(rows, config, t, clients)
            scale = (config.weight_bound if symmetric
                     else 2.0 ** (bits_up - 1) / (config.weight_bound if tuned else 1.0))
            scales = np.full(len(clients), scale)
        # the spec fixes the family only; each row's scale replaces its own
        spec = _link_spec(config, bits_up, symmetric, 1.0)
        uploads = qz.quantize_vector(rows, spec, rngs, scales).dequantize()
        if differential:
            uploads[peaks == 0.0] = 0.0  # an all-zero row is sent as zeros
        up_bits = len(clients) * qz.wire_bits(dim, bits_up)

    if differential:
        new_global = aggregate_differentials(delivered, uploads)
    else:
        new_global = aggregate_weights(uploads)

    train_loss = loss(state.model, new_global, state.pooled.features,
                      state.pooled.labels)
    record = RoundRecord(
        round=t,
        eta=eta,
        bits_up=bits_up,
        bits_down=bits_down,
        train_loss=train_loss,
        gap=train_loss - state.optimum.f_star,
        uplink_bits_cum=state.uplink_bits_cum + up_bits,
        downlink_bits_cum=state.downlink_bits_cum + down_bits,
    )
    new_state = FederationState(
        w_global=new_global, model=state.model, optimum=state.optimum,
        pooled=state.pooled, starts=state.starts, sizes=state.sizes,
        uplink_bits_cum=record.uplink_bits_cum,
        downlink_bits_cum=record.downlink_bits_cum,
        frozen_extra_gains=state.frozen_extra_gains, pool=state.pool,
    )
    return new_state, record


def run_federation(
    config: FederationConfig,
    model: LossModel | None = None,
    datasets: list[ClientDataset] | None = None,
    observer: Callable[[int, np.ndarray], None] | None = None,
) -> list[RoundRecord]:
    """Run all configured rounds; deterministic given the config seed.
    ``observer(t, w)`` sees the global model after round ``t``; the engine
    never writes to that array again."""
    state = init_state(config, model, datasets)
    records: list[RoundRecord] = []
    for t in range(config.rounds):
        state, record = run_round(state, config, t)
        records.append(record)
        if observer is not None:
            observer(t, state.w_global)
    return records
