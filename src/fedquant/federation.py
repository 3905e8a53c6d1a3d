"""Federated averaging engine with quantized uplink/downlink communication.

Each round: the server broadcasts the global model to a sampled subset of
clients (optionally quantized, one draw shared by all recipients), every
selected client runs local mini-batch SGD, uploads either its weights or its
weight differential (optionally quantized), and the server averages the
uploads.  The global model is a plain array; a layered broadcast takes its
layer layout from ``FederationConfig.layer_bounds``, and its static gains
(``lq_static``) are fixed once by :func:`init_state`.  A round's randomness
is drawn from its ``ROUND`` stream and its clients' ``CLIENT`` streams under
the master seed (``streams``), so results are independent of execution
order: round t re-keys the ``clients_per_round + 1`` generators that
:func:`init_state` pools on the state and draws from each exactly once,
``N + d`` uniforms from the round stream and ``E * n_k + d`` from client
k's.  :func:`build_problem` draws the data from the seed's ``DATA`` and
``SPLIT`` streams.

No draw depends on the model, so :func:`plan_rounds` makes every
model-independent input of a block of rounds ahead of the arithmetic: it
draws each stream once, straight into the plan, selects every round's
clients in one call, turns every batch key into pooled row indices in one
call and those into what local SGD reads (``models.batch_inputs``) in one
more, and sets each round's learning rate and link widths.
:func:`run_federation` plans up to ``PLAN_KEYS`` batch keys at a time, and
:func:`run_round` reads its row of the plan (or plans its own round), so the
round loop runs only the model's arithmetic: the broadcast, the local steps,
the upload, the aggregation and the loss.  The kernels take slices of the
plan, never a generator.

A round runs its K selected clients as one array program: local SGD advances
a ``(K, d)`` block of weights (``models.local_train_clients``), the uploads
are quantized as one ``(K, d)`` block, and the block is averaged directly.
Each client still draws only from its own stream, so every row is
bit-identical to running that client alone.  One rule, :class:`Link`,
decides what each link reads of the config and how it rounds and scales.
Both links send through one function that takes every decision from it: it
builds one spec for the link's family and width, sets one scale per row (or
per coordinate, from its layer), then makes one ``quantizer.transmit`` call,
which returns the decoded values straight from the quantizer's one kernel:
the round never builds the wire form (``quantize_vector``), since it
serializes nothing and accounts each link's bits by formula.  Differential
uploads have one rule, :func:`differential_uploads`: the symmetric grid over
each row's own peak, at either rounding, which the moment verifier in
``analysis`` checks on the same path.

Link cost accounting: a quantized vector costs ``dim * bits`` payload bits
plus a 17-byte gain header; unquantized vectors cost 32 bits per coordinate.
Downlink cost is counted once per round (broadcast), uplink once per client.
"""

from __future__ import annotations

import functools
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
    batch_inputs,
    local_train_clients,
    loss,
    pooled_dataset,
    solve_optimum,
)
from .data import gen_logistic_dataset, gen_quadratic_clients, partition_iid
from .streams import CLIENT, ROUND, k_subset, rekey

__all__ = [
    "UplinkMode",
    "DownlinkMode",
    "Structure",
    "ScheduleKind",
    "ScheduleSpec",
    "FederationConfig",
    "config_reads",
    "describe_run",
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
    "RoundPlan",
    "plan_rounds",
    "aggregate_weights",
    "aggregate_differentials",
    "differential_uploads",
    "broadcast",
    "build_problem",
    "check_smoothness",
    "init_state",
    "run_round",
    "run_federation",
    "STREAM_SCHEME",
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


class Structure(Enum):
    """A config's pipeline gain: native fixes G = 2^(B-1); tuned lets the
    engine scale it (by the weight bound, or to the vector's magnitude)."""

    NATIVE = "native"
    TUNED = "tuned"


class ScheduleKind(Enum):
    CONSTANT = "constant"
    WEIGHT_LOG = "weight_log"
    DOWNLINK_LOG = "downlink_log"
    STEP_LOG = "step_log"


def _check_finite(fields: dict[str, float | None]) -> None:
    """Reject a non-finite float config value, naming its key."""
    for key, value in fields.items():
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")


@dataclass(frozen=True)
class ScheduleSpec:
    """Bit-width schedule; every produced width is an integer >= 1."""

    kind: ScheduleKind
    bits: int | None = None
    f: float | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        _check_finite({"schedule f": self.f, "schedule p": self.p})
        if self.kind is ScheduleKind.CONSTANT:
            if self.bits is None or not 1 <= self.bits <= qz.MAX_BITS:
                raise ConfigError("constant schedule requires bits >= 1 and "
                                  f"<= {qz.MAX_BITS}")
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
    structure: Structure = Structure.TUNED
    grid: qz.GridKind = qz.GridKind.SYMMETRIC
    weight_bound: float = 1.0
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
        _check_finite({key: getattr(self, key) for key in (
            "mu", "lipschitz", "weight_bound", "regularization", "spread", "noise_std")})
        _check_finite({f"layer_feature_scales entry {i}": scale
                       for i, scale in enumerate(self.layer_feature_scales or ())})
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
        # rounding = nearest must reach every quantized link
        if self.rounding is qz.Rounding.NEAREST:
            if "rounding" not in config_reads(self):
                raise ConfigError(f"rounding is not read by {describe_run(self)}")
            for link in self.links:
                if link.scale and "rounding" not in link.reads:
                    raise ConfigError(f"rounding=nearest does not reach the {link.name}: a "
                                      f"{link.mode.value} {link.name} on the symmetric grid "
                                      "always rounds stochastically")
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
        # every schedule's width grows with t, so the last round's is the widest
        gamma = gamma_offset(self.mu, self.lipschitz, self.local_steps)
        for link in self.links:
            if link.scale and self.rounds and schedule_bits(
                    link.schedule, self.rounds - 1, self.mu, gamma) > qz.MAX_BITS:
                raise ConfigError(f"{link.name} schedule exceeds {qz.MAX_BITS} bits "
                                  f"by round {self.rounds - 1}")

    @functools.cached_property
    def links(self) -> tuple[Link, Link]:
        """The run's uplink and downlink."""
        return Link(self, "uplink"), Link(self, "downlink")

    def layer_bounds(self) -> tuple[tuple[int, int], ...]:
        if self.layer_sizes is None:
            return ((0, self.dimension),)
        bounds, cursor = [], 0
        for size in self.layer_sizes:
            bounds.append((cursor, cursor + size))
            cursor += size
        return tuple(bounds)


# the {link}_* keys a schedule kind reads, if any
_SCHEDULE_PARTS = {ScheduleKind.CONSTANT: ("bits",), ScheduleKind.STEP_LOG: ("f", "p")}


class Link:
    """One link of a run, by the one rule for both links: ``reads``, the
    config keys it reads: the family keys of its mode (a weight uplink or
    quantized downlink reads ``grid``, and on the pipeline ``structure`` and
    ``rounding``) and, when quantized, its ``{link}_*`` schedule keys;
    ``rounding``, stochastic unless it reads ``rounding``; ``scale``, ``None``
    on a float link, else ``peak`` or ``bound`` (the symmetric grid over each
    row's peak or over ``weight_bound``), ``native`` (the pipeline gain G =
    2^(B-1)) or a tuned gain, which differs by link: ``bounded`` (G over
    ``weight_bound``) on an upload, ``layers`` (G times each layer's extra
    gain) on a broadcast."""

    def __init__(self, config: FederationConfig, name: str) -> None:
        self.name, self.mode = name, getattr(config, f"{name}_mode")
        self.schedule = getattr(config, f"{name}_schedule")
        if self.mode in (UplinkMode.FLOAT, DownlinkMode.FLOAT):
            self.scale, reads = None, ()
        elif self.mode is UplinkMode.DIFFERENTIAL:
            self.scale, reads = "peak", ("rounding",)
        elif self.mode is DownlinkMode.LAYERED:
            self.scale, reads = "layers", ("rounding", "lq_static", "layer_sizes")
        elif config.grid is qz.GridKind.SYMMETRIC:
            self.scale, reads = "bound", ("grid",)
        else:
            tuned = "bounded" if name == "uplink" else "layers"
            self.scale = "native" if config.structure is Structure.NATIVE else tuned
            reads = ("grid", "structure", "rounding")
        if self.scale:  # its schedule, and the parts of it its kind reads
            parts = ("schedule", *_SCHEDULE_PARTS.get(self.schedule.kind, ()))
            reads += tuple(f"{name}_{part}" for part in parts)
        self.reads = frozenset(reads)
        self.rounding = config.rounding if "rounding" in reads else qz.Rounding.STOCHASTIC


# Config-file keys every run reads.  Not every run reads weight_bound, but
# ``fedquant bound`` does for every variant but the differential one.
_ALWAYS_READ = frozenset({
    "num_clients", "clients_per_round", "local_steps", "rounds", "batch_size", "mu",
    "lipschitz", "uplink_mode", "downlink_mode", "weight_bound", "seed", "model",
    "dimension", "samples_per_client",
})


def config_reads(config: FederationConfig) -> frozenset[str]:
    """The config-file keys a run of ``config`` reads; it ignores every other.
    Each :class:`Link` names the keys it reads."""
    logistic = config.model is LossKind.LOGISTIC
    reads = {key for key, read in (
        ("layer_sizes", config.layer_feature_scales is not None),
        ("layer_feature_scales", logistic),
        ("regularization", logistic),
        ("spread", not logistic),
        ("noise_std", not logistic),
    ) if read}
    return _ALWAYS_READ.union(reads, *(link.reads for link in config.links))


def describe_run(config: FederationConfig) -> str:
    """The run's model and links, e.g. ``a quadratic run with a weight uplink
    (constant schedule) and a float downlink on the pipeline grid``."""
    up, down = (f"a {link.mode.value} {link.name}"
                + (f" ({link.schedule.kind.value} schedule)" if link.scale else "")
                for link in config.links)
    grid = f" on the {config.grid.value} grid" if "grid" in config_reads(config) else ""
    return f"a {config.model.value} run with {up} and {down}{grid}"


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


# written to manifest.json; a new value means every run draws differently.
# Every stream, the engine's and those of data, analysis and the verifiers,
# is a Philox stream addressed (seed, role, t, client) (``streams``).
STREAM_SCHEME = "philox-seed-role-t-client/k-smallest-keys"


# ---------------------------------------------------------------------------
# Round primitives
# ---------------------------------------------------------------------------

def sample_clients(n: int, k: int, keys: np.ndarray) -> np.ndarray:
    """Uniform K-subset of [0, n), sorted: the k smallest of the n uniform
    ``keys``, one subset per row of a ``(rounds, n)`` key block."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if np.ndim(keys) not in (1, 2) or np.shape(keys)[-1] != n:
        raise ValueError("need one key per client")
    return k_subset(keys, k)


def aggregate_weights(uploads: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Unweighted mean of the uploaded (dequantized) weight vectors, given as
    a sequence of vectors or as a ``(K, d)`` block."""
    if len(uploads) == 0:
        raise ValueError("no uploads to aggregate")
    # row-major, so the sum adds rows in client order however it was built
    stack = np.ascontiguousarray(uploads, dtype=np.float64)
    if stack.ndim != 2:
        raise ValueError("uploads must share one dimension")
    return np.add.reduce(stack, axis=0) / stack.shape[0]


def aggregate_differentials(prev_global: np.ndarray,
                            uploads: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Previous global plus the mean of the uploaded differentials."""
    return np.asarray(prev_global, dtype=np.float64) + aggregate_weights(uploads)


@functools.lru_cache(maxsize=None)
def _link_spec(bits: int, symmetric: bool, rounding: qz.Rounding) -> qz.QuantizerSpec:
    """A link's quantizer at one width, built once (a spec is immutable): the
    symmetric grid, or the pipeline, which at one bit is the enhanced one."""
    if symmetric:
        return qz.QuantizerSpec(bits, rounding, qz.GridKind.SYMMETRIC)
    return qz.QuantizerSpec(bits, rounding, one_bit_enhanced=bits == 1)


def differential_uploads(rows: np.ndarray, bits: int, rounding: qz.Rounding,
                         uniforms: np.ndarray | None) -> np.ndarray:
    """Decoded differential uploads of a ``(K, d)`` block, one quantizer call:
    each row on the symmetric grid over its own peak (``grid`` and
    ``structure`` do not apply), rounded as ``rounding`` says;
    nearest reads no uniforms.  An all-zero row is sent as zeros.

    Each row is quantized scaled by the power of two that puts its peak in
    [0.5, 1), then scaled back.  The scaling is exact, so a row decodes as it
    would unscaled, but a tiny peak's gain (2^B - 1)/peak cannot overflow to
    infinity (which decodes every codeword to zero) nor its step go subnormal.
    The scaled peak is the mantissa ``np.frexp`` returns with the exponent.
    """
    peaks = np.abs(rows).max(axis=1)
    zero = peaks == 0.0
    mantissas, exps = np.frexp(peaks)
    mantissas[zero] = 1.0  # any positive range sends zeros as zeros
    exps = exps[:, None]
    uploads = qz.transmit(np.ldexp(rows, -exps), _link_spec(bits, True, rounding),
                          mantissas, uniforms)
    uploads = np.ldexp(uploads, exps)
    uploads[zero] = 0.0
    return uploads


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


def _send(link: Link, x: np.ndarray, bits: int, uniforms: np.ndarray | None,
          config: FederationConfig, frozen: np.ndarray | None = None,
          t: int = 0, clients: Sequence[int] | None = None) -> tuple[np.ndarray, int]:
    """What ``link`` delivers of ``x`` at ``bits``, and its accounted bits:
    ``x`` itself on a float link, else one quantizer call with one scale a
    row of a ``(K, d)`` upload block or a layer of a broadcast vector.  ``t``
    and ``clients`` name an upload row that a ``weight_bound`` scale clamps."""
    if link.scale is None:
        return x, qz.float_bits(x.size)
    layers = config.layer_bounds() if "layer_sizes" in link.reads else ((0, x.shape[-1]),)
    sizes = [stop - start for start, stop in layers]
    sent = (len(x) if x.ndim == 2 else 1) * sum(qz.wire_bits(size, bits) for size in sizes)
    if link.scale == "peak":
        return differential_uploads(x, bits, link.rounding, uniforms), sent
    base = 2.0 ** (bits - 1)
    if link.scale in ("bound", "bounded"):
        _check_weight_bound(x, config, t, clients)
    scales = {"bound": config.weight_bound, "native": base,
              "bounded": base / config.weight_bound}.get(link.scale)
    if scales is None:  # each layer's extra gain matched to its magnitude, unless frozen
        scales = base * (qz.layered_gains(x, layers, bits)[1] if frozen is None else frozen)
    scales = np.full(len(x), scales) if x.ndim == 2 else np.repeat(scales, sizes)
    spec = _link_spec(bits, link.scale == "bound", link.rounding)
    return qz.transmit(x, spec, scales, uniforms), sent


def broadcast(
    w_global: np.ndarray,
    config: FederationConfig,
    bits: int,
    uniforms: np.ndarray | None,
    frozen_extra_gains: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """The model delivered to every selected client this round, and the
    accounted broadcast bits: one quantization on ``uniforms`` (one per
    coordinate), shared by all recipients.  A float downlink delivers
    ``w_global`` itself, not a copy; it and nearest rounding read no
    uniforms.  A layered downlink sets each layer's extra gain from its
    90th-percentile magnitude, or takes ``frozen_extra_gains`` (static
    layered quantization); a tuned quantized downlink is its one-layer case.
    """
    return _send(config.links[1], w_global, bits, uniforms, config, frozen_extra_gains)


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
    return model, partition_iid(source, config.num_clients, seed=config.seed)


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
    frozen, downlink = None, config.links[1]
    if config.lq_static and "lq_static" in downlink.reads:
        gamma = gamma_offset(config.mu, config.lipschitz, config.local_steps)
        bits = schedule_bits(downlink.schedule, 0, config.mu, gamma)
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


# A plan holds at most this many batch keys (2^14 doubles, 128 KB), so a run
# plans max(1, PLAN_KEYS // (K * E * n_max)) rounds at a time.  It also holds
# the block's batch inputs: 64 KB of batch means on the README testbed, about
# 1 MB of gathered batches on a 40-dimensional logistic model with batches of 20.
PLAN_KEYS = 2 ** 14


@dataclass(frozen=True)
class RoundPlan:
    """Every model-independent input of rounds ``t0 .. t0 + count - 1``,
    made before any of them runs.  Row ``i`` of each block, and entry ``i``
    of ``schedule``, is round ``t0 + i``."""

    t0: int
    server: np.ndarray    # (count, N + d): selection keys, then broadcast uniforms
    selected: np.ndarray  # (count, K): sorted client ids
    rows: np.ndarray      # (count, K, E, bs): pooled rows of each local step's batch
    inputs: tuple[np.ndarray, ...]  # models.batch_inputs of rows
    uniforms: np.ndarray  # (count, K, d): each selected client's upload uniforms
    schedule: tuple[tuple[float, int, int], ...]  # (eta, bits_up, bits_down)


def plan_rounds(state: FederationState, config: FederationConfig, t0: int,
                count: int) -> RoundPlan:
    """Draw, select, index and schedule rounds ``t0 .. t0 + count - 1`` in
    one pass.

    Each round re-keys ``pool[0]`` to ``(seed, ROUND, t)`` and draws its
    ``N + d`` uniforms straight into ``server``; one :func:`sample_clients`
    call selects every round's clients; selected slot k re-keys ``pool[1 +
    k]`` to ``(seed, CLIENT, t, c)`` and draws its ``E * n_c + d`` uniforms,
    batch keys then upload uniforms, straight into its row of a ``(count, K,
    E * n_max + d)`` draw block.  The batch keys are that block's head seen as
    ``(count, K, E, n_max)`` and the upload uniforms its tail; a client with
    fewer samples than the largest re-lays its row, keys padded with
    ``+inf`` and uniforms moved to the tail.  The key block becomes pooled row
    indices in one ``k_subset`` call, and those become the batch inputs in
    one ``models.batch_inputs`` call.  Every draw is the one a single round
    makes on its own, so a run's records do not depend on how it is planned.
    """
    n, k, dim = config.num_clients, config.clients_per_round, config.dimension
    steps, rounds = config.local_steps, range(t0, t0 + count)
    server = np.empty((count, n + dim))
    for t, row in zip(rounds, server):
        rekey(state.pool[0], config.seed, ROUND, t).random(out=row)
    selected = sample_clients(n, k, server[:, :n])
    sizes = np.asarray(state.sizes)[selected]
    if not 1 <= config.batch_size <= sizes.min():
        raise ValueError("batch size must be in [1, dataset size]")
    n_max = max(state.sizes)
    head = steps * n_max
    draws = np.empty((count, k, head + dim))
    for t, clients, block in zip(rounds, selected.tolist(), draws):
        for rng, c, row in zip(state.pool[1:], clients, block):
            size = state.sizes[c]
            rekey(rng, config.seed, CLIENT, t, c).random(out=row[:steps * size + dim])
            if size < n_max:
                drawn = row[:steps * size + dim].copy()
                row[head:] = drawn[steps * size:]
                laid = row[:head].reshape(steps, n_max)
                laid[:, :size] = drawn[:steps * size].reshape(steps, size)
                laid[:, size:] = np.inf
    starts = np.asarray(state.starts, dtype=np.int64)[selected]
    rows = k_subset(draws[..., :head].reshape(count, k, steps, n_max),
                    config.batch_size) + starts[:, :, None, None]
    gamma = gamma_offset(config.mu, config.lipschitz, config.local_steps)

    def widths(link: Link) -> list[int]:
        if link.scale is None:
            return [qz.FLOAT_BITS_PER_COORD] * count
        return [schedule_bits(link.schedule, t, config.mu, gamma) for t in rounds]
    schedule = tuple(zip([lr_schedule(t, config.mu, gamma) for t in rounds],
                         *map(widths, config.links)))
    return RoundPlan(t0, server, selected, rows,
                     batch_inputs(state.model, state.pooled, rows),
                     draws[..., head:], schedule)


def run_round(
    state: FederationState, config: FederationConfig, t: int,
    plan: RoundPlan | None = None,
) -> tuple[FederationState, RoundRecord]:
    """Execute round ``t``: download, local training, upload, aggregation.
    Its draws, learning rate and widths come from ``plan``, or from a
    one-round plan made here."""
    if plan is None:
        plan = plan_rounds(state, config, t, 1)
    i = t - plan.t0
    if not 0 <= i < len(plan.selected):
        raise ValueError(f"round {t} is not in the plan")
    eta, bits_up, bits_down = plan.schedule[i]

    # a float or nearest link ignores its uniforms
    delivered, down_bits = broadcast(
        state.w_global, config, bits_down, plan.server[i, config.num_clients:],
        frozen_extra_gains=state.frozen_extra_gains,
    )
    w_locals = local_train_clients(delivered, state.model,
                                   tuple(part[i] for part in plan.inputs), eta)
    differential = config.uplink_mode is UplinkMode.DIFFERENTIAL
    uploads, up_bits = _send(config.links[0], w_locals - delivered if differential else w_locals,
                             bits_up, plan.uniforms[i], config, t=t, clients=plan.selected[i])

    new_global = (aggregate_differentials(delivered, uploads) if differential
                  else aggregate_weights(uploads))

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
    block = max(1, PLAN_KEYS // (config.clients_per_round * config.local_steps
                                 * max(state.sizes)))
    records: list[RoundRecord] = []
    for t in range(config.rounds):
        if t % block == 0:
            plan = plan_rounds(state, config, t, min(block, config.rounds - t))
        state, record = run_round(state, config, t, plan)
        records.append(record)
        if observer is not None:
            observer(t, state.w_global)
    return records
