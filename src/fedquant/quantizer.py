"""Low-bit quantizers for exchanging model vectors over a narrow link.

Two quantizer families are implemented:

* ``PIPELINE`` -- the classic fixed-point chain: scale up by a gain ``G``,
  round to an integer, clamp to the two's-complement range
  ``[-2^(B-1), 2^(B-1)-1]``, scale down by ``G``.  Rounding is either nearest
  (half always rounds up) or stochastic (unbiased).
* ``SYMMETRIC`` -- a uniform grid of ``2^B`` codepoints on ``[-M, +M]`` with
  stochastic rounding between the two bracketing codepoints.  On its domain it
  is exactly unbiased with per-coordinate variance at most ``(M/(2^B-1))^2``;
  inputs outside ``[-M, M]`` are an error because clamping would bias it.

A special enhanced one-bit mode maps a scalar to ``+/-1/G`` directly; its
stochastic variant uses ``Pr[+1] = clip((w + 1/G) / (2/G), 0, 1)``, which is
the symmetric two-point grid with saturating probabilities.

Codewords are integers and the dequantized value is always
``codeword / gain``.  Pipeline codewords live in ``[-2^(B-1), 2^(B-1)-1]``;
symmetric-grid and one-bit codewords are the odd integers
``{-(2^B-1), ..., 2^B-1}`` (2^B values, so still B bits of information).

Every family rounds each coordinate to one of two codewords, so one kernel
gives each coordinate's ``(lo, hi, Pr[hi])`` (a two-point distribution, as in
QSGD).  ``quantize_vector`` samples from it -- one vector, or a ``(K, d)``
block with one random stream and optionally one gain or range bound per row
-- and ``expected_sq_error`` sums its closed-form moments.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "Rounding",
    "Structure",
    "GridKind",
    "QuantizerSpec",
    "GridSpec",
    "QuantizedVector",
    "GridRangeError",
    "round_nearest",
    "round_stochastic",
    "clamp_limit",
    "quantize_pipeline",
    "quantize_grid_sr",
    "grid_distribution",
    "grid_moments",
    "quantize_vector",
    "differential_gain",
    "layered_gains",
    "magnitude_percentile",
    "expected_sq_error",
    "serialize",
    "deserialize",
    "wire_bits",
    "float_bits",
    "HEADER_BYTES",
]

HEADER_BYTES = 17  # bits: 1 byte, gain: 8-byte double, length: 8-byte unsigned
FLOAT_BITS_PER_COORD = 32


class Rounding(Enum):
    NEAREST = "nearest"
    STOCHASTIC = "stochastic"


class Structure(Enum):
    """A config's pipeline gain: native fixes G = 2^(B-1); tuned lets the
    engine scale it (by the weight bound, or to the vector's magnitude)."""

    NATIVE = "native"
    TUNED = "tuned"


class GridKind(Enum):
    PIPELINE = "pipeline"
    SYMMETRIC = "symmetric"


class GridRangeError(ValueError):
    """Input magnitude exceeds the symmetric grid's range bound."""


def _require_finite(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"non-finite input: {x!r}")


@dataclass(frozen=True)
class QuantizerSpec:
    """Full description of one quantizer configuration.

    ``range_bound`` is set only for symmetric-grid specs and holds the exact
    grid half-range M; ``gain`` then equals (2^bits - 1) / M up to rounding.
    """

    bits: int
    gain: float
    rounding: Rounding = Rounding.STOCHASTIC
    grid: GridKind = GridKind.PIPELINE
    one_bit_enhanced: bool = False
    range_bound: float | None = None

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if not (self.gain > 0 and math.isfinite(self.gain)):
            raise ValueError("gain must be a positive finite real")
        if self.one_bit_enhanced and self.bits != 1:
            raise ValueError("enhanced one-bit mode requires bits == 1")
        if self.grid is GridKind.SYMMETRIC:
            if self.rounding is not Rounding.STOCHASTIC:
                raise ValueError("symmetric grid supports stochastic rounding only")
            if self.range_bound is None or not self.range_bound > 0:
                raise ValueError("symmetric grid requires a positive range_bound")

    @classmethod
    def tuned(cls, bits: int, gain: float, rounding: Rounding = Rounding.STOCHASTIC,
              one_bit_enhanced: bool = False) -> "QuantizerSpec":
        return cls(bits=bits, gain=gain, rounding=rounding,
                   one_bit_enhanced=one_bit_enhanced)

    @classmethod
    def symmetric_grid(cls, range_bound: float, bits: int) -> "QuantizerSpec":
        gain = (2.0 ** bits - 1.0) / range_bound
        return cls(bits=bits, gain=gain, grid=GridKind.SYMMETRIC,
                   range_bound=range_bound)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of 2^bits codepoints on [-range_bound, +range_bound]."""

    range_bound: float
    bits: int

    def __post_init__(self) -> None:
        if not (self.range_bound > 0 and math.isfinite(self.range_bound)):
            raise ValueError("range_bound must be a positive finite real")
        if self.bits < 1:
            raise ValueError("bits must be >= 1")

    @property
    def step(self) -> float:
        """Spacing between adjacent codepoints, 2M/(2^B - 1)."""
        return 2.0 * self.half_step

    @property
    def half_step(self) -> float:
        return self.range_bound / (2.0 ** self.bits - 1.0)

    def codepoints(self) -> np.ndarray:
        codes = np.arange(2 ** self.bits, dtype=np.int64) * 2 - (2 ** self.bits - 1)
        return codes * self.half_step


@dataclass(frozen=True)
class QuantizedVector:
    """Integer codewords plus the gain needed to dequantize them.

    A block of rows ``(K, d)`` carries either one gain or one gain per row.
    """

    codewords: np.ndarray
    gain: float | np.ndarray
    bits: int
    grid: GridKind = GridKind.PIPELINE

    def __post_init__(self) -> None:
        codes = np.asarray(self.codewords, dtype=np.int64)
        object.__setattr__(self, "codewords", codes)
        if codes.ndim not in (1, 2):
            raise ValueError("codewords must be a vector or a (rows, dim) block")
        gain = np.asarray(self.gain)
        if gain.ndim and (codes.ndim != 2 or gain.shape != codes.shape[:1]):
            raise ValueError("per-row gains need a block with one row per gain")
        if not (gain > 0).all():
            raise ValueError("gain must be positive")
        if self.grid is GridKind.PIPELINE and codes.size:
            lo, hi = -(2 ** (self.bits - 1)), 2 ** (self.bits - 1) - 1
            if not (codes.min() >= lo and codes.max() <= hi):
                raise ValueError(f"pipeline codewords outside [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return int(self.codewords.shape[-1])

    def dequantize(self) -> np.ndarray:
        if np.ndim(self.gain):
            return self.codewords / np.asarray(self.gain)[:, None]
        return self.codewords / self.gain


# ---------------------------------------------------------------------------
# Scalar operations
# ---------------------------------------------------------------------------

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


def quantize_pipeline(
    w: float, spec: QuantizerSpec, rng: np.random.Generator | None = None
) -> tuple[int, float]:
    """Run one scalar through scale-up, rounding, limit, scale-down.

    Returns (codeword, dequantized value).  The engine never calls this: it
    is the scalar reference that the tests compare :func:`quantize_vector`'s
    pipeline family against, draw for draw.
    """
    if spec.grid is not GridKind.PIPELINE:
        raise ValueError("quantize_pipeline requires a pipeline-grid spec")
    _require_finite(w)
    amplified = w * spec.gain
    if spec.rounding is Rounding.NEAREST:
        rounded = round_nearest(amplified)
    else:
        if rng is None:
            raise ValueError("stochastic rounding requires an rng")
        rounded = round_stochastic(amplified, rng)
    code = clamp_limit(rounded, spec.bits)
    return code, code / spec.gain


def grid_distribution(w: float, grid: GridSpec) -> tuple[int, int, float]:
    """Return (lo_code, hi_code, prob_hi) for stochastic rounding of ``w``.

    Codes are the odd-integer codewords; values are ``code * grid.half_step``.
    """
    _require_finite(w)
    if abs(w) > grid.range_bound:
        raise GridRangeError(
            f"|{w}| exceeds grid range bound {grid.range_bound}"
        )
    q = grid.half_step
    n_cells = 2 ** grid.bits - 1
    j0 = int(math.floor((w + grid.range_bound) / (2.0 * q)))
    j0 = min(max(j0, 0), n_cells - 1)
    lo_code = 2 * j0 - n_cells
    p_hi = (w - lo_code * q) / (2.0 * q)
    p_hi = min(max(p_hi, 0.0), 1.0)
    return lo_code, lo_code + 2, p_hi


def grid_moments(w: float, grid: GridSpec) -> tuple[float, float]:
    """Analytic mean and variance of stochastic rounding on the grid.

    Computed by enumerating the two possible outcomes with their
    probabilities.  The variance never exceeds ``grid.half_step ** 2``.
    """
    lo_code, _, p_hi = grid_distribution(w, grid)
    q = grid.half_step
    mean = lo_code * q + p_hi * (2.0 * q)
    var = (2.0 * q) ** 2 * (p_hi * (1.0 - p_hi))
    return mean, var


def quantize_grid_sr(w: float, grid: GridSpec, rng: np.random.Generator) -> float:
    """Stochastically round ``w`` to one of the two bracketing codepoints.

    The engine never calls this: it is the scalar reference for the
    symmetric grid, which the tests compare :func:`quantize_vector` against
    and which the ``analysis`` moment verifiers sample.
    """
    lo_code, hi_code, p_hi = grid_distribution(w, grid)
    code = hi_code if rng.random() < p_hi else lo_code
    return code * grid.half_step


# ---------------------------------------------------------------------------
# Vector operations
# ---------------------------------------------------------------------------

def _outcomes(
    v: np.ndarray, spec: QuantizerSpec, gain: float | np.ndarray,
    m: float | np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each coordinate's two-outcome rounding: codewords ``(lo, hi)`` and
    ``Pr[hi]``, for gain ``gain`` (and, on the symmetric grid, half-range
    ``m``).  Under nearest rounding ``Pr[hi]`` is 0 or 1.  The symmetric
    range check compares the row peaks with ``m`` in one step and locates
    the offending row only when it fails."""
    if spec.one_bit_enhanced:
        lo = np.full(v.shape, -1, dtype=np.int64)
        if spec.rounding is Rounding.NEAREST:
            return lo, -lo, (v >= 0).astype(np.float64)
        inv = 1.0 / gain
        return lo, -lo, ((v + inv) / (2.0 * inv)).clip(0.0, 1.0)

    if spec.grid is GridKind.SYMMETRIC:
        peaks = np.abs(v).max(axis=-1, keepdims=True, initial=0.0)
        if (peaks > m).any():
            peaks = peaks.ravel()
            bounds = np.broadcast_to(np.ravel(m), peaks.shape)
            over = np.flatnonzero(peaks > bounds)
            raise GridRangeError(
                f"vector max magnitude {peaks[over[0]]} exceeds range bound "
                f"{bounds[over[0]]}"
            )
        q = m / (2.0 ** spec.bits - 1.0)
        step = 2.0 * q
        n_cells = 2 ** spec.bits - 1
        j0 = np.floor((v + m) / step).astype(np.int64)
        j0.clip(0, n_cells - 1, out=j0)
        lo = 2 * j0 - n_cells
        return lo, lo + 2, ((v - lo * q) / step).clip(0.0, 1.0)

    amplified = v * gain
    floors = np.floor(amplified)
    frac = amplified - floors
    limit = 2 ** (spec.bits - 1)
    lo = floors.clip(-limit, limit - 1).astype(np.int64)
    hi = (floors + 1).clip(-limit, limit - 1).astype(np.int64)
    if spec.rounding is Rounding.NEAREST:
        return lo, hi, (frac >= 0.5).astype(np.float64)
    return lo, hi, frac


def quantize_vector(
    v: np.ndarray,
    spec: QuantizerSpec,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    scale: np.ndarray | None = None,
) -> QuantizedVector:
    """Quantize coordinate-wise with independent randomness per coordinate.

    ``v`` is one vector ``(d,)`` with one generator, or a block ``(K, d)``
    with one generator per row.  ``scale`` (blocks only) replaces the spec's
    gain -- on the symmetric grid, its range bound -- row by row; the spec
    still fixes the family, width and rounding.  Row k draws
    ``rng[k].random(d)`` in coordinate order, exactly as a one-vector call
    on that row does, so the output is bit-identical however rows are
    batched.  Nearest rounding draws nothing.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError("expected a vector or a (rows, dim) block")
    if not np.isfinite(v).all():
        raise ValueError("non-finite coordinate in input vector")
    stochastic = spec.rounding is Rounding.STOCHASTIC
    if rng is None and stochastic:
        raise ValueError("stochastic rounding requires an rng")
    if v.ndim == 2 and rng is not None and len(rng) != v.shape[0]:
        raise ValueError("a block needs one generator per row")
    symmetric = spec.grid is GridKind.SYMMETRIC
    if scale is None:
        gain, m = spec.gain, spec.range_bound
    else:
        scale = np.asarray(scale, dtype=np.float64)
        if v.ndim != 2 or scale.shape != v.shape[:1]:
            raise ValueError("scale needs a block with one entry per row")
        if not ((scale > 0) & np.isfinite(scale)).all():
            raise ValueError("scale must be positive and finite")
        column = scale[:, None]
        if symmetric:
            gain, m = (2.0 ** spec.bits - 1.0) / column, column
        else:
            gain, m = column, None

    lo, hi, p_hi = _outcomes(v, spec, gain, m)
    if not stochastic:
        take_hi = p_hi
    elif v.ndim == 1:
        take_hi = rng.random(v.size) < p_hi
    else:
        draws = np.empty(v.shape)
        for row, gen in zip(draws, rng):
            gen.random(out=row)
        take_hi = draws < p_hi
    codes = np.where(take_hi, hi, lo)
    grid = GridKind.SYMMETRIC if symmetric or spec.one_bit_enhanced else GridKind.PIPELINE
    return QuantizedVector(codes, gain[:, 0] if np.ndim(gain) else gain, spec.bits, grid)


def differential_gain(d_vec: np.ndarray, bits: int) -> float:
    """Gain 2^(bits-1) / max|d| that maps the vector onto the full signed range.

    An all-zero vector (lossless under any gain) falls back to 2^(bits-1) so
    runs stay deterministic.  The returned gain is nudged by at most one ulp
    so that ``gain * max|d|`` reproduces 2^(bits-1) exactly when IEEE
    arithmetic permits.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    d_vec = np.asarray(d_vec, dtype=np.float64)
    m = float(np.max(np.abs(d_vec))) if d_vec.size else 0.0
    target = 2.0 ** (bits - 1)
    if m == 0.0:
        return target
    g = target / m
    if g * m != target:
        for candidate in (math.nextafter(g, math.inf), math.nextafter(g, -math.inf)):
            if candidate * m == target:
                return candidate
    return g


def magnitude_percentile(values: np.ndarray, fraction: float = 0.9) -> float:
    """Empirical-CDF percentile of |values|: the entry at index ceil(f*n)-1
    of the ascending sort (a fixed rule, no interpolation)."""
    mags = np.sort(np.abs(np.asarray(values, dtype=np.float64)))
    if mags.size == 0:
        raise ValueError("empty value set")
    idx = max(math.ceil(fraction * mags.size) - 1, 0)
    return float(mags[idx])


_MIN_MAGNITUDE = 2.0 ** -30  # stand-in percentile for an all-zero layer
_MAX_EXTRA_EXP = 30


def layered_gains(
    values: np.ndarray, layers: Sequence[tuple[int, int]], bits: int
) -> tuple[float, np.ndarray]:
    """Per-layer gain split G = G_b * G_e.

    The base gain ``G_b = 2^(bits-1)`` is shared by all layers; each layer's
    extra gain is ``G_e = 2^rho`` with ``rho = floor(log2(1/alpha))`` and
    ``alpha`` the 90th-percentile weight magnitude of that layer.  ``rho`` is
    capped at 30 to keep gains bounded on (nearly) all-zero layers.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    base = 2.0 ** (bits - 1)
    extras = np.empty(len(layers), dtype=np.float64)
    for i, (start, stop) in enumerate(layers):
        if stop <= start:
            raise ValueError(f"empty layer range [{start}, {stop})")
        alpha = magnitude_percentile(values[start:stop])
        if alpha <= 0.0:
            alpha = _MIN_MAGNITUDE
        rho = min(math.floor(math.log2(1.0 / alpha)), _MAX_EXTRA_EXP)
        extras[i] = 2.0 ** rho
    return base, extras


def expected_sq_error(v: np.ndarray, spec: QuantizerSpec) -> float:
    """Total expected squared quantization error, summed over coordinates.

    A closed-form sum over each coordinate's two outcomes, the same ones
    :func:`quantize_vector` samples, so the result is deterministic and, under
    nearest rounding, equals the realized error.
    """
    v = np.asarray(v, dtype=np.float64)
    lo, hi, p_hi = _outcomes(v, spec, spec.gain, spec.range_bound)
    return float(np.sum((1.0 - p_hi) * (lo / spec.gain - v) ** 2
                        + p_hi * (hi / spec.gain - v) ** 2))


# ---------------------------------------------------------------------------
# Wire format (byte-count accounting and golden files only)
# ---------------------------------------------------------------------------

def wire_bits(dim: int, bits: int) -> int:
    """Accounted link cost of one quantized vector: payload plus gain header."""
    return dim * bits + HEADER_BYTES * 8


def float_bits(dim: int) -> int:
    """Accounted link cost of one unquantized float32 vector."""
    return dim * FLOAT_BITS_PER_COORD


_SYMMETRIC_FLAG = 0x80  # set in the header's bits byte for odd-integer codewords


def serialize(qv: QuantizedVector) -> bytes:
    """Encode little-endian: header (bits, gain, dim) then packed codewords.

    The header's bits byte also carries the grid family (``_SYMMETRIC_FLAG``).
    Each codeword takes exactly ``bits`` bits, most significant first, as a
    two's-complement integer; the payload is zero-padded only to its last
    byte, so a blob is ``ceil(wire_bits(dim, bits) / 8)`` bytes.
    Symmetric-grid codewords ``c`` are odd; they travel as ``(c - 1) / 2``,
    which spans exactly the signed ``bits``-bit range, so one that is even or
    outside ``±(2^bits - 1)`` is rejected rather than wrapped.
    """
    if qv.codewords.ndim != 1 or np.ndim(qv.gain):
        raise ValueError("serialize takes one vector with one gain")
    if qv.bits >= 64:
        raise ValueError("serialize takes at most 63 bits per codeword")
    symmetric = qv.grid is GridKind.SYMMETRIC
    if symmetric and qv.codewords.size:
        hi = 2 ** qv.bits - 1
        if not (np.all(qv.codewords & 1) and qv.codewords.min() >= -hi
                and qv.codewords.max() <= hi):
            raise ValueError(f"symmetric codewords must be odd and within ±{hi}")
    header = struct.pack("<BdQ", qv.bits | (_SYMMETRIC_FLAG if symmetric else 0),
                         qv.gain, qv.dim)
    transport = (qv.codewords - 1) // 2 if symmetric else qv.codewords
    shifts = np.arange(qv.bits - 1, -1, -1, dtype=np.int64)
    planes = (transport[:, None] >> shifts) & 1
    return header + np.packbits(planes.astype(np.uint8)).tobytes()


def deserialize(data: bytes) -> QuantizedVector:
    """Inverse of :func:`serialize`; the header names the grid family."""
    flagged, gain, dim = struct.unpack_from("<BdQ", data, 0)
    bits = flagged & ~_SYMMETRIC_FLAG
    if bits < 1:
        raise ValueError("header declares zero bits per codeword")
    offset = struct.calcsize("<BdQ")
    expected = offset + (dim * bits + 7) // 8
    if len(data) != expected:
        raise ValueError(f"expected {expected} bytes, got {len(data)}")
    planes = np.unpackbits(np.frombuffer(data, np.uint8, offset=offset))
    weights = np.int64(1) << np.arange(bits - 1, -1, -1, dtype=np.int64)
    unsigned = planes[:dim * bits].reshape(dim, bits) @ weights
    transport = unsigned - ((unsigned >> (bits - 1)) << bits)
    if flagged & _SYMMETRIC_FLAG:
        return QuantizedVector(transport * 2 + 1, gain, bits, GridKind.SYMMETRIC)
    return QuantizedVector(transport, gain, bits)
