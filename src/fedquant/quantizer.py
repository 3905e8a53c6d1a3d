"""Low-bit quantizers for exchanging model vectors over a narrow link.

Two quantizer families are implemented:

* ``PIPELINE`` -- the classic fixed-point chain: scale up by a gain ``G``,
  round to an integer, clamp to the two's-complement range
  ``[-2^(B-1), 2^(B-1)-1]``, scale down by ``G``.  Rounding is either nearest
  (half always rounds up) or stochastic (unbiased).
* ``SYMMETRIC`` -- a uniform grid of ``2^B`` codepoints on ``[-M, +M]``,
  rounding to one of the two bracketing codepoints.  Stochastic rounding is
  exactly unbiased on the domain with per-coordinate variance at most
  ``(M/(2^B-1))^2``; nearest rounding errs by at most that half-step
  ``M/(2^B-1)``, and since the grid has no zero, sends a coordinate near zero
  as ``+/-M/(2^B-1)``.  Inputs outside ``[-M, M]`` are an error because
  clamping would bias the grid.

At one bit the pipeline is the enhanced one-bit quantizer, which maps a
scalar to ``+/-1/G`` directly; its stochastic variant uses
``Pr[+1] = clip((w + 1/G) / (2/G), 0, 1)``, which is the symmetric two-point
grid with saturating probabilities.

Codewords are integers and the dequantized value is always
``codeword / gain``.  Pipeline codewords live in ``[-2^(B-1), 2^(B-1)-1]``;
symmetric-grid and one-bit codewords are the odd integers
``{-(2^B-1), ..., 2^B-1}`` (2^B values, so still B bits of information).

Every family rounds each coordinate to one of two codewords, so one kernel
gives each coordinate's ``(lo, hi, Pr[hi])`` (a two-point distribution, as in
QSGD).  ``quantize_vector`` samples from it with caller-drawn uniforms, for
one vector or a ``(K, d)`` block, and returns the wire form, a
:class:`QuantizedVector` that ``serialize`` encodes; ``transmit`` makes the
same checks and the same draw and returns only the decoded values, which is
all a simulated link needs.  ``moments`` gives each coordinate's exact mean
and variance of that decode, and ``expected_sq_error`` sums the kernel's
closed-form squared error.  A :class:`QuantizerSpec` names only the family, width
and rounding; every call takes its scale -- the gain ``G`` on the pipeline
and enhanced one-bit, the half-range ``M`` on the symmetric grid -- as one
scalar, one per coordinate of a vector or one per row of a block.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

try:  # the ufunc that ndarray.clip reaches through a Python-level wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

__all__ = [
    "Rounding",
    "GridKind",
    "QuantizerSpec",
    "QuantizedVector",
    "GridRangeError",
    "half_step",
    "quantize_grid_sr",
    "grid_distribution",
    "quantize_vector",
    "transmit",
    "moments",
    "layered_gains",
    "magnitude_percentile",
    "expected_sq_error",
    "serialize",
    "deserialize",
    "wire_bits",
    "float_bits",
    "HEADER_BYTES",
    "MAX_BITS",
]

HEADER_BYTES = 17  # bits: 1 byte, gain: 8-byte double, length: 8-byte unsigned
FLOAT_BITS_PER_COORD = 32
# the widest codeword: an int64 holds the symmetric grid's +/-(2^B - 1), and
# serialize packs at most 63 bits a codeword
MAX_BITS = 63


class Rounding(Enum):
    NEAREST = "nearest"
    STOCHASTIC = "stochastic"


class GridKind(Enum):
    PIPELINE = "pipeline"
    SYMMETRIC = "symmetric"


class GridRangeError(ValueError):
    """Input magnitude exceeds the symmetric grid's range bound."""


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be >= 1 and <= {MAX_BITS}")


def _require_finite(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"non-finite input: {x!r}")


@dataclass(frozen=True)
class QuantizerSpec:
    """A quantizer family at one width; every call supplies its scale."""

    bits: int
    rounding: Rounding = Rounding.STOCHASTIC
    grid: GridKind = GridKind.PIPELINE

    def __post_init__(self) -> None:
        _check_bits(self.bits)


@dataclass(frozen=True)
class QuantizedVector:
    """Integer codewords plus the gain needed to dequantize them.

    A vector ``(d,)`` carries one gain or one gain per coordinate; a block of
    rows ``(K, d)`` carries one gain or one gain per row.
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
        if gain.ndim and gain.shape != codes.shape[:1]:
            raise ValueError("gains must be one per row of a block or one per "
                             "coordinate of a vector")
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
        if self.codewords.ndim == 2 and np.ndim(self.gain):
            return self.codewords / np.asarray(self.gain)[:, None]
        return self.codewords / self.gain


# ---------------------------------------------------------------------------
# Scalar grid sampler
# ---------------------------------------------------------------------------

def half_step(range_bound: float, bits: int) -> float:
    """Half the spacing of the 2^bits codepoints on [-range_bound, +range_bound],
    M/(2^B - 1); codepoint ``c`` (an odd integer) sits at ``c * half_step``."""
    if not (range_bound > 0 and math.isfinite(range_bound)):
        raise ValueError("range_bound must be a positive finite real")
    _check_bits(bits)
    return range_bound / (2.0 ** bits - 1.0)


def grid_distribution(w: float, range_bound: float, bits: int) -> tuple[int, int, float]:
    """Return (lo_code, hi_code, prob_hi) for stochastic rounding of ``w`` on
    the 2^bits-point grid over [-range_bound, +range_bound].

    Codes are the odd-integer codewords; values are ``code * half_step``.
    """
    q = half_step(range_bound, bits)
    _require_finite(w)
    if abs(w) > range_bound:
        raise GridRangeError(
            f"|{w}| exceeds grid range bound {range_bound}"
        )
    n_cells = 2 ** bits - 1
    j0 = int(math.floor((w + range_bound) / (2.0 * q)))
    j0 = min(max(j0, 0), n_cells - 1)
    lo_code = 2 * j0 - n_cells
    p_hi = (w - lo_code * q) / (2.0 * q)
    p_hi = min(max(p_hi, 0.0), 1.0)
    return lo_code, lo_code + 2, p_hi


def quantize_grid_sr(w: float, range_bound: float, bits: int,
                     rng: np.random.Generator) -> float:
    """Stochastically round ``w`` to one of the two bracketing codepoints.

    The engine never calls this: it is a scalar sampler for the symmetric
    grid, written apart from the kernel, which the tests compare
    :func:`quantize_vector` against and whose draws the ``analysis`` moment
    verifiers set against the kernel's :func:`moments`.
    """
    lo_code, hi_code, p_hi = grid_distribution(w, range_bound, bits)
    code = hi_code if rng.random() < p_hi else lo_code
    return code * half_step(range_bound, bits)


# ---------------------------------------------------------------------------
# Vector operations
# ---------------------------------------------------------------------------

def _scale_and_gain(v: np.ndarray, spec: QuantizerSpec, scale: float | np.ndarray):
    """``scale`` checked and shaped to broadcast against ``v`` (a float, one
    per coordinate of a vector, or a column of one per row of a block), and
    its dequantizing gain: the scale, or (2^B - 1)/M on the symmetric grid."""
    scale = np.asarray(scale, dtype=np.float64)
    if scale.ndim and scale.shape != v.shape[:1]:
        raise ValueError("scale must be a scalar, or have one entry per row of a "
                         "block or per coordinate of a vector")
    if not ((scale > 0) & np.isfinite(scale)).all():
        raise ValueError("scale must be positive and finite")
    if not scale.ndim:
        scale = float(scale)
    elif v.ndim == 2:
        scale = scale[:, None]
    gain = (2.0 ** spec.bits - 1.0) / scale if spec.grid is GridKind.SYMMETRIC else scale
    return scale, gain


def _float_at_most(n: int) -> float:
    """The largest float not above the integer ``n``: ``float(n)`` itself up
    to 2^53, so a clip to it never rounds a codeword past the range."""
    bound = float(n)
    return bound if bound <= n else math.nextafter(bound, 0.0)


def _outcomes(
    v: np.ndarray, spec: QuantizerSpec, scale: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each coordinate's two-outcome rounding: codewords ``(lo, hi)`` and
    ``Pr[hi]``, at ``scale`` (a gain, or the symmetric grid's half-range),
    a scalar or broadcast against ``v``.  Under nearest rounding ``Pr[hi]``
    is 0 or 1: 1 exactly when the stochastic ``Pr[hi]`` is at least 0.5.  The
    symmetric range check compares every coordinate with its bound in one
    step and locates the first offender only when it fails."""
    if spec.bits == 1 and spec.grid is GridKind.PIPELINE:  # the enhanced one bit
        lo = np.full(v.shape, -1, dtype=np.int64)
        if spec.rounding is Rounding.NEAREST:
            return lo, -lo, (v >= 0).astype(np.float64)
        inv = 1.0 / scale
        return lo, -lo, _clip((v + inv) / (2.0 * inv), 0.0, 1.0)

    if spec.grid is GridKind.SYMMETRIC:
        m = scale  # the grid's half-range
        mags = np.abs(v)
        over = mags > m
        if over.any():
            first = over.argmax()  # in row-major order
            raise GridRangeError(
                f"coordinate magnitude {mags.flat[first]} exceeds range bound "
                f"{np.broadcast_to(m, v.shape).flat[first]}"
            )
        q = m / (2.0 ** spec.bits - 1.0)
        step = 2.0 * q
        n_cells = 2 ** spec.bits - 1
        # clip the float: an integer .clip builds np.iinfo twice a call
        j0 = _clip(np.floor((v + m) / step), 0, _float_at_most(n_cells - 1)).astype(np.int64)
        lo = 2 * j0 - n_cells
        hi, p_hi = lo + 2, _clip((v - lo * q) / step, 0.0, 1.0)
    else:
        amplified = v * scale
        floors = np.floor(amplified)
        limit = 2 ** (spec.bits - 1)
        top = _float_at_most(limit - 1)
        lo = _clip(floors, -limit, top).astype(np.int64)
        hi = _clip(floors + 1, -limit, top).astype(np.int64)
        p_hi = amplified - floors
    if spec.rounding is Rounding.NEAREST:
        return lo, hi, (p_hi >= 0.5).astype(np.float64)
    return lo, hi, p_hi


def _checked(v: np.ndarray) -> np.ndarray:
    """A quantizer call's input as floats: one finite vector or block."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError("expected a vector or a (rows, dim) block")
    if not np.isfinite(v).all():
        raise ValueError("non-finite coordinate in input vector")
    return v


def _encode(
    v: np.ndarray,
    spec: QuantizerSpec,
    scale: float | np.ndarray,
    uniforms: np.ndarray | None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Every check on a quantizer call, then one draw from each coordinate's
    two outcomes: the codewords and the gain that decodes them, a float or
    broadcast against ``v`` (a column of one per row of a block)."""
    v = _checked(v)
    stochastic = spec.rounding is Rounding.STOCHASTIC
    if uniforms is None:
        if stochastic:
            raise ValueError("stochastic rounding requires uniforms")
    elif np.shape(uniforms) != v.shape:
        raise ValueError("uniforms must have the input's shape")
    scale, gain = _scale_and_gain(v, spec, scale)
    lo, hi, p_hi = _outcomes(v, spec, scale)
    return np.where(uniforms < p_hi if stochastic else p_hi, hi, lo), gain


def quantize_vector(
    v: np.ndarray,
    spec: QuantizerSpec,
    scale: float | np.ndarray,
    uniforms: np.ndarray | None = None,
) -> QuantizedVector:
    """Quantize coordinate-wise, each coordinate on its own uniform draw.

    ``v`` is one vector ``(d,)`` or a block ``(K, d)``; ``spec`` fixes the
    family, width and rounding, and ``scale`` -- a gain, or the symmetric
    grid's range bound -- is one scalar, one per coordinate of a vector or
    one per row of a block.  ``uniforms`` are caller-drawn values in
    ``[0, 1)`` of ``v``'s shape, and a coordinate rounds up exactly when its
    uniform is below ``Pr[hi]``.  Nearest rounding reads no uniforms and may
    take none.  Each output coordinate depends only on its own input, scale
    and uniform, so one call over a block, or over a vector with per-layer
    scales, is bit-identical to separate calls on its rows or layers with the
    matching slices of the scales and uniforms.  The result is the wire form
    that :func:`serialize` encodes; :func:`transmit` gives its decoded values.
    """
    codes, gain = _encode(v, spec, scale, uniforms)
    symmetric = spec.grid is GridKind.SYMMETRIC or spec.bits == 1
    return QuantizedVector(codes, gain[:, 0] if np.ndim(gain) == 2 else gain, spec.bits,
                           GridKind.SYMMETRIC if symmetric else GridKind.PIPELINE)


def transmit(
    v: np.ndarray,
    spec: QuantizerSpec,
    scale: float | np.ndarray,
    uniforms: np.ndarray | None = None,
) -> np.ndarray:
    """What the receiver decodes: ``quantize_vector(...).dequantize()`` bit
    for bit, from the same checks and draw, without building the wire form."""
    codes, gain = _encode(v, spec, scale, uniforms)
    return codes / gain


def moments(v: np.ndarray, spec: QuantizerSpec,
            scale: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each coordinate's exact mean and variance, over the draw, of what
    :func:`transmit` decodes at ``scale``, from the kernel's codewords
    ``lo``, ``hi``, ``p = Pr[hi]`` and gain ``G``: the mean of the two
    decodes, ``(1 - p) lo/G + p hi/G``, and the codeword's variance over
    ``G^2``, ``p (1 - p) ((hi - lo)/G)^2``.  The variance leaves out the
    decodes' own rounding, so on the symmetric grid it never exceeds the
    square of the half-step ``1/G``.  The input and scale get
    :func:`transmit`'s checks and messages; no uniforms are read."""
    v = _checked(v)
    scale, gain = _scale_and_gain(v, spec, scale)
    lo, hi, p_hi = _outcomes(v, spec, scale)
    mean = (1.0 - p_hi) * (lo / gain) + p_hi * (hi / gain)
    return mean, p_hi * (1.0 - p_hi) * ((hi - lo) / gain) ** 2


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


def expected_sq_error(v: np.ndarray, spec: QuantizerSpec,
                      scale: float | np.ndarray) -> float:
    """Total expected squared quantization error, summed over coordinates.

    Each coordinate's variance plus its squared bias, from :func:`moments`
    of the outcomes :func:`quantize_vector` samples at the same ``scale``, so
    the result is deterministic and, under nearest rounding, equals the
    realized error.
    """
    mean, var = moments(v, spec, scale)
    return float(np.sum(var + (mean - np.asarray(v, dtype=np.float64)) ** 2))


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
    if qv.bits > MAX_BITS:
        raise ValueError(f"serialize takes at most {MAX_BITS} bits per codeword")
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
