"""Quantizer unit and property tests.

Expected values are frozen from independent hand traces of the scalar
pipeline (scale up, round, limit, scale down) and from two-outcome
enumeration of the stochastic rounding distributions.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedquant import quantizer as qz


class TestRoundNearest:
    @pytest.mark.parametrize("x, expected", [
        (1.2, 1),
        (1.5, 2),       # half rounds up
        (-0.5, 0),      # floor(-0.5) = -1, fraction 0.5 -> -1 + 1
        (-1.5, -1),
        (2.0, 2),
        (-2.7, -3),
    ])
    def test_examples(self, x, expected):
        assert qz.round_nearest(x) == expected

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            qz.round_nearest(bad)

    @given(st.floats(-1e9, 1e9))
    def test_matches_floor_formula(self, x):
        floor = math.floor(x)
        expected = floor if x - floor < 0.5 else floor + 1
        assert qz.round_nearest(x) == expected


class TestRoundStochastic:
    def test_integer_input_is_exact(self):
        rng = np.random.default_rng([0])
        assert all(qz.round_stochastic(3.0, rng) == 3 for _ in range(100))

    def test_quarter_point_distribution(self):
        rng = np.random.default_rng([1])
        draws = np.array([qz.round_stochastic(0.25, rng) for _ in range(40_000)])
        assert set(np.unique(draws)) == {0, 1}
        # Pr[1] = 0.25; 40k draws give a standard error of ~0.0022
        assert abs(draws.mean() - 0.25) < 0.01

    def test_empirical_mean_matches_expectation(self):
        # Monte Carlo against the closed-form expectation E[R(x)] = x
        rng = np.random.default_rng([2])
        draws = np.array([qz.round_stochastic(0.7, rng) for _ in range(10 ** 6)])
        assert abs(draws.mean() - 0.7) < 0.002

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            qz.round_stochastic(math.nan, np.random.default_rng([0]))


class TestClampLimit:
    @pytest.mark.parametrize("r, bits, expected", [
        (8, 3, 3),
        (-4, 3, -4),
        (-9, 3, -4),
        (3, 3, 3),
        (0, 1, 0),
        (1, 1, 0),
        (-2, 1, -1),
    ])
    def test_examples(self, r, bits, expected):
        assert qz.clamp_limit(r, bits) == expected

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 16))
    def test_result_in_range_and_identity(self, r, bits):
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        out = qz.clamp_limit(r, bits)
        assert lo <= out <= hi
        if lo <= r <= hi:
            assert out == r


SYMMETRIC = qz.GridKind.SYMMETRIC


class TestQuantizerSpec:
    def test_one_bit_flag_requires_one_bit(self):
        with pytest.raises(ValueError):
            qz.QuantizerSpec(bits=2, one_bit_enhanced=True)
        with pytest.raises(ValueError, match="on the pipeline"):
            qz.QuantizerSpec(bits=1, grid=SYMMETRIC, one_bit_enhanced=True)

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError, match="bits must be >= 1"):
            qz.QuantizerSpec(bits=0)

    def test_bits_above_the_cap_rejected(self):
        message = f"bits must be >= 1 and <= {qz.MAX_BITS}"
        for call in (lambda: qz.QuantizerSpec(bits=qz.MAX_BITS + 1),
                     lambda: qz.half_step(1.0, qz.MAX_BITS + 1)):
            with pytest.raises(ValueError, match=message):
                call()
        qv = qz.QuantizedVector(np.array([1, -1]), 1.0, qz.MAX_BITS + 1, SYMMETRIC)
        with pytest.raises(ValueError, match=f"at most {qz.MAX_BITS} bits"):
            qz.serialize(qv)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bits", [53, 54, 55, 62, 63])
    @pytest.mark.parametrize("rounding, grid", [
        (qz.Rounding.NEAREST, qz.GridKind.PIPELINE),
        (qz.Rounding.STOCHASTIC, qz.GridKind.PIPELINE),
        (qz.Rounding.STOCHASTIC, SYMMETRIC),
        (qz.Rounding.NEAREST, SYMMETRIC),
    ], ids=["pipeline-nearest", "pipeline-stochastic", "symmetric", "symmetric-nearest"])
    def test_widest_codewords_stay_in_range(self, bits, rounding, grid):
        # the peak lands on the top of the range, where a clip bound of
        # 2^(B-1) - 1 or 2^B - 2 is not a float past 2^53
        spec = qz.QuantizerSpec(bits, rounding, grid)
        v = np.array([1.0, -1.0, 0.5, 0.0, 1.0 - 2.0 ** -52, -0.75])
        scale = 1.0 if grid is SYMMETRIC else 2.0 ** (bits - 1)
        qv = qz.quantize_vector(v, spec, scale, np.random.default_rng([5, bits]).random(v.size))
        decoded = qz.deserialize(qz.serialize(qv))
        assert np.array_equal(decoded.codewords, qv.codewords)
        assert np.max(np.abs(qv.dequantize() - v)) <= 2.0 ** -52

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("spec", [
        qz.QuantizerSpec(2), qz.QuantizerSpec(2, qz.Rounding.NEAREST),
        qz.QuantizerSpec(2, grid=SYMMETRIC), qz.QuantizerSpec(1, one_bit_enhanced=True),
    ], ids=["pipeline_stochastic", "pipeline_nearest", "symmetric", "one_bit"])
    def test_invalid_parameters(self, spec, bad):
        # every call carries its scale; a scalar, or one bad entry among many
        v, draws = np.zeros(3), np.random.default_rng([0]).random(3)
        for scale in (bad, np.array([1.0, bad, 1.0])):
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                qz.quantize_vector(v, spec, scale, draws)
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                qz.expected_sq_error(v, spec, scale)
        if spec.grid is qz.GridKind.PIPELINE:
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                qz.quantize_pipeline(0.0, spec, bad, np.random.default_rng([0]))


class TestQuantizePipeline:
    def test_hand_traces(self):
        spec = qz.QuantizerSpec(3, qz.Rounding.NEAREST)
        # 0.3 * 4 = 1.2 -> 1 -> in range -> 0.25
        assert qz.quantize_pipeline(0.3, spec, 4.0) == (1, 0.25)
        # 2.0 * 4 = 8 -> clamps to 3 -> 0.75
        assert qz.quantize_pipeline(2.0, spec, 4.0) == (3, 0.75)
        assert qz.quantize_pipeline(0.0, spec, 4.0) == (0, 0.0)

    def test_grid_spec_rejected(self):
        spec = qz.QuantizerSpec(3, grid=SYMMETRIC)
        with pytest.raises(ValueError):
            qz.quantize_pipeline(0.5, spec, 1.0)

    def test_stochastic_requires_rng(self):
        spec = qz.QuantizerSpec(3)
        with pytest.raises(ValueError):
            qz.quantize_pipeline(0.3, spec, 4.0)

    @given(
        st.floats(-50, 50),
        st.integers(1, 10),
        st.integers(-6, 10),
    )
    def test_nearest_rounding_idempotent(self, w, bits, gain_exp):
        spec = qz.QuantizerSpec(bits, qz.Rounding.NEAREST)
        _, value = qz.quantize_pipeline(w, spec, 2.0 ** gain_exp)
        _, again = qz.quantize_pipeline(value, spec, 2.0 ** gain_exp)
        assert again == value

    @given(st.floats(-100, 100), st.integers(1, 12))
    def test_codeword_range(self, w, bits):
        spec = qz.QuantizerSpec(bits, qz.Rounding.NEAREST)
        code, _ = qz.quantize_pipeline(w, spec, 3.7)
        assert -(2 ** (bits - 1)) <= code <= 2 ** (bits - 1) - 1


class TestGridStochasticRounding:
    def test_codepoint_is_fixed_point(self):
        # 2 bits on [-1, 1]: codepoints {-1, -1/3, 1/3, 1}
        rng = np.random.default_rng([3])
        assert all(qz.quantize_grid_sr(1 / 3, 1.0, 2, rng) == 1 / 3
                   for _ in range(50))
        for code in (-3, -1, 1, 3):
            codepoint = code * qz.half_step(1.0, 2)
            mean, var = qz.grid_moments(codepoint, 1.0, 2)
            assert mean == codepoint and var == 0.0

    def test_zero_on_two_bit_grid(self):
        # enumerate both outcomes: -1/3 and +1/3 each with probability 0.5
        lo, hi, p_hi = qz.grid_distribution(0.0, 1.0, 2)
        assert (lo, hi) == (-1, 1)
        assert p_hi == 0.5
        mean, var = qz.grid_moments(0.0, 1.0, 2)
        assert mean == 0.0
        assert var == pytest.approx(1 / 9, abs=1e-15)

    def test_one_bit_proximity(self):
        # grid {-1, +1}: w = 0.4 -> +1 w.p. 0.7
        lo, hi, p_hi = qz.grid_distribution(0.4, 1.0, 1)
        assert (lo, hi) == (-1, 1)
        assert p_hi == pytest.approx(0.7, abs=1e-15)

    def test_variance_attains_bound_at_midpoint(self):
        _, var = qz.grid_moments(0.0, 1.0, 1)
        assert var == 1.0  # equals (M/(2^B-1))^2 exactly

    def test_out_of_range_rejected(self):
        with pytest.raises(qz.GridRangeError):
            qz.quantize_grid_sr(1.0000001, 1.0, 3, np.random.default_rng([0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_range_bound_rejected(self, bad):
        message = "range_bound must be a positive finite real"
        for call in (lambda: qz.half_step(bad, 3),
                     lambda: qz.grid_distribution(0.0, bad, 3),
                     lambda: qz.grid_moments(0.0, bad, 3),
                     lambda: qz.quantize_grid_sr(0.0, bad, 3, np.random.default_rng([0]))):
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(ValueError, match="bits must be >= 1"):
            qz.half_step(1.0, 0)

    @pytest.mark.parametrize("bits", range(1, 9))
    @pytest.mark.parametrize("range_bound", [0.5, 1.0, 4.0])
    def test_moments_over_random_inputs(self, bits, range_bound):
        rng = np.random.default_rng([4, bits])
        bound = qz.half_step(range_bound, bits) ** 2
        for w in rng.uniform(-range_bound, range_bound, size=1000):
            mean, var = qz.grid_moments(float(w), range_bound, bits)
            assert abs(mean - w) < 1e-12
            assert var <= bound

    @given(
        st.floats(-1, 1),
        st.floats(0.1, 4.0),
        st.integers(1, 8),
    )
    def test_output_brackets_input(self, unit, range_bound, bits):
        w = unit * range_bound
        out = qz.quantize_grid_sr(w, range_bound, bits, np.random.default_rng([5]))
        assert abs(out) <= range_bound + 1e-12
        assert abs(out - w) <= 2 * qz.half_step(range_bound, bits) * (1 + 1e-12)


def one_bit(rounding=qz.Rounding.STOCHASTIC) -> qz.QuantizerSpec:
    return qz.QuantizerSpec(1, rounding, one_bit_enhanced=True)


class TestOneBit:
    """The enhanced one-bit branch of the kernel: Pr[+1] = clip((w + 1/G) / (2/G))."""

    def test_probability_endpoints(self):
        # a code is +1 exactly when its coordinate's uniform draw is below Pr[+1]
        g, n = 2.5, 200
        draws = np.random.default_rng([6]).random(n)
        for w, pr in ((0.0, 0.5), (-1.0 / g, 0.0), (1.0 / g, 1.0)):
            out = qz.quantize_vector(np.full(n, w), one_bit(), g,
                                     np.random.default_rng([6]).random(n))
            assert out.codewords.tolist() == np.where(draws < pr, 1, -1).tolist()

    def test_saturated_input_always_plus(self):
        g = 4.0
        out = qz.quantize_vector(np.full(50, 1 / g), one_bit(), g,
                                 np.random.default_rng([6]).random(50))
        assert np.all(out.dequantize() == 1 / g)

    def test_nearest_sign_rule(self):
        out = qz.quantize_vector(np.array([-0.2, 0.0]), one_bit(qz.Rounding.NEAREST), 1.0)
        assert out.dequantize().tolist() == [-1.0, 1.0]
        out = qz.quantize_vector(np.array([0.2]), one_bit(qz.Rounding.NEAREST), 2.0)
        assert out.dequantize().tolist() == [0.5]

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.25, 16))
    def test_probability_monotone(self, w1, w2, gain):
        # on shared draws, a larger input never gives a smaller code
        lo, hi = sorted((w1, w2))
        low = qz.quantize_vector(np.full(64, lo), one_bit(), gain,
                                 np.random.default_rng([19]).random(64))
        high = qz.quantize_vector(np.full(64, hi), one_bit(), gain,
                                  np.random.default_rng([19]).random(64))
        assert np.all(low.codewords <= high.codewords)

    @given(st.floats(-3, 3), st.floats(0.25, 16))
    def test_expectation_equals_clamp(self, w, gain):
        # E[(Q - w)^2] = 1/G^2 - 2 w E[Q] + w^2 with E[Q] = clamp(w, +-1/G)
        inv = 1.0 / gain
        clamped = min(max(w, -inv), inv)
        assert qz.expected_sq_error(np.array([w]), one_bit(), gain) == pytest.approx(
            inv * inv - 2 * w * clamped + w * w, rel=1e-12, abs=1e-12)


class TestQuantizeVector:
    def test_zero_vector(self):
        out = qz.quantize_vector(np.zeros(5), qz.QuantizerSpec(3), 4.0,
                                 np.random.default_rng([7]).random(5))
        assert np.array_equal(out.codewords, np.zeros(5, dtype=np.int64))
        assert np.array_equal(out.dequantize(), np.zeros(5))

    def test_two_scalar_hand_traces(self):
        spec = qz.QuantizerSpec(3, qz.Rounding.NEAREST)
        out = qz.quantize_vector(np.array([0.3, 2.0]), spec, 4.0)
        assert out.codewords.tolist() == [1, 3]
        assert out.dequantize().tolist() == [0.25, 0.75]

    def test_grid_determinism_under_fixed_seed(self):
        spec = qz.QuantizerSpec(4, grid=SYMMETRIC)
        v = np.random.default_rng([8]).uniform(-1, 1, 50)
        a = qz.quantize_vector(v, spec, 1.0, np.random.default_rng([9]).random(v.size))
        b = qz.quantize_vector(v, spec, 1.0, np.random.default_rng([9]).random(v.size))
        assert np.array_equal(a.codewords, b.codewords)
        assert a.gain == b.gain and a.bits == b.bits

    def test_vector_matches_scalar_stream(self):
        # one uniform draw per coordinate, in coordinate order
        spec = qz.QuantizerSpec(4)
        v = np.random.default_rng([10]).uniform(-1, 1, 20)
        vec_out = qz.quantize_vector(v, spec, 8.0, np.random.default_rng([11]).random(v.size))
        rng = np.random.default_rng([11])
        scalar_out = [qz.quantize_pipeline(float(w), spec, 8.0, rng)[0] for w in v]
        assert vec_out.codewords.tolist() == scalar_out

    def test_grid_vector_matches_scalar_stream(self):
        m, bits = 2.0, 3
        spec = qz.QuantizerSpec(bits, grid=SYMMETRIC)
        v = np.random.default_rng([12]).uniform(-m, m, 20)
        vec_out = qz.quantize_vector(v, spec, m,
                                     np.random.default_rng([13]).random(v.size)).codewords
        rng = np.random.default_rng([13])
        scalar_vals = np.array([qz.quantize_grid_sr(float(w), m, bits, rng) for w in v])
        assert np.allclose(vec_out * qz.half_step(m, bits), scalar_vals, atol=0)

    def test_dequantized_is_codeword_over_gain(self):
        spec = qz.QuantizerSpec(5, grid=SYMMETRIC)
        v = np.random.default_rng([14]).uniform(-1.5, 1.5, 30)
        out = qz.quantize_vector(v, spec, 1.5, np.random.default_rng([15]).random(v.size))
        assert np.array_equal(out.dequantize(), out.codewords / out.gain)

    def test_symmetric_nearest_hand_traces(self):
        # 2 bits over [-1, 1]: codepoints -1, -1/3, 1/3, 1 (codewords -3 .. 3);
        # the grid has no zero, and a tie such as 0 rounds up
        spec = qz.QuantizerSpec(2, qz.Rounding.NEAREST, SYMMETRIC)
        v = np.array([0.5, 0.0, -0.7, -0.6, 1.0])
        out = qz.quantize_vector(v, spec, 1.0)
        assert out.codewords.tolist() == [1, 1, -3, -1, 3]
        assert out.gain == 3.0 and out.grid is SYMMETRIC

    def test_one_bit_enhanced_codewords(self):
        spec = qz.QuantizerSpec(1, qz.Rounding.NEAREST, one_bit_enhanced=True)
        out = qz.quantize_vector(np.array([0.3, -0.3, 0.0]), spec, 2.0)
        assert out.codewords.tolist() == [1, -1, 1]
        assert out.dequantize().tolist() == [0.5, -0.5, 0.5]

    def test_pipeline_range_enforced_by_type(self):
        with pytest.raises(ValueError):
            qz.QuantizedVector(np.array([4]), 1.0, 3, qz.GridKind.PIPELINE)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            qz.quantize_vector(np.array([np.nan]), qz.QuantizerSpec(3), 4.0,
                               np.random.default_rng([0]).random(1))

    def test_stochastic_needs_uniforms_of_the_input_shape(self):
        spec = qz.QuantizerSpec(3)
        with pytest.raises(ValueError, match="requires uniforms"):
            qz.quantize_vector(np.zeros(3), spec, 4.0)
        for bad in (np.random.default_rng([0]), np.random.default_rng([0]).random(4),
                    np.random.default_rng([0]).random((1, 3))):
            with pytest.raises(ValueError, match="the input's shape"):
                qz.quantize_vector(np.zeros(3), spec, 4.0, bad)


def family_spec(family: str, bits: int) -> qz.QuantizerSpec:
    rounding = qz.Rounding.NEAREST if family.endswith("nearest") else qz.Rounding.STOCHASTIC
    if family.startswith("symmetric"):
        return qz.QuantizerSpec(bits, rounding, SYMMETRIC)
    return qz.QuantizerSpec(bits, rounding, one_bit_enhanced=family.startswith("one_bit"))


BLOCK_FAMILIES = ["pipeline_nearest", "pipeline_stochastic", "symmetric",
                  "symmetric_nearest", "one_bit_nearest", "one_bit_stochastic"]


def block_case(family: str, rows: int, dim: int, seed: int):
    """A block, its per-row scales and its spec; the symmetric grid's range
    bound of each row is that row's peak, as for differential uploads."""
    bits = 1 if family.startswith("one_bit") else 3
    rng = np.random.default_rng([seed])
    block = rng.standard_normal((rows, dim)) * rng.uniform(0.1, 10.0, (rows, 1))
    if family.startswith("symmetric"):
        scale = np.max(np.abs(block), axis=1)
    else:
        scale = rng.uniform(0.5, 8.0, rows)
    return block, scale, family_spec(family, bits)


class TestBlockQuantize:
    @pytest.mark.parametrize("family", BLOCK_FAMILIES)
    def test_rows_equal_one_vector_calls(self, family):
        block, scale, spec = block_case(family, 5, 7, 60)
        draws = np.stack([np.random.default_rng([61, k]).random(7) for k in range(5)])
        out = qz.quantize_vector(block, spec, scale, draws)
        assert out.codewords.shape == (5, 7)
        deq = out.dequantize()
        for k in range(5):
            one = qz.quantize_vector(block[k], spec, scale[k],
                                     np.random.default_rng([61, k]).random(7))
            assert np.array_equal(out.codewords[k], one.codewords)
            assert out.gain[k] == one.gain
            assert np.array_equal(deq[k], one.dequantize())

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(BLOCK_FAMILIES), st.integers(1, 6), st.integers(1, 9),
           st.integers(0, 2 ** 32 - 1), st.randoms(use_true_random=False))
    def test_permuting_rows_permutes_output(self, family, rows, dim, seed, shuffler):
        block, scale, spec = block_case(family, rows, dim, seed)
        perm = list(range(rows))
        shuffler.shuffle(perm)
        draws = np.stack([np.random.default_rng([seed, 1, k]).random(dim) for k in range(rows)])
        base = qz.quantize_vector(block, spec, scale, draws)
        permuted = qz.quantize_vector(block[perm], spec, scale[perm], draws[perm])
        assert np.array_equal(permuted.codewords, base.codewords[perm])
        assert np.array_equal(permuted.dequantize(), base.dequantize()[perm])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BLOCK_FAMILIES),
           st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.integers(0, 2 ** 32 - 1))
    def test_per_coordinate_scale_equals_per_layer_calls(self, family, sizes, seed):
        # a layered vector in one call: each coordinate takes its layer's scale
        layers = [block_case(family, 1, size, seed + i) for i, size in enumerate(sizes)]
        v = np.concatenate([block[0] for block, _, _ in layers])
        scales = np.array([scale[0] for _, scale, _ in layers])
        spec = layers[0][2]
        draws = np.random.default_rng([seed, 2]).random(v.size)
        out = qz.quantize_vector(v, spec, np.repeat(scales, sizes), draws)
        deq = out.dequantize()
        start = 0
        for size, scale in zip(sizes, scales):
            stop = start + size
            one = qz.quantize_vector(v[start:stop], spec, scale, draws[start:stop])
            assert np.array_equal(out.codewords[start:stop], one.codewords)
            assert np.all(out.gain[start:stop] == one.gain)
            assert np.array_equal(deq[start:stop], one.dequantize())
            start = stop
        # a scalar scale is that value repeated per coordinate, or per row of a
        # block (the largest layer scale bounds every symmetric coordinate)
        shared = float(scales.max())
        block = np.stack([v, v[::-1]])
        block_draws = np.stack([draws, np.random.default_rng([seed, 3]).random(v.size)])
        for x, u, repeated in ((v, draws, np.full(v.size, shared)),
                               (block, block_draws, np.full(2, shared))):
            scalar = qz.quantize_vector(x, spec, shared, u)
            spread = qz.quantize_vector(x, spec, repeated, u)
            assert np.array_equal(scalar.codewords, spread.codewords)
            assert np.all(spread.gain == scalar.gain)
            assert np.array_equal(scalar.dequantize(), spread.dequantize())

    def test_range_error_names_first_row_over_bound(self):
        spec = qz.QuantizerSpec(3, grid=SYMMETRIC)
        block = np.array([[0.5, 0.1], [0.2, 3.0], [9.0, 0.0]])
        with pytest.raises(qz.GridRangeError, match="magnitude 3.0 exceeds range bound 2.0"):
            qz.quantize_vector(block, spec, np.array([1.0, 2.0, 4.0]),
                               np.random.default_rng([0]).random((3, 2)))

    def test_per_coordinate_range_bounds_checked_per_coordinate(self):
        spec = qz.QuantizerSpec(3, grid=SYMMETRIC)
        with pytest.raises(qz.GridRangeError, match="magnitude 0.5 exceeds range bound 0.25"):
            qz.quantize_vector(np.array([0.9, 0.5, 0.1]), spec, np.array([1.0, 0.25, 0.25]),
                               np.random.default_rng([0]).random(3))

    def test_block_arguments_validated(self):
        spec = qz.QuantizerSpec(3)
        block = np.zeros((2, 3))
        draws = np.random.default_rng([0]).random((2, 3))
        with pytest.raises(ValueError, match="the input's shape"):
            qz.quantize_vector(block, spec, 4.0, draws[:1])
        with pytest.raises(ValueError, match="one entry per row"):
            qz.quantize_vector(block, spec, np.ones(3), draws)
        with pytest.raises(ValueError, match="positive and finite"):
            qz.quantize_vector(block, spec, np.array([1.0, 0.0]), draws)
        with pytest.raises(ValueError, match="non-finite"):
            qz.quantize_vector(np.array([[0.0], [np.inf]]), spec, 4.0, draws[:, :1])

    def test_gains_per_row_of_a_block_or_per_coordinate_of_a_vector(self):
        with pytest.raises(ValueError):
            qz.QuantizedVector(np.array([1, 2]), np.array([1.0, 2.0, 4.0]), 3)
        with pytest.raises(ValueError):
            qz.QuantizedVector(np.array([[1], [2]]), np.array([1.0, 2.0, 4.0]), 3)
        with pytest.raises(ValueError):
            qz.QuantizedVector(np.array([[1, 2]]), np.array([1.0, 4.0]), 3)
        qv = qz.QuantizedVector(np.array([[1], [2]]), np.array([1.0, 4.0]), 3)
        assert qv.dequantize().tolist() == [[1.0], [0.5]]
        qv = qz.QuantizedVector(np.array([1, 2]), np.array([1.0, 4.0]), 3)
        assert qv.dequantize().tolist() == [1.0, 0.5]

    def test_serialize_takes_one_vector(self):
        with pytest.raises(ValueError):
            qz.serialize(qz.QuantizedVector(np.array([[1, 2]]), 2.0, 4))


class TestLayeredGains:
    def test_single_layer_formula(self):
        # alpha = 0.05: rho = floor(log2 20) = 4, G_e = 16, G = 8 * 16 = 128
        base, extras = qz.layered_gains(np.full(10, 0.05), ((0, 10),), 4)
        assert base == 8.0
        assert extras.tolist() == [16.0]

    def test_unit_percentile(self):
        base, extras = qz.layered_gains(np.ones(4), ((0, 4),), 3)
        assert extras.tolist() == [1.0]

    def test_two_layers_with_different_ranges(self):
        values = np.concatenate([np.full(8, 0.5), np.full(8, 0.005)])
        _, extras = qz.layered_gains(values, ((0, 8), (8, 16)), 4)
        assert extras.tolist() == [2.0, 128.0]

    def test_all_zero_layer_capped(self):
        _, extras = qz.layered_gains(np.zeros(6), ((0, 6),), 2)
        assert extras.tolist() == [2.0 ** 30]

    def test_percentile_index_rule(self):
        # ascending sort, 0-based index ceil(0.9 * n) - 1
        values = np.arange(1.0, 11.0)
        assert qz.magnitude_percentile(values) == 9.0
        assert qz.magnitude_percentile(np.array([3.0])) == 3.0

    def test_empty_layer_rejected(self):
        with pytest.raises(ValueError):
            qz.layered_gains(np.ones(4), ((0, 0),), 3)


class TestExpectedSqError:
    def test_stochastic_matches_enumeration(self):
        v = np.array([0.3])
        # 1.2 scales between codes 1 and 2: err^2 = 0.8*(0.25-0.3)^2 + 0.2*(0.5-0.3)^2
        expected = 0.8 * 0.05 ** 2 + 0.2 * 0.2 ** 2
        assert qz.expected_sq_error(v, qz.QuantizerSpec(3), 4.0) == pytest.approx(
            expected, rel=1e-12)

    def test_nearest_is_pointwise_error(self):
        spec = qz.QuantizerSpec(3, qz.Rounding.NEAREST)
        assert qz.expected_sq_error(np.array([0.3]), spec, 4.0) == pytest.approx(
            0.05 ** 2, rel=1e-12)

    def test_grid_error_is_unbiased_variance(self):
        spec = qz.QuantizerSpec(2, grid=SYMMETRIC)
        assert qz.expected_sq_error(np.array([0.0]), spec, 1.0) == pytest.approx(
            1 / 9, abs=1e-15)

    @pytest.mark.parametrize("spec, scale", [
        (qz.QuantizerSpec(3, qz.Rounding.NEAREST), 2.0 ** (3 - 1)),
        (qz.QuantizerSpec(4, qz.Rounding.NEAREST), 5.5),
        (qz.QuantizerSpec(1, qz.Rounding.NEAREST, one_bit_enhanced=True), 2.0 ** (1 - 1)),
        (qz.QuantizerSpec(1, qz.Rounding.NEAREST, one_bit_enhanced=True), 3.0),
        (qz.QuantizerSpec(3, qz.Rounding.NEAREST, SYMMETRIC), 2.0),
    ], ids=["native", "tuned", "one-bit-native", "one-bit-tuned", "symmetric"])
    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=12))
    @example([0.2])  # one-bit at gain 1: nearest makes 0.64, stochastic 0.96
    def test_nearest_equals_realized_error(self, spec, scale, values):
        v = np.array(values)
        realized = np.sum((qz.quantize_vector(v, spec, scale).dequantize() - v) ** 2)
        assert qz.expected_sq_error(v, spec, scale) == realized


class TestSerialization:
    def test_round_trip_pipeline(self):
        spec = qz.QuantizerSpec(3, qz.Rounding.NEAREST)
        original = qz.quantize_vector(np.array([0.3, 2.0, -1.2]), spec, 4.0)
        restored = qz.deserialize(qz.serialize(original))
        assert np.array_equal(restored.codewords, original.codewords)
        assert restored.gain == original.gain
        assert restored.bits == original.bits
        assert restored.grid is qz.GridKind.PIPELINE

    def test_round_trip_symmetric_grid(self):
        spec = qz.QuantizerSpec(9, grid=SYMMETRIC)
        v = np.random.default_rng([17]).uniform(-2, 2, 40)
        original = qz.quantize_vector(v, spec, 2.0, np.random.default_rng([18]).random(v.size))
        restored = qz.deserialize(qz.serialize(original))
        assert restored.grid is qz.GridKind.SYMMETRIC
        assert np.array_equal(restored.codewords, original.codewords)
        assert np.array_equal(restored.dequantize(), original.dequantize())

    def test_byte_layout(self):
        qv = qz.QuantizedVector(np.array([1, -2, 3]), 4.0, 3)
        blob = qz.serialize(qv)
        assert len(blob) == qz.HEADER_BYTES + 2  # 9 payload bits
        bits, gain, dim = struct.unpack_from("<BdQ", blob, 0)
        assert (bits, gain, dim) == (3, 4.0, 3)
        # 001 110 011, zero-padded to two bytes
        assert blob[17:] == b"\x39\x80"

    def test_family_in_bits_byte(self):
        qv = qz.QuantizedVector(np.array([-3, 1, 3]), 1.5, 2, qz.GridKind.SYMMETRIC)
        blob = qz.serialize(qv)
        assert blob[0] == 0x82
        # (c - 1) / 2 = -2, 0, 1: 10 00 01
        assert blob[17:] == b"\x84"

    @pytest.mark.parametrize("bits", [1, 8, 16])
    @pytest.mark.parametrize("grid", [qz.GridKind.PIPELINE, qz.GridKind.SYMMETRIC])
    def test_extreme_codewords_round_trip(self, grid, bits):
        # the ends of each family's range, where sign extension can go wrong
        if grid is qz.GridKind.SYMMETRIC:
            hi = 2 ** bits - 1
            codes = [-hi, -1, 1, hi]
        else:
            codes = [-(2 ** (bits - 1)), -1, 0, 2 ** (bits - 1) - 1]
        qv = qz.QuantizedVector(np.array(codes), 0.75, bits, grid)
        blob = qz.serialize(qv)
        assert len(blob) == math.ceil(qz.wire_bits(4, bits) / 8)
        decoded = qz.deserialize(blob)
        assert decoded.grid is grid and decoded.bits == bits
        assert decoded.codewords.tolist() == codes

    @pytest.mark.parametrize("codes", [[5, 2], [9, 1], [1, -9]],
                             ids=["even", "above", "below"])
    def test_symmetric_codeword_off_grid_rejected(self, codes):
        # at 3 bits the symmetric grid is the odd integers in [-7, 7]
        qv = qz.QuantizedVector(np.array(codes), 1.0, 3, qz.GridKind.SYMMETRIC)
        with pytest.raises(ValueError, match="odd and within"):
            qz.serialize(qv)

    def test_wire_accounting(self):
        assert qz.wire_bits(100, 2) == 100 * 2 + 17 * 8
        assert qz.float_bits(10) == 320

    @settings(deadline=None)
    @given(st.sampled_from(["pipeline", "symmetric", "one_bit"]), st.integers(1, 16),
           st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
    def test_length_is_accounted_bits(self, family, bits, dim, seed):
        rng = np.random.default_rng([seed])
        v = rng.standard_normal(dim) * rng.uniform(0.1, 10.0)
        if family == "symmetric":
            spec = qz.QuantizerSpec(bits, grid=SYMMETRIC)
            scale = float(np.max(np.abs(v), initial=1.0))
        elif family == "one_bit":
            bits = 1
            spec = qz.QuantizerSpec(1, one_bit_enhanced=True)
            scale = rng.uniform(0.25, 4.0)
        else:
            spec, scale = qz.QuantizerSpec(bits), rng.uniform(0.25, 4.0)
        qv = qz.quantize_vector(v, spec, scale, np.random.default_rng([seed, 1]).random(dim))
        blob = qz.serialize(qv)
        assert len(blob) == math.ceil(qz.wire_bits(dim, bits) / 8)
        # reference payload: each transport code as `bits` two's-complement digits
        symmetric = qv.grid is qz.GridKind.SYMMETRIC
        transport = (qv.codewords - 1) // 2 if symmetric else qv.codewords
        digits = "".join(format(int(t) % 2 ** bits, f"0{bits}b") for t in transport)
        digits += "0" * (-len(digits) % 8)
        assert blob[17:] == bytes(int(digits[i:i + 8], 2) for i in range(0, len(digits), 8))
        decoded = qz.deserialize(blob)
        assert decoded.grid is qv.grid and decoded.gain == qv.gain
        assert np.array_equal(decoded.dequantize(), qv.dequantize())

    def test_truncated_payload_rejected(self):
        blob = qz.serialize(qz.QuantizedVector(np.array([1, 2]), 2.0, 4))
        with pytest.raises(ValueError):
            qz.deserialize(blob[:-1])
        with pytest.raises(ValueError, match="zero bits"):
            qz.deserialize(b"\x00" + blob[1:])

    def test_trailing_bytes_rejected(self):
        blob = qz.serialize(qz.QuantizedVector(np.array([1, 2]), 2.0, 4))
        with pytest.raises(ValueError, match="expected 18 bytes, got 19"):
            qz.deserialize(blob + b"\x00")
