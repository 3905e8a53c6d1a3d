"""Tests of the scalar references in ``reference.py``.

Expected values are frozen from independent hand traces of the scalar
pipeline (scale up, round, limit, scale down) and of one client's local
mini-batch SGD.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedquant import models as m
from fedquant import quantizer as qz

import reference as ref

QUADRATIC = m.LossModel(m.LossKind.QUADRATIC)


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
        assert ref.round_nearest(x) == expected

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ref.round_nearest(bad)

    @given(st.floats(-1e9, 1e9))
    def test_matches_floor_formula(self, x):
        floor = math.floor(x)
        expected = floor if x - floor < 0.5 else floor + 1
        assert ref.round_nearest(x) == expected


class TestRoundStochastic:
    def test_integer_input_is_exact(self):
        rng = np.random.default_rng([0])
        assert all(ref.round_stochastic(3.0, rng) == 3 for _ in range(100))

    def test_quarter_point_distribution(self):
        rng = np.random.default_rng([1])
        draws = np.array([ref.round_stochastic(0.25, rng) for _ in range(40_000)])
        assert set(np.unique(draws)) == {0, 1}
        # Pr[1] = 0.25; 40k draws give a standard error of ~0.0022
        assert abs(draws.mean() - 0.25) < 0.01

    def test_empirical_mean_matches_expectation(self):
        # Monte Carlo against the closed-form expectation E[R(x)] = x
        rng = np.random.default_rng([2])
        draws = np.array([ref.round_stochastic(0.7, rng) for _ in range(10 ** 6)])
        assert abs(draws.mean() - 0.7) < 0.002

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ref.round_stochastic(math.nan, np.random.default_rng([0]))


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
        assert ref.clamp_limit(r, bits) == expected

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 16))
    def test_result_in_range_and_identity(self, r, bits):
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        out = ref.clamp_limit(r, bits)
        assert lo <= out <= hi
        if lo <= r <= hi:
            assert out == r


SYMMETRIC = qz.GridKind.SYMMETRIC


class TestQuantizePipeline:
    def test_hand_traces(self):
        spec = qz.QuantizerSpec(3, qz.Rounding.NEAREST)
        # 0.3 * 4 = 1.2 -> 1 -> in range -> 0.25
        assert ref.quantize_pipeline(0.3, spec, 4.0) == (1, 0.25)
        # 2.0 * 4 = 8 -> clamps to 3 -> 0.75
        assert ref.quantize_pipeline(2.0, spec, 4.0) == (3, 0.75)
        assert ref.quantize_pipeline(0.0, spec, 4.0) == (0, 0.0)

    def test_grid_spec_rejected(self):
        spec = qz.QuantizerSpec(3, grid=SYMMETRIC)
        with pytest.raises(ValueError):
            ref.quantize_pipeline(0.5, spec, 1.0)

    def test_stochastic_requires_rng(self):
        spec = qz.QuantizerSpec(3)
        with pytest.raises(ValueError):
            ref.quantize_pipeline(0.3, spec, 4.0)

    @given(
        st.floats(-50, 50),
        st.integers(1, 10),
        st.integers(-6, 10),
    )
    def test_nearest_rounding_idempotent(self, w, bits, gain_exp):
        spec = qz.QuantizerSpec(bits, qz.Rounding.NEAREST)
        _, value = ref.quantize_pipeline(w, spec, 2.0 ** gain_exp)
        _, again = ref.quantize_pipeline(value, spec, 2.0 ** gain_exp)
        assert again == value

    @given(st.floats(-100, 100), st.integers(1, 12))
    def test_codeword_range(self, w, bits):
        spec = qz.QuantizerSpec(bits, qz.Rounding.NEAREST)
        code, _ = ref.quantize_pipeline(w, spec, 3.7)
        assert -(2 ** (bits - 1)) <= code <= 2 ** (bits - 1) - 1


class TestLocalTrain:
    def one_point(self, value):
        return m.ClientDataset(np.array([[float(value)]]))

    def test_single_step_hand_trace(self):
        out = ref.local_train(np.array([0.0]), QUADRATIC, self.one_point(1.0),
                              steps=1, batch_size=1, lr=0.1, rng=np.random.default_rng([5]))
        assert out.tolist() == [0.1]

    def test_zero_lr_is_identity(self):
        w = np.array([0.3, -0.7])
        data = m.ClientDataset(np.random.default_rng([6]).standard_normal((5, 2)))
        out = ref.local_train(w, QUADRATIC, data, steps=3, batch_size=2,
                              lr=0.0, rng=np.random.default_rng([7]))
        assert np.array_equal(out, w)

    def test_two_steps_hand_trace(self):
        # 0 -> 0.5 -> 0.75 with full batch {1} and lr 0.5
        out = ref.local_train(np.array([0.0]), QUADRATIC, self.one_point(1.0),
                              steps=2, batch_size=1, lr=0.5, rng=np.random.default_rng([8]))
        assert out.tolist() == [0.75]

    def test_deterministic_under_fixed_seed(self):
        data = m.ClientDataset(np.random.default_rng([9]).standard_normal((20, 4)))
        a = ref.local_train(np.zeros(4), QUADRATIC, data, 5, 3, 0.1, np.random.default_rng([10]))
        b = ref.local_train(np.zeros(4), QUADRATIC, data, 5, 3, 0.1, np.random.default_rng([10]))
        assert np.array_equal(a, b)

    def test_full_batch_is_deterministic_descent(self):
        data = m.ClientDataset(np.random.default_rng([11]).standard_normal((8, 2)))
        out = ref.local_train(np.zeros(2), QUADRATIC, data, 1, 8, 0.25,
                              np.random.default_rng([12]))
        expected = 0.25 * data.features.mean(axis=0)
        assert np.allclose(out, expected, atol=1e-15)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            ref.local_train(np.zeros(1), QUADRATIC, self.one_point(1.0),
                            1, 2, 0.1, np.random.default_rng([0]))
