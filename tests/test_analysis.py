"""Bound machinery and moment-verifier tests."""


import numpy as np
import pytest

from fedquant import analysis as an
from fedquant import data as d
from fedquant import federation as fed
from fedquant import models as m
from fedquant import quantizer as qz
from fedquant.quantizer import Rounding

QUADRATIC = m.LossModel(m.LossKind.QUADRATIC)


def make_params(**overrides) -> an.BoundParams:
    defaults = dict(
        mu=1.0, lipschitz=1.0, sigma_sq=np.full(20, 0.4), h_sq=30.0,
        gamma_noniid=4.0, weight_bound=1.0, dim=10, local_steps=5,
        clients_per_round=5, num_clients=20, w0_gap_sq=1.0,
    )
    defaults.update(overrides)
    return an.BoundParams(**defaults)


class TestNoniidGamma:
    def test_identical_clients_are_homogeneous(self):
        data = m.ClientDataset(np.random.default_rng([0]).standard_normal((6, 2)))
        clone = m.ClientDataset(data.features.copy())
        assert an.noniid_gamma(QUADRATIC, [data, clone]) <= 1e-12

    def test_two_point_closed_form(self):
        datasets = [m.ClientDataset(np.array([[0.0]])),
                    m.ClientDataset(np.array([[2.0]]))]
        assert an.noniid_gamma(QUADRATIC, datasets) == 0.5

    def test_non_negative_on_random_instances(self):
        rng = np.random.default_rng([1])
        for _ in range(20):
            datasets = [m.ClientDataset(rng.standard_normal((4, 3)))
                        for _ in range(3)]
            assert an.noniid_gamma(QUADRATIC, datasets) >= 0.0

    def test_monotone_in_generator_spread(self):
        values = []
        for spread in (0.0, 0.5, 1.0, 2.0):
            datasets = d.gen_quadratic_clients(8, 3, spread, seed=7)
            values.append(an.noniid_gamma(QUADRATIC, datasets))
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestEstimateNoiseBounds:
    def quadratic_setup(self):
        datasets = d.gen_quadratic_clients(4, 3, 1.0, seed=2,
                                           samples_per_client=12)
        probes = [np.zeros(3), np.random.default_rng([3]).standard_normal(3)]
        return datasets, probes

    def test_full_batch_has_zero_variance(self):
        datasets, probes = self.quadratic_setup()
        sigma_sq, h_sq = an.estimate_noise_bounds(
            QUADRATIC, datasets, probes, batch_size=12, draws=1000, seed=0)
        assert np.array_equal(sigma_sq, np.zeros(4))
        assert h_sq > 0.0

    def test_estimates_non_negative(self):
        datasets, probes = self.quadratic_setup()
        sigma_sq, h_sq = an.estimate_noise_bounds(
            QUADRATIC, datasets, probes, batch_size=4, draws=1000, seed=0)
        assert np.all(sigma_sq >= 0.0) and h_sq >= 0.0

    def test_larger_batches_do_not_increase_variance(self):
        datasets, probes = self.quadratic_setup()
        small, _ = an.estimate_noise_bounds(QUADRATIC, datasets, probes,
                                            batch_size=3, draws=2000, seed=1)
        large, _ = an.estimate_noise_bounds(QUADRATIC, datasets, probes,
                                            batch_size=6, draws=2000, seed=2)
        assert np.all(large <= small * 1.1)  # 10% Monte-Carlo slack

    @pytest.mark.parametrize("config, expected", [
        (dict(num_clients=4, clients_per_round=2, dimension=3, samples_per_client=7,
              seed=5),
         ([0.10376583593536007, 0.08547554817925689, 0.12298298698653415,
           0.10794376462658925], 11.661739141603668)),
        (dict(model=m.LossKind.LOGISTIC, regularization=0.1, mu=0.1, lipschitz=2.0,
              num_clients=3, clients_per_round=2, dimension=4, samples_per_client=9,
              seed=6),
         ([0.19084479298971266, 0.470684660809946, 0.21517776047407278],
          2.8942329138396667)),
    ], ids=["quadratic", "logistic"])
    def test_values_on_fixed_probes_unchanged(self, config, expected):
        # recorded when fed.STREAM_SCHEME last changed
        cfg = fed.FederationConfig(**config)
        model, datasets = fed.build_problem(cfg)
        probes = [np.zeros(cfg.dimension),
                  np.random.default_rng([9]).standard_normal(cfg.dimension)]
        sigma_sq, h_sq = an.estimate_noise_bounds(model, datasets, probes, 3, seed=2)
        assert (sigma_sq.tolist(), h_sq) == expected

    def test_draw_floor_enforced(self):
        datasets, probes = self.quadratic_setup()
        with pytest.raises(ValueError):
            an.estimate_noise_bounds(QUADRATIC, datasets, probes,
                                     batch_size=4, draws=10, seed=0)


class TestBoundConstant:
    def test_full_participation_drops_sampling_term(self):
        p_full = make_params(clients_per_round=20)
        p_partial = make_params()
        for variant in an.BoundVariant:
            bits = 4 if variant is an.BoundVariant.DIFFERENTIAL else None
            base_terms = (np.sum(p_full.sigma_sq) / 400 + 6 * p_full.gamma_noniid
                          + 8 * 16 * p_full.h_sq)
            d_full = an.bound_constant(variant, p_full, bits)
            mode = {
                an.BoundVariant.WEIGHT: 10 / 20,
                an.BoundVariant.DIFFERENTIAL: 4 * 10 * 25 * 30.0 / (20 * 225),
                an.BoundVariant.DOWNLINK: 10.0,
            }[variant]
            assert d_full == pytest.approx(base_terms + mode, rel=1e-12)
            assert d_full < an.bound_constant(variant, p_partial, bits)

    def test_many_bits_recover_unquantized_constant(self):
        p = make_params()
        wide = an.bound_constant(an.BoundVariant.DIFFERENTIAL, p, bits=60)
        base = (np.sum(p.sigma_sq) / 400 + 6 * p.gamma_noniid + 8 * 16 * p.h_sq
                + (15 / 19) * (4 / 5) * 25 * p.h_sq)
        assert wide == pytest.approx(base, rel=1e-12)

    def test_weight_and_downlink_differ_by_participation_factor(self):
        p = make_params()
        w = an.bound_constant(an.BoundVariant.WEIGHT, p)
        dl = an.bound_constant(an.BoundVariant.DOWNLINK, p)
        quant_w = p.dim * p.weight_bound ** 2 / p.clients_per_round
        assert dl - (w - quant_w) == pytest.approx(
            p.clients_per_round * quant_w, rel=1e-12)

    def test_strictly_decreasing_in_participation(self):
        values = [
            an.bound_constant(an.BoundVariant.WEIGHT,
                              make_params(clients_per_round=k))
            for k in (2, 5, 10, 19)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_differential_decreasing_in_bits(self):
        p = make_params()
        values = [an.bound_constant(an.BoundVariant.DIFFERENTIAL, p, bits=b)
                  for b in range(1, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_differential_requires_bits(self):
        with pytest.raises(ValueError):
            an.bound_constant(an.BoundVariant.DIFFERENTIAL, make_params())

    def test_single_client_forces_full_participation(self):
        p = an.BoundParams(mu=1.0, lipschitz=1.0, sigma_sq=np.array([0.1]),
                           h_sq=1.0, gamma_noniid=0.0, weight_bound=1.0,
                           dim=2, local_steps=1, clients_per_round=1,
                           num_clients=1, w0_gap_sq=1.0)
        assert an.bound_constant(an.BoundVariant.WEIGHT, p) > 0
        with pytest.raises(ValueError):
            an.BoundParams(mu=1.0, lipschitz=1.0, sigma_sq=np.array([0.1]),
                           h_sq=1.0, gamma_noniid=0.0, weight_bound=1.0,
                           dim=2, local_steps=1, clients_per_round=2,
                           num_clients=1, w0_gap_sq=1.0)


class TestConvergenceBound:
    def test_formula_example(self):
        p = an.BoundParams(mu=1.0, lipschitz=1.0, sigma_sq=np.zeros(2),
                           h_sq=0.0, gamma_noniid=0.0, weight_bound=1.0,
                           dim=1, local_steps=1, clients_per_round=2,
                           num_clients=2, w0_gap_sq=1.0)
        assert p.gamma == 8.0
        assert an.convergence_bound(0, p, d_const=0.0) == 0.5625

    def test_doubling_horizon_halves_bound(self):
        p = make_params()
        b1 = an.convergence_bound(100, p, 5.0)
        b2 = an.convergence_bound(int(2 * (100 + p.gamma) - p.gamma), p, 5.0)
        assert b2 == pytest.approx(b1 / 2, rel=1e-12)

    def test_monotone_decreasing(self):
        p = make_params()
        values = [an.convergence_bound(t, p, 5.0) for t in range(0, 5000, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_inverse_time_rate(self):
        p = make_params()
        scaled_small = (p.gamma + 10 ** 4) * an.convergence_bound(10 ** 4, p, 5.0)
        scaled_large = (p.gamma + 10 ** 5) * an.convergence_bound(10 ** 5, p, 5.0)
        assert abs(scaled_small / scaled_large - 1.0) < 0.05

    def test_derived_offsets(self):
        p = make_params(lipschitz=2.0)
        assert p.kappa == 2.0
        assert p.gamma == 16.0


class TestSamplingVerifier:
    def test_small_cases_pass(self):
        rng = np.random.default_rng([4])
        report = an.check_sampling_moments(6, 2, rng.standard_normal((6, 5)))
        assert report.passed

    def test_full_participation_zero_variance(self):
        rng = np.random.default_rng([5])
        report = an.check_sampling_moments(4, 4, rng.standard_normal((4, 3)))
        assert report.passed

    def test_three_choose_one_identity(self):
        # subset means are the vectors themselves; the variance identity
        # predicts (1/3) sum ||v_i - v_bar||^2
        vectors = np.random.default_rng([6]).standard_normal((3, 2))
        report = an.check_sampling_moments(3, 1, vectors)
        v_bar = vectors.mean(axis=0)
        direct = float(np.mean([np.sum((v - v_bar) ** 2) for v in vectors]))
        predicted = (1 - 1 / 3) / (1 * 2) * float(np.sum((vectors - v_bar) ** 2))
        assert direct == pytest.approx(predicted, abs=1e-12)
        assert report.passed

    def test_enumeration_limit_guard(self):
        with pytest.raises(ValueError):
            an.check_sampling_moments(30, 15, np.zeros((30, 2)))

    def test_report_text_format(self):
        report = an.check_sampling_moments(3, 2, np.ones((3, 2)))
        text = report.to_text()
        assert "unbiased.pass: true" in text
        assert text.endswith("pass: true")


class TestRoundingVerifier:
    @pytest.mark.parametrize("bits", [1, 4, 8])
    def test_passes(self, bits):
        assert an.check_rounding_moments(1.0, bits, trials=10_000).passed

    def test_wide_range(self):
        assert an.check_rounding_moments(4.0, 3, trials=10_000).passed

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            an.check_rounding_moments(1.0, 4, trials=100)


class TestDifferentialVerifier:
    def test_ten_dim_passes(self):
        d_vec = np.random.default_rng([7]).standard_normal(10)
        assert an.check_differential_moments(d_vec, 3, trials=10_000).passed

    def test_one_bit_bound(self):
        d_vec = np.random.default_rng([8]).standard_normal(6)
        report = an.check_differential_moments(d_vec, 1, trials=10_000)
        limit = 6 * float(d_vec @ d_vec)
        (bias, mse, _, _) = report.checks
        assert mse.threshold == pytest.approx(limit, rel=1e-12)
        assert report.passed

    def test_single_coordinate_at_codepoint_is_exact(self):
        report = an.check_differential_moments(np.array([0.5]), 3,
                                               trials=10_000)
        assert report.checks[1].value == 0.0  # analytic mse
        assert report.passed

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            an.check_differential_moments(np.zeros(3), 3)

    def test_nearest_max_error_is_the_engines_upload_error(self):
        d_vec = np.array([1.0, -0.3, 0.2])
        report = an.check_differential_moments(d_vec, 4, trials=10_000)
        check = report.checks[3]
        assert check.name == "nearest_max_error"
        # codepoints c / 15: 1.0, -0.3 and 0.2 go to 15, -5 and 3
        assert check.value == pytest.approx(5 / 15 - 0.3, abs=1e-15)
        upload = fed.differential_uploads(d_vec[None], 4, Rounding.NEAREST, None)
        assert check.value == float(np.max(np.abs(upload - d_vec)))
        # the half-step plus 4 ulps of the peak for the decode's float rounding
        assert check.threshold == 1 / 15 + 4 * np.spacing(1.0) and check.passed

    def test_exact_zero_a_decode_ulp_past_the_half_step_passes(self):
        # at one bit the zero rounds to codeword +1, which decodes as 1 / G
        # with G = 1 / 254839.0: one ulp above the half-step 254839 itself
        report = an.check_differential_moments(np.array([254839.0, 0.0]), 1,
                                               trials=10_000)
        check = report.checks[3]
        assert check.value == 254839.00000000003 > qz.half_step(254839.0, 1)
        assert check.threshold == 254839.0 + 4 * np.spacing(254839.0)
        assert report.passed

    # the vectors that the CLI drew for --dim 8 --bits 3 at three seeds, under
    # an earlier stream scheme, and that failed the old per-row gain's
    # exact-scaling check; each vector's peak is positive, where that gain's
    # nearest upload clamped
    @pytest.mark.parametrize("seed", [51, 68, 90])
    def test_cli_vectors_pass(self, seed):
        d_vec = np.random.default_rng(seed).standard_normal(8)
        report = an.check_differential_moments(d_vec, 3, trials=10_000, seed=seed)
        assert [c.name for c in report.checks] == [
            "unbiased", "mse_within_bound", "monte_carlo_mse_dev", "nearest_max_error"]
        assert report.passed


class TestPilotProbes:
    def test_probe_count_and_determinism(self):
        cfg = fed.FederationConfig(num_clients=4, clients_per_round=2,
                                   local_steps=1, rounds=0, batch_size=2,
                                   dimension=3, samples_per_client=6, seed=5)
        model, datasets = fed.build_problem(cfg)
        a = an.pilot_probe_weights(cfg, model, datasets, pilot_rounds=8,
                                   stride=4, perturbations=1)
        b = an.pilot_probe_weights(cfg, model, datasets, pilot_rounds=8,
                                   stride=4, perturbations=1)
        assert len(a) == (1 + 2) * 2  # w0 + two strided globals, doubled
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)
