"""Engine tests: schedules, sampling, aggregation, broadcast, and full rounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedquant import federation as fed
from fedquant import models as m
from fedquant import quantizer as qz
from fedquant.streams import CLIENT, ROUND, k_subset, philox_stream

import reference as ref

QUADRATIC = m.LossModel(m.LossKind.QUADRATIC)


def clone_config(cfg: fed.FederationConfig, **overrides) -> fed.FederationConfig:
    fields = {name: getattr(cfg, name) for name in cfg.__dataclass_fields__}
    fields.update(overrides)
    return fed.FederationConfig(**fields)


class TestLearningRateSchedule:
    def test_formula(self):
        assert fed.lr_schedule(0, 1.0, 16.0) == 0.125

    def test_strictly_decreasing(self):
        etas = [fed.lr_schedule(t, 1.0, 16.0) for t in range(100)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_window_ratio_bounded(self):
        # eta_t <= 2 * eta_{t+E} over a long sweep
        mu, lipschitz, e = 0.5, 2.0, 5
        gamma = fed.gamma_offset(mu, lipschitz, e)
        for t in range(0, int(10 * gamma)):
            assert (fed.lr_schedule(t, mu, gamma)
                    <= 2.0 * fed.lr_schedule(t + e, mu, gamma))

    def test_gamma_offset(self):
        assert fed.gamma_offset(1.0, 2.0, 5) == 16.0
        assert fed.gamma_offset(1.0, 1.0, 20) == 20.0


class TestWeightUplinkBits:
    def test_formula(self):
        assert fed.weight_uplink_bits(1, 1.0, 16.0) == 4  # ceil(log2 9)
        assert fed.weight_uplink_bits(1, 2.0, 8.0) == 4

    def test_logarithmic_growth(self):
        gamma = 16.0
        for t in range(int(gamma), 2000, 37):
            assert (fed.weight_uplink_bits(10 * t, 1.0, gamma)
                    - fed.weight_uplink_bits(t, 1.0, gamma)) <= 4

    def test_requires_positive_index(self):
        with pytest.raises(ValueError):
            fed.weight_uplink_bits(0, 1.0, 16.0)

    def test_integrality(self):
        for t in range(1, 10_001, 7):
            b = fed.weight_uplink_bits(t, 0.7, 11.0)
            assert isinstance(b, int) and b >= 1


class TestDownlinkLogBits:
    def test_formula(self):
        # eta = 0.125: ceil(log2(1 + sqrt(0.875)/0.125)) = ceil(log2 8.483) = 4
        assert fed.downlink_log_bits(0, 1.0, 16.0) == 4

    def test_non_decreasing(self):
        widths = [fed.downlink_log_bits(t, 1.0, 16.0) for t in range(10_000)]
        assert all(a <= b for a, b in zip(widths, widths[1:]))

    def test_asymptotically_logarithmic(self):
        # B_t tracks log2(1/eta_t) for large t
        for t in (10 ** 4, 10 ** 5, 10 ** 6):
            eta = fed.lr_schedule(t, 1.0, 16.0)
            assert abs(fed.downlink_log_bits(t, 1.0, 16.0)
                       - math.log2(1.0 / eta)) <= 1.0

    def test_precondition(self):
        with pytest.raises(ValueError):
            fed.downlink_log_bits(0, 1.0, 1.0)  # eta * mu = 2 >= 1


class TestStepLogBits:
    @pytest.mark.parametrize("r, f, p, expected", [
        (1, 2.0, 75.0, 1),
        (151, 2.0, 75.0, 2),
        (1, 4.0, 37.5, 2),
    ])
    def test_examples(self, r, f, p, expected):
        assert fed.step_log_bits(r, f, p) == expected

    def test_guards(self):
        with pytest.raises(ValueError):
            fed.step_log_bits(0, 2.0, 75.0)
        with pytest.raises(ValueError):
            fed.step_log_bits(1, 1.5, 75.0)

    def test_schedule_dispatch(self):
        gamma = 16.0
        spec = fed.ScheduleSpec(fed.ScheduleKind.STEP_LOG, f=2.0, p=75.0)
        assert fed.schedule_bits(spec, 0, 1.0, gamma) == fed.step_log_bits(1, 2.0, 75.0)
        spec = fed.ScheduleSpec(fed.ScheduleKind.WEIGHT_LOG)
        assert fed.schedule_bits(spec, 0, 1.0, gamma) == fed.weight_uplink_bits(1, 1.0, gamma)
        spec = fed.ScheduleSpec.constant(6)
        assert fed.schedule_bits(spec, 123, 1.0, gamma) == 6

    def test_integrality_over_horizon(self):
        gamma = 16.0
        specs = [
            fed.ScheduleSpec.constant(3),
            fed.ScheduleSpec(fed.ScheduleKind.WEIGHT_LOG),
            fed.ScheduleSpec(fed.ScheduleKind.DOWNLINK_LOG),
            fed.ScheduleSpec(fed.ScheduleKind.STEP_LOG, f=2.0, p=75.0),
        ]
        for spec in specs:
            for t in range(0, 5000, 13):
                b = fed.schedule_bits(spec, t, 1.0, gamma)
                assert isinstance(b, int) and b >= 1


class TestSampleClients:
    def test_full_participation(self):
        sel = fed.sample_clients(5, 5, np.random.default_rng([0]).random(5))
        assert sel.tolist() == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        assert np.array_equal(fed.sample_clients(10, 3, np.random.default_rng([1]).random(10)),
                              fed.sample_clients(10, 3, np.random.default_rng([1]).random(10)))

    def test_sorted_subset_without_replacement(self):
        sel = fed.sample_clients(20, 8, np.random.default_rng([2]).random(20))
        assert len(set(sel.tolist())) == 8
        assert sel.tolist() == sorted(sel.tolist())

    def test_all_subsets_reachable(self):
        seen = set()
        for seed in range(200):
            seen.add(tuple(fed.sample_clients(4, 2, np.random.default_rng([seed]).random(4))))
        assert seen == set(itertools.combinations(range(4), 2))

    def test_uniformity_chi_square(self):
        rng = np.random.default_rng([3])
        counts = {s: 0 for s in itertools.combinations(range(4), 2)}
        draws = 60_000
        for _ in range(draws):
            counts[tuple(fed.sample_clients(4, 2, rng.random(4)))] += 1
        expected = draws / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # central 99% band of chi-square with 5 degrees of freedom
        assert 0.412 < chi2 < 16.75

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            fed.sample_clients(3, 4, np.random.default_rng([0]).random(3))

    def test_key_block_selects_each_row(self):
        keys = np.random.default_rng([4]).random((6, 9))
        block = fed.sample_clients(9, 4, keys)
        assert block.shape == (6, 4)
        for row, selected in zip(keys, block):
            assert np.array_equal(selected, fed.sample_clients(9, 4, row))
        with pytest.raises(ValueError, match="one key per client"):
            fed.sample_clients(10, 4, keys)

    def test_one_key_per_client(self):
        with pytest.raises(ValueError, match="one key per client"):
            fed.sample_clients(4, 2, np.random.default_rng([0]).random(3))
        with pytest.raises(ValueError, match="one key per client"):
            fed.sample_clients(4, 2, np.random.default_rng([0]))


class TestAggregation:
    def test_mean(self):
        out = fed.aggregate_weights([np.array([1.0]), np.array([3.0])])
        assert out.tolist() == [2.0]

    def test_single_upload_identity(self):
        v = np.random.default_rng([4]).standard_normal(6)
        assert np.array_equal(fed.aggregate_weights([v]), v)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fed.aggregate_weights([np.zeros(2), np.zeros(3)])

    def test_weighted_form_equals_mean_for_equal_sizes(self):
        rng = np.random.default_rng([5])
        uploads = [rng.standard_normal(8) for _ in range(5)]
        sizes = np.full(5, 13.0)
        weighted = sum((s / sizes.sum()) * u for s, u in zip(sizes, uploads))
        assert np.allclose(fed.aggregate_weights(uploads), weighted, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    def test_block_matches_numpy_mean(self, k, d, seed):
        block = np.random.default_rng([seed]).standard_normal((k, d)) * 3.0
        assert np.array_equal(fed.aggregate_weights(block), np.mean(block, axis=0))
        assert np.array_equal(fed.aggregate_weights(list(block)), np.mean(block, axis=0))

    def test_differential_zero_is_identity(self):
        prev = np.random.default_rng([6]).standard_normal(4)
        out = fed.aggregate_differentials(prev, [np.zeros(4), np.zeros(4)])
        assert np.array_equal(out, prev)

    def test_differential_single_client(self):
        out = fed.aggregate_differentials(np.array([1.0]), [np.array([0.5])])
        assert out.tolist() == [1.5]

    def test_differential_equals_weight_aggregation(self):
        rng = np.random.default_rng([7])
        prev = rng.standard_normal(6)
        locals_ = [rng.standard_normal(6) for _ in range(4)]
        via_diff = fed.aggregate_differentials(prev, [w - prev for w in locals_])
        via_weight = fed.aggregate_weights(locals_)
        assert np.allclose(via_diff, via_weight, atol=1e-12)


NEAREST = qz.Rounding.NEAREST


class TestDifferentialUploads:
    def test_negated_row_uploads_negated_codewords(self):
        # 4 bits over peak 1: codepoints c / 15 for odd c; the peak is +/-15
        d = np.array([[1.0, -0.3, 0.2], [-1.0, 0.3, -0.2]])
        uploads = fed.differential_uploads(d, 4, NEAREST, None)
        assert np.rint(uploads * 15).tolist() == [[15, -5, 3], [-15, 5, -3]]
        errors = np.sum((uploads - d) ** 2, axis=1)
        assert errors[0] == errors[1]
        spec = qz.QuantizerSpec(4, NEAREST, qz.GridKind.SYMMETRIC)
        assert errors.tolist() == [qz.expected_sq_error(row, spec, 1.0) for row in d]

    @pytest.mark.parametrize("rounding", [NEAREST, qz.Rounding.STOCHASTIC])
    def test_zero_row_sent_as_zeros_next_to_others(self, rounding):
        rows = np.array([[0.0, 0.0], [0.5, -0.25], [0.0, 0.0]])
        draws = np.random.default_rng([40]).random(rows.shape)
        uploads = fed.differential_uploads(rows, 3, rounding, draws)
        assert uploads[[0, 2]].tolist() == [[0.0, 0.0], [0.0, 0.0]]
        one = fed.differential_uploads(rows[1:2], 3, rounding, draws[1:2])
        assert np.array_equal(uploads[1], one[0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
                    min_size=1, max_size=4),
           st.integers(1, 16))
    # a peak so small that its gain 1023/peak overflows a float
    @example(rows=[[0.0, 0.0, 0.0, 3.847929999804374e-306]], bits=10)
    @example(rows=[[5e-324, -1e-320, 1e-310, 0.0]], bits=16)
    def test_nearest_error_within_half_step(self, rows, bits):
        # the grid's spacing over the row's peak bounds every coordinate's
        # error, up to float rounding: the decode c / G and the rounding
        # step each round, so a coordinate at a tie between two codepoints
        # (an exact zero, say) can land an ulp or two of the peak past it
        rows = np.array(rows)
        uploads = fed.differential_uploads(rows, bits, NEAREST, None)
        for row, up in zip(rows, uploads):
            peak = float(np.max(np.abs(row)))
            if peak == 0.0:
                assert not up.any()
                continue
            allowance = 4 * np.spacing(peak)
            assert np.max(np.abs(up - row)) <= qz.half_step(peak, bits) + allowance


LINK_KEYS = ("grid", "structure", "rounding", "lq_static", "layer_sizes",
             "layer_feature_scales", "regularization", "spread", "noise_std",
             "uplink_schedule", "uplink_bits", "uplink_f", "uplink_p",
             "downlink_schedule", "downlink_bits", "downlink_f", "downlink_p")


@pytest.mark.parametrize("fields, reads", [
    ({}, {"spread", "noise_std"}),
    (dict(uplink_mode=fed.UplinkMode.WEIGHT, grid=qz.GridKind.PIPELINE),
     {"grid", "structure", "rounding", "spread", "noise_std", "uplink_schedule",
      "uplink_bits"}),
    (dict(uplink_mode=fed.UplinkMode.WEIGHT,
          uplink_schedule=fed.ScheduleSpec(fed.ScheduleKind.STEP_LOG, f=2, p=3)),
     {"grid", "spread", "noise_std", "uplink_schedule", "uplink_f", "uplink_p"}),
    (dict(uplink_mode=fed.UplinkMode.DIFFERENTIAL, downlink_mode=fed.DownlinkMode.QUANTIZED,
          downlink_schedule=fed.ScheduleSpec(fed.ScheduleKind.DOWNLINK_LOG)),
     {"grid", "rounding", "spread", "noise_std", "uplink_schedule", "uplink_bits",
      "downlink_schedule"}),
    (dict(downlink_mode=fed.DownlinkMode.LAYERED, grid=qz.GridKind.PIPELINE),
     {"rounding", "lq_static", "layer_sizes", "spread", "noise_std", "downlink_schedule",
      "downlink_bits"}),
    (dict(model=m.LossKind.LOGISTIC, regularization=1.0, dimension=4, layer_sizes=(1, 3),
          layer_feature_scales=(1.0, 2.0)),
     {"layer_sizes", "layer_feature_scales", "regularization"}),
], ids=["float-float", "weight-pipeline", "weight-step_log", "differential-quantized",
        "float-layered", "logistic"])
def test_config_reads(fields, reads):
    # every run reads the problem and round keys, and weight_bound for bound
    config = fed.FederationConfig(**fields)
    read = fed.config_reads(config)
    assert {"seed", "rounds", "model", "weight_bound"} <= read
    assert read & set(LINK_KEYS) == reads


class TestConfigValidation:
    def test_participation_bounds(self):
        with pytest.raises(fed.ConfigError, match="clients_per_round"):
            fed.FederationConfig(num_clients=3, clients_per_round=4)

    def test_one_bit_pipeline_link_is_always_enhanced(self):
        # the plain 1-bit pipeline decodes only to {-1/G, 0}: no config selects it
        assert "one_bit_enhanced" not in fed.FederationConfig.__dataclass_fields__
        with pytest.raises(TypeError, match="one_bit_enhanced"):
            fed.FederationConfig(one_bit_enhanced=False)
        for rounding in (NEAREST, qz.Rounding.STOCHASTIC):
            fed.FederationConfig(uplink_mode=fed.UplinkMode.WEIGHT, grid=qz.GridKind.PIPELINE,
                                 uplink_schedule=fed.ScheduleSpec.constant(1),
                                 rounding=rounding)
            assert fed._link_spec(1, False, rounding) == qz.QuantizerSpec(1, rounding)

    def test_symmetric_grid_needs_stochastic(self):
        with pytest.raises(fed.ConfigError):
            fed.FederationConfig(rounding=qz.Rounding.NEAREST,
                                 grid=qz.GridKind.SYMMETRIC)

    def test_nearest_rounding_needs_a_link_that_reads_it(self):
        # a differential uplink, a layered downlink and a pipeline link round
        # as configured; a symmetric-grid link always rounds stochastically,
        # so nearest must reach every quantized link
        up, down = fed.UplinkMode, fed.DownlinkMode
        for fields in (dict(uplink_mode=up.DIFFERENTIAL),
                       dict(uplink_mode=up.DIFFERENTIAL, downlink_mode=down.QUANTIZED,
                            grid=qz.GridKind.PIPELINE),
                       dict(downlink_mode=down.LAYERED),
                       dict(uplink_mode=up.WEIGHT, grid=qz.GridKind.PIPELINE)):
            fed.FederationConfig(rounding=NEAREST, **fields)
        unread = "^rounding is not read by a quadratic run with "
        for fields, message in (
                ({}, unread + "a float uplink and a float downlink$"),
                (dict(uplink_mode=up.WEIGHT), unread),
                (dict(downlink_mode=down.QUANTIZED), unread),
                (dict(uplink_mode=up.DIFFERENTIAL, downlink_mode=down.QUANTIZED),
                 "^rounding=nearest does not reach the downlink: a quantized downlink "
                 "on the symmetric grid always rounds stochastically$"),
                (dict(uplink_mode=up.WEIGHT, downlink_mode=down.LAYERED),
                 "^rounding=nearest does not reach the uplink: a weight uplink "
                 "on the symmetric grid always rounds stochastically$")):
            with pytest.raises(fed.ConfigError, match=message):
                fed.FederationConfig(rounding=NEAREST, **fields)

    def test_layer_sizes_must_cover_dimension(self):
        with pytest.raises(fed.ConfigError):
            fed.FederationConfig(dimension=10, layer_sizes=(5, 4))

    def test_schedule_parameters_validated(self):
        with pytest.raises(fed.ConfigError):
            fed.ScheduleSpec(fed.ScheduleKind.STEP_LOG, f=1.0, p=70.0)
        with pytest.raises(fed.ConfigError):
            fed.ScheduleSpec.constant(0)

    def test_zero_rounds_allowed(self):
        cfg = fed.FederationConfig(rounds=0)
        assert fed.run_federation(cfg) == []


class TestBroadcast:
    def small_weights(self):
        return np.array([0.5, -0.25, 0.75, -0.125])

    def test_float_is_identity(self):
        cfg = fed.FederationConfig(downlink_mode=fed.DownlinkMode.FLOAT)
        w = self.small_weights()
        delivered, bits = fed.broadcast(w, cfg, 0, None)
        assert delivered is w
        assert bits == 32 * 4

    def test_quantized_grid_unbiased_monte_carlo(self):
        # one broadcast draw per round; simulate many draws by tiling the
        # vector through the same grid quantizer
        w = np.array([0.3, -0.9, 0.41, 0.0])
        bound = 1.0
        bits = 3
        draws = 10 ** 5
        spec = qz.QuantizerSpec(bits, grid=qz.GridKind.SYMMETRIC)
        tiled = qz.quantize_vector(np.tile(w, draws), spec, bound,
                                   np.random.default_rng([9]).random(4 * draws))
        means = tiled.dequantize().reshape(draws, 4).mean(axis=0)
        sigma = qz.half_step(bound, bits) / math.sqrt(draws)
        assert np.all(np.abs(means - w) <= 3 * sigma + 1e-12)

    def test_quantized_respects_weight_bound(self):
        cfg = fed.FederationConfig(downlink_mode=fed.DownlinkMode.QUANTIZED,
                                   weight_bound=0.5)
        w = self.small_weights()
        with pytest.raises(fed.AssumptionViolation):
            fed.broadcast(w, cfg, 4, np.random.default_rng([10]).random(w.size))

    def test_layered_beats_single_gain_on_split_ranges(self):
        rng = np.random.default_rng([11])
        values = np.concatenate([rng.uniform(-1, 1, 32),
                                 rng.uniform(-0.01, 0.01, 32)])
        layers = ((0, 32), (32, 64))
        bits = 4
        base, extras = qz.layered_gains(values, layers, bits)
        per_layer_mse = sum(
            qz.expected_sq_error(values[a:b], qz.QuantizerSpec(bits), base * g)
            for (a, b), g in zip(layers, extras)
        )
        whole_base, whole_extras = qz.layered_gains(values, ((0, 64),), bits)
        single_gain = whole_base * float(whole_extras[0])
        single_mse = qz.expected_sq_error(values, qz.QuantizerSpec(bits), single_gain)
        assert per_layer_mse <= single_mse

    @pytest.mark.parametrize("rounding", [qz.Rounding.NEAREST, qz.Rounding.STOCHASTIC])
    def test_quantized_is_the_one_layer_layered_case(self, rounding):
        w = np.array([0.5, -0.25, 0.003, -0.001, 0.07])
        pipeline = dict(grid=qz.GridKind.PIPELINE, structure=fed.Structure.TUNED,
                        rounding=rounding, dimension=5)
        quantized = fed.broadcast(
            w, fed.FederationConfig(downlink_mode=fed.DownlinkMode.QUANTIZED, **pipeline),
            3, np.random.default_rng([14]).random(w.size))
        layered = fed.broadcast(
            w, fed.FederationConfig(downlink_mode=fed.DownlinkMode.LAYERED, **pipeline),
            3, np.random.default_rng([14]).random(w.size))
        assert np.array_equal(quantized[0], layered[0])
        assert quantized[1] == layered[1]

    def test_layered_broadcast_layer_count_header(self):
        cfg = fed.FederationConfig(
            downlink_mode=fed.DownlinkMode.LAYERED, dimension=4,
            layer_sizes=(2, 2), grid=qz.GridKind.PIPELINE)
        w = np.array([0.5, -0.25, 0.003, -0.001])
        _, bits = fed.broadcast(w, cfg, 4, np.random.default_rng([12]).random(w.size))
        assert bits == 2 * (2 * 4 + 17 * 8)

    def test_static_layered_freezes_gains(self):
        # given extra gains replace the per-round ones (init_state supplies them)
        cfg = fed.FederationConfig(
            downlink_mode=fed.DownlinkMode.LAYERED, dimension=4,
            layer_sizes=(2, 2), grid=qz.GridKind.PIPELINE, lq_static=True)
        w = np.array([0.5, -0.25, 0.003, -0.001])
        delivered, _ = fed.broadcast(w, cfg, 4, np.random.default_rng([13]).random(w.size),
                                     frozen_extra_gains=np.array([4.0, 4.0]))
        # codewords decode against the frozen gain 8 * 4
        assert np.all(np.abs(delivered * 32.0 - np.round(delivered * 32.0)) < 1e-9)


class TestRunRound:
    def base_config(self, **overrides):
        defaults = dict(num_clients=6, clients_per_round=3, local_steps=2,
                        rounds=5, batch_size=2, dimension=4,
                        samples_per_client=6, spread=1.0, seed=3)
        defaults.update(overrides)
        return fed.FederationConfig(**defaults)

    def test_bits_accounting_differential(self):
        cfg = self.base_config(
            dimension=100, uplink_mode=fed.UplinkMode.DIFFERENTIAL,
            uplink_schedule=fed.ScheduleSpec.constant(2))
        records = fed.run_federation(cfg)
        per_round = 3 * (100 * 2 + 17 * 8)
        for t, rec in enumerate(records):
            assert rec.uplink_bits_cum == (t + 1) * per_round
            assert rec.downlink_bits_cum == (t + 1) * 32 * 100

    def test_bits_monotone_all_modes(self):
        for uplink, downlink in [
            (fed.UplinkMode.WEIGHT, fed.DownlinkMode.FLOAT),
            (fed.UplinkMode.DIFFERENTIAL, fed.DownlinkMode.QUANTIZED),
        ]:
            cfg = self.base_config(
                uplink_mode=uplink, downlink_mode=downlink, weight_bound=8.0,
                uplink_schedule=fed.ScheduleSpec.constant(3),
                downlink_schedule=fed.ScheduleSpec.constant(3))
            records = fed.run_federation(cfg)
            ups = [r.uplink_bits_cum for r in records]
            downs = [r.downlink_bits_cum for r in records]
            assert all(a < b for a, b in zip(ups, ups[1:]))
            assert all(a < b for a, b in zip(downs, downs[1:]))

    @pytest.mark.parametrize("sizes", [None, (5, 7, 5, 9, 6, 4)], ids=["even", "uneven"])
    def test_each_pool_generator_is_rekeyed_and_drawn_once(self, monkeypatch, sizes):
        cfg = self.base_config(uplink_mode=fed.UplinkMode.DIFFERENTIAL,
                               downlink_mode=fed.DownlinkMode.QUANTIZED,
                               weight_bound=8.0, samples_per_client=5)
        datasets = fed.build_problem(cfg)[1]
        if sizes is not None:
            rng = np.random.default_rng([37])
            datasets = [m.ClientDataset(rng.standard_normal((n, cfg.dimension)))
                        for n in sizes]
        state = fed.init_state(cfg, QUADRATIC, datasets)
        rekeys, draws, real_rekey = [], [], fed.rekey

        class Recorder:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size=None, out=None):
                drawn = self.rng.random(size, out=out)
                draws.append((self.rng, drawn.copy()))
                return drawn

        def spy(rng, seed, role, t, client=0):
            rekeys.append((rng, role, client))
            return Recorder(real_rekey(rng, seed, role, t, client))
        monkeypatch.setattr(fed, "rekey", spy)
        n, d, steps = cfg.num_clients, cfg.dimension, cfg.local_steps
        for t in range(cfg.rounds):
            rekeys.clear()
            draws.clear()
            state, _ = fed.run_round(state, cfg, t)
            # the round stream, then one client per pool generator, each once
            assert [rng for rng, _, _ in rekeys] == list(state.pool)
            assert [rng for rng, _ in draws] == list(state.pool)
            assert [role for _, role, _ in rekeys] == [ROUND] + [CLIENT] * 3
            server = draws[0][1]
            assert np.array_equal(server, philox_stream(cfg.seed, ROUND, t).random(n + d))
            clients = [c for _, _, c in rekeys[1:]]
            assert clients == fed.sample_clients(n, 3, server[:n]).tolist()
            for (rng, drawn), c in zip(draws[1:], clients):
                fresh = philox_stream(cfg.seed, CLIENT, t, c)
                assert np.array_equal(drawn, fresh.random(steps * datasets[c].size + d))
                # nothing else was drawn: both streams stand at the same place
                assert np.array_equal(rng.random(3), fresh.random(3))
            assert np.array_equal(state.pool[0].random(3),
                                  philox_stream(cfg.seed, ROUND, t).random(n + d + 3)[-3:])

    def test_weight_mode_assumption_violation(self):
        cfg = self.base_config(uplink_mode=fed.UplinkMode.WEIGHT,
                               uplink_schedule=fed.ScheduleSpec.constant(4),
                               weight_bound=1e-6)
        with pytest.raises(fed.AssumptionViolation):
            fed.run_federation(cfg)

    def test_determinism(self):
        cfg = self.base_config(uplink_mode=fed.UplinkMode.DIFFERENTIAL,
                               uplink_schedule=fed.ScheduleSpec.constant(3))
        assert fed.run_federation(cfg) == fed.run_federation(cfg)

    def test_gap_uses_solved_optimum(self):
        cfg = self.base_config()
        model, datasets = fed.build_problem(cfg)
        opt = m.solve_optimum(model, datasets)
        records = fed.run_federation(cfg, model, datasets)
        assert records[-1].gap == pytest.approx(
            records[-1].train_loss - opt.f_star, abs=0)

    def test_scheduled_bits_recorded(self):
        cfg = self.base_config(
            uplink_mode=fed.UplinkMode.WEIGHT, weight_bound=8.0,
            uplink_schedule=fed.ScheduleSpec(fed.ScheduleKind.WEIGHT_LOG),
            downlink_mode=fed.DownlinkMode.QUANTIZED,
            downlink_schedule=fed.ScheduleSpec(fed.ScheduleKind.DOWNLINK_LOG))
        gamma = fed.gamma_offset(cfg.mu, cfg.lipschitz, cfg.local_steps)
        for t, rec in enumerate(fed.run_federation(cfg)):
            assert rec.bits_up == fed.weight_uplink_bits(t + 1, cfg.mu, gamma)
            assert rec.bits_down == fed.downlink_log_bits(t, cfg.mu, gamma)

    def test_one_round_full_batch_contraction(self):
        # full participation, full batch, one local step: the round is one
        # exact global gradient step, contracting the gap by (1 - eta)^2
        cfg = self.base_config(num_clients=4, clients_per_round=4,
                               local_steps=1, batch_size=6, rounds=1)
        model, datasets = fed.build_problem(cfg)
        opt = m.solve_optimum(model, datasets)
        state = fed.init_state(cfg, model, datasets)
        gamma = fed.gamma_offset(cfg.mu, cfg.lipschitz, cfg.local_steps)
        eta = fed.lr_schedule(0, cfg.mu, gamma)
        pooled = m.pooled_dataset(datasets)
        gap0 = m.loss(model, np.zeros(cfg.dimension), pooled.features,
                      pooled.labels) - opt.f_star
        _, record = fed.run_round(state, cfg, 0)
        assert record.gap == pytest.approx((1 - eta) ** 2 * gap0, rel=1e-12)

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(uplink_mode=fed.UplinkMode.DIFFERENTIAL,
             uplink_schedule=fed.ScheduleSpec.constant(3)),
        dict(downlink_mode=fed.DownlinkMode.LAYERED, layer_sizes=(1, 3),
             grid=qz.GridKind.PIPELINE),
    ], ids=["float-float", "differential", "layered"])
    def test_observed_models_are_never_written(self, overrides):
        # a float broadcast delivers the global array itself, so the engine
        # must not write to an array once it has handed it out
        kept, copies = [], []

        def observe(t, w):
            kept.append(w)
            copies.append(w.copy())
        fed.run_federation(self.base_config(rounds=10, **overrides), observer=observe)
        assert len(kept) == 10
        for t, (a, b) in enumerate(zip(kept, copies)):
            assert np.array_equal(a, b), f"round {t}"


def planned_config(**overrides):
    """The README testbed: K * E * n = 500 batch keys a round, so a run plans
    32 rounds at a time."""
    fields = dict(num_clients=20, clients_per_round=5, local_steps=5, batch_size=5,
                  dimension=10, samples_per_client=20, rounds=70, seed=5,
                  uplink_mode=fed.UplinkMode.DIFFERENTIAL,
                  uplink_schedule=fed.ScheduleSpec.constant(4))
    fields.update(overrides)
    return fed.FederationConfig(**fields)


def uneven_datasets(cfg, seed=38):
    """One dataset per client, of 6 to 25 samples."""
    rng = np.random.default_rng([seed])
    return [m.ClientDataset(rng.standard_normal((int(n), cfg.dimension)))
            for n in rng.integers(6, 26, cfg.num_clients)]


class TestRoundPlan:
    @pytest.mark.parametrize("uneven", [False, True], ids=["even", "uneven"])
    @pytest.mark.parametrize("rounds", [0, 1, 31, 32, 33, 70])
    def test_blocked_run_equals_round_by_round(self, monkeypatch, rounds, uneven):
        cfg = planned_config(rounds=rounds)
        model, datasets = fed.build_problem(cfg)
        if uneven:
            datasets = uneven_datasets(cfg)
        counts, real_plan = [], fed.plan_rounds

        def spy(state, config, t0, count):
            counts.append(count)
            return real_plan(state, config, t0, count)
        monkeypatch.setattr(fed, "plan_rounds", spy)
        blocked = fed.run_federation(cfg, model, datasets)
        block = fed.PLAN_KEYS // (5 * 5 * max(ds.size for ds in datasets))
        assert block == 32 or uneven
        assert counts == [min(block, rounds - t0) for t0 in range(0, rounds, block)]
        state, by_round = fed.init_state(cfg, model, datasets), []
        for t in range(rounds):
            state, record = fed.run_round(state, cfg, t)
            by_round.append(record)
        assert blocked == by_round

    def test_blocked_rekeys_are_the_round_by_round_rekeys(self, monkeypatch):
        cfg = planned_config()
        model, datasets = fed.build_problem(cfg)
        rekeys, real_rekey = [], fed.rekey

        def spy(rng, seed, role, t, client=0):
            rekeys.append((role, t, client))
            return real_rekey(rng, seed, role, t, client)
        monkeypatch.setattr(fed, "rekey", spy)
        blocked = fed.run_federation(cfg, model, datasets)
        blocked_rekeys = rekeys[:]
        rekeys.clear()
        state = fed.init_state(cfg, model, datasets)
        for t in range(cfg.rounds):
            state, _ = fed.run_round(state, cfg, t)
        assert len(blocked) == cfg.rounds and len(rekeys) == cfg.rounds * 6
        assert [role for role, _, _ in rekeys[:6]] == [ROUND] + [CLIENT] * 5
        # a plan re-keys every round stream first, then the clients' streams:
        # grouped by round, the order is the round-by-round one
        assert blocked_rekeys != rekeys
        assert sorted(blocked_rekeys, key=lambda entry: entry[1]) == rekeys

    def test_each_slot_reads_its_clients_stream(self):
        cfg = planned_config()
        datasets = uneven_datasets(cfg)
        state = fed.init_state(cfg, QUADRATIC, datasets)
        starts = np.cumsum([0] + [ds.size for ds in datasets])
        n, d, steps = cfg.num_clients, cfg.dimension, cfg.local_steps
        plan = fed.plan_rounds(state, cfg, 7, 4)
        assert plan.t0 == 7
        assert plan.server.shape == (4, n + d) and plan.uniforms.shape == (4, 5, d)
        assert plan.rows.shape == (4, 5, steps, cfg.batch_size)
        for i, t in enumerate(range(7, 11)):
            assert np.array_equal(plan.server[i], philox_stream(cfg.seed, ROUND, t).random(n + d))
            assert np.array_equal(plan.selected[i],
                                  fed.sample_clients(n, 5, plan.server[i, :n]))
            for slot, c in enumerate(plan.selected[i].tolist()):
                size = datasets[c].size
                drawn = philox_stream(cfg.seed, CLIENT, t, c).random(steps * size + d)
                batches = k_subset(drawn[:steps * size].reshape(steps, size),
                                   cfg.batch_size)
                assert np.array_equal(plan.rows[i, slot], batches + starts[c])
                assert np.array_equal(plan.uniforms[i, slot], drawn[steps * size:])

    def test_batch_size_checked_against_selected_clients(self):
        cfg = planned_config(batch_size=7)
        datasets = [m.ClientDataset(np.ones((3 if c == 0 else 20, cfg.dimension)))
                    for c in range(cfg.num_clients)]
        state = fed.init_state(cfg, QUADRATIC, datasets)
        selects_small = [
            0 in fed.sample_clients(20, 5, philox_stream(cfg.seed, ROUND, t).random(20))
            for t in range(12)]
        assert any(selects_small) and not all(selects_small)
        for t, small in enumerate(selects_small):
            if not small:
                fed.plan_rounds(state, cfg, t, 1)
                continue
            with pytest.raises(ValueError, match="batch size"):
                fed.plan_rounds(state, cfg, t, 1)
        with pytest.raises(ValueError, match="batch size"):
            fed.plan_rounds(state, cfg, 0, 12)

    @pytest.mark.parametrize("uplink, downlink", [
        (fed.ScheduleSpec.constant(4), fed.ScheduleSpec.constant(6)),
        (fed.ScheduleSpec(fed.ScheduleKind.WEIGHT_LOG),
         fed.ScheduleSpec(fed.ScheduleKind.DOWNLINK_LOG)),
        (fed.ScheduleSpec(fed.ScheduleKind.STEP_LOG, f=2.5, p=7.0),
         fed.ScheduleSpec(fed.ScheduleKind.STEP_LOG, f=3.0, p=11.0)),
    ], ids=["constant", "log", "step-log"])
    @pytest.mark.parametrize("quantized", [True, False], ids=["quantized", "float"])
    def test_each_rounds_schedule_is_planned(self, uplink, downlink, quantized):
        # 70 rounds in blocks of 32: every round of every block has its own
        # learning rate and widths
        modes = ((fed.UplinkMode.DIFFERENTIAL, fed.DownlinkMode.QUANTIZED) if quantized
                 else (fed.UplinkMode.FLOAT, fed.DownlinkMode.FLOAT))
        cfg = planned_config(uplink_mode=modes[0], downlink_mode=modes[1],
                             uplink_schedule=uplink, downlink_schedule=downlink,
                             weight_bound=50.0)
        gamma = fed.gamma_offset(cfg.mu, cfg.lipschitz, cfg.local_steps)
        expected = [(fed.lr_schedule(t, cfg.mu, gamma),
                     fed.schedule_bits(uplink, t, cfg.mu, gamma) if quantized else 32,
                     fed.schedule_bits(downlink, t, cfg.mu, gamma) if quantized else 32)
                    for t in range(70)]
        assert len(set(expected)) == 70
        state, planned = fed.init_state(cfg), []
        for t0, count in ((0, 32), (32, 32), (64, 6)):
            planned.extend(fed.plan_rounds(state, cfg, t0, count).schedule)
        assert planned == expected
        records = fed.run_federation(cfg)
        assert [(r.eta, r.bits_up, r.bits_down) for r in records] == expected

    def test_round_outside_the_plan_rejected(self):
        cfg = planned_config()
        state = fed.init_state(cfg)
        plan = fed.plan_rounds(state, cfg, 4, 3)
        for t in (3, 7):
            with pytest.raises(ValueError, match=f"round {t} is not in the plan"):
                fed.run_round(state, cfg, t, plan)


class TestStaticLayeredGains:
    def config(self, **overrides):
        fields = dict(num_clients=6, clients_per_round=3, local_steps=2, rounds=6,
                      batch_size=2, dimension=4, layer_sizes=(1, 3),
                      samples_per_client=6, seed=3, grid=qz.GridKind.PIPELINE,
                      downlink_mode=fed.DownlinkMode.LAYERED, lq_static=True,
                      downlink_schedule=fed.ScheduleSpec(fed.ScheduleKind.DOWNLINK_LOG))
        fields.update(overrides)
        return fed.FederationConfig(**fields)

    def test_init_state_fixes_the_zero_model_gains(self):
        cfg = self.config()
        gamma = fed.gamma_offset(cfg.mu, cfg.lipschitz, cfg.local_steps)
        bits0 = fed.schedule_bits(cfg.downlink_schedule, 0, cfg.mu, gamma)
        expected = qz.layered_gains(np.zeros(4), cfg.layer_bounds(), bits0)[1]
        frozen = fed.init_state(cfg).frozen_extra_gains
        assert np.array_equal(frozen, expected)
        # every layer of the all-zero start is at the extra-gain cap
        assert frozen.tolist() == [2.0 ** 30, 2.0 ** 30]

    def test_gains_kept_across_rounds(self):
        cfg = self.config()
        state = fed.init_state(cfg)
        frozen = state.frozen_extra_gains.copy()
        for t in range(cfg.rounds):
            state, _ = fed.run_round(state, cfg, t)
            assert np.array_equal(state.frozen_extra_gains, frozen), f"round {t}"
        assert np.any(state.w_global != 0.0)

    @pytest.mark.parametrize("downlink, static", [
        (fed.DownlinkMode.LAYERED, False),
        (fed.DownlinkMode.QUANTIZED, True),
        (fed.DownlinkMode.FLOAT, True),
    ], ids=["layered-dynamic", "quantized-static", "float-static"])
    def test_none_unless_layered_and_static(self, downlink, static):
        cfg = self.config(downlink_mode=downlink, lq_static=static)
        assert fed.init_state(cfg).frozen_extra_gains is None


class TestFloatEquivalences:
    def test_float_float_matches_reference_loop(self):
        cfg = fed.FederationConfig(
            num_clients=8, clients_per_round=3, local_steps=2, rounds=25,
            batch_size=4, dimension=5, samples_per_client=10, seed=11)
        model, datasets = fed.build_problem(cfg)

        engine_track = []
        fed.run_federation(cfg, model, datasets,
                           observer=lambda t, w: engine_track.append(w.copy()))

        gamma = fed.gamma_offset(cfg.mu, cfg.lipschitz, cfg.local_steps)
        w = np.zeros(cfg.dimension)
        for t in range(cfg.rounds):
            eta = fed.lr_schedule(t, cfg.mu, gamma)
            keys = philox_stream(cfg.seed, ROUND, t).random(cfg.num_clients)
            selected = fed.sample_clients(cfg.num_clients, cfg.clients_per_round, keys)
            locals_ = [
                ref.local_train(w, model, datasets[k], cfg.local_steps,
                                cfg.batch_size, eta,
                                philox_stream(cfg.seed, CLIENT, t, int(k)))
                for k in selected
            ]
            w = np.stack(locals_).mean(axis=0)
            assert np.array_equal(w, engine_track[t])

    def test_float_differential_equals_float_weight(self):
        # exchanging exact differentials reproduces exact weight exchange
        cfg = fed.FederationConfig(
            num_clients=6, clients_per_round=2, local_steps=3, rounds=30,
            batch_size=3, dimension=4, samples_per_client=8, seed=21)
        model, datasets = fed.build_problem(cfg)
        gamma = fed.gamma_offset(cfg.mu, cfg.lipschitz, cfg.local_steps)
        w_weight = np.zeros(cfg.dimension)
        w_diff = np.zeros(cfg.dimension)
        for t in range(cfg.rounds):
            eta = fed.lr_schedule(t, cfg.mu, gamma)
            keys = philox_stream(cfg.seed, ROUND, t).random(cfg.num_clients)
            selected = fed.sample_clients(cfg.num_clients, cfg.clients_per_round, keys)

            locals_w = [ref.local_train(w_weight, model, datasets[k],
                                        cfg.local_steps, cfg.batch_size, eta,
                                        philox_stream(cfg.seed, CLIENT, t, int(k)))
                        for k in selected]
            w_weight = fed.aggregate_weights(locals_w)

            locals_d = [ref.local_train(w_diff, model, datasets[k],
                                        cfg.local_steps, cfg.batch_size, eta,
                                        philox_stream(cfg.seed, CLIENT, t, int(k)))
                        for k in selected]
            w_diff = fed.aggregate_differentials(
                w_diff, [wl - w_diff for wl in locals_d])
            assert np.max(np.abs(w_diff - w_weight)) <= 1e-12


def reference_upload(cfg, w_local, delivered, bits, rng):
    """One client's upload the one-vector way: its own quantize_vector call
    on its own stream, with the spec and scale the engine's rules give it."""
    if cfg.uplink_mode is fed.UplinkMode.FLOAT:
        return w_local
    if cfg.uplink_mode is fed.UplinkMode.WEIGHT:
        if cfg.grid is qz.GridKind.SYMMETRIC:
            spec, scale = qz.QuantizerSpec(bits, grid=qz.GridKind.SYMMETRIC), cfg.weight_bound
        else:
            scale = 2.0 ** (bits - 1)
            if cfg.structure is fed.Structure.TUNED:
                scale /= cfg.weight_bound
            spec = qz.QuantizerSpec(bits, cfg.rounding)
        return qz.quantize_vector(w_local, spec, scale, rng.random(w_local.size)).dequantize()
    # a differential: the symmetric grid over its own peak, in cfg.rounding
    diff = w_local - delivered
    peak = float(np.max(np.abs(diff)))
    if peak == 0.0:
        return np.zeros_like(diff)
    spec = qz.QuantizerSpec(bits, cfg.rounding, qz.GridKind.SYMMETRIC)
    return qz.quantize_vector(diff, spec, peak, rng.random(diff.size)).dequantize()


def reference_run(cfg, model, datasets):
    """Global model after each round, every client trained and quantized on
    its own with ``local_train`` and a one-vector ``quantize_vector``, both
    drawing from the client's stream in that order."""
    gamma = fed.gamma_offset(cfg.mu, cfg.lipschitz, cfg.local_steps)
    w = np.zeros(cfg.dimension)
    frozen = None
    if cfg.lq_static:
        # static gains: those of the initial model at round 0's width
        bits0 = fed.schedule_bits(cfg.downlink_schedule, 0, cfg.mu, gamma)
        frozen = qz.layered_gains(w, cfg.layer_bounds(), bits0)[1]
    track = []
    for t in range(cfg.rounds):
        eta = fed.lr_schedule(t, cfg.mu, gamma)
        bits_up = fed.schedule_bits(cfg.uplink_schedule, t, cfg.mu, gamma)
        bits_down = fed.schedule_bits(cfg.downlink_schedule, t, cfg.mu, gamma)
        server_rng = philox_stream(cfg.seed, ROUND, t)
        selected = fed.sample_clients(cfg.num_clients, cfg.clients_per_round,
                                      server_rng.random(cfg.num_clients))
        delivered, _ = fed.broadcast(w, cfg, bits_down, server_rng.random(w.size),
                                     frozen_extra_gains=frozen)
        uploads = []
        for k in selected:
            rng = philox_stream(cfg.seed, CLIENT, t, int(k))
            w_local = ref.local_train(delivered, model, datasets[k],
                                      cfg.local_steps, cfg.batch_size, eta, rng)
            uploads.append(
                reference_upload(cfg, w_local, delivered, bits_up, rng))
        w = np.stack(uploads).mean(axis=0)
        if cfg.uplink_mode is fed.UplinkMode.DIFFERENTIAL:
            w = delivered + w
        track.append(w)
    return track


REPLAY_MODES = [
    dict(uplink_mode=up, grid=grid, rounding=rounding, structure=structure,
         uplink_schedule=fed.ScheduleSpec.constant(bits))
    for up in (fed.UplinkMode.WEIGHT, fed.UplinkMode.DIFFERENTIAL)
    for grid, rounding in ((qz.GridKind.PIPELINE, qz.Rounding.NEAREST),
                           (qz.GridKind.PIPELINE, qz.Rounding.STOCHASTIC),
                           (qz.GridKind.SYMMETRIC, qz.Rounding.STOCHASTIC))
    for structure in (fed.Structure.TUNED, fed.Structure.NATIVE)
    for bits in (1, 4)
] + [dict(uplink_mode=fed.UplinkMode.FLOAT)]


def mode_id(mode):
    return "-".join(str(getattr(v, "value", getattr(v, "bits", v))) for v in mode.values())


class TestReferenceReplay:
    """The batched round against a client-by-client replay, every round."""

    def replay(self, cfg, model=None, datasets=None):
        if model is None:
            model, datasets = fed.build_problem(cfg)
            fed.check_smoothness(cfg, m.solve_optimum(model, datasets))
        engine = []
        fed.run_federation(cfg, model, datasets,
                           observer=lambda t, w: engine.append(w.copy()))
        reference = reference_run(cfg, model, datasets)
        assert len(engine) == cfg.rounds
        for t, (a, b) in enumerate(zip(engine, reference)):
            assert np.array_equal(a, b), f"round {t}"

    @pytest.mark.parametrize("mode", REPLAY_MODES, ids=mode_id)
    def test_quadratic(self, mode):
        self.replay(fed.FederationConfig(
            num_clients=7, clients_per_round=4, local_steps=3, rounds=12,
            batch_size=3, dimension=5, samples_per_client=6, weight_bound=4.0,
            downlink_mode=fed.DownlinkMode.QUANTIZED, seed=13, **mode))

    @pytest.mark.parametrize("mode", REPLAY_MODES, ids=mode_id)
    def test_logistic_layered_static(self, mode):
        self.replay(fed.FederationConfig(
            model=m.LossKind.LOGISTIC, regularization=0.05, mu=0.05,
            lipschitz=1.5, num_clients=5, clients_per_round=3, local_steps=2,
            rounds=8, batch_size=6, dimension=6, layer_sizes=(2, 4),
            samples_per_client=12, weight_bound=8.0,
            downlink_mode=fed.DownlinkMode.LAYERED, lq_static=True, seed=17,
            **mode))

    @pytest.mark.parametrize("rounding", [qz.Rounding.NEAREST, qz.Rounding.STOCHASTIC])
    def test_uneven_clients_with_zero_differential_rows(self, rounding):
        # clients 0 and 2 hold only zeros, so from the zero start their
        # first-round differentials are exactly zero next to nonzero rows
        rng = np.random.default_rng([31])
        datasets = [m.ClientDataset(np.zeros((4, 3))),
                    m.ClientDataset(rng.standard_normal((9, 3))),
                    m.ClientDataset(np.zeros((6, 3))),
                    m.ClientDataset(rng.standard_normal((5, 3)))]
        cfg = fed.FederationConfig(
            num_clients=4, clients_per_round=4, local_steps=2, rounds=6,
            batch_size=3, dimension=3, samples_per_client=3, seed=19,
            uplink_mode=fed.UplinkMode.DIFFERENTIAL, rounding=rounding,
            grid=qz.GridKind.PIPELINE, uplink_schedule=fed.ScheduleSpec.constant(3))
        state = fed.init_state(cfg, QUADRATIC, datasets)
        assert state.sizes == (4, 9, 6, 5) and state.starts == (0, 4, 13, 19)
        self.replay(cfg, QUADRATIC, datasets)

    @pytest.mark.parametrize("downlink, rounding", [
        (fed.DownlinkMode.FLOAT, qz.Rounding.STOCHASTIC),
        (fed.DownlinkMode.QUANTIZED, qz.Rounding.NEAREST),
        (fed.DownlinkMode.LAYERED, qz.Rounding.NEAREST),
    ], ids=["float", "quantized-nearest", "layered-nearest"])
    def test_float_or_nearest_downlink_reads_no_uniforms(self, monkeypatch, downlink,
                                                         rounding):
        # the engine hands broadcast d uniforms; withholding them changes nothing
        cfg = fed.FederationConfig(num_clients=4, clients_per_round=2, rounds=3,
                                   dimension=3, samples_per_client=5, layer_sizes=(1, 2),
                                   downlink_mode=downlink, rounding=rounding,
                                   grid=qz.GridKind.PIPELINE)
        expected = fed.run_federation(cfg)
        original, shapes = fed.broadcast, []

        def withheld(w_global, config, bits, uniforms, frozen_extra_gains=None):
            shapes.append(uniforms.shape)
            return original(w_global, config, bits, None, frozen_extra_gains)
        monkeypatch.setattr(fed, "broadcast", withheld)
        assert fed.run_federation(cfg) == expected
        assert shapes == [(3,)] * 3

    def test_violation_names_first_client_in_sorted_order(self):
        # clients 0 and 2 stay at zero; 1 and 3 both leave the bound
        rng = np.random.default_rng([23])
        datasets = [m.ClientDataset(np.zeros((4, 2))),
                    m.ClientDataset(rng.standard_normal((4, 2)) + 5.0),
                    m.ClientDataset(np.zeros((4, 2))),
                    m.ClientDataset(rng.standard_normal((4, 2)) + 9.0)]
        cfg = fed.FederationConfig(
            num_clients=4, clients_per_round=4, local_steps=1, rounds=1,
            batch_size=2, dimension=2, samples_per_client=4, seed=23,
            uplink_mode=fed.UplinkMode.WEIGHT, weight_bound=0.5)
        with pytest.raises(fed.AssumptionViolation,
                           match=r"^round 0 client 1: local weight magnitude "
                                 r"\S+ exceeds weight_bound 0.5$"):
            fed.run_federation(cfg, QUADRATIC, datasets)


class TestSamplingUnbiasedness:
    def test_enumerated_subset_average_equals_mean(self):
        # N=6, K=2: averaging the subset means over all 15 subsets recovers
        # the full mean
        rng = np.random.default_rng([30])
        vectors = rng.standard_normal((6, 4))
        subset_means = [vectors[list(s)].mean(axis=0)
                        for s in itertools.combinations(range(6), 2)]
        assert np.allclose(np.mean(subset_means, axis=0),
                           vectors.mean(axis=0), atol=1e-12)
