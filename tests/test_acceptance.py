"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from fedquant import analysis as an
from fedquant import data as d
from fedquant import federation as fed
from fedquant import models as m
from fedquant import quantizer as qz
from fedquant.streams import CLIENT, ROUND, philox_stream

from conftest import RUN_SEEDS, make_testbed_config
from reference import local_train

CHECKPOINTS = (100, 500, 1000, 2000)


def conclude(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance [{criterion}]: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def test_c01_stochastic_rounding_moments():
    start = time.monotonic()
    worst_bias, worst_excess = 0.0, -math.inf
    rng = np.random.default_rng([101])
    for bits in range(1, 9):
        spec = qz.QuantizerSpec(bits, grid=qz.GridKind.SYMMETRIC)
        for bound in (0.5, 1.0, 4.0):
            limit = qz.half_step(bound, bits) ** 2
            w = rng.uniform(-bound, bound, size=1000)
            mean, var = qz.moments(w, spec, bound)
            worst_bias = max(worst_bias, float(np.max(np.abs(mean - w))))
            worst_excess = max(worst_excess, float(np.max(var)) - limit)
    elapsed = time.monotonic() - start
    ok = worst_bias < 1e-12 and worst_excess <= 0.0 and elapsed < 5.0
    conclude("rounding moments", ok,
             f"bias={worst_bias:.2e} excess={worst_excess:.2e} {elapsed:.2f}s")


def test_c02_sampling_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng([102])
    ok = True
    for n, k in ((6, 2), (8, 3)):
        report = an.check_sampling_moments(n, k, rng.standard_normal((n, 5)))
        unbiased, identity = report.checks
        ok &= unbiased.value <= 1e-12 and identity.value <= 1e-10
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    conclude("sampling enumeration", ok, f"{elapsed:.2f}s")


def test_c03_differential_error_bound():
    start = time.monotonic()
    rng = np.random.default_rng([103])
    worst_margin = -math.inf
    for dim in (4, 64):
        for bits in (1, 3, 6):
            spec = qz.QuantizerSpec(bits, grid=qz.GridKind.SYMMETRIC)
            for _ in range(100):
                vec = rng.standard_normal(dim) * 10.0 ** rng.uniform(-2, 1)
                peak = float(np.max(np.abs(vec)))
                mse = float(np.sum(qz.moments(vec, spec, peak)[1]))
                limit = dim * float(vec @ vec) / (2.0 ** bits - 1.0) ** 2
                worst_margin = max(worst_margin, mse - limit)
    elapsed = time.monotonic() - start
    ok = worst_margin <= 0.0 and elapsed < 5.0
    conclude("differential error bound", ok,
             f"margin={worst_margin:.2e} {elapsed:.2f}s")


def test_c04_float_equivalence(quadratic_testbed):
    tb = quadratic_testbed
    cfg = make_testbed_config(rounds=200)
    engine_track = []
    fed.run_federation(cfg, tb.model, tb.datasets,
                       observer=lambda t, w: engine_track.append(w.copy()))

    gamma = fed.gamma_offset(cfg.mu, cfg.lipschitz, cfg.local_steps)
    w = np.zeros(cfg.dimension)
    identical = True
    for t in range(cfg.rounds):
        eta = fed.lr_schedule(t, cfg.mu, gamma)
        keys = philox_stream(cfg.seed, ROUND, t).random(cfg.num_clients)
        selected = fed.sample_clients(cfg.num_clients, cfg.clients_per_round, keys)
        locals_ = [
            local_train(w, tb.model, tb.datasets[k], cfg.local_steps,
                        cfg.batch_size, eta, philox_stream(cfg.seed, CLIENT, t, int(k)))
            for k in selected
        ]
        w = np.stack(locals_).mean(axis=0)
        identical &= np.array_equal(w, engine_track[t])
    conclude("float equivalence", identical, f"{cfg.rounds} rounds bit-identical")


def test_c05_constant_bit_differential(quadratic_testbed):
    tb = quadratic_testbed
    start = time.monotonic()
    float_gaps = tb.gaps()
    dt_gaps = tb.gaps(uplink_mode=fed.UplinkMode.DIFFERENTIAL,
                      uplink_schedule=fed.ScheduleSpec.constant(4))
    ratio = dt_gaps[:, -1].mean() / float_gaps[:, -1].mean()

    params = tb.bound_params()
    d_const = an.bound_constant(an.BoundVariant.DIFFERENTIAL, params, bits=4)
    bound_ok = True
    details = [f"ratio={ratio:.3f}"]
    for t in CHECKPOINTS:
        gap_mean = dt_gaps[:, t - 1].mean()
        limit = an.convergence_bound(t, params, d_const)
        bound_ok &= gap_mean <= limit
        details.append(f"t={t}:{gap_mean:.2e}<={limit:.2e}")
    elapsed = time.monotonic() - start
    ok = ratio <= 2.0 and bound_ok and elapsed < 120.0
    conclude("constant-bit differential", ok,
             " ".join(details) + f" {elapsed:.0f}s")


def test_c06_log_schedule_necessity(quadratic_testbed):
    tb = quadratic_testbed
    start = time.monotonic()
    float_gaps = tb.gaps()
    scheduled = tb.gaps(uplink_mode=fed.UplinkMode.WEIGHT,
                        uplink_schedule=fed.ScheduleSpec(fed.ScheduleKind.WEIGHT_LOG),
                        weight_bound=tb.weight_bound)
    fixed_weight = tb.gaps(uplink_mode=fed.UplinkMode.WEIGHT,
                           uplink_schedule=fed.ScheduleSpec.constant(2),
                           weight_bound=tb.weight_bound)
    fixed_diff = tb.gaps(uplink_mode=fed.UplinkMode.DIFFERENTIAL,
                         uplink_schedule=fed.ScheduleSpec.constant(2))
    log_ratio = scheduled[:, -1].mean() / float_gaps[:, -1].mean()
    fixed_ratio = fixed_weight[:, -1].mean() / fixed_diff[:, -1].mean()
    elapsed = time.monotonic() - start
    ok = log_ratio <= 3.0 and fixed_ratio >= 2.0 and elapsed < 180.0
    conclude("log-schedule necessity", ok,
             f"log/float={log_ratio:.3f} fixedW/fixedD={fixed_ratio:.3g} {elapsed:.0f}s")


def test_c07_downlink_schedule_bound(quadratic_testbed):
    tb = quadratic_testbed
    dl_gaps = tb.gaps(downlink_mode=fed.DownlinkMode.QUANTIZED,
                      downlink_schedule=fed.ScheduleSpec(fed.ScheduleKind.DOWNLINK_LOG),
                      weight_bound=tb.weight_bound)
    params = tb.bound_params()
    d_const = an.bound_constant(an.BoundVariant.DOWNLINK, params)
    ok = True
    details = []
    for t in CHECKPOINTS:
        gap_mean = dl_gaps[:, t - 1].mean()
        limit = an.convergence_bound(t, params, d_const)
        ok &= gap_mean <= limit
        details.append(f"t={t}:{gap_mean:.2e}<={limit:.2e}")
    conclude("downlink schedule bound", ok, " ".join(details))


def test_c08_layered_quantization_benefit():
    # analytic part: two-layer vector with ranges [-1, 1] and [-0.01, 0.01]
    rng = np.random.default_rng([108])
    values = np.concatenate([rng.uniform(-1, 1, 64), rng.uniform(-0.01, 0.01, 64)])
    layers = ((0, 64), (64, 128))
    bits = 4
    base, extras = qz.layered_gains(values, layers, bits)
    layered_mse = sum(
        qz.expected_sq_error(values[a:b], qz.QuantizerSpec(bits), base * g)
        for (a, b), g in zip(layers, extras)
    )
    whole_base, whole_extras = qz.layered_gains(values, ((0, 128),), bits)
    single_mse = qz.expected_sq_error(
        values, qz.QuantizerSpec(bits), whole_base * float(whole_extras[0]))
    mse_ok = layered_mse < single_mse

    # federation part: two-layer logistic model, layered vs single-gain downlink
    problem_kwargs = dict(
        num_clients=10, clients_per_round=5, local_steps=2, rounds=500,
        batch_size=10, model=m.LossKind.LOGISTIC, regularization=0.1, mu=0.1,
        dimension=10, layer_sizes=(5, 5), layer_feature_scales=(1.0, 4.0),
        samples_per_client=40, grid=qz.GridKind.PIPELINE,
        downlink_schedule=fed.ScheduleSpec.constant(4), seed=3,
    )
    model, datasets = fed.build_problem(fed.FederationConfig(**problem_kwargs))
    smooth = m.estimate_smoothness(model, datasets)

    def final_losses(downlink_mode):
        finals = []
        for seed in RUN_SEEDS:
            cfg = fed.FederationConfig(**{
                **problem_kwargs, "seed": seed, "lipschitz": smooth,
                "downlink_mode": downlink_mode,
            })
            finals.append(fed.run_federation(cfg, model, datasets)[-1].train_loss)
        return float(np.mean(finals))

    layered_loss = final_losses(fed.DownlinkMode.LAYERED)
    single_loss = final_losses(fed.DownlinkMode.QUANTIZED)
    loss_ok = layered_loss <= single_loss
    conclude("layered quantization benefit", mse_ok and loss_ok,
             f"mse {layered_mse:.4g}<{single_mse:.4g} "
             f"loss {layered_loss:.4g}<={single_loss:.4g}")


def test_c09_heterogeneity_oracle():
    datasets = [m.ClientDataset(np.array([[0.0]])), m.ClientDataset(np.array([[2.0]]))]
    exact = an.noniid_gamma(m.LossModel(m.LossKind.QUADRATIC), datasets)
    sweep = [
        an.noniid_gamma(m.LossModel(m.LossKind.QUADRATIC),
                        d.gen_quadratic_clients(8, 3, spread, seed=9))
        for spread in (0.0, 0.5, 1.0, 2.0)
    ]
    monotone = all(a <= b for a, b in zip(sweep, sweep[1:]))
    conclude("heterogeneity oracle", exact == 0.5 and monotone,
             f"gamma={exact} sweep={['%.3g' % v for v in sweep]}")


def test_c10_bandwidth_accounting():
    header_bits = qz.HEADER_BYTES * 8
    ok = True
    details = []
    for uplink_mode, bits in ((fed.UplinkMode.DIFFERENTIAL, 3),
                              (fed.UplinkMode.WEIGHT, 2)):
        cfg = make_testbed_config(rounds=20, seed=4, uplink_mode=uplink_mode,
                             uplink_schedule=fed.ScheduleSpec.constant(bits),
                             weight_bound=8.0)
        records = fed.run_federation(cfg)
        k, dim = cfg.clients_per_round, cfg.dimension
        exact = all(
            rec.uplink_bits_cum == (t + 1) * k * (dim * bits + header_bits)
            for t, rec in enumerate(records)
        )
        exact &= all(
            rec.downlink_bits_cum == (t + 1) * 32 * dim
            for t, rec in enumerate(records)
        )
        ok &= exact
        details.append(f"{uplink_mode.value}:B={bits} exact={exact}")
    conclude("bandwidth accounting", ok, " ".join(details))
