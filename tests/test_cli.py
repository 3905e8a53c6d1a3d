"""Command-line harness tests: exit codes, artifacts, determinism."""

import csv
import hashlib
import importlib
import json
import pkgutil
import platform
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedquant
from fedquant import analysis, cli
from fedquant import federation as fed
from fedquant import models
from fedquant import quantizer as qz

BASE_CONFIG = """\
# small quadratic testbed
num_clients = 6
clients_per_round = 3
local_steps = 2
rounds = 12
batch_size = 2
mu = 1.0
lipschitz = 1.0
dimension = 4
samples_per_client = 6
spread = 1.0
seed = 7
uplink_mode = differential
uplink_schedule = constant
uplink_bits = 3
downlink_mode = float
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path))
        assert cfg.num_clients == 6
        assert cfg.uplink_mode is fed.UplinkMode.DIFFERENTIAL
        assert cfg.uplink_schedule == fed.ScheduleSpec.constant(3)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "mystery_knob = 1\n")
        with pytest.raises(fed.ConfigError, match="mystery_knob"):
            cli.load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "seed = 9\n")
        with pytest.raises(fed.ConfigError, match="duplicate"):
            cli.load_config(path)

    def test_step_log_schedule_keys(self, tmp_path):
        text = BASE_CONFIG.replace("uplink_schedule = constant", "uplink_schedule = step_log")
        text = text.replace("uplink_bits = 3", "uplink_f = 2\nuplink_p = 75")
        cfg = cli.load_config(write_config(tmp_path, text))
        assert cfg.uplink_schedule.kind is fed.ScheduleKind.STEP_LOG
        assert (cfg.uplink_schedule.f, cfg.uplink_schedule.p) == (2.0, 75.0)

    def test_layer_tuple_parsing(self, tmp_path):
        text = BASE_CONFIG.replace("spread = 1.0\n", "") + (
            "model = logistic\nregularization = 1\n"
            "layer_sizes = 2,2\nlayer_feature_scales = 1.0,4.0\n")
        cfg = cli.load_config(write_config(tmp_path, text))
        assert cfg.layer_sizes == (2, 2)
        assert cfg.layer_feature_scales == (1.0, 4.0)

    def test_seed_override(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path), seed_override=42)
        assert cfg.seed == 42


class TestRunCommand:
    def test_successful_run_artifacts(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0

        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == cli.METRICS_HEADER
        assert len(rows) == 13
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["stream_scheme"] == fed.STREAM_SCHEME
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert str(out / "metrics.csv") in manifest["artifacts"]
        assert str(out / "manifest.json") in manifest["artifacts"]
        # only the keys the run read: no grid, no step_log parameters
        assert {key: manifest["config"].get(key) for key in (
            "uplink_schedule", "uplink_bits", "uplink_f", "grid", "downlink_schedule")} == {
            "uplink_schedule": "constant", "uplink_bits": 3, "uplink_f": None,
            "grid": None, "downlink_schedule": None}

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", config, "--out", str(out1)])
        cli.main(["run", "--config", config, "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", config, "--out", str(out1)])
        cli.main(["run", "--config", config, "--out", str(out2), "--seed", "99"])
        assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()

    def test_floats_round_trip_exactly(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", "--config", config, "--out", str(out)])
        cfg = cli.load_config(config)
        records = fed.run_federation(cfg)
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for row, rec in zip(rows, records):
            assert float(row[1]) == rec.eta
            assert float(row[4]) == rec.train_loss
            assert float(row[5]) == rec.gap

    def test_config_error_exit_code(self, tmp_path):
        bad = BASE_CONFIG.replace("clients_per_round = 3", "clients_per_round = 9")
        config = write_config(tmp_path, bad)
        code = cli.main(["run", "--config", config, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_config_exit_code(self, tmp_path):
        code = cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_assumption_violation_exit_code(self, tmp_path):
        text = BASE_CONFIG.replace("uplink_mode = differential", "uplink_mode = weight")
        text += "weight_bound = 1e-9\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "nested" / "o"
        code = cli.main(["run", "--config", config, "--out", str(out)])
        assert code == 3
        assert not out.parent.exists()  # a failed run writes no --out


LOGISTIC_UNREGULARIZED = BASE_CONFIG + "model = logistic\nregularization = 0\n"
# mu = 1 from BASE_CONFIG: a step size the regularization 0.01 does not back
LOGISTIC_MU_ABOVE_REGULARIZATION = BASE_CONFIG + "model = logistic\nregularization = 0.01\n"


def failing_argv(tmp_path, command, config_text):
    """argv of ``command`` on ``config_text``; ``bound`` reads a well-formed
    12-round metrics.csv, so only its config or its solver can fail."""
    cli.main(["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "q")])
    config = write_config(tmp_path, config_text, "failing.cfg")
    return {"run": ["run", "--config", config, "--out", str(tmp_path / "o")],
            "bound": ["bound", "--config", config, "--out", str(tmp_path / "b.csv"),
                      str(tmp_path / "q" / "metrics.csv")]}[command]


WEIGHT_NEAREST = BASE_CONFIG.replace("uplink_mode = differential", "uplink_mode = weight") + (
    "grid = pipeline\nrounding = nearest\nweight_bound = 10\n")


@pytest.mark.parametrize("command", ["run", "bound"])
@pytest.mark.parametrize("text, message", [
    (WEIGHT_NEAREST.replace("uplink_bits = 3", f"uplink_bits = {wide}"),
     "constant schedule requires bits >= 1 and <= 63") for wide in (64, 70, 2000)
] + [
    (BASE_CONFIG.replace("downlink_mode = float",
                         "downlink_mode = quantized\ndownlink_bits = 64"),
     "constant schedule requires bits >= 1 and <= 63"),
    (BASE_CONFIG.replace("uplink_schedule = constant\nuplink_bits = 3",
                         f"uplink_schedule = step_log\nuplink_f = {2.0 ** 70}\nuplink_p = 1"),
     "uplink schedule exceeds 63 bits by round 11"),
], ids=["64", "70", "2000", "downlink-64", "step-log"])
def test_width_above_the_cap_is_a_config_error(tmp_path, capsys, command, text, message):
    assert cli.main(failing_argv(tmp_path, command, text)) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()


FLOAT_UPLINK = BASE_CONFIG.replace(
    "uplink_mode = differential\nuplink_schedule = constant\nuplink_bits = 3",
    "uplink_mode = float")


@pytest.mark.parametrize("command", ["run", "bound"])
@pytest.mark.parametrize("text, message", [
    (FLOAT_UPLINK + "rounding = nearest\n",
     "rounding is not read by a quadratic run with a float uplink and a float downlink"),
    (WEIGHT_NEAREST.replace("grid = pipeline", "grid = symmetric"),
     "rounding is not read by a quadratic run with a weight uplink (constant schedule) "
     "and a float downlink on the symmetric grid"),
    (FLOAT_UPLINK.replace("downlink_mode = float",
                          "downlink_mode = quantized\ndownlink_bits = 3\nweight_bound = 10")
     + "rounding = nearest\n",
     "rounding is not read by a quadratic run with a float uplink and a quantized downlink "
     "(constant schedule) on the symmetric grid"),
    # one rounding for two links: nearest reaches one of them only
    (BASE_CONFIG.replace("downlink_mode = float",
                         "downlink_mode = quantized\ndownlink_bits = 3\nweight_bound = 10")
     + "rounding = nearest\n",
     "rounding=nearest does not reach the downlink: a quantized downlink on the symmetric "
     "grid always rounds stochastically"),
    (WEIGHT_NEAREST.replace("grid = pipeline", "grid = symmetric").replace(
        "downlink_mode = float", "downlink_mode = layered\ndownlink_bits = 3"),
     "rounding=nearest does not reach the uplink: a weight uplink on the symmetric grid "
     "always rounds stochastically"),
], ids=["float-float", "symmetric-weight", "symmetric-quantized",
        "differential-symmetric-quantized", "symmetric-weight-layered"])
def test_nearest_rounding_that_misses_a_link_is_a_config_error(tmp_path, capsys, command,
                                                               text, message):
    assert cli.main(failing_argv(tmp_path, command, text)) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()


WEIGHT_STEP_LOG = BASE_CONFIG.replace(
    "uplink_mode = differential\nuplink_schedule = constant\nuplink_bits = 3",
    "uplink_mode = weight\nuplink_schedule = step_log\nuplink_f = 2\nuplink_p = 1")


def with_value(key, value):
    """WEIGHT_STEP_LOG with ``key`` set to ``value``."""
    text = re.sub(rf"(?m)^{key} = .*\n", "", WEIGHT_STEP_LOG)
    return text + f"{key} = {value}\n"


@pytest.mark.parametrize("command", ["run", "bound"])
@pytest.mark.parametrize("text, message", [
    (with_value("uplink_f", "inf"), "schedule f must be finite, got inf"),
    (with_value("uplink_f", "nan"), "schedule f must be finite, got nan"),
    (with_value("uplink_p", "inf"), "schedule p must be finite, got inf"),
    (with_value("lipschitz", "nan"), "lipschitz must be finite, got nan"),
    (with_value("lipschitz", "inf"), "lipschitz must be finite, got inf"),
    (with_value("mu", "inf"), "mu must be finite, got inf"),
    (with_value("noise_std", "nan"), "noise_std must be finite, got nan"),
    (with_value("spread", "inf"), "spread must be finite, got inf"),
    (with_value("weight_bound", "inf"), "weight_bound must be finite, got inf"),
    (with_value("regularization", "nan"), "regularization must be finite, got nan"),
    (with_value("downlink_mode", "quantized\ndownlink_schedule = step_log\n"
                "downlink_f = -inf\ndownlink_p = 1"), "schedule f must be finite, got -inf"),
    (with_value("layer_sizes", "1,3\nlayer_feature_scales = 1.0,inf"),
     "layer_feature_scales entry 1 must be finite, got inf"),
], ids=["f-inf", "f-nan", "p-inf", "lipschitz-nan", "lipschitz-inf", "mu-inf",
        "noise-nan", "spread-inf", "weight-bound-inf", "regularization-nan",
        "downlink-f-minus-inf", "feature-scale-inf"])
def test_non_finite_float_is_a_config_error(tmp_path, capsys, command, text, message):
    assert cli.main(failing_argv(tmp_path, command, text)) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()


def test_overflowing_bound_constant_is_a_config_error(tmp_path, capsys):
    text = BASE_CONFIG.replace("rounds = 12", "rounds = 3").replace(
        "uplink_mode = differential\nuplink_schedule = constant\nuplink_bits = 3",
        "uplink_mode = weight\nuplink_bits = 4\ngrid = pipeline\nweight_bound = 1e200")
    config = write_config(tmp_path, text)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    out = tmp_path / "b.csv"
    assert cli.main(["bound", "--config", config, "--out", str(out),
                     str(tmp_path / "r" / "metrics.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: weight bound constant D = inf is not finite (weight_bound 1e+200)"]
    assert not out.exists()


# the metrics corpus's quadratic recipe, as its entries were written while a
# config could set keys its run does not read
FORMER_CORPUS_QUADRATIC = """\
model = quadratic
dimension = 6
layer_sizes = 2,4
spread = 1.0
noise_std = 0.5
samples_per_client = 10
num_clients = 8
clients_per_round = 3
local_steps = 3
batch_size = 4
rounds = 40
weight_bound = 4.0
seed = 5
"""


def former_corpus_entry(up, down, grid, rounding, bits=4, **extra):
    entries = {"uplink_mode": up, "downlink_mode": down, "grid": grid,
               "rounding": rounding, "uplink_bits": bits, "downlink_bits": bits, **extra}
    return FORMER_CORPUS_QUADRATIC + "".join(f"{k} = {v}\n" for k, v in entries.items())


# the README testbed, 60 rounds
TESTBED_60 = """\
model = quadratic
dimension = 10
spread = 1.0
samples_per_client = 20
num_clients = 20
clients_per_round = 5
local_steps = 5
batch_size = 5
rounds = 60
mu = 1.0
lipschitz = 1.0
seed = 0
"""
CORPUS_1BIT_WEIGHT = FORMER_CORPUS_QUADRATIC.replace("layer_sizes = 2,4\n", "") + (
    "uplink_mode = weight\nuplink_bits = 1\ndownlink_mode = quantized\ndownlink_bits = 1\n"
    "grid = pipeline\n")
# 1-bit pipeline links, each with the sha256 of its metrics.csv under the
# enhanced quantizer, the only one a config can select.  The plain quantizer
# decodes only to {-1/G, 0}: with it the step_log weight upload's gap went
# 1.48 -> 6.49, and both broadcasts stayed at 0.2516 -> 0.2514
ONE_BIT_PIPELINE_LINKS = {
    "corpus-weight-nearest": (
        CORPUS_1BIT_WEIGHT + "rounding = nearest\n",
        "acfd4faf367d0cd0956f9579ab3c868b2dc8286c785fe2373c6c947c486060c9"),
    "corpus-weight-stochastic": (
        CORPUS_1BIT_WEIGHT + "rounding = stochastic\n",
        "7312dbf919da6d4233745746e02933f29e382b2cc7ad5a24422ee5621ba19cdc"),
    "testbed-step_log-weight": (
        TESTBED_60 + "weight_bound = 4\nuplink_mode = weight\nuplink_schedule = step_log\n"
        "uplink_f = 2\nuplink_p = 30\ngrid = pipeline\ndownlink_mode = float\n",
        "94ac897035cf115b5faf1e45e5cd1313c5ef8a3ee8b7c52be09b8254372933f0"),
    "testbed-quantized-broadcast": (
        TESTBED_60 + "uplink_mode = float\ndownlink_mode = quantized\ndownlink_bits = 1\n"
        "grid = pipeline\n",
        "65f990a31c88e9f61319fef08732a14c0a218b408bac8ebe81d8debf45aa9f89"),
    "testbed-layered-broadcast": (
        TESTBED_60 + "uplink_mode = float\ndownlink_mode = layered\ndownlink_bits = 1\n",
        "65f990a31c88e9f61319fef08732a14c0a218b408bac8ebe81d8debf45aa9f89"),
}


@pytest.mark.parametrize("command", ["run", "bound"])
@pytest.mark.parametrize("link", ONE_BIT_PIPELINE_LINKS)
def test_plain_one_bit_pipeline_is_an_unknown_key(tmp_path, capsys, command, link):
    text, sha256 = ONE_BIT_PIPELINE_LINKS[link]
    assert cli.main(failing_argv(tmp_path, command, text + "one_bit_enhanced = false\n")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: unknown config key 'one_bit_enhanced'"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()
    out = tmp_path / "e"
    assert cli.main(["run", "--config", write_config(tmp_path, text, "enhanced.cfg"),
                     "--out", str(out)]) == 0
    assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == sha256


def test_nearest_differential_upload_needs_no_grid(tmp_path):
    # the corpus's quad-differential-float-nearest run: no link reads grid, so
    # its default (symmetric) does not reject rounding = nearest
    text = former_corpus_entry("differential", "float", "pipeline", "nearest")
    text = re.sub(r"(?m)^(grid|layer_sizes|downlink_bits) = .*\n", "", text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == (
        "66e18b5c0a58905e0422060c9fc5700c0c547be479977c90e5296788ee3a6605")


# each sets a key its run does not read, so it made the same run as another
# corpus entry, which is kept (and named by the keys it reads)
FORMER_DUPLICATE_ENTRIES = {
    "quad-float-float-pipeline-stochastic": (
        former_corpus_entry("float", "float", "pipeline", "stochastic"),
        "downlink_bits, grid, layer_sizes, rounding, uplink_bits are not read by a "
        "quadratic run with a float uplink and a float downlink"),
    "quad-float-float-symmetric-stochastic": (
        former_corpus_entry("float", "float", "symmetric", "stochastic"),
        "downlink_bits, grid, layer_sizes, rounding, uplink_bits are not read by a "
        "quadratic run with a float uplink and a float downlink"),
    "quad-differential-float-symmetric-stochastic": (
        former_corpus_entry("differential", "float", "symmetric", "stochastic"),
        "downlink_bits, grid, layer_sizes are not read by a quadratic run with a "
        "differential uplink (constant schedule) and a float downlink"),
    "quad-differential-layered-symmetric-stochastic": (
        former_corpus_entry("differential", "layered", "symmetric", "stochastic"),
        "grid is not read by a quadratic run with a differential uplink (constant "
        "schedule) and a layered downlink (constant schedule)"),
    "quad-float-layered-symmetric-stochastic": (
        former_corpus_entry("float", "layered", "symmetric", "stochastic"),
        "grid, uplink_bits are not read by a quadratic run with a float uplink and a "
        "layered downlink (constant schedule)"),
    "quad-native-float-layered-nearest": (
        former_corpus_entry("float", "layered", "pipeline", "nearest", structure="native"),
        "grid, structure, uplink_bits are not read by a quadratic run with a float "
        "uplink and a layered downlink (constant schedule)"),
    **{f"quad-1bit-{enhanced}-{up}-{grid}-stochastic": (
        former_corpus_entry(up, "quantized" if up == "weight" else "float", grid,
                            "stochastic", bits=1, one_bit_enhanced=enhanced),
        "unknown config key 'one_bit_enhanced'")
       for enhanced, up, grid in (("false", "differential", "pipeline"),
                                  ("true", "differential", "symmetric"),
                                  ("false", "differential", "symmetric"),
                                  ("false", "weight", "symmetric"))},
    "quad-1bit-false-differential-pipeline-nearest": (
        former_corpus_entry("differential", "float", "pipeline", "nearest", bits=1,
                            one_bit_enhanced="false"),
        "unknown config key 'one_bit_enhanced'"),
}


@pytest.mark.parametrize("command", ["run", "bound"])
@pytest.mark.parametrize("text, message", [
    *FORMER_DUPLICATE_ENTRIES.values(),
    (BASE_CONFIG + "uplink_f = 5\nuplink_p = 0.5\n",
     "uplink_f, uplink_p are not read by a quadratic run with a differential uplink "
     "(constant schedule) and a float downlink"),
    (BASE_CONFIG.replace("uplink_schedule = constant", "uplink_schedule = weight_log"),
     "uplink_bits is not read by a quadratic run with a differential uplink "
     "(weight_log schedule) and a float downlink"),
    (WEIGHT_STEP_LOG + "uplink_bits = 3\n",
     "uplink_bits is not read by a quadratic run with a weight uplink (step_log schedule) "
     "and a float downlink on the symmetric grid"),
    (BASE_CONFIG + "downlink_schedule = constant\ndownlink_bits = 3\n",
     "downlink_bits, downlink_schedule are not read by a quadratic run with a "
     "differential uplink (constant schedule) and a float downlink"),
    (BASE_CONFIG.replace("uplink_mode = differential", "uplink_mode = float"),
     "uplink_bits, uplink_schedule are not read by a quadratic run with a float uplink "
     "and a float downlink"),
    (WEIGHT_STEP_LOG + "structure = native\n",
     "structure is not read by a quadratic run with a weight uplink (step_log schedule) "
     "and a float downlink on the symmetric grid"),
    (BASE_CONFIG + "lq_static = false\nregularization = 0\n",
     "lq_static, regularization are not read by a quadratic run with a differential "
     "uplink (constant schedule) and a float downlink"),
], ids=[*FORMER_DUPLICATE_ENTRIES, "constant-f-p", "weight_log-bits", "step_log-bits",
        "float-downlink-bits", "float-uplink-schedule", "symmetric-structure",
        "lq_static-regularization"])
def test_key_the_run_does_not_read_is_a_config_error(tmp_path, capsys, command, text,
                                                     message):
    assert cli.main(failing_argv(tmp_path, command, text)) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    WEIGHT_NEAREST,
    BASE_CONFIG,
    BASE_CONFIG + "rounding = nearest\n",
    WEIGHT_NEAREST.replace("grid = pipeline\nrounding = nearest", "grid = symmetric"),
    BASE_CONFIG.replace("downlink_mode = float",
                        "downlink_mode = quantized\ndownlink_bits = 3\nweight_bound = 10"),
], ids=["weight-nearest", "differential-stochastic", "differential-nearest",
        "weight-symmetric", "downlink"])
def test_widest_width_runs_as_finely_as_40_bits(tmp_path, text):
    losses = {}
    for bits in (40, 63):
        wide = text.replace("bits = 3", f"bits = {bits}")
        out = tmp_path / str(bits)
        assert cli.main(["run", "--config", write_config(tmp_path, wide), "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            losses[bits] = np.array([float(row[4]) for row in list(csv.reader(fh))[1:]])
    assert np.allclose(losses[63], losses[40], rtol=1e-9, atol=0)


@pytest.mark.parametrize("command", ["run", "bound"])
def test_unregularized_logistic_is_a_config_error(tmp_path, capsys, command):
    assert cli.main(failing_argv(tmp_path, command, LOGISTIC_UNREGULARIZED)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert "regularization" in err[0]


@pytest.mark.parametrize("command", ["run", "bound"])
def test_logistic_mu_above_regularization_is_a_config_error(tmp_path, capsys, command):
    argv = failing_argv(tmp_path, command, LOGISTIC_MU_ABOVE_REGULARIZATION)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: logistic model requires mu <= regularization, "
                   "its strong convexity"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("command", ["run", "bound"])
def test_regularized_quadratic_is_a_config_error(tmp_path, capsys, command):
    argv = failing_argv(tmp_path, command, BASE_CONFIG + "regularization = 0.5\n")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: quadratic model takes no regularization"]


@pytest.mark.parametrize("command", ["run", "bound"])
def test_solver_failure_is_one_line_exit_2(tmp_path, capsys, monkeypatch, command):
    argv = failing_argv(tmp_path, command, BASE_CONFIG)

    def fail(*args, **kwargs):
        raise models.SolverError("gradient norm above 1e-09 after 500000 iterations")
    for module in (models, fed, analysis):
        monkeypatch.setattr(module, "solve_optimum", fail)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["solver error: gradient norm above 1e-09 after 500000 iterations"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("command", ["run", "bound"])
def test_seed_beyond_a_philox_key_word_is_a_config_error(tmp_path, capsys, command):
    text = BASE_CONFIG.replace("seed = 7", f"seed = {2 ** 64}")
    assert cli.main(failing_argv(tmp_path, command, text)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: seed must satisfy 0 <= seed < 2**64, a Philox key word"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()


def test_seed_override_beyond_a_philox_key_word_is_a_config_error(tmp_path, capsys):
    argv = ["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "o"),
            "--seed", str(2 ** 64)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: seed must satisfy 0 <= seed < 2**64, a Philox key word"]
    assert not (tmp_path / "o").exists()


def test_largest_seed_runs_and_bounds(tmp_path):
    config = write_config(tmp_path, BASE_CONFIG.replace("seed = 7", f"seed = {2 ** 64 - 1}"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["master_seed"] == 2 ** 64 - 1
    assert cli.main(["bound", "--config", config, "--out", str(tmp_path / "b.csv"),
                     str(out / "metrics.csv")]) == 0


# smoothness is regularization 0.25 plus the top feature eigenvalue, above 0.3
LOGISTIC_LIPSCHITZ_BELOW_SMOOTHNESS = BASE_CONFIG.replace("mu = 1.0", "mu = 0.125").replace(
    "lipschitz = 1.0", "lipschitz = 0.3").replace("spread = 1.0\n", "") + (
    "model = logistic\nregularization = 0.25\n")


@pytest.mark.parametrize("command", ["run", "bound"])
def test_lipschitz_below_smoothness_is_a_config_error(tmp_path, capsys, command):
    argv = failing_argv(tmp_path, command, LOGISTIC_LIPSCHITZ_BELOW_SMOOTHNESS)
    assert cli.main(argv) == 2
    config = cli.parse_config_text(LOGISTIC_LIPSCHITZ_BELOW_SMOOTHNESS)
    smooth = models.estimate_smoothness(*fed.build_problem(config))
    assert smooth > 0.3
    assert capsys.readouterr().err.splitlines() == [
        f"config error: lipschitz 0.3 is below the problem's smoothness estimate {smooth:.6g}"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "b.csv").exists()


class TestVerifyCommand:
    def test_rounding_passes(self, capsys):
        assert cli.main(["verify", "rounding", "--range-bound", "1.0",
                         "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "pass: true" in out

    def test_sampling_passes(self):
        assert cli.main(["verify", "sampling", "--n", "6", "--k", "2"]) == 0

    def test_differential_passes(self):
        assert cli.main(["verify", "differential", "--dim", "10",
                         "--bits", "3"]) == 0

    def test_enumeration_guard_exit_code(self):
        assert cli.main(["verify", "sampling", "--n", "30", "--k", "15"]) == 2

    def test_failed_check_exit_code(self, monkeypatch):
        failing = analysis.VerificationReport(
            "forced", (analysis.CheckResult("x", 1.0, 0.0, False),))
        monkeypatch.setattr(analysis, "check_rounding_moments",
                            lambda *a, **k: failing)
        assert cli.main(["verify", "rounding"]) == 1

    def test_a_biased_kernel_fails_both_grid_verifiers(self, monkeypatch, capsys):
        # the engine's kernel, wrapped so that stochastic Pr[hi] on the
        # symmetric grid reads 1e-3 low: a bias of 2e-3 of a cell, which the
        # exact `unbiased` check must see through quantizer.moments
        honest = qz._outcomes

        def biased(v, spec, scale):
            lo, hi, p_hi = honest(v, spec, scale)
            if spec.grid is qz.GridKind.SYMMETRIC and spec.rounding is qz.Rounding.STOCHASTIC:
                p_hi = p_hi - 1e-3
            return lo, hi, p_hi

        monkeypatch.setattr(qz, "_outcomes", biased)
        for check in ("rounding", "differential"):
            assert cli.main(["verify", check]) == 1
            assert "unbiased.pass: false" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("argv", [
        *(["rounding", "--range-bound", bad] for bad in ("0", "-1", "nan", "inf")),
        ["rounding", "--bits", "0"],
        ["differential", "--bits", "0"],
        ["differential", "--dim", "0"],
        *(["rounding", "--bits", wide] for wide in ("64", "2000")),
        *(["differential", "--bits", wide] for wide in ("64", "1100")),
        *(["differential", "--trials", few] for few in ("0", "1", "9999")),
    ], ids=lambda argv: " ".join(argv))
    def test_invalid_arguments_exit_code(self, capsys, argv):
        assert cli.main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("invalid arguments: ")

    def test_empty_differential_vector_named(self, capsys):
        assert cli.main(["verify", "differential", "--dim", "0"]) == 2
        assert capsys.readouterr().err == (
            "invalid arguments: differential vector must not be empty\n")

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("check", ["sampling", "rounding", "differential"])
    def test_seed_outside_a_philox_key_word_is_one_line_exit_2(self, capsys, check, seed):
        assert cli.main(["verify", check, "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid arguments: seed must satisfy "
                                "0 <= seed < 2**64, a Philox key word\n")


class TestBoundCommand:
    def test_bound_report(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", "--config", config, "--out", str(out)])
        bound_csv = tmp_path / "bound.csv"
        code = cli.main(["bound", "--config", config, "--out", str(bound_csv),
                         str(out / "metrics.csv")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "variant: differential" in printed
        assert "rounds_within_bound:" in printed
        with open(bound_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "gap_mean", "bound_rhs"]
        bounds = [float(r[2]) for r in rows[1:]]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_unquantized_run_sits_under_bound_everywhere(self, tmp_path, capsys):
        text = BASE_CONFIG.replace("uplink_mode = differential", "uplink_mode = float")
        text = text.replace("uplink_schedule = constant\n", "")
        text = text.replace("uplink_bits = 3\n", "")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        cli.main(["run", "--config", config, "--out", str(out)])
        code = cli.main(["bound", "--config", config,
                         "--out", str(tmp_path / "bound.csv"),
                         str(out / "metrics.csv")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "rounds_within_bound: 12/12 (1)" in printed

    def test_gap_average_across_runs(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", config, "--out", str(out1)])
        cli.main(["run", "--config", config, "--out", str(out2), "--seed", "9"])
        code = cli.main(["bound", "--config", config,
                         "--out", str(tmp_path / "bound.csv"),
                         str(out1 / "metrics.csv"), str(out2 / "metrics.csv")])
        assert code == 0

    @pytest.mark.parametrize("text", [WEIGHT_NEAREST, BASE_CONFIG + "rounding = nearest\n"],
                             ids=["weight", "differential"])
    def test_nearest_rounding_run_bounds(self, tmp_path, capsys, text):
        # the unquantized pilot run of the noise constants reads no rounding
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        assert cli.main(["bound", "--config", config, "--out", str(tmp_path / "b.csv"),
                         str(out / "metrics.csv")]) == 0
        assert "rounds_within_bound: " in capsys.readouterr().out

    def test_mismatched_metrics_exit_code(self, tmp_path):
        config = write_config(tmp_path)
        short = write_config(
            tmp_path, BASE_CONFIG.replace("rounds = 12", "rounds = 5"), "short.cfg")
        out = tmp_path / "out"
        cli.main(["run", "--config", short, "--out", str(out)])
        code = cli.main(["bound", "--config", config,
                         "--out", str(tmp_path / "b.csv"),
                         str(out / "metrics.csv")])
        assert code == 2

    def test_differential_requires_constant_bits(self, tmp_path):
        text = BASE_CONFIG.replace("uplink_schedule = constant",
                                   "uplink_schedule = weight_log")
        text = text.replace("uplink_bits = 3\n", "")
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        cli.main(["run", "--config", config, "--out", str(out)])
        code = cli.main(["bound", "--config", config,
                         "--out", str(tmp_path / "b.csv"),
                         str(out / "metrics.csv")])
        assert code == 2


# a well-formed row of metrics.csv edited into each malformation
MALFORMED_ROWS = {
    "short row": lambda row: row[:3],
    "gap not a float": lambda row: row[:5] + ["oops"] + row[6:],
    "round not an int": lambda row: ["x"] + row[1:],
    # a run writes a finite gap (a loss minus the optimum), never these
    "gap nan": lambda row: row[:5] + ["nan"] + row[6:],
    "gap inf": lambda row: row[:5] + ["inf"] + row[6:],
    "gap -inf": lambda row: row[:5] + ["-inf"] + row[6:],
}


@pytest.mark.parametrize("malformation", MALFORMED_ROWS)
def test_malformed_metrics_row_is_a_config_error(tmp_path, capsys, malformation):
    config = write_config(tmp_path)
    metrics = tmp_path / "out" / "metrics.csv"
    cli.main(["run", "--config", config, "--out", str(metrics.parent)])
    with open(metrics, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3] = MALFORMED_ROWS[malformation](rows[3])  # data row 2
    with open(metrics, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    code = cli.main(["bound", "--config", config, "--out", str(tmp_path / "b.csv"),
                     str(metrics)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {metrics}: ")
    assert "row 2" in err[0]
    assert not (tmp_path / "b.csv").exists()


# --out targets that cannot be written: an existing file given as the run's
# directory, a path below a file, and an existing directory given as bound.csv
UNWRITABLE_OUT = [
    ("run", "file"),
    ("run", "file/sub"),
    ("bound", "file/b.csv"),
    ("bound", "dir"),
]


@pytest.mark.parametrize("command, target", UNWRITABLE_OUT)
def test_unwritable_out_is_one_line_exit_2(tmp_path, capsys, command, target):
    config = write_config(tmp_path)
    metrics = tmp_path / "q" / "metrics.csv"
    cli.main(["run", "--config", config, "--out", str(metrics.parent)])
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    out = tmp_path / target
    argv = {"run": ["run", "--config", config, "--out", str(out)],
            "bound": ["bound", "--config", config, "--out", str(out), str(metrics)]}
    capsys.readouterr()
    assert cli.main(argv[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before the run or the bound
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and str(out) in err[0]
    assert (tmp_path / "file").read_text() == "kept\n"
    assert list((tmp_path / "dir").iterdir()) == []


TESTBED_DIFF4_CONFIG = """\
# the README testbed with a 4-bit differential uplink
model = quadratic
dimension = 10
spread = 1.0
samples_per_client = 20
num_clients = 20
clients_per_round = 5
local_steps = 5
batch_size = 5
rounds = 2000
mu = 1.0
lipschitz = 1.0
uplink_mode = differential
uplink_schedule = constant
uplink_bits = 4
downlink_mode = float
seed = 0
"""


def test_testbed_run_and_bound_bytes_unchanged(tmp_path):
    # sha256 of both files as written when fed.STREAM_SCHEME last changed;
    # bound.csv follows the scheme through the pilot run that sets its probes
    config = write_config(tmp_path, TESTBED_DIFF4_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    bound_csv = tmp_path / "bound.csv"
    assert cli.main(["bound", "--config", config, "--out", str(bound_csv),
                     str(out / "metrics.csv")]) == 0
    assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == (
        "375f1f5062e4fda0af4896aade9c6419a589632215686ba08677ec8a0e7be4b7")
    assert hashlib.sha256(bound_csv.read_bytes()).hexdigest() == (
        "f954dbec0cb68db6fbe3306d611f83045c9e18daa05633cfd053bc5d6774a7fc")


LOGISTIC_LAYERED_CONFIG = """\
# the benchmark's logistic_layered workload cut to 200 rounds: d=40 in layers
# of 8 and 32, bs=20, float uplink, 6-bit layered broadcast
model = logistic
regularization = 0.05
dimension = 40
layer_sizes = 8,32
layer_feature_scales = 1.0,0.05
samples_per_client = 100
num_clients = 20
clients_per_round = 5
local_steps = 5
batch_size = 20
rounds = 200
mu = 0.05
lipschitz = 1.3
uplink_mode = float
downlink_mode = layered
downlink_schedule = constant
downlink_bits = 6
seed = 0
"""


def test_logistic_layered_run_bytes_unchanged(tmp_path):
    # sha256 of metrics.csv as written when fed.STREAM_SCHEME last changed
    config = write_config(tmp_path, LOGISTIC_LAYERED_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == (
        "a1cad7a12516e8ba3b3ec63e56524c339fb87ae6dae604fe7f16b9e3211e3684")


def config_text_from_snapshot(snapshot: dict) -> str:
    """The ``key=value`` text of a manifest's ``config`` snapshot."""
    lines = []
    for key, value in snapshot.items():
        if isinstance(value, bool):
            lines.append(f"{key} = {str(value).lower()}")
        elif isinstance(value, list):
            lines.append(f"{key} = {','.join(map(repr, value))}")
        elif value is not None:
            lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"


MANIFEST_MODES = [
    "uplink_mode = float\ndownlink_mode = float\n",
    "uplink_mode = differential\nuplink_bits = 2\ndownlink_mode = quantized\n",
    "uplink_mode = weight\nuplink_schedule = weight_log\n"
    "downlink_mode = layered\ndownlink_bits = 5\nlayer_sizes = 1,3\n",
    "uplink_mode = weight\nuplink_schedule = step_log\nuplink_f = 2\nuplink_p = 3.5\n"
    "grid = pipeline\nrounding = nearest\nstructure = native\n"
    "downlink_mode = quantized\ndownlink_schedule = downlink_log\n",
    "uplink_mode = differential\nuplink_bits = 1\nrounding = nearest\ndownlink_mode = float\n",
    "model = logistic\nregularization = 0.25\nmu = 0.125\nlipschitz = 3\n"
    "layer_sizes = 2,2\nlayer_feature_scales = 1.0,0.3\nuplink_mode = float\n"
    "downlink_mode = layered\nlq_static = true\n",
]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(MANIFEST_MODES), st.integers(0, 2 ** 16), st.integers(1, 6),
       st.floats(0.0, 2.0))
def test_run_reproduces_from_manifest_alone(mode, seed, rounds, spread):
    text = (f"num_clients = 5\nclients_per_round = 2\nlocal_steps = 2\nbatch_size = 2\n"
            f"dimension = 4\nsamples_per_client = 4\nweight_bound = 8\nseed = {seed}\n"
            f"rounds = {rounds}\n" + mode)
    if "model = logistic" not in mode:  # the logistic problem reads no spread
        text += f"spread = {spread!r}\n"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        first = write_config(tmp, text)
        assert cli.main(["run", "--config", first, "--out", str(tmp / "a")]) == 0
        snapshot = json.loads((tmp / "a" / "manifest.json").read_text())["config"]
        assert set(snapshot) == fed.config_reads(cli.parse_config_text(text))
        rebuilt = write_config(tmp, config_text_from_snapshot(snapshot), "rebuilt.cfg")
        assert cli.main(["run", "--config", rebuilt, "--out", str(tmp / "b")]) == 0
        assert (tmp / "a" / "metrics.csv").read_bytes() == (tmp / "b" / "metrics.csv").read_bytes()
        assert json.loads((tmp / "b" / "manifest.json").read_text())["config"] == snapshot


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(fedquant.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fedquant.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"fedquant.{info.name}.{name}"


def test_help_lists_exactly_run_verify_bound(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    choices = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
    assert choices.split(",") == ["run", "verify", "bound"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["partition", "--data", "data.csv", "--clients", "2", "--out", "m.csv"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'partition'" in capsys.readouterr().err
