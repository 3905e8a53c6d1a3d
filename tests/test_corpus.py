"""Byte-identity corpus: short runs must reproduce their recorded metrics.csv.

``metrics_corpus.json`` holds, per entry, a flat config and the sha256 of the
``metrics.csv`` it produced when the corpus was generated
(``scripts/make_metrics_corpus.py``), and the stream scheme it was generated
under.  A run planned in blocks and the same rounds run one at a time must
both reproduce it.  Any change to a result -- a random stream, an operation order, a
rounding rule -- changes a hash here.  The first 3 rounds of each run also
pass every quantized link through the wire codec.
"""

import ast
import hashlib
import itertools
import json
import math
import re
import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedquant import cli, federation as fed, quantizer as qz

CORPUS_FILE = json.loads((Path(__file__).parent / "metrics_corpus.json").read_text())
CORPUS = CORPUS_FILE["runs"]
ROOT = Path(__file__).parents[1]
SCRIPT = ROOT / "scripts" / "make_metrics_corpus.py"
# rounds of each corpus run whose quantized links go through the wire codec
ACCOUNTED_ROUNDS = 3


def config_text(entries: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def test_corpus_was_generated_under_the_engine_stream_scheme():
    # a new scheme changes every hash on purpose; the corpus is then regenerated
    assert CORPUS_FILE["stream_scheme"] == fed.STREAM_SCHEME


def test_corpus_covers_every_mode_combination():
    # every uplink x downlink pair with each (grid, rounding) pair it reads, of
    # pipeline-nearest, pipeline-stochastic and symmetric (always stochastic)
    configs = [e["config"] for e in CORPUS.values() if e["config"]["model"] == "quadratic"]
    runs = set()
    for up, down, (grid, rounding) in itertools.product(
            fed.UplinkMode, fed.DownlinkMode,
            ((qz.GridKind.PIPELINE, qz.Rounding.NEAREST),
             (qz.GridKind.PIPELINE, qz.Rounding.STOCHASTIC),
             (qz.GridKind.SYMMETRIC, qz.Rounding.STOCHASTIC))):
        try:
            config = fed.FederationConfig(uplink_mode=up, downlink_mode=down, grid=grid,
                                          rounding=rounding)
        except fed.ConfigError:
            continue  # nearest rounding on a run none of whose links rounds
        reads = fed.config_reads(config)
        runs.add(tuple((key, value.value) for key, value in (
            ("uplink_mode", up), ("downlink_mode", down), ("grid", grid),
            ("rounding", rounding)) if key in reads))
    assert len(runs) == 22
    for run in runs:
        assert any(all(c.get(key) == value for key, value in run) for c in configs), run
    assert any(e["config"].get("structure") == "native" for e in CORPUS.values())
    assert any(e["config"].get("lq_static") == "true" for e in CORPUS.values())


def test_corpus_holds_exactly_the_generator_configs():
    # the committed corpus and the script that writes it cannot drift apart
    configs = runpy.run_path(str(SCRIPT))["corpus_configs"]()
    assert {name: entry["config"] for name, entry in CORPUS.items()} == configs


def module_dict(path: Path, name: str) -> dict:
    """The literal dict assigned to ``name`` in a Python file, read without
    importing the file."""
    tree = ast.parse(path.read_text())
    value, = (node.value for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == [name])
    return ast.literal_eval(value)


def test_shipped_configs_set_only_keys_their_runs_read():
    # a config error here is a key one of them sets and its run ignores
    texts = {name: config_text(entries) for name, entries
             in runpy.run_path(str(SCRIPT))["corpus_configs"]().items()}
    for workload in ("QUAD_DIFF4", "LOGISTIC_LAYERED"):
        texts[workload] = config_text(module_dict(ROOT / "perfbench" / "run.py", workload))
    texts["README"], = re.findall(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(),
                                  re.DOTALL)
    assert len(texts) == len(CORPUS) + 3
    for name, text in texts.items():
        try:
            cli.parse_config_text(text)
        except fed.ConfigError as exc:
            pytest.fail(f"{name}: {exc}")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_metrics_bytes_reproduced(name, tmp_path, monkeypatch):
    entry = CORPUS[name]
    config = cli.parse_config_text(config_text(entry["config"]))
    calls, original = [], qz.transmit

    def spy(v, spec, scale, uniforms=None):
        # the engine's links decode through transmit; each call's wire form,
        # built on the same arguments, must decode to the very same bits
        decoded = original(v, spec, scale, uniforms)
        calls.append(qz.quantize_vector(v, spec, scale, uniforms))
        wire = calls[-1].dequantize()
        assert decoded.shape == wire.shape and decoded.tobytes() == wire.tobytes()
        return decoded
    monkeypatch.setattr(qz, "transmit", spy)
    records = fed.run_federation(config)
    path = tmp_path / "metrics.csv"
    cli.write_metrics_csv(path, records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]
    check_link_bits_serialized(config, records, calls)


def test_unread_link_key_moves_no_result(tmp_path):
    # flipping a family key the run does not read, on the parsed config so
    # that no key check stands in the way, must leave every byte alone;
    # flips the config itself rejects (nearest that reaches no link) are skipped
    path, runs = tmp_path / "metrics.csv", 0
    for name, entry in CORPUS.items():
        config = cli.parse_config_text(config_text(entry["config"]))
        for key in sorted({"grid", "structure", "rounding", "lq_static"}
                          - fed.config_reads(config)):
            value = getattr(config, key)
            flipped = (not value if isinstance(value, bool)
                       else next(member for member in type(value) if member is not value))
            try:
                changed = replace(config, **{key: flipped})
            except fed.ConfigError:
                continue
            cli.write_metrics_csv(path, fed.run_federation(changed))
            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"], (
                f"{name}: {key} = {flipped}")
            runs += 1
    assert runs == 75


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_round_by_round_reproduces_the_planned_run(name, tmp_path):
    # run_federation plans rounds in blocks; one run_round call at a time,
    # each planning only its own round, must write the same bytes
    entry = CORPUS[name]
    config = cli.parse_config_text(config_text(entry["config"]))
    state, records = fed.init_state(config), []
    for t in range(config.rounds):
        state, record = fed.run_round(state, config, t)
        records.append(record)
    path = tmp_path / "metrics.csv"
    cli.write_metrics_csv(path, records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]


def _serialized_bits(qv, bounds):
    """Serialize each ``(start, stop)`` slice of a quantized vector with its
    own gain; check the round trip and return the accounted bits."""
    gains = np.broadcast_to(qv.gain, qv.codewords.shape)
    deq = qv.dequantize()
    total = 0
    for start, stop in bounds:
        assert np.all(gains[start:stop] == gains[start])
        part = qz.QuantizedVector(qv.codewords[start:stop], float(gains[start]),
                                  qv.bits, qv.grid)
        blob = qz.serialize(part)
        accounted = qz.wire_bits(stop - start, qv.bits)
        assert len(blob) == math.ceil(accounted / 8)
        assert np.array_equal(qz.deserialize(blob).dequantize(), deq[start:stop])
        total += accounted
    return total


def check_link_bits_serialized(config, records, calls):
    """Each quantized link makes one quantizer call a round (``calls`` holds
    the wire forms of the run's calls in order).  Every quantized upload row
    and broadcast layer of the first ``ACCOUNTED_ROUNDS`` rounds goes through
    the codec: its blob is its accounted bits rounded up to a byte, and it
    decodes to the dequantized values."""
    broadcasts = [qv for qv in calls if qv.codewords.ndim == 1]
    uploads = [qv for qv in calls if qv.codewords.ndim == 2]
    assert len(uploads) == (0 if config.uplink_mode is fed.UplinkMode.FLOAT
                            else len(records))
    assert len(broadcasts) == (0 if config.downlink_mode is fed.DownlinkMode.FLOAT
                               else len(records))
    k, d = config.clients_per_round, config.dimension
    layers = (config.layer_bounds() if config.downlink_mode is fed.DownlinkMode.LAYERED
              else ((0, d),))
    previous = (0, 0)
    for t, record in enumerate(records[:ACCOUNTED_ROUNDS]):
        up = record.uplink_bits_cum - previous[0]
        down = record.downlink_bits_cum - previous[1]
        previous = (record.uplink_bits_cum, record.downlink_bits_cum)
        if config.uplink_mode is fed.UplinkMode.FLOAT:
            assert up == k * qz.float_bits(d)
        else:
            assert uploads[t].bits == record.bits_up
            rows = [(i * d, (i + 1) * d) for i in range(k)]
            flat = qz.QuantizedVector(uploads[t].codewords.ravel(),
                                      np.repeat(uploads[t].gain, d), uploads[t].bits,
                                      uploads[t].grid)
            assert _serialized_bits(flat, rows) == up
        if config.downlink_mode is fed.DownlinkMode.FLOAT:
            assert down == qz.float_bits(d)
        else:
            assert broadcasts[t].bits == record.bits_down
            assert _serialized_bits(broadcasts[t], layers) == down
