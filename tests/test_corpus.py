"""Byte-identity corpus: short runs must reproduce their recorded metrics.csv.

``metrics_corpus.json`` holds, per entry, a flat config and the sha256 of the
``metrics.csv`` it produced when the corpus was generated
(``scripts/make_metrics_corpus.py``), and the stream scheme it was generated
under.  A run planned in blocks and the same rounds run one at a time must
both reproduce it.  Any change to a result -- a random stream, an operation order, a
rounding rule -- changes a hash here.  The first 3 rounds of each run also
pass every quantized link through the wire codec.
"""

import hashlib
import json
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from fedquant import cli, federation as fed, quantizer as qz

CORPUS_FILE = json.loads((Path(__file__).parent / "metrics_corpus.json").read_text())
CORPUS = CORPUS_FILE["runs"]
SCRIPT = Path(__file__).parents[1] / "scripts" / "make_metrics_corpus.py"
# rounds of each corpus run whose quantized links go through the wire codec
ACCOUNTED_ROUNDS = 3


def test_corpus_was_generated_under_the_engine_stream_scheme():
    # a new scheme changes every hash on purpose; the corpus is then regenerated
    assert CORPUS_FILE["stream_scheme"] == fed.STREAM_SCHEME


def test_corpus_covers_every_mode_combination():
    seen = {(e["config"]["uplink_mode"], e["config"]["downlink_mode"],
             e["config"]["grid"], e["config"]["rounding"])
            for e in CORPUS.values() if e["config"]["model"] == "quadratic"}
    # 3 uplink x 3 downlink x 3 (grid, rounding) pairs: symmetric is stochastic only
    assert len(seen) == 27
    assert any(e["config"].get("structure") == "native" for e in CORPUS.values())
    assert any(e["config"].get("lq_static") == "true" for e in CORPUS.values())


def test_corpus_holds_exactly_the_generator_configs():
    # the committed corpus and the script that writes it cannot drift apart
    configs = runpy.run_path(str(SCRIPT))["corpus_configs"]()
    assert {name: entry["config"] for name, entry in CORPUS.items()} == configs


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_metrics_bytes_reproduced(name, tmp_path, monkeypatch):
    entry = CORPUS[name]
    text = "".join(f"{key} = {value}\n" for key, value in entry["config"].items())
    config = cli.parse_config_text(text)
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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_round_by_round_reproduces_the_planned_run(name, tmp_path):
    # run_federation plans rounds in blocks; one run_round call at a time,
    # each planning only its own round, must write the same bytes
    entry = CORPUS[name]
    text = "".join(f"{key} = {value}\n" for key, value in entry["config"].items())
    config = cli.parse_config_text(text)
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
