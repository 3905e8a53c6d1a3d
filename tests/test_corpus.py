"""Byte-identity corpus: short runs must reproduce their recorded metrics.csv.

``metrics_corpus.json`` holds, per entry, a flat config and the sha256 of the
``metrics.csv`` it produced when the corpus was generated
(``scripts/make_metrics_corpus.py``), and the stream scheme it was generated
under.  Any change to a result -- a random stream, an operation order, a
rounding rule -- changes a hash here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fedquant import cli, federation as fed

CORPUS_FILE = json.loads((Path(__file__).parent / "metrics_corpus.json").read_text())
CORPUS = CORPUS_FILE["runs"]


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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_metrics_bytes_reproduced(name, tmp_path):
    entry = CORPUS[name]
    text = "".join(f"{key} = {value}\n" for key, value in entry["config"].items())
    records = fed.run_federation(cli.parse_config_text(text))
    path = tmp_path / "metrics.csv"
    cli.write_metrics_csv(path, records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]
