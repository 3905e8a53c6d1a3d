#!/usr/bin/env python3
"""Write the byte-identity corpus: the sha256 of ``metrics.csv`` for short runs.

The corpus covers every uplink mode x downlink mode pair with each grid and
rounding that the pair reads, on a small quadratic problem, plus native
structure, 1-bit links, a 3-bit nearest weight upload, log-scheduled widths,
layered logistic runs with and without static gains (also at a weight bound
small enough for nearest-rounded weight uploads to move the model), and a
problem whose differential uploads are all zero.  Each entry sets only the
keys its run reads (``federation.config_reads``) and is named by them, so
each distinct run appears once: a config already in the corpus under another
name is an error.  The corpus records the engine's ``STREAM_SCHEME``, which
``tests/test_corpus.py`` checks along with every hash; a refactor that changes
any result fails it.  Regenerate only when results change on purpose:

    PYTHONPATH=src python scripts/make_metrics_corpus.py tests/metrics_corpus.json

Over an existing corpus file, it prints each entry whose sha256 changed, and
each entry added or removed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

from fedquant import cli, federation as fed

ROUNDS = 40

QUADRATIC = {
    "model": "quadratic", "dimension": 6, "layer_sizes": "2,4", "spread": 1.0,
    "noise_std": 0.5, "samples_per_client": 10, "num_clients": 8,
    "clients_per_round": 3, "local_steps": 3, "batch_size": 4, "rounds": ROUNDS,
    "weight_bound": 4.0, "uplink_bits": 4, "downlink_bits": 4, "seed": 5,
}
LOGISTIC = {
    "model": "logistic", "regularization": 0.05, "mu": 0.05, "lipschitz": 1.3,
    "dimension": 12, "layer_sizes": "4,8", "layer_feature_scales": "1.0,0.05",
    "samples_per_client": 30, "num_clients": 6, "clients_per_round": 4,
    "local_steps": 4, "batch_size": 8, "rounds": ROUNDS, "weight_bound": 8.0,
    "uplink_bits": 5, "downlink_bits": 6, "seed": 7,
}
GRID_ROUNDING = (("pipeline", "nearest"), ("pipeline", "stochastic"),
                 ("symmetric", "stochastic"))


def read_only(entries: dict) -> dict:
    """``entries`` without the keys left unset (``None``) or not read by the
    run they configure."""
    entries = {key: value for key, value in entries.items() if value is not None}
    reads = fed.config_reads(cli.parse_config_keys(config_text(entries))[0])
    return {key: value for key, value in entries.items() if key in reads}


def family(entries: dict) -> str:
    """The name suffix of the grid and the rounding a config's run reads."""
    return "".join(f"-{entries[key]}" for key in ("grid", "rounding") if key in entries)


def corpus_configs() -> dict[str, dict]:
    """Name -> config entries, in the flat key=value form of a config file."""
    configs: dict[str, dict] = {}

    def add(name: str, entries: dict) -> None:
        entries = read_only(entries)
        # a name is reached again only by the same run, and a run has one name
        if configs.setdefault(name, entries) != entries:
            raise ValueError(f"two configs are named {name}")
        for other, known in configs.items():
            if known == entries and other != name:
                raise ValueError(f"{name} is the same config as {other}")

    for up, down, (grid, rounding) in itertools.product(
            ("float", "weight", "differential"), ("float", "quantized", "layered"),
            GRID_ROUNDING):
        if (up, down, rounding) == ("float", "float", "nearest"):
            continue  # no link of the run rounds, so nearest is a config error
        entries = read_only({**QUADRATIC, "uplink_mode": up, "downlink_mode": down,
                             "grid": grid, "rounding": rounding})
        add(f"quad-{up}-{down}{family(entries)}", entries)
    # a layered downlink reads no structure
    for up, down, rounding in (("weight", "quantized", "nearest"),
                               ("weight", "float", "stochastic"),
                               ("differential", "quantized", "nearest"),
                               ("float", "quantized", "stochastic")):
        add(f"quad-native-{up}-{down}-{rounding}", {
            **QUADRATIC, "uplink_mode": up, "downlink_mode": down,
            "grid": "pipeline", "rounding": rounding, "structure": "native",
        })
    for up, (grid, rounding) in itertools.product(("weight", "differential"),
                                                  GRID_ROUNDING):
        entries = read_only({
            **QUADRATIC, "uplink_mode": up,
            # a 1-bit symmetric broadcast of a differential run drifts
            # past weight_bound, so those runs keep a float downlink
            "downlink_mode": "quantized" if up == "weight" else "float",
            "grid": grid, "rounding": rounding, "uplink_bits": 1, "downlink_bits": 1,
        })
        add(f"quad-1bit-{up}{family(entries)}", entries)
    # at 3 bits the nearest-rounded weight uploads carry the round
    add("quad-3bit-weight-pipeline-nearest", {
        **QUADRATIC, "uplink_mode": "weight", "downlink_mode": "quantized",
        "grid": "pipeline", "rounding": "nearest",
        "uplink_bits": 3, "downlink_bits": 3,
    })
    add("quad-weight_log-downlink_log", {
        **QUADRATIC, "uplink_mode": "weight", "downlink_mode": "quantized",
        "grid": "symmetric", "rounding": "stochastic",
        "uplink_schedule": "weight_log", "downlink_schedule": "downlink_log",
        "uplink_bits": None, "downlink_bits": None,
    })
    add("quad-step_log", {
        **QUADRATIC, "uplink_mode": "differential", "downlink_mode": "layered",
        "grid": "pipeline", "rounding": "nearest",
        "uplink_schedule": "step_log", "uplink_f": 2, "uplink_p": 10,
        "downlink_schedule": "step_log", "downlink_f": 3, "downlink_p": 7,
        "uplink_bits": None, "downlink_bits": None,
    })
    add("quad-full-participation-full-batch", {
        **QUADRATIC, "clients_per_round": 8, "batch_size": 10,
        "uplink_mode": "differential", "downlink_mode": "quantized",
        "grid": "pipeline", "rounding": "stochastic",
    })
    add("quad-one-client-d1", {
        **QUADRATIC, "clients_per_round": 1, "dimension": 1, "layer_sizes": None,
        "uplink_mode": "weight", "downlink_mode": "float",
        "grid": "pipeline", "rounding": "stochastic",
    })
    for rounding in ("nearest", "stochastic"):
        add(f"quad-zero-differential-{rounding}", {
            **QUADRATIC, "spread": 0.0, "noise_std": 0.0,
            "uplink_mode": "differential", "downlink_mode": "quantized",
            "grid": "pipeline", "rounding": rounding,
        })
    for up, (grid, rounding), static in itertools.product(
            ("float", "weight", "differential"),
            (("pipeline", "nearest"), ("symmetric", "stochastic")),
            ("true", "false")):
        entries = read_only({**LOGISTIC, "uplink_mode": up, "downlink_mode": "layered",
                             "grid": grid, "rounding": rounding, "lq_static": static})
        add(f"logistic-{up}-layered{family(entries)}-static_{static}", entries)
    # at weight_bound 8 every nearest-rounded weight upload above rounds to
    # zero and the model never moves; at 1 the uploads carry the round
    for static in ("true", "false"):
        add(f"logistic-weight-layered-pipeline-nearest-static_{static}-bound_1", {
            **LOGISTIC, "uplink_mode": "weight", "downlink_mode": "layered",
            "grid": "pipeline", "rounding": "nearest", "lq_static": static,
            "weight_bound": 1.0,
        })
    return configs


def config_text(entries: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def metrics_sha256(entries: dict) -> str:
    """sha256 of the metrics.csv that ``fedquant run`` writes for a config."""
    config = cli.parse_config_text(config_text(entries))
    records = fed.run_federation(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        cli.write_metrics_csv(path, records)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = Path(argv[0])
    runs = {name: {"config": entries, "sha256": metrics_sha256(entries)}
            for name, entries in corpus_configs().items()}
    old = json.loads(path.read_text())["runs"] if path.exists() else runs
    corpus = {"stream_scheme": fed.STREAM_SCHEME, "runs": runs}
    path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    for name in sorted(old.keys() | runs.keys()):
        if name not in runs:
            print(f"removed {name}")
        elif name not in old:
            print(f"added {name}")
        elif old[name]["sha256"] != runs[name]["sha256"]:
            print(f"changed {name}")
    print(f"{len(runs)} entries written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
