#!/usr/bin/env python3
"""Write the byte-identity corpus: the sha256 of ``metrics.csv`` for short runs.

The corpus covers every uplink mode x downlink mode x (grid, rounding)
combination on a small quadratic problem, plus native structure, 1-bit
(enhanced and plain), log-scheduled widths, layered logistic runs with and
without static gains, and a problem whose differential uploads are all zero.
The corpus records the engine's ``STREAM_SCHEME``, which
``tests/test_corpus.py`` checks along with every hash; a refactor that changes
any result fails it.  Regenerate only when results change on purpose:

    PYTHONPATH=src python scripts/make_metrics_corpus.py tests/metrics_corpus.json
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


def corpus_configs() -> dict[str, dict]:
    """Name -> config entries, in the flat key=value form of a config file."""
    configs: dict[str, dict] = {}
    for up, down, (grid, rounding) in itertools.product(
            ("float", "weight", "differential"), ("float", "quantized", "layered"),
            GRID_ROUNDING):
        configs[f"quad-{up}-{down}-{grid}-{rounding}"] = {
            **QUADRATIC, "uplink_mode": up, "downlink_mode": down,
            "grid": grid, "rounding": rounding,
        }
    for up, down, rounding in (("weight", "quantized", "nearest"),
                               ("weight", "float", "stochastic"),
                               ("differential", "quantized", "nearest"),
                               ("float", "quantized", "stochastic"),
                               ("float", "layered", "nearest")):
        configs[f"quad-native-{up}-{down}-{rounding}"] = {
            **QUADRATIC, "uplink_mode": up, "downlink_mode": down,
            "grid": "pipeline", "rounding": rounding, "structure": "native",
        }
    for enhanced, (grid, rounding) in itertools.product(("true", "false"),
                                                        GRID_ROUNDING):
        for up in ("weight", "differential"):
            configs[f"quad-1bit-{enhanced}-{up}-{grid}-{rounding}"] = {
                **QUADRATIC, "uplink_mode": up,
                # a 1-bit symmetric broadcast of a differential run drifts
                # past weight_bound, so those runs keep a float downlink
                "downlink_mode": "quantized" if up == "weight" else "float",
                "grid": grid, "rounding": rounding, "one_bit_enhanced": enhanced,
                "uplink_bits": 1, "downlink_bits": 1,
            }
    configs["quad-weight_log-downlink_log"] = {
        **QUADRATIC, "uplink_mode": "weight", "downlink_mode": "quantized",
        "grid": "symmetric", "rounding": "stochastic",
        "uplink_schedule": "weight_log", "downlink_schedule": "downlink_log",
        "uplink_bits": None, "downlink_bits": None,
    }
    configs["quad-step_log"] = {
        **QUADRATIC, "uplink_mode": "differential", "downlink_mode": "layered",
        "grid": "pipeline", "rounding": "nearest",
        "uplink_schedule": "step_log", "uplink_f": 2, "uplink_p": 10,
        "downlink_schedule": "step_log", "downlink_f": 3, "downlink_p": 7,
        "uplink_bits": None, "downlink_bits": None,
    }
    configs["quad-full-participation-full-batch"] = {
        **QUADRATIC, "clients_per_round": 8, "batch_size": 10,
        "uplink_mode": "differential", "downlink_mode": "quantized",
        "grid": "pipeline", "rounding": "stochastic",
    }
    configs["quad-one-client-d1"] = {
        **QUADRATIC, "clients_per_round": 1, "dimension": 1, "layer_sizes": None,
        "uplink_mode": "weight", "downlink_mode": "float",
        "grid": "pipeline", "rounding": "stochastic",
    }
    for rounding in ("nearest", "stochastic"):
        configs[f"quad-zero-differential-{rounding}"] = {
            **QUADRATIC, "spread": 0.0, "noise_std": 0.0,
            "uplink_mode": "differential", "downlink_mode": "quantized",
            "grid": "pipeline", "rounding": rounding,
        }
    for up, (grid, rounding), static in itertools.product(
            ("float", "weight", "differential"),
            (("pipeline", "nearest"), ("symmetric", "stochastic")),
            ("true", "false")):
        configs[f"logistic-{up}-layered-{grid}-{rounding}-static_{static}"] = {
            **LOGISTIC, "uplink_mode": up, "downlink_mode": "layered",
            "grid": grid, "rounding": rounding, "lq_static": static,
        }
    return {name: {k: v for k, v in cfg.items() if v is not None}
            for name, cfg in configs.items()}


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
    runs = {name: {"config": entries, "sha256": metrics_sha256(entries)}
            for name, entries in corpus_configs().items()}
    corpus = {"stream_scheme": fed.STREAM_SCHEME, "runs": runs}
    Path(argv[0]).write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(runs)} entries written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
