"""Output checks for benchmark operations.

Every check returns a list of failure messages; an empty list means the
output is correct.  The expected link bits are computed here from the
workload's config, following the README's accounting, and never read back
from the program under test.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

FLOAT_BITS_PER_COORD = 32
HEADER_BITS = 17 * 8          # bit-width, IEEE-754 gain and length per quantized vector
METRICS_HEADER = ["round", "eta", "B_up", "B_down", "train_loss", "gap",
                  "uplink_bits_cum", "downlink_bits_cum"]
# The gap bound is O(1/T): a run passes when gap * rounds stays under this
# limit.  Over 30 seeds the quad_diff4 final gap * 2000 ranged 1.0 to 10.9
# (median 2.6), so a run stuck at a noise floor or diverging fails while SGD
# noise on a healthy run does not.
GAP_TIMES_ROUNDS_LIMIT = 60.0


def link_bits_per_round(cfg: dict) -> tuple[int, int]:
    """Accounted (uplink, downlink) bits of one round of a constant-width config."""
    dim = int(cfg["dimension"])

    def coded(size: int, bits: int) -> int:
        return size * bits + HEADER_BITS

    for link in ("uplink", "downlink"):
        if cfg.get(f"{link}_mode", "float") != "float" and cfg.get(f"{link}_schedule") != "constant":
            raise ValueError(f"{link}: only constant-width schedules are accounted")
    up_mode = cfg.get("uplink_mode", "float")
    per_client = (FLOAT_BITS_PER_COORD * dim if up_mode == "float"
                  else coded(dim, int(cfg["uplink_bits"])))
    uplink = int(cfg["clients_per_round"]) * per_client

    down_mode = cfg.get("downlink_mode", "float")
    if down_mode == "float":
        downlink = FLOAT_BITS_PER_COORD * dim
    elif down_mode == "quantized":
        downlink = coded(dim, int(cfg["downlink_bits"]))
    else:
        sizes = [int(s) for s in str(cfg["layer_sizes"]).split(",")]
        downlink = sum(coded(size, int(cfg["downlink_bits"])) for size in sizes)
    return uplink, downlink


def check_run(code: int, metrics_path: Path, cfg: dict) -> list[str]:
    """A finished ``fedquant run``: exit 0, one row per round, exact link
    bits, and a finite positive gap within the O(1/T) limit."""
    if code != 0:
        return [f"run exited {code}"]
    try:
        with open(metrics_path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"cannot read metrics: {exc}"]
    rounds = int(cfg["rounds"])
    if not rows or rows[0] != METRICS_HEADER:
        return ["metrics.csv header mismatch"]
    body = rows[1:]
    if len(body) != rounds:
        return [f"metrics.csv has {len(body)} rows, expected {rounds}"]
    failures = []
    up, down = link_bits_per_round(cfg)
    last = dict(zip(METRICS_HEADER, body[-1]))
    if int(last["uplink_bits_cum"]) != rounds * up:
        failures.append(f"uplink_bits_cum {last['uplink_bits_cum']} != {rounds * up}")
    if int(last["downlink_bits_cum"]) != rounds * down:
        failures.append(f"downlink_bits_cum {last['downlink_bits_cum']} != {rounds * down}")
    gap = float(last["gap"])
    if not (math.isfinite(gap) and gap > 0 and gap * rounds <= GAP_TIMES_ROUNDS_LIMIT):
        failures.append(f"final gap {gap!r} outside (0, {GAP_TIMES_ROUNDS_LIMIT}/{rounds}]")
    return failures


def check_bound(code: int, stdout: str, rounds: int) -> list[str]:
    """A finished ``fedquant bound``: exit 0 and every round within the bound."""
    if code != 0:
        return [f"bound exited {code}"]
    want = f"rounds_within_bound: {rounds}/{rounds} "
    if not any(line.startswith(want) for line in stdout.splitlines()):
        return [f"bound output lacks '{want.strip()}'"]
    return []


def check_verify(code: int, stdout: str) -> list[str]:
    """A finished ``fedquant verify``: exit 0 and an overall ``pass: true``."""
    if code != 0:
        return [f"verify exited {code}"]
    if "pass: true" not in stdout.splitlines():
        return ["verifier did not print 'pass: true'"]
    return []
