#!/usr/bin/env python3
"""Compare uplink transmission modes on the desk-scale quadratic testbed.

Runs the unquantized baseline, constant-bit differential transmission, the
log-scheduled weight uplink, and the constant-bit weight uplink over several
run seeds on one fixed problem, then writes per-mode seed-mean gap
trajectories to a CSV for plotting.

Usage:
  python scripts/compare_uplink_modes.py --rounds 2000 --seeds 10 --out gaps.csv
"""

import argparse
import csv

import numpy as np

from fedquant import federation as fed
from fedquant.data import tight_weight_bound


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=2000)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--bits", type=int, default=4)
    parser.add_argument("--out", default="uplink_gaps.csv")
    args = parser.parse_args()

    base = dict(num_clients=20, clients_per_round=5, local_steps=5,
                rounds=args.rounds, batch_size=5, mu=1.0, lipschitz=1.0,
                dimension=10, spread=1.0, seed=0)
    model, datasets = fed.build_problem(fed.FederationConfig(**base))
    bound = tight_weight_bound(datasets, base["batch_size"])
    print(f"weight magnitude bound M = {bound:.4g}")

    modes = {
        "float": {},
        "differential": dict(uplink_mode=fed.UplinkMode.DIFFERENTIAL,
                             uplink_schedule=fed.ScheduleSpec.constant(args.bits)),
        "weight_log": dict(uplink_mode=fed.UplinkMode.WEIGHT,
                           uplink_schedule=fed.ScheduleSpec(fed.ScheduleKind.WEIGHT_LOG),
                           weight_bound=bound),
        "weight_fixed": dict(uplink_mode=fed.UplinkMode.WEIGHT,
                             uplink_schedule=fed.ScheduleSpec.constant(args.bits),
                             weight_bound=bound),
    }

    mean_gaps = {}
    for name, overrides in modes.items():
        rows = []
        for seed in range(args.seeds):
            cfg = fed.FederationConfig(**{**base, **overrides, "seed": seed})
            rows.append([r.gap for r in fed.run_federation(cfg, model, datasets)])
        mean_gaps[name] = np.mean(rows, axis=0)
        print(f"{name:>13}: final seed-mean gap {mean_gaps[name][-1]:.6g}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", *modes])
        for t in range(args.rounds):
            writer.writerow([t, *(format(mean_gaps[n][t], ".17g") for n in modes)])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
