#!/usr/bin/env python3
"""Sweep the executable moment verifiers and print their reports.

Covers subset-sampling moments over several (N, K) pairs, stochastic
rounding moments over a grid of bit-widths and ranges, and differential
quantization moments over random vectors.  Exits nonzero if any check fails.
"""

import sys

from fedquant import analysis as an
from fedquant.streams import VERIFY, philox_stream


def main() -> int:
    rng = philox_stream(2024, VERIFY)
    reports = []

    for n, k in ((3, 1), (6, 2), (8, 3), (5, 5)):
        reports.append(an.check_sampling_moments(n, k, rng.standard_normal((n, 5))))

    for bits in (1, 2, 4, 8):
        for bound in (0.5, 1.0, 4.0):
            reports.append(an.check_rounding_moments(bound, bits, trials=20_000))

    for dim, bits in ((4, 1), (10, 3), (64, 6)):
        reports.append(an.check_differential_moments(
            rng.standard_normal(dim), bits, trials=20_000))

    failed = 0
    for report in reports:
        print(report.to_text())
        print()
        failed += not report.passed
    print(f"{len(reports) - failed}/{len(reports)} reports passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
