"""Experiment harness: run federations, verify moment properties, check bounds.

Subcommands
-----------
run     execute a configured federation, write metrics.csv + manifest.json
verify  run an executable moment verifier (sampling / rounding / differential)
bound   compare a finished run's gap trajectory against the analytic bound

Exit codes: 0 success, 1 failed verification checks, 2 configuration error,
an output path that cannot be written or an optimum solver that did not
converge, 3 runtime assumption violation.

Config files are flat ``key=value`` text ('#' starts a comment).  Its keys and
their value types are ``federation.CONFIG_KEY_TYPES``: the FederationConfig
fields, each schedule flattened as ``uplink_schedule`` / ``uplink_bits`` /
``uplink_f`` / ``uplink_p`` (same for ``downlink_*``).  Unknown keys are errors,
and so is a key the configured run does not read (``federation.config_reads``).
All floating-point output uses 17 significant digits so CSVs round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, federation as fed, models
from .streams import VERIFY, philox_stream

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_CONFIG = 2
_EXIT_ASSUMPTION = 3

METRICS_HEADER = [
    "round", "eta", "B_up", "B_down", "train_loss", "gap",
    "uplink_bits_cum", "downlink_bits_cum",
]


def g17(x: float) -> str:
    return format(float(x), ".17g")


def _read_value(kind: object, raw: str):
    """A config-file value of the declared type ``kind``; a tuple is a comma list."""
    if typing.get_origin(kind) is tuple:
        return tuple(typing.get_args(kind)[0](part) for part in raw.split(",") if part.strip())
    if kind in (int, float):
        return kind(raw)
    if kind is bool and raw.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return raw.lower() == "true" if kind is bool else kind(raw.lower())


def parse_config_keys(text: str) -> tuple[fed.FederationConfig, list[str]]:
    """The config a ``key=value`` text describes, and the keys the text sets,
    whether or not the configured run reads them."""
    entries: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise fed.ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise fed.ConfigError(f"line {lineno}: duplicate key '{key}'")
        if key not in fed.CONFIG_KEY_TYPES:
            raise fed.ConfigError(f"unknown config key '{key}'")
        try:
            entries[key] = _read_value(fed.CONFIG_KEY_TYPES[key], raw)
        except ValueError as exc:
            raise fed.ConfigError(f"bad value for key '{key}': {raw!r} ({exc})") from exc
    keys = list(entries)

    for link, schedule_keys in fed.SCHEDULE_KEYS.items():
        spec = {field: entries.pop(key, None) for field, (key, _) in schedule_keys.items()}
        if spec["kind"] is not None or spec["bits"] is not None:
            spec["kind"] = spec["kind"] or fed.ScheduleKind.CONSTANT
            entries[f"{link}_schedule"] = fed.ScheduleSpec(**spec)
    return fed.FederationConfig(**entries), keys  # type: ignore[arg-type]


def parse_config_text(text: str) -> fed.FederationConfig:
    """The config a ``key=value`` text describes; every key it sets must be
    one that the configured run reads."""
    config, keys = parse_config_keys(text)
    unread = sorted(set(keys) - fed.config_reads(config))
    if unread:
        raise fed.ConfigError(f"{', '.join(unread)} {'is' if len(unread) == 1 else 'are'} "
                              f"not read by {fed.describe_run(config)}")
    return config


def load_config(path: str, seed_override: int | None = None) -> fed.FederationConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise fed.ConfigError(f"cannot read config {path}: {exc}") from exc
    config = parse_config_text(text)
    if seed_override is not None:
        config = replace(config, seed=seed_override)
    return config


def write_metrics_csv(path: Path, records: list[fed.RoundRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for r in records:
            writer.writerow([
                r.round, g17(r.eta), r.bits_up, r.bits_down,
                g17(r.train_loss), g17(r.gap),
                r.uplink_bits_cum, r.downlink_bits_cum,
            ])


def _config_snapshot(config: fed.FederationConfig) -> dict:
    """The config in config-file keys: every key the run reads, and no other."""
    snap = {name: getattr(config, name) for name in config.__dataclass_fields__}
    for link, schedule_keys in fed.SCHEDULE_KEYS.items():
        spec = snap.pop(f"{link}_schedule")
        snap.update({key: getattr(spec, field) for field, (key, _) in schedule_keys.items()})
    reads = fed.config_reads(config)
    return {key: value.value if hasattr(value, "value") else
            list(value) if isinstance(value, tuple) else value
            for key, value in snap.items() if key in reads}


def _check_out(path: Path, directory: bool) -> None:
    """Reject, before any work, an output ``path`` that cannot be created as
    a directory (``directory``) or a file: it exists as the other kind, or
    its nearest existing ancestor is not a directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing.is_dir() != (directory or existing != path):
        kind = "a directory" if existing.is_dir() else "not a directory"
        raise fed.ConfigError(f"cannot write {path}: {existing} is {kind}")


def _write_run(out_dir: Path, config_path: str, config: fed.FederationConfig,
               records: list[fed.RoundRecord]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    write_metrics_csv(metrics_path, records)
    manifest = {
        "tool_version": __version__,
        "master_seed": config.seed,
        "stream_scheme": fed.STREAM_SCHEME,
        # the engine's draws depend on numpy's Philox and Generator.random
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config_path": str(config_path),
        "config": _config_snapshot(config),
        "artifacts": [str(metrics_path)],
    }
    manifest_path = out_dir / "manifest.json"
    manifest["artifacts"].append(str(manifest_path))
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.seed)
    out_dir = Path(args.out)
    _check_out(out_dir, directory=True)
    try:
        records = fed.run_federation(config)
    except fed.AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return _EXIT_ASSUMPTION
    try:
        _write_run(out_dir, args.config, config, records)
    except OSError as exc:
        raise fed.ConfigError(f"cannot write {out_dir}: {exc}") from exc
    if records:
        last = records[-1]
        print(
            f"final round={last.round} loss={g17(last.train_loss)} "
            f"gap={g17(last.gap)} uplink_bits={last.uplink_bits_cum} "
            f"downlink_bits={last.downlink_bits_cum}"
        )
    else:
        print("no rounds executed")
    return _EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        rng = philox_stream(args.seed, VERIFY)
        if args.check == "sampling":
            vectors = rng.standard_normal((args.n, 5))
            report = analysis.check_sampling_moments(args.n, args.k, vectors)
        elif args.check == "rounding":
            report = analysis.check_rounding_moments(
                args.range_bound, args.bits, trials=args.trials, seed=args.seed
            )
        else:
            d_vec = rng.standard_normal(args.dim)
            report = analysis.check_differential_moments(
                d_vec, args.bits, trials=args.trials, seed=args.seed
            )
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    print(report.to_text())
    return _EXIT_OK if report.passed else _EXIT_CHECK_FAILED


def _read_gap_column(path: str, expected_rounds: int) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != METRICS_HEADER:
            raise fed.ConfigError(f"{path}: unexpected metrics header {header}")
        rows = [row for row in reader if row]
    if len(rows) != expected_rounds:
        raise fed.ConfigError(
            f"{path}: {len(rows)} rows do not match configured rounds "
            f"{expected_rounds}"
        )
    gaps = np.empty(len(rows))
    for t, row in enumerate(rows):
        try:
            if len(row) != len(METRICS_HEADER):
                raise ValueError(f"{len(row)} fields, expected {len(METRICS_HEADER)}")
            round_, gaps[t] = int(row[0]), float(row[5])
            if not np.isfinite(gaps[t]):
                raise ValueError(f"gap {row[5]} is not finite")
        except ValueError as exc:
            raise fed.ConfigError(f"{path}: malformed row {t}: {exc}") from exc
        if round_ != t:
            raise fed.ConfigError(f"{path}: round column mismatch at row {t}")
    return gaps


def cmd_bound(args: argparse.Namespace) -> int:
    out_path = Path(args.out)
    try:
        _check_out(out_path, directory=False)
        config = load_config(args.config)
        variant, _ = analysis.bound_variant(config)
        gaps = np.stack([_read_gap_column(path, config.rounds) for path in args.metrics])
    except OSError as exc:
        raise fed.ConfigError(str(exc)) from exc
    gap_mean = gaps.mean(axis=0)
    bounds = analysis.gap_bound(config)
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "gap_mean", "bound_rhs"])
            for t in range(config.rounds):
                writer.writerow([t, g17(gap_mean[t]), g17(bounds[t])])
    except OSError as exc:
        raise fed.ConfigError(f"cannot write {out_path}: {exc}") from exc
    within = int(np.sum(gap_mean <= bounds))
    frac = within / config.rounds if config.rounds else 1.0
    print(f"variant: {variant.value}")
    print(f"rounds_within_bound: {within}/{config.rounds} ({g17(frac)})")
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedquant",
        description="Deterministic federated-averaging simulator with "
                    "quantized communication",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured federation")
    run.add_argument("--config", required=True, help="key=value config file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run a moment verifier")
    verify.add_argument("check", choices=["sampling", "rounding", "differential"])
    verify.add_argument("--n", type=int, default=6, help="clients (sampling)")
    verify.add_argument("--k", type=int, default=2, help="subset size (sampling)")
    verify.add_argument("--range-bound", type=float, default=1.0,
                        dest="range_bound", help="grid half-range (rounding)")
    verify.add_argument("--bits", type=int, default=4)
    verify.add_argument("--dim", type=int, default=10,
                        help="vector dimension (differential)")
    verify.add_argument("--trials", type=int, default=10_000)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    bound = sub.add_parser(
        "bound", help="compare run metrics against the analytic gap bound"
    )
    bound.add_argument("--config", required=True)
    bound.add_argument("--out", required=True, help="bound.csv output path")
    bound.add_argument("metrics", nargs="+",
                       help="metrics.csv files (gaps are averaged)")
    bound.set_defaults(func=cmd_bound)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fed.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except models.SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
