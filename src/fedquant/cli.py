"""Experiment harness: run federations, verify moment properties, check bounds.

Subcommands
-----------
run     execute a configured federation, write metrics.csv + manifest.json
verify  run an executable moment verifier (sampling / rounding / differential)
bound   compare a finished run's gap trajectory against the analytic bound

Exit codes: 0 success, 1 failed verification checks, 2 configuration error,
an output path that cannot be written or an optimum solver that did not
converge, 3 runtime assumption violation.

Config files are flat ``key=value`` text ('#' starts a comment).  Keys match
the FederationConfig fields; the two schedule fields are flattened as
``uplink_schedule`` / ``uplink_bits`` / ``uplink_f`` / ``uplink_p`` (same for
``downlink_*``).  Unknown keys are errors.  All floating-point output uses 17
significant digits so CSVs round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, federation as fed, models, quantizer as qz
from .streams import VERIFY, philox_stream

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_CONFIG = 2
_EXIT_ASSUMPTION = 3

METRICS_HEADER = [
    "round", "eta", "B_up", "B_down", "train_loss", "gap",
    "uplink_bits_cum", "downlink_bits_cum",
]

_INT_KEYS = {
    "num_clients", "clients_per_round", "local_steps", "rounds", "batch_size",
    "seed", "dimension", "samples_per_client", "uplink_bits", "downlink_bits",
}
_FLOAT_KEYS = {
    "mu", "lipschitz", "weight_bound", "regularization", "spread", "noise_std",
    "uplink_f", "uplink_p", "downlink_f", "downlink_p",
}
_BOOL_KEYS = {"one_bit_enhanced", "lq_static"}
_ENUM_KEYS = {
    "uplink_mode": fed.UplinkMode,
    "downlink_mode": fed.DownlinkMode,
    "rounding": qz.Rounding,
    "structure": fed.Structure,
    "grid": qz.GridKind,
    "model": models.LossKind,
    "uplink_schedule": fed.ScheduleKind,
    "downlink_schedule": fed.ScheduleKind,
}
_TUPLE_KEYS = {"layer_sizes": int, "layer_feature_scales": float}


def g17(x: float) -> str:
    return format(float(x), ".17g")


def _parse_value(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError("expected true or false")
        if key in _ENUM_KEYS:
            return _ENUM_KEYS[key](raw.lower())
        if key in _TUPLE_KEYS:
            cast = _TUPLE_KEYS[key]
            return tuple(cast(part) for part in raw.split(",") if part.strip())
    except (ValueError, KeyError) as exc:
        raise fed.ConfigError(f"bad value for key '{key}': {raw!r} ({exc})") from exc
    raise fed.ConfigError(f"unknown config key '{key}'")


def parse_config_text(text: str) -> fed.FederationConfig:
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
        entries[key] = _parse_value(key, raw)

    def take_schedule(prefix: str) -> fed.ScheduleSpec | None:
        kind = entries.pop(f"{prefix}_schedule", None)
        bits = entries.pop(f"{prefix}_bits", None)
        f = entries.pop(f"{prefix}_f", None)
        p = entries.pop(f"{prefix}_p", None)
        if kind is None:
            if bits is not None:
                return fed.ScheduleSpec.constant(bits)
            if f is not None or p is not None:
                raise fed.ConfigError(
                    f"{prefix}_f/{prefix}_p require {prefix}_schedule=step_log"
                )
            return None
        return fed.ScheduleSpec(kind, bits=bits, f=f, p=p)

    uplink = take_schedule("uplink")
    downlink = take_schedule("downlink")
    if uplink is not None:
        entries["uplink_schedule"] = uplink
    if downlink is not None:
        entries["downlink_schedule"] = downlink
    try:
        return fed.FederationConfig(**entries)  # type: ignore[arg-type]
    except TypeError as exc:
        raise fed.ConfigError(str(exc)) from exc


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
    snap = {}
    for name in config.__dataclass_fields__:
        value = getattr(config, name)
        if isinstance(value, fed.ScheduleSpec):
            value = {"kind": value.kind.value, "bits": value.bits,
                     "f": value.f, "p": value.p}
        elif hasattr(value, "value"):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        snap[name] = value
    return snap


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


def _bound_variant(config: fed.FederationConfig) -> tuple[analysis.BoundVariant, int | None]:
    if config.uplink_mode is fed.UplinkMode.DIFFERENTIAL:
        if config.uplink_schedule.kind is not fed.ScheduleKind.CONSTANT:
            raise fed.ConfigError(
                "differential bound requires a constant uplink bit-width"
            )
        return analysis.BoundVariant.DIFFERENTIAL, config.uplink_schedule.bits
    if config.uplink_mode is fed.UplinkMode.WEIGHT:
        return analysis.BoundVariant.WEIGHT, None
    if config.downlink_mode is not fed.DownlinkMode.FLOAT:
        return analysis.BoundVariant.DOWNLINK, None
    # unquantized run: use the weight-mode constant (largest sensible allowance)
    return analysis.BoundVariant.WEIGHT, None


def cmd_bound(args: argparse.Namespace) -> int:
    out_path = Path(args.out)
    try:
        _check_out(out_path, directory=False)
        config = load_config(args.config)
        variant, bits = _bound_variant(config)
        gaps = np.stack([
            _read_gap_column(path, config.rounds) for path in args.metrics
        ])
    except (fed.ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    gap_mean = gaps.mean(axis=0)

    model, datasets = fed.build_problem(config)
    optimum = models.solve_optimum(model, datasets)
    fed.check_smoothness(config, optimum)
    probes = analysis.pilot_probe_weights(config, model, datasets)
    sigma_sq, h_sq = analysis.estimate_noise_bounds(
        model, datasets, probes, config.batch_size, seed=config.seed
    )
    params = analysis.BoundParams(
        mu=config.mu, lipschitz=config.lipschitz, sigma_sq=sigma_sq, h_sq=h_sq,
        gamma_noniid=analysis.noniid_gamma(model, datasets),
        weight_bound=config.weight_bound, dim=config.dimension,
        local_steps=config.local_steps,
        clients_per_round=config.clients_per_round,
        num_clients=config.num_clients,
        w0_gap_sq=float(optimum.w_star @ optimum.w_star),
    )
    d_const = analysis.bound_constant(variant, params, bits)
    if not np.isfinite(d_const):
        raise fed.ConfigError(f"{variant.value} bound constant D = {d_const} is not finite "
                              f"(weight_bound {config.weight_bound:.6g})")
    bounds = np.array([
        analysis.convergence_bound(t + 1, params, d_const)
        for t in range(config.rounds)
    ])
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
