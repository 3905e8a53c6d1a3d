#!/usr/bin/env python3
"""fedquant benchmark: end-to-end wall times and a per-module traced breakdown.

Usage (from the repository root):

    python3 perfbench/run.py --workload quad_diff4 --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 38 --trace 1

The program is driven only through its public entry points: in-process
``fedquant.cli.main([...])`` for ``run``, ``bound`` and ``verify``, and
``federation.build_problem`` / ``federation.init_state`` for set-up.  Every
operation's output is checked (see ``checks.py``).  With ``--trace 0`` the
untraced end-to-end metrics are reported; with ``--trace 1`` the per-module
span breakdown from ``tracer.py``, measured on operations interleaved with
untraced twins of the same seed whose outputs must be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 9
MIN_CYCLES = 3

# The README/ROADMAP testbed: per-client work is tiny, so per-call overhead
# (local SGD, stream derivation, the uplink quantizer, the round loop) dominates.
QUAD_DIFF4 = {
    "model": "quadratic", "dimension": 10, "spread": 1.0, "samples_per_client": 20,
    "num_clients": 20, "clients_per_round": 5, "local_steps": 5, "batch_size": 5,
    "rounds": 2000, "mu": 1.0, "lipschitz": 1.0,
    "uplink_mode": "differential", "uplink_schedule": "constant", "uplink_bits": 4,
    "downlink_mode": "float",
}
# Matmul- and sigmoid-bound local SGD; the quantizer runs once per round per
# layer on the broadcast path only.  lipschitz sits above the largest
# estimate_smoothness seen over 300 seeds (1.234), not just seed 0's 1.1997.
LOGISTIC_LAYERED = {
    "model": "logistic", "regularization": 0.05, "dimension": 40,
    "layer_sizes": "8,32", "layer_feature_scales": "1.0,0.05", "samples_per_client": 100,
    "num_clients": 20, "clients_per_round": 5, "local_steps": 5, "batch_size": 20,
    "rounds": 2000, "mu": 0.05, "lipschitz": 1.3,
    "uplink_mode": "float",
    "downlink_mode": "layered", "downlink_schedule": "constant", "downlink_bits": 6,
}
# Almost no engine rounds: the noise-constant estimation of `bound` and the
# scalar quantizer loops of the moment verifiers.  Each entry says whether the
# verifier takes the op's seed.  The differential verifier keeps its default
# seed: on about 2% of seeds its gain_scaling check fails, because
# differential_gain cannot always make gain * max|d| exactly 2^(B-1).
VERIFY_SWEEP = (
    (("differential", "--dim", "64", "--bits", "3"), False),
    (("rounding", "--bits", "4"), True),
    (("sampling", "--n", "12", "--k", "4"), True),
)
# workload -> config of its run operation (verify_bound: of its bound operation)
WORKLOADS = {
    "quad_diff4": QUAD_DIFF4,
    "logistic_layered": LOGISTIC_LAYERED,
    "verify_bound": QUAD_DIFF4,
}

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "streams.substream.per_round": "count",
        "quantizer.quantize_vector.per_round": "count",
        "quantizer.quantize_vector.coords": "count",
        "quantizer.quantize_vector.coords_per_round": "count",
        "federation.run_round.p50_us": "us",
        "federation.run_round.p99_us": "us",
        "federation.uplink_bits_per_round": "bits",
        "federation.downlink_bits_per_round": "bits",
        "cli.write_metrics_csv.bytes": "bytes",
        "trace.op_ms": "ms",
        "trace.outside_spans_pct": "%",
        "trace.overhead_pct": "%",
    })
    return units


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    kind: str
    seed: int
    wall_s: float
    failures: list[str]
    output: bytes = b""

    def record(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "wall_s": self.wall_s,
                "ok": not self.failures, "failures": self.failures,
                "sha256": hashlib.sha256(self.output).hexdigest()}


def derive_seed(workload: str, seed: int, label: object) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()))
    return path


def measured_bits_per_round(metrics_csv: bytes) -> tuple[float, float]:
    """(uplink, downlink) bits per round from a metrics.csv's final row; zeros
    when the op failed and left no such file."""
    last = metrics_csv.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode(errors="replace").split(",")
    try:
        rounds = int(last[0]) + 1
        return int(last[6]) / rounds, int(last[7]) / rounds
    except (ValueError, IndexError):
        return 0.0, 0.0


@dataclass
class Bench:
    """One workload in one process: the imported CLI, a scratch directory and
    the operations run so far."""

    workload: str
    seed: int
    work: Path
    cli: object
    rounds: int | None = None
    ops: list[OpResult] = field(default_factory=list)
    bound_seed: int = 0
    bound_cfg: Path | None = None
    bound_metrics: Path | None = None
    _files: int = 0

    def config(self, seed: int) -> dict:
        cfg = {**WORKLOADS[self.workload], "seed": seed}
        if self.rounds is not None:
            cfg["rounds"] = self.rounds
        return cfg

    def _path(self, name: str) -> Path:
        self._files += 1
        return self.work / f"{self._files}-{name}"

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        """Run ``fedquant.cli.main(argv)``; return exit code, output, wall time."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash fails the op, not the benchmark
                code = -1
                print(f"{type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
        return code, out.getvalue(), wall

    def _keep(self, result: OpResult) -> OpResult:
        self.ops.append(result)
        return result

    def run_op(self, seed: int, kind: str = "run") -> OpResult:
        cfg = self.config(seed)
        cfg_path = write_config(self._path("run.cfg"), cfg)
        out_dir = self._path("out")
        code, text, wall = self.call(["run", "--config", str(cfg_path), "--out", str(out_dir)])
        metrics = out_dir / "metrics.csv"
        failures = checks.check_run(code, metrics, cfg)
        output = metrics.read_bytes() if metrics.is_file() else text.encode()
        shutil.rmtree(out_dir, ignore_errors=True)
        return self._keep(OpResult(kind, seed, wall, failures, output))

    def prepare_bound(self) -> None:
        """Write the bound op's config and the metrics file it averages."""
        self.bound_seed = derive_seed(self.workload, self.seed, "bound")
        prepared = self.run_op(self.bound_seed, kind="prepare")
        self.bound_cfg = write_config(self._path("bound.cfg"), self.config(self.bound_seed))
        self.bound_metrics = self._path("metrics.csv")
        self.bound_metrics.write_bytes(prepared.output)

    def bound_op(self) -> OpResult:
        out = self._path("bound.csv")
        code, text, wall = self.call(["bound", "--config", str(self.bound_cfg),
                                      "--out", str(out), str(self.bound_metrics)])
        failures = checks.check_bound(code, text, int(self.config(0)["rounds"]))
        output = (out.read_bytes() if out.is_file() else b"") + text.encode()
        return self._keep(OpResult("bound", self.bound_seed, wall, failures, output))

    def verify_op(self, seed: int) -> OpResult:
        failures, texts, total = [], [], 0.0
        for args, seeded in VERIFY_SWEEP:
            code, text, wall = self.call(["verify", *args, *(["--seed", str(seed)] * seeded)])
            total += wall
            texts.append(text)
            failures += [f"verify {args[0]}: {f}" for f in checks.check_verify(code, text)]
        return self._keep(OpResult("verify", seed, total, failures, "".join(texts).encode()))

    def cycle(self, index: int) -> list[OpResult]:
        """One unit of the workload: a run, or a bound plus a verifier sweep."""
        seed = derive_seed(self.workload, self.seed, index)
        if self.workload == "verify_bound":
            return [self.bound_op(), self.verify_op(seed)]
        return [self.run_op(seed)]


def cycle_wall(ops: list[OpResult]) -> float:
    return sum(op.wall_s for op in ops)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_cli():
    """Import fedquant afresh from this checkout's ``src``; return its cli module."""
    for name in [n for n in sys.modules if n == "fedquant" or n.startswith("fedquant.")]:
        del sys.modules[name]
    cli = importlib.import_module("fedquant.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"fedquant resolved to {cli.__file__}, not under {SRC}")
    return cli


def measure_setup(cfg_path: Path, repeats: int) -> tuple[object, list[float]]:
    """Time import + build_problem + init_state ``repeats`` times (numpy is
    imported beforehand, so each sample counts fedquant's own import)."""
    times, cli = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        cli = import_cli()
        fed = sys.modules["fedquant.federation"]
        config = cli.load_config(str(cfg_path))
        model, datasets = fed.build_problem(config)
        fed.init_state(config, model, datasets)
        times.append(time.perf_counter() - start)
    return cli, times


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace, samples: dict) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": args.rounds if args.rounds is not None else WORKLOADS[args.workload]["rounds"],
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# Measurement passes
# ---------------------------------------------------------------------------

def timed_cycles(bench: Bench, seconds: float, first_index: int) -> list[list[OpResult]]:
    """Run cycles until the next one would overrun ``seconds`` (at least MIN_CYCLES)."""
    cycles, start = [], time.perf_counter()
    while True:
        cycles.append(bench.cycle(first_index + len(cycles)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(cycle_wall(c) for c in cycles)
        if len(cycles) >= MIN_CYCLES and elapsed + typical > seconds:
            return cycles


def end_to_end(bench: Bench, setup_times: list[float], cycles) -> tuple[dict, list[str]]:
    walls = [cycle_wall(c) for c in cycles]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(cycles)
    lines = [f"setup_s       {metrics['setup_s']:.6f} s   median of {len(setup_times)} set-ups"]
    if bench.workload == "verify_bound":
        for label, part, what in (("bound_s", 0, "bound ops"), ("verify_s", 1, "verifier sweeps")):
            part_walls = [c[part].wall_s for c in cycles]
            lines.append(f"{label:<13} {statistics.median(part_walls):.6f} s   median of {n} {what}")
        lines.append(f"op_s          {metrics['op_s']:.6f} s   median of {n} bound+verify cycles")
    else:
        rounds = int(bench.config(0)["rounds"])
        lines += [f"run_s         {metrics['op_s']:.6f} s   median of {n} run ops (reported as op_s)",
                  f"rounds_per_s  {rounds * n / sum(walls):.3f} 1/s  {rounds} rounds x {n} ops "
                  f"/ {sum(walls):.3f} s"]
    lines.append(f"peak_rss_mb   {metrics['peak_rss_mb']:.3f} MB  ru_maxrss of the process")
    return metrics, lines


def traced_pairs(bench: Bench, seconds: float, first_index: int):
    """Interleave untraced and traced cycles of the same seed until time is up;
    a traced output that differs from its untraced twin fails both ops."""
    tracer = tracing.Tracer()
    plain, traced, start = [], [], time.perf_counter()
    while True:
        index = first_index + len(traced)
        runs = {}
        for is_traced in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if is_traced:
                with tracer:
                    runs[True] = bench.cycle(index)
            else:
                runs[False] = bench.cycle(index)
        for a, b in zip(runs[False], runs[True]):
            if a.output != b.output:
                for op in (a, b):
                    op.failures.append("traced output differs from untraced output")
        plain.append(runs[False])
        traced.append(runs[True])
        elapsed = time.perf_counter() - start
        typical = statistics.median(cycle_wall(p) + cycle_wall(t) for p, t in zip(plain, traced))
        if elapsed + typical > seconds:
            return tracer, plain, traced


def per_layer(bench: Bench, tracer: tracing.Tracer, plain, traced) -> tuple[dict, list[str]]:
    n = len(traced)
    traced_ns = sum(cycle_wall(c) for c in traced) * 1e9
    metrics, rows = {}, []
    for name in tracing.span_names():
        stat = tracer.stats[name]
        metrics[f"{name}.calls"] = stat.calls / n
        metrics[f"{name}.self_ms"] = stat.self_ns / n / 1e6
        share = 100.0 * stat.self_ns / traced_ns
        tag = "  (absent)" if name in tracer.absent else ""
        rows.append(f"{name:<40} {stat.calls / n:>12.1f} {stat.self_ns / n / 1e6:>12.3f} "
                    f"{share:>7.2f}%{tag}")
    rounds = tracer.stats[tracing.ROUND_SPAN].calls
    per_round = (lambda count: count / rounds) if rounds else (lambda count: 0.0)
    round_us = sorted(ns / 1e3 for ns in tracer.round_ns)
    csv_bytes = bench.bound_metrics.read_bytes() if bench.bound_metrics else traced[-1][0].output
    up_bits, down_bits = measured_bits_per_round(csv_bytes)
    outside_ns = traced_ns - tracer.total_self_ns()
    metrics.update({
        "streams.substream.per_round": per_round(tracer.stats["streams.substream"].calls_in_round),
        "quantizer.quantize_vector.per_round":
            per_round(tracer.stats["quantizer.quantize_vector"].calls_in_round),
        "quantizer.quantize_vector.coords": tracer.coords / n,
        "quantizer.quantize_vector.coords_per_round": per_round(tracer.coords_in_round),
        "federation.run_round.p50_us": percentile(round_us, 0.50),
        "federation.run_round.p99_us": percentile(round_us, 0.99),
        "federation.uplink_bits_per_round": up_bits,
        "federation.downlink_bits_per_round": down_bits,
        "cli.write_metrics_csv.bytes": tracer.csv_bytes / n,
        "trace.op_ms": traced_ns / n / 1e6,
        "trace.outside_spans_pct": 100.0 * outside_ns / traced_ns,
        "trace.overhead_pct": 100.0 * (statistics.median(cycle_wall(c) for c in traced)
                                       / statistics.median(cycle_wall(c) for c in plain) - 1.0),
    })
    lines = [f"{'span (per traced op)':<40} {'calls':>12} {'self_ms':>12} {'share':>8}", *rows,
             f"{'(outside wrapped spans)':<40} {'':>12} {outside_ns / n / 1e6:>12.3f} "
             f"{metrics['trace.outside_spans_pct']:>7.2f}%",
             f"{'traced op wall':<40} {'':>12} {metrics['trace.op_ms']:>12.3f} {100.0:>7.2f}%",
             f"samples: {n} traced and {n} untraced ops of the same seeds"]
    lines += [f"{key:<44} {value:.6g}" for key, value in metrics.items()
              if not key.endswith((".calls", ".self_ms"))]
    if tracer.absent:
        lines.append("absent: " + ", ".join(tracer.absent))
    return metrics, lines


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(args: argparse.Namespace) -> dict:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "fedquant" / "__init__.py").is_file():
        raise SetupError(f"no fedquant package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        importlib.import_module("numpy")
    except ImportError as exc:
        raise SetupError(f"numpy is not importable: {exc}") from exc

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        bench = Bench(args.workload, args.seed, work, cli=None, rounds=args.rounds)
        setup_cfg = write_config(work / "setup.cfg",
                                 bench.config(derive_seed(args.workload, args.seed, "setup")))
        try:
            bench.cli, setup_times = measure_setup(setup_cfg, SETUP_REPEATS)
        except ImportError as exc:
            raise SetupError(f"cannot import fedquant: {exc}") from exc
        if args.workload == "verify_bound":
            bench.prepare_bound()
        bench.cycle(0)  # warm-up: checked, but counts toward no timing

        samples = {"setups": len(setup_times), "warmup_cycles": 1}
        if args.trace:
            tracer, plain, traced = traced_pairs(bench, args.seconds, first_index=1)
            metrics, lines = per_layer(bench, tracer, plain, traced)
            units = per_layer_units()
            samples.update(traced_cycles=len(traced), untraced_cycles=len(plain))
        else:
            cycles = timed_cycles(bench, args.seconds, first_index=1)
            metrics, lines = end_to_end(bench, setup_times, cycles)
            units = END_TO_END_UNITS
            samples["timed_cycles"] = len(cycles)
        samples["ops"] = len(bench.ops)

    failed = sum(1 for op in bench.ops if op.failures)
    lines.append(f"fail_rate     {failed}/{len(bench.ops)} ops failed "
                 "(warm-up and prepared inputs included)")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}")
    print("provenance " + json.dumps(provenance(args, samples), sort_keys=True))
    print("\n".join(lines))
    print("ops " + json.dumps([op.record() for op in bench.ops]))
    for op in bench.ops:
        for failure in op.failures:
            print(f"FAILED {op.kind} seed {op.seed}: {failure}")
    return {
        "correct": failed == 0,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Run every workload in its own process; metric names gain a workload prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.rounds is not None:
            argv += ["--rounds", str(args.rounds)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()}")
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the 2000 rounds (smoke runs of the self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
