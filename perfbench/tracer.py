"""Span tracer that wraps fedquant's public functions from outside the package.

Each target ``(module, function)`` is wrapped once and the wrapper is bound
at every ``fedquant`` module attribute that holds the original function, so
names imported with ``from .models import local_train`` are traced as well as
``models.local_train``.  A target that no longer exists is reported as absent
instead of failing the run.

Self time of a span is its wall time minus the wall time of the wrapped spans
it directly encloses, so the self times of all spans of one operation add up
to the operation's wall time minus the time spent outside every wrapped
function.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

# Layer name -> public functions whose spans are recorded.
TARGETS: dict[str, tuple[str, ...]] = {
    "streams": ("substream",),
    "models": ("local_train", "loss", "grad", "solve_optimum", "estimate_smoothness"),
    "quantizer": ("quantize_vector", "layered_gains", "differential_gain",
                  "grid_moments", "quantize_grid_sr"),
    "federation": ("run_federation", "run_round", "sample_clients", "broadcast",
                   "aggregate_weights", "build_problem", "init_state"),
    "analysis": ("pilot_probe_weights", "estimate_noise_bounds", "noniid_gamma",
                 "convergence_bound", "check_rounding_moments",
                 "check_differential_moments", "check_sampling_moments"),
    "data": ("gen_quadratic_clients", "gen_logistic_dataset", "partition_iid"),
    "cli": ("main", "load_config", "write_metrics_csv"),
}

PACKAGE = "fedquant"
ROUND_SPAN = "federation.run_round"
COUNTED_PER_ROUND = ("streams.substream", "quantizer.quantize_vector")


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    calls_in_round: int = 0


@dataclass
class Tracer:
    """Collects span statistics while installed (use as a context manager)."""

    stats: dict[str, SpanStats] = field(
        default_factory=lambda: {name: SpanStats() for name in span_names()})
    absent: list[str] = field(default_factory=list)
    round_ns: list[int] = field(default_factory=list)
    coords: int = 0
    coords_in_round: int = 0
    csv_bytes: int = 0
    _child_ns: list[int] = field(default_factory=list)
    _round_depth: int = 0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        """Bind a wrapper at every fedquant module attribute holding a target;
        statistics accumulate over every ``with`` block of one tracer."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for name in span_names():
            layer, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), fn_name, None)
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._child_ns
        is_round = name == ROUND_SPAN
        count_in_round = name in COUNTED_PER_ROUND
        after = {
            "quantizer.quantize_vector": self._after_quantize,
            "cli.write_metrics_csv": self._after_write_csv,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_in_round and self._round_depth:
                stats.calls_in_round += 1
            if is_round:
                self._round_depth += 1
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.self_ns += elapsed - children
                if is_round:
                    self._round_depth -= 1
                    self.round_ns.append(elapsed)
                if after is not None:
                    after(args, kwargs)

        return wrapper

    def _after_quantize(self, args, kwargs) -> None:
        vec = args[0] if args else kwargs.get("v")
        n = int(getattr(vec, "size", len(vec))) if vec is not None else 0
        self.coords += n
        if self._round_depth:
            self.coords_in_round += n

    def _after_write_csv(self, args, kwargs) -> None:
        path = args[0] if args else kwargs.get("path")
        try:
            self.csv_bytes += os.path.getsize(path)
        except (OSError, TypeError):
            pass

    # -- summaries --------------------------------------------------------

    def total_self_ns(self) -> int:
        return sum(s.self_ns for s in self.stats.values())
