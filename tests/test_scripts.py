"""Smoke tests: the experiment scripts still run against the engine's API."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

from fedquant import analysis as an

SCRIPTS = Path(__file__).parents[1] / "scripts"


def test_compare_uplink_modes_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "gaps.csv"
    monkeypatch.setattr(sys, "argv", ["compare_uplink_modes.py", "--rounds", "3",
                                      "--seeds", "1", "--out", str(out)])
    runpy.run_path(str(SCRIPTS / "compare_uplink_modes.py"), run_name="__main__")
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["round", "float", "differential", "weight_log", "weight_fixed"]
    assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("failing", [0, 1])
def test_verify_moments_sweeps_every_verifier(monkeypatch, capsys, failing):
    # the verifiers are stubbed: a real sweep takes seconds, and the checks
    # themselves are tested in test_analysis.py
    calls = []

    def stub(name):
        def check(*args, **kwargs):
            calls.append((name, args, kwargs))
            passed = not (failing and len(calls) == 7)
            return an.VerificationReport(
                f"{name} {len(calls)}", (an.CheckResult("x", 0.0, 0.0, passed),))
        return check

    for name in ("check_sampling_moments", "check_rounding_moments",
                 "check_differential_moments"):
        monkeypatch.setattr(an, name, stub(name))
    monkeypatch.setattr(sys, "argv", ["verify_moments.py"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "verify_moments.py"), run_name="__main__")
    assert exit_info.value.code == failing
    assert len(calls) == 19

    def args_of(name):
        return [args for called, args, _ in calls if called == name]
    assert [(n, k, v.shape) for n, k, v in args_of("check_sampling_moments")] == [
        (3, 1, (3, 5)), (6, 2, (6, 5)), (8, 3, (8, 5)), (5, 5, (5, 5))]
    assert args_of("check_rounding_moments") == [
        (bound, bits) for bits in (1, 2, 4, 8) for bound in (0.5, 1.0, 4.0)]
    assert [(d.shape, bits) for d, bits in args_of("check_differential_moments")] == [
        ((4,), 1), ((10,), 3), ((64,), 6)]
    assert all(kwargs == {"trials": 20_000} for name, _, kwargs in calls
               if name != "check_sampling_moments")
    out = capsys.readouterr().out
    assert out.count("report: ") == 19
    assert out.rstrip().endswith(f"{19 - failing}/19 reports passed")
