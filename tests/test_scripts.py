"""Smoke tests: the experiment scripts still run against the engine's API."""

import csv
import importlib.util
import json
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


def test_corpus_rewrite_names_each_changed_added_and_removed_entry(
        tmp_path, capsys, monkeypatch):
    # configs and hashes are stubbed, so only the report is under test
    spec = importlib.util.spec_from_file_location(
        "make_metrics_corpus", SCRIPTS / "make_metrics_corpus.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"stream_scheme": "s", "runs": {
        name: {"config": {"seed": sha}, "sha256": sha}
        for name, sha in (("kept", "1"), ("changed", "2"), ("removed", "3"))}}))
    new = {"kept": "1", "changed": "20", "added": "4"}
    monkeypatch.setattr(script, "corpus_configs",
                        lambda: {name: {"seed": sha} for name, sha in new.items()})
    monkeypatch.setattr(script, "metrics_sha256", lambda entries: entries["seed"])
    assert script.main([str(corpus)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "added added", "changed changed", "removed removed",
        f"3 entries written to {corpus}"]
    assert {name: run["sha256"] for name, run in
            json.loads(corpus.read_text())["runs"].items()} == new
    # a new file has no entries to compare against
    fresh = tmp_path / "fresh.json"
    assert script.main([str(fresh)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"3 entries written to {fresh}"]
