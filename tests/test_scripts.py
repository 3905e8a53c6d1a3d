"""Smoke tests: the experiment scripts still run against the engine's API."""

import csv
import runpy
import sys
from pathlib import Path

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
