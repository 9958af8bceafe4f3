"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_experiments_prints_acceptance(monkeypatch, capsys):
    script = load_script("search_experiments")
    monkeypatch.setattr(sys, "argv", ["search_experiments.py", "--attempts", "2000", "--triples", "1"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label search acceptance: 0/2000 = 0.000000"
    assert lines[1] == "birthday estimate:       0.000255  (deviation 0.71 sigma)"
    assert lines[2].startswith("first valid label map after ")
    assert len([line for line in lines if line.startswith("  (")]) == 1


def test_closure_report_prints_three_stages(monkeypatch, capsys):
    from rigidsurf.arrangement import load_heart_construction

    script = load_script("closure_report")
    monkeypatch.setattr(sys, "argv", ["closure_report.py"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    stages = [re.match(r"stage (\d): +(\d+) lines .*\) +(\d+) points", line).groups() for line in lines]
    assert stages == [("1", "6", "7"), ("2", "9", "13"), ("3", "25", "97")]
    # the counts the bundled construction records (null where it records none)
    expected = load_heart_construction()["expected"]
    for (_, n_lines, n_points), want_lines, want_points in zip(
        stages, expected["closure_line_counts"], expected["closure_point_counts"]
    ):
        assert want_lines in (None, int(n_lines)) and want_points in (None, int(n_points))
