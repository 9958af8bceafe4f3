"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
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
