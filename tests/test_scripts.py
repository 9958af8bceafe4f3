"""Smoke tests for the scripts under ``scripts/``."""

import importlib.util
import json
import os
import re
import subprocess
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
    assert lines[0] == "label search acceptance: 1/2000 = 0.000500"
    assert lines[1] == "birthday estimate:       0.000255  (deviation 0.68 sigma)"
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


def test_search_split_prints_the_four_parts(monkeypatch, capsys):
    script = load_script("search_split")
    monkeypatch.setattr(sys, "argv", ["search_split.py", "--seed", "3"])
    script.main()
    report = json.loads(capsys.readouterr().out)
    parts = report["parts"]
    assert list(parts) == ["label_search", "acceptance", "elimination", "triangles"]
    for part in parts.values():
        assert part["wall_s"] >= 0 and part["minflt"] >= 0
    assert report["seed"] == 3 and report["total_wall_s"] > 0
    assert parts["acceptance"]["count"][1] == 50_000
    assert parts["elimination"]["schedules"] == 11
    assert parts["triangles"]["triples"] == 100


def test_search_and_certificate_do_not_import_numpy_ma():
    # numpy.ma is imported by the first np.unique(axis=0), at a cost of
    # tens of milliseconds and 4.8 MB of resident memory; neither a search
    # workload repetition nor a certificate needs it.  Nor do they need
    # concurrent.futures (with logging, about 0.5 MB), which only a
    # certificate with more than one worker imports
    src = str(SCRIPTS.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['search_split.py', '--seed', '1']\n"
        f"runpy.run_path({str(SCRIPTS / 'search_split.py')!r}, run_name='__main__')\n"
        "from rigidsurf.arrangement import build_heart\n"
        "from rigidsurf.certify import full_certificate\n"
        "assert full_certificate(build_heart()).ok\n"
        "print('numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert json.loads(lines[0])["parts"]["label_search"]["attempts"] > 0
    assert lines[1] == "False False"


def test_search_split_repeats_in_fresh_processes(monkeypatch, capsys):
    script = load_script("search_split")
    monkeypatch.setattr(sys, "argv", ["search_split.py", "--seed", "2", "--repeat", "3"])
    script.main()
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], report["repeat"]) == (2, 3)
    for part in report["parts"].values():
        for metric in ("wall_s", "minflt"):
            runs = part[f"{metric}_runs"]
            assert len(runs) == 3 and part[metric] == sorted(runs)[1]



def test_search_split_splits_a_certificate(monkeypatch, capsys):
    script = load_script("search_split")
    monkeypatch.setattr(sys, "argv", ["search_split.py", "--workload", "certify-1w", "--seed", "1"])
    script.main()
    report = json.loads(capsys.readouterr().out)
    assert report["digest"] == script.workloads.SEED_DIGEST
    parts = report["parts"]
    sections = ["incidence", "building_data", "ampleness", "condition_a", "condition_b", "condition_c", "invariants"]
    assert [name for name in parts if name in sections] == sections
    loop = {"condition_a.banks", "condition_a.ranks", "condition_a.bareiss"}
    inner = {"condition_a.line_bank", "condition_a.start", "condition_a.residual"} | loop
    assert set(parts) - set(sections) == {"crossings", "build_sweep", "to_json"} | inner
    assert all(parts[name]["rss_mb"] <= parts["condition_a"]["rss_mb"] for name in loop)
    for part in parts.values():
        assert part["wall_s"] >= 0 and part["minflt"] >= 0 and part["peak_mib"] >= 0 and part["rss_mb"] >= 0
    assert parts["condition_a"]["peak_mib"] > 0 and 0 < report["peak_mib"] < 4
    # the peak RSS above set-up only rises, part after part, and the parts
    # inside condition (a) are not counted twice in the total
    outer = [parts[name]["rss_mb"] for name in parts if name not in inner]
    assert outer == sorted(outer)
    order = ("condition_a.line_bank", "condition_a.start", "condition_a.residual", "condition_a")
    rss = [parts[name]["rss_mb"] for name in order]
    assert rss == sorted(rss)
    outer_wall = sum(parts[name]["wall_s"] for name in parts if name not in inner)
    assert report["total_wall_s"] == round(outer_wall, 4)
    # the wrapped names are restored
    from rigidsurf import certify

    assert certify.check_condition_a.__module__ == "rigidsurf.certify"


def test_search_split_repeats_a_certificate(monkeypatch, capsys):
    script = load_script("search_split")
    argv = ["search_split.py", "--workload", "certify-1w", "--seed", "1", "--repeat", "2"]
    monkeypatch.setattr(sys, "argv", argv)
    script.main()
    report = json.loads(capsys.readouterr().out)
    assert (report["workload"], report["repeat"]) == ("certify-1w", 2)
    for part in report["parts"].values():
        for metric in ("wall_s", "minflt", "rss_mb", "peak_mib"):
            runs = part[f"{metric}_runs"]
            assert len(runs) == 2 and part[metric] == sum(runs) / 2
