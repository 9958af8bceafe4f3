import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rigidsurf.arrangement import arrangement_to_json, Arrangement
from rigidsurf.cli import main
from rigidsurf.projective import line


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_closure_counts(capsys):
    code, out = run(capsys, "closure", "--iters", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["line_counts"] == [6, 9, 25]
    assert payload["point_counts"] == [7, 13, 97]


def test_closure_tsv_format(capsys):
    code, out = run(capsys, "closure", "--iters", "1", "--format", "tsv")
    assert code == 0
    assert "line_counts\t[6]" in out


def test_heart_report(capsys):
    code, out = run(capsys, "heart")
    assert code == 0
    payload = json.loads(out)
    assert payload["lines"] == 34
    assert payload["singular_points"] == 51
    assert all(payload["structure_checks"].values())


def test_triangle_classify(capsys):
    code, out = run(capsys, "triangle", "classify", "1:1:2", "1:2:1", "2:1:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "double_point"
    assert payload["fixed_points"] == ["(1:0:-1)"]


def test_triangle_solve(capsys):
    code, out = run(capsys, "triangle", "solve", "1:4:2", "3:14:3", "14:25:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"][0]["L_P"] == "[8:9:-22]"


def test_triangle_search_seeded(capsys):
    code, out = run(capsys, "triangle", "search", "--height-bound", "6",
                    "--count", "1", "--seed", "3")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_triangle_rejects_malformed_triple(capsys):
    code, _ = run(capsys, "triangle", "classify", "1:1", "1:2:1", "2:1:1")
    assert code == 2


def test_incidence_eliminate_with_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code, out = run(capsys, "incidence", "eliminate", "--trace", str(trace_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["residual_relations"] == 12
    trace = json.loads(trace_path.read_text())
    assert len(trace["residual"]["relations"]) == 12
    assert trace["steps"][0]["kind"] == "line"


def test_incidence_on_custom_arrangement(tmp_path, capsys):
    arr = Arrangement((line(1, 0, 0), line(0, 1, 0), line(0, 0, 1),
                       line(1, -1, 0), line(1, 0, -1), line(0, 1, -1)))
    path = tmp_path / "arr.json"
    path.write_text(arrangement_to_json(arr))
    code, out = run(capsys, "incidence", "eliminate", "--in", str(path))
    assert code == 1  # fully eliminates: no double-point certificate
    assert json.loads(out)["residual_relations"] == 0


def test_incidence_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["incidence", "eliminate", "--in", str(path)])
    assert code == 2


# two lines: no point of the arrangement is singular, and the labels of a
# cover are sums of one drawn label
TWO_LINES = '{"lines": [[1, 0, 0], [0, 1, 0]]}'


def _three_entry_labels():
    from rigidsurf.arrangement import format_label_table, load_heart_table

    lines, labels = load_heart_table()
    return format_label_table(lines, [lab[:3] for lab in labels])


@pytest.mark.parametrize(
    "argv, files",
    [
        (["incidence", "eliminate", "--in", "short.json"], {"short.json": '{"lines": [[1, 2]]}'}),
        (["plot", "--in", "five.json", "--out", "x.svg"], {"five.json": '{"lines": 5}'}),
        (["plot", "--in", "cells.tsv", "--out", "x.svg"], {"cells.tsv": "i\ta\tb\tc\n1\t2\t3\n"}),
        (["lambda", "validate", "--r", "5"], {}),
        (["lambda", "validate", "--labels", "labels.tsv"], {"labels.tsv": _three_entry_labels}),
        (["triangle", "search", "--height-bound", "0"], {}),
        (["triangle", "classify", "0:0:0", "1:2:1", "2:1:1"], {}),
        (["incidence", "eliminate", "--in", "two.json"], {"two.json": TWO_LINES}),
    ],
    ids=[
        "short-line", "lines-not-a-list", "three-cell-row", "wrong-r", "three-entry-labels",
        "height-bound-0", "zero-point", "base-points-not-singular",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, files):
    # malformed input exits 2 with one error line; 1 is kept for a
    # verification that ran and failed
    paths = {name: str(tmp_path / name) for name in ("x.svg", *files)}
    for name, text in files.items():
        (tmp_path / name).write_text(text() if callable(text) else text)
    code = main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_lambda_validate_bundled(capsys):
    code, out = run(capsys, "lambda", "validate")
    assert code == 0
    payload = json.loads(out)
    assert payload["distinct_projective_labels"] == 85
    assert payload["completion_consistent"]


def test_lambda_requires_prime(capsys):
    code = main(["lambda", "validate", "--p", "6"])
    assert code == 2


def test_lambda_search_on_bundled_data(capsys):
    code, out = run(capsys, "lambda", "search", "--p", "7", "--r", "4", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["attempts"] >= 1
    assert len(payload["line_labels"]) == 34
    assert len(payload["point_labels"]) == 51


def test_lambda_search_refuses_too_few_classes(capsys, tmp_path):
    # the first closure stage of the base points: 6 lines and 4 points
    # need 10 distinct labels, and P^1(F_3) has 4 classes
    from rigidsurf.arrangement import BASE_POINTS, closure

    path = tmp_path / "quadrilateral.json"
    path.write_text(arrangement_to_json(Arrangement(closure(BASE_POINTS, 1)[0].lines)))
    code = main(["lambda", "search", "--in", str(path), "--p", "3", "--r", "2", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "10 labels" in captured.err and "only 4 classes" in captured.err


def _refused_search(tmp_path, arrangement_json, timeout):
    """stderr of ``lambda search --in`` an arrangement, run in a fresh process.

    The search must be refused: exit status 2, nothing on stdout and one
    error line, within ``timeout`` seconds.
    """
    path = tmp_path / "arrangement.json"
    path.write_text(arrangement_json)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "rigidsurf.cli", "lambda", "search", "--in", str(path)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    return done.stderr


def test_lambda_search_refuses_labels_that_cannot_span(tmp_path):
    # every label of a two-line map is plus or minus the one drawn label,
    # so no map spans (Z/7)^4; the search is refused before any attempt
    # instead of drawing 1,000,000 maps
    assert "cannot span (Z/7)^4" in _refused_search(tmp_path, TWO_LINES, timeout=60)


@pytest.mark.parametrize(
    "lines, message",
    [
        # the point's label is the sum of all six line labels, which is 0
        ("[[1,0,0],[0,1,0],[1,1,0],[1,2,0],[1,3,0],[1,4,0]]",
         "label of point (0:0:1) is zero mod 7"),
        # the point's label is minus the label of the line missing it
        ("[[1,0,0],[0,1,0],[1,1,0],[1,2,0],[0,0,1]]",
         "labels of line [0:0:1] and point (0:0:1) are proportional mod 7"),
    ],
    ids=["pencil", "near-pencil"],
)
def test_lambda_search_refuses_labels_forced_into_one_class(tmp_path, lines, message):
    # no draw can make these maps injective; without the refusal the search
    # drew 1,000,000 maps
    assert message in _refused_search(tmp_path, f'{{"lines": {lines}}}', timeout=10)


def test_certify_takes_no_input_files(capsys, tmp_path):
    # certify runs only the bundled dataset; input flags are usage errors
    for flag in ("--in", "--labels"):
        with pytest.raises(SystemExit) as exc:
            main(["certify", flag, str(tmp_path / "x.json")])
        assert exc.value.code == 2


def test_invariants_command(capsys):
    # the invariants command prints the certificate's invariants section
    code, out = run(capsys, "certify")
    assert code == 0
    section = json.loads(out)["invariants"]
    assert section["K2"] == 1260966
    assert section["q"] == 0
    code, out = run(capsys, "invariants")
    assert code == 0
    assert json.loads(out) == section
    code, out = run(capsys, "invariants", "--format", "tsv")
    assert code == 0
    assert out == "".join(f"{k}\t{v}\n" for k, v in sorted(section.items()))


def test_plot_writes_svg(tmp_path, capsys):
    out_path = tmp_path / "heart.svg"
    code, _ = run(capsys, "plot", "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<line") == 34
    assert svg.count("<circle") == 51


def _certify_on_edited_table(tmp_path, row, edit):
    """Run ``rigidsurf certify`` on a copy of the bundled data whose
    label table has data row ``row`` replaced by ``edit(cells)``."""
    import shutil
    from importlib import resources

    data = resources.files("rigidsurf.data")
    for name in ("table1.tsv", "heart.json"):
        shutil.copyfile(data.joinpath(name), tmp_path / name)
    table = tmp_path / "table1.tsv"
    rows = table.read_text().split("\n")
    cells = rows[row].split("\t")
    assert cells[0] == str(row)
    rows[row] = "\t".join(edit(cells))
    table.write_text("\n".join(rows))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "RIGIDSURF_DATA": str(tmp_path),
    }
    return subprocess.run(
        [sys.executable, "-m", "rigidsurf.cli", "certify"],
        capture_output=True, text=True, timeout=120, env=env,
    )


@pytest.mark.parametrize("row", [5, 34])
def test_certify_fails_building_data_on_a_damaged_label_table(tmp_path, row):
    # one label entry of the bundled table changed: the labels no longer
    # sum to zero, so divisibility fails for the first unit character, the
    # sweep is skipped, and the certificate is printed with exit status 1
    def bump(cells):
        return [*cells[:4], str((int(cells[4]) + 1) % 7), *cells[5:]]

    done = _certify_on_edited_table(tmp_path, row, bump)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    cert = json.loads(done.stdout)
    building = cert["building_data"]
    assert building["verdict"] is False and building["divisibility"] is False
    assert building["failures"]["divisibility_failures"] == [[1, 0, 0, 0]]
    assert cert["incidence"]["verdict"] is True
    for name in ("condition_a", "condition_b", "condition_c", "invariants"):
        assert cert[name] == {"skipped": "building_data failed"}
    assert cert["overall"]["pass"] is False


@pytest.mark.parametrize(
    "value, message",
    [
        ("12", r"label \(12, 1, 2, 6\) of line 5 has an entry outside 0\.\.6"),
        ("-1", r"label \(-1, 1, 2, 6\) of line 5 has an entry outside 0\.\.6"),
        ("", r"label \(1, 2, 6\) of line 5 has 3 entries, expected 4"),
    ],
)
def test_certify_refuses_an_unreduced_label_entry(tmp_path, value, message):
    # a label entry outside 0..6 (or a missing one) is malformed input:
    # exit status 2 and one error line naming the row, not a traceback
    def put(cells):
        return [*cells[:4], *([value] if value else []), *cells[5:]]

    done = _certify_on_edited_table(tmp_path, 5, put)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: table1.tsv row 6: ")
    assert re.search(message, lines[0])
