import json

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
