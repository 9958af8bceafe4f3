import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rigidsurf.arrangement import (
    Arrangement,
    BASE_POINTS,
    HeartData,
    arrangement_from_json,
    arrangement_to_json,
    check_structure,
    closure,
    double_points,
    format_label_table,
    heart_tsv_roundtrip,
    height_report,
    incidence_sums,
    intersection_points,
    parse_label_table,
    singular_points,
    sub_crossings,
)
from rigidsurf.projective import height, join, line, meet, point


def test_closure_counts_from_base_points():
    stages = closure(BASE_POINTS, 3)
    assert [len(s.lines) for s in stages] == [6, 9, 25]
    assert [len(s.points) for s in stages] == [7, 13, 97]


def test_closure_two_points():
    stages = closure([point(1, 0, 0), point(0, 1, 0)], 1)
    assert stages[0].lines == (line(0, 0, 1),)
    assert stages[0].points == ()


def test_closure_rejects_single_point():
    with pytest.raises(ValueError):
        closure([point(1, 1, 1)], 1)


def test_closure_monotone():
    stages = closure(BASE_POINTS, 3)
    for earlier, later in zip(stages, stages[1:]):
        assert set(earlier.lines) <= set(later.lines)
        assert set(earlier.points) <= set(later.points)


def test_closure_heights_stay_small():
    stages = closure(BASE_POINTS, 3)
    assert max(height(p) for p in stages[-1].points) <= 5
    assert max(height(l) for l in stages[-1].lines) <= 25


def test_singular_points_of_triangle():
    arr = Arrangement((line(1, 0, 0), line(0, 1, 0), line(0, 0, 1)))
    table = singular_points(arr)
    assert table.num_points == 0
    assert len(double_points(arr)) == 3


def test_heart_is_table(heart):
    assert len(heart.arrangement.lines) == 34
    assert heart.pair_line_indices == tuple(range(25, 31))
    assert heart.triangle_line_indices == (31, 32, 33)
    assert heart.arrangement.lines[31] == line(8, 9, -22)
    assert heart.arrangement.lines[32] == line(20, -9, 22)
    assert heart.arrangement.lines[33] == line(20, -9, -55)


def test_heart_pair_lines(heart):
    expected = [(6, -4, 5), (6, -2, 1), (5, -3, 9), (1, -3, 13), (2, -1, -3), (9, -5, -1)]
    assert [heart.arrangement.lines[i].coeffs for i in heart.pair_line_indices] == expected


def test_heart_singular_points(heart, table):
    assert table.num_points == 51
    k = table.point_index(point(1, 0, 0))
    assert table.mu[k] == 6


def test_heart_tsv_byte_roundtrip():
    bundled, recomputed = heart_tsv_roundtrip()
    assert bundled == recomputed


def test_mu_consistency(table):
    # mu is recomputable from the membership relation
    for k in range(table.num_points):
        assert table.mu[k] == sum(
            table.is_member(i, k) for i in range(len(table.arrangement.lines))
        )
        assert table.mu[k] >= 3


def test_incidence_count_bookkeeping(heart, table):
    # total pairwise coincidences split into singular classes and doubles
    crossings = intersection_points(heart.arrangement.lines)
    n_pairs = sum(
        len(through) * (len(through) - 1) // 2 for through in crossings.values()
    )
    assert n_pairs == 34 * 33 // 2
    doubles = [p for p, through in crossings.items() if len(through) == 2]
    assert sum(table.mu) + 2 * len(doubles) == sum(
        len(through) for through in crossings.values()
    )


def test_incidence_matrix_matches_lines_through(table):
    inc = table.incidence
    assert inc.shape == (51, 34) and inc.dtype == np.int64
    for k, through in enumerate(table.lines_through):
        assert tuple(np.nonzero(inc[k])[0]) == through
    assert tuple(inc.sum(axis=1)) == table.mu
    assert table.incidence is inc
    with pytest.raises(ValueError):
        inc[0, 0] = 1 - inc[0, 0]


def test_structure_checks_pass(heart):
    report = check_structure(heart)
    assert report.all_ok
    assert report.witnesses["plus_point_count"] == 218


def test_structure_detects_perturbed_closing_line(heart):
    # closing line through P and a closure point: condition (3) must fail
    stages = closure(BASE_POINTS, 3)
    bad = join(heart.P, stages[-1].points[0])
    lines = list(heart.arrangement.lines)
    lines[31] = bad
    perturbed = HeartData(
        arrangement=Arrangement(tuple(lines)),
        line_labels=heart.line_labels,
        p=heart.p,
        r=heart.r,
        P=heart.P,
        Q=heart.Q,
        R=heart.R,
        closure_line_indices=heart.closure_line_indices,
        pair_line_indices=heart.pair_line_indices,
        triangle_line_indices=heart.triangle_line_indices,
    )
    report = check_structure(perturbed)
    assert not report.triangle_lines_avoid_extras
    assert report.witnesses["triangle_line_extra_points"]


def test_structure_detects_pair_lines_missing_closure_points(heart):
    # generic lines meeting only at P, Q, R: condition (1) must fail
    far = [point(101, 1, 1), point(1, 103, 2), point(2, 1, 107)]
    lines = list(heart.arrangement.lines)
    for slot, (designated, extra) in enumerate(zip((heart.P, heart.Q, heart.R), far)):
        lines[25 + 2 * slot] = join(designated, extra)
    perturbed = HeartData(
        arrangement=Arrangement(tuple(lines)),
        line_labels=heart.line_labels,
        p=heart.p,
        r=heart.r,
        P=heart.P,
        Q=heart.Q,
        R=heart.R,
        closure_line_indices=heart.closure_line_indices,
        pair_line_indices=heart.pair_line_indices,
        triangle_line_indices=heart.triangle_line_indices,
    )
    report = check_structure(perturbed)
    assert not report.pair_lines_hit_closure_points


def test_structure_and_heights_read_the_heart_closure_stage(heart):
    # a heart whose closure lines are the 9 lines of the second stage:
    # the paired lines hit too few of its 13 points, and the heights are
    # that stage's, not those of a third stage rebuilt on the side
    stage = closure(BASE_POINTS, 2)[-1]
    early = replace(heart, closure_line_indices=tuple(heart.arrangement.index(l) for l in stage.lines))
    report = check_structure(early)
    assert not report.pair_lines_hit_closure_points
    misses = report.witnesses["pair_line_misses"]
    assert [m["line"] for m in misses] == list(range(26, 32))
    assert misses[4]["closure_points_hit"] == ["(2:1:1)"]
    rep = height_report(early)
    assert rep["closure_points_max_height"] == max(height(p) for p in stage.points) == 2
    assert rep["closure_lines_max_height"] == max(height(l) for l in stage.lines) == 1


def test_height_report(heart):
    rep = height_report(heart)
    assert rep["closure_points_max_height"] <= 5
    assert rep["closure_lines_max_height"] <= 25
    assert rep["pqr_heights"] == [4, 14, 25]


def test_json_roundtrip(heart):
    text = arrangement_to_json(heart.arrangement, pqr=heart.pqr)
    arr, pqr = arrangement_from_json(text)
    assert arr.lines == heart.arrangement.lines
    assert pqr == heart.pqr
    assert json.loads(text)["lines"][0] == [0, 0, 1]


def test_label_table_roundtrip(heart):
    text = format_label_table(heart.arrangement.lines, heart.line_labels)
    lines, labels = parse_label_table(text)
    assert tuple(lines) == heart.arrangement.lines
    assert tuple(labels) == heart.line_labels


def test_duplicate_lines_rejected():
    with pytest.raises(ValueError):
        Arrangement((line(1, 0, 0), line(2, 0, 0)))


CLOSURE_3 = Arrangement(closure(BASE_POINTS, 3)[-1].lines)


@settings(max_examples=80, deadline=None)
@given(bundled=st.booleans(), data=st.data())
def test_sub_crossings_are_the_crossings_of_the_subset(heart, bundled, data):
    # a point is a crossing of a sub-arrangement exactly when two of its
    # lines lie in it; the view renumbers them by position in the subset
    arr = heart.arrangement if bundled else CLOSURE_3
    size = data.draw(st.sampled_from([0, 1, 2, 3, len(arr) // 2, len(arr)]))
    subset = data.draw(st.permutations(range(len(arr))))[:size]
    assert sub_crossings(intersection_points(arr.lines), subset) == intersection_points(
        arr.lines[i] for i in subset
    )


def test_sub_crossings_of_fewer_than_two_lines_are_empty(heart):
    crossings = intersection_points(heart.arrangement.lines)
    assert sub_crossings(crossings, []) == {} == sub_crossings(crossings, [5])
    lines = heart.arrangement.lines
    assert sub_crossings(crossings, [7, 2]) == {meet(lines[7], lines[2]): {0, 1}}


@st.composite
def incidence_cases(draw):
    """0/1 sets with an empty row and an empty column, and signed values."""
    n = draw(st.integers(0, 9))
    members = draw(arrays(np.bool_, (draw(st.integers(0, 7)), n)))
    members = np.pad(members, ((0, 1), (0, 1)))
    scale = draw(st.sampled_from([1, 7, 2**12, 2**20, 2**40]))
    values = draw(arrays(np.int64, (draw(st.integers(0, 6)), n + 1), elements=st.integers(-scale, scale)))
    return values, members


@settings(max_examples=200, deadline=None)
@given(incidence_cases())
def test_incidence_sums_equal_the_int64_product(case):
    values, members = case
    sums = incidence_sums(values, members)
    assert sums.dtype == np.int64 and sums.flags.c_contiguous
    assert np.array_equal(sums, values @ members.astype(np.int64).T)
    assert np.array_equal(incidence_sums(values > 0, members), (values > 0).astype(np.int64) @ members.T)


def test_incidence_sums_on_the_bundled_incidences(table, sweep):
    from rigidsurf.certify import admissible
    from rigidsurf.cohomology import _line_bank

    inc = table.incidence
    rich = _line_bank(table.points)
    assert rich.shape == (45, 51)
    mults = np.clip(sweep.h_mult, 0, None)
    for values, members in [
        (sweep.pair_lines, inc),
        (sweep.e_floor, inc.T),
        (sweep.h_mult, inc.T),
        (admissible(sweep), inc),
        (mults, rich),
        (mults > 0, rich),
    ]:
        dense = np.asarray(values).astype(np.int64) @ np.asarray(members).astype(np.int64).T
        assert np.array_equal(incidence_sums(values, members), dense)
