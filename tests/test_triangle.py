import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidsurf import triangle
from rigidsurf.projective import incident, point
from rigidsurf.triangle import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    Kind,
    chart_to_plane,
    classify,
    composite_projectivity,
    discriminant,
    double_point_completions,
    proj_equal_matrix2,
    search_double_point,
    solve_realization,
    TriangleData,
)

EXAMPLE = (point(1, 1, 2), point(1, 2, 1), point(2, 1, 1))
HEART = (point(1, 4, 2), point(3, 14, 3), point(14, 25, 1))


def test_composite_matrix_example():
    m = composite_projectivity(TriangleData(*EXAMPLE))
    assert proj_equal_matrix2(m, ((-2, -3), (3, 4)))


def test_example_has_unique_fixed_point():
    cls = classify(*EXAMPLE)
    assert cls.kind is Kind.DOUBLE_POINT
    assert cls.fixed_points == (point(1, 0, -1),)
    assert cls.fixed_point_count == 1


def test_coincident_centers_hit_scalar_branch():
    cls = classify(point(3, 1, 2), point(3, 1, 2), point(3, 1, 2))
    assert cls.kind is Kind.DEGENERATE
    assert "scalar" in cls.reason


def test_center_on_middle_axis_rejected():
    cls = classify(point(1, 0, 1), point(1, 2, 1), point(2, 1, 1))
    assert cls.kind is Kind.DEGENERATE


@pytest.mark.parametrize(
    "triple, expected",
    [
        (HEART, 0),
        (EXAMPLE, 0),
        ((point(1, 1, 1), point(1, 2, 3), point(5, 1, 4)), None),  # generic
    ],
)
def test_discriminant_values(triple, expected):
    d = discriminant(*triple)
    if expected is None:
        assert d != 0
    else:
        # hand evaluation for the bundled triple:
        # (14 + 168 + 150 - 392)^2 - 4*1*4*3*3*25*1 = 3600 - 3600
        assert d == expected


def test_heart_classifies_as_double_point():
    cls = classify(*HEART)
    assert cls.kind is Kind.DOUBLE_POINT
    assert cls.fixed_point_count == 1


def test_generic_triple_two_reduced_points():
    cls = classify(point(1, 1, 1), point(1, 2, 3), point(5, 1, 4))
    assert cls.kind is Kind.TWO_REDUCED_POINTS
    assert cls.fixed_point_count == 2


def test_heart_solution_lines():
    sols = solve_realization(*HEART)
    assert len(sols) == 1
    s = sols[0]
    assert s.L_P.coeffs == (8, 9, -22)
    assert s.L_Q.coeffs == (20, -9, 22)
    assert s.L_R.coeffs == (20, -9, -55)
    assert s.Y == point(11, 0, 4)
    assert s.X == point(0, 22, 9)
    assert s.Z == point(9, 20, 0)


def test_example_solution_is_consistent():
    # the reported fixed point is a chart point; the plane point flips sign
    sols = solve_realization(*EXAMPLE)
    assert len(sols) == 1
    assert sols[0].Y == chart_to_plane(point(1, 0, -1)) == point(1, 0, 1)


def test_solutions_satisfy_all_incidences():
    for triple in (HEART, EXAMPLE, (point(1, 1, 1), point(1, 2, 3), point(5, 1, 4))):
        for s in solve_realization(*triple):
            P, Q, R = triple
            for pt, ln in [
                (P, s.L_P), (Q, s.L_Q), (R, s.L_R),
                (s.X, AXIS_X), (s.Y, AXIS_Y), (s.Z, AXIS_Z),
                (s.X, s.L_P), (s.Y, s.L_P), (s.X, s.L_Q),
                (s.Z, s.L_Q), (s.Y, s.L_R), (s.Z, s.L_R),
            ]:
                assert incident(pt, ln)


def test_discriminant_matches_eigenstructure_on_random_triples():
    rng = random.Random(20240607)
    checked = 0
    while checked < 1000:
        coords = [rng.randint(-9, 9) for _ in range(9)]
        if 0 in (coords[1], coords[3], coords[8]):
            continue  # centers on their target axes: composite undefined
        try:
            P, Q, R = point(coords[0:3]), point(coords[3:6]), point(coords[6:9])
        except ValueError:
            continue
        cls = classify(P, Q, R)
        if cls.kind is Kind.DEGENERATE:
            continue
        repeated = cls.kind is Kind.DOUBLE_POINT
        assert (discriminant(P, Q, R) == 0) == repeated
        checked += 1


def test_double_point_completions_contain_heart():
    got = double_point_completions(HEART[0], HEART[1], 25, 1)
    assert HEART[2] in got
    for r in got:
        assert discriminant(HEART[0], HEART[1], r) == 0


def test_search_results_are_double_points():
    found = search_double_point(height_bound=8, count=3, seed=11)
    assert len(found) == 3
    for P, Q, R in found:
        assert discriminant(P, Q, R) == 0
        assert classify(P, Q, R).kind is Kind.DOUBLE_POINT


def test_search_is_deterministic():
    a = search_double_point(height_bound=6, count=2, seed=3)
    b = search_double_point(height_bound=6, count=2, seed=3)
    assert a == b


def test_search_rejects_bad_bound():
    with pytest.raises(ValueError):
        search_double_point(height_bound=0, count=1, seed=0)
    # 2h + 1 would need more than one 32-bit word per randint draw
    with pytest.raises(ValueError, match="below 2\\^31"):
        search_double_point(height_bound=2**31, count=1, seed=0)


def _one_draw_at_a_time_search(height_bound, count, seed):
    """The scan as it was before the block replay: eight randint calls per
    candidate and every candidate through point and the completion.

    Kept as the oracle of the replayed stream and of the bulk filter.
    """
    rng = random.Random(seed)
    found = set()
    attempts = 0
    while len(found) < count and attempts < triangle.MAX_SCAN_ATTEMPTS:
        attempts += 1
        try:
            coords = [rng.randint(-height_bound, height_bound) for _ in range(8)]
            P = point(coords[0:3])
            Q = point(coords[3:6])
            r1, r2 = coords[6], coords[7]
            if (r1, r2) == (0, 0):
                continue
            for R in double_point_completions(P, Q, r1, r2):
                if len({P, Q, R}) != 3:
                    continue
                if classify(P, Q, R).kind is Kind.DOUBLE_POINT:
                    found.add((P, Q, R))
        except (ValueError, ZeroDivisionError):
            continue
    return sorted(found)[:count]


@pytest.mark.parametrize("height_bound", range(1, 13))
def test_search_replays_the_randint_stream(height_bound):
    # the same triples as one randint call per coordinate, for counts that
    # end a scan inside the first block and several blocks in
    for seed in range(4):
        for count in (0, 1, 5, 12):
            assert search_double_point(height_bound, count, seed) == _one_draw_at_a_time_search(
                height_bound, count, seed
            )


def test_search_replays_the_stream_without_the_square_filter():
    # from height 363 on, 4 h^6 passes 2^53 and the bulk filter keeps every
    # candidate with c >= 0 for the exact completion to judge
    for seed in range(4):
        found = search_double_point(363, 3, seed)
        assert found == _one_draw_at_a_time_search(363, 3, seed)
        assert len(found) == 3


@pytest.mark.parametrize("cap", [1, 500, 1_000])
def test_search_stops_at_the_attempt_cap(monkeypatch, cap):
    # below height 1 only 20 triples exist, so a scan for 40 runs to the
    # cap; a cap inside a block must cut the block at the same candidate
    monkeypatch.setattr(triangle, "MAX_SCAN_ATTEMPTS", cap)
    for seed in (0, 1):
        got = search_double_point(1, 40, seed)
        assert got == _one_draw_at_a_time_search(1, 40, seed)
        assert len(got) < 20


# ---------------------------------------------------------------------------
# classify against the composite of three 3 x 3 projection matrices


def _projection_matrix(center, target):
    """x maps to (C.M) x - (M.x) C, the intersection of line(C, x) with M."""
    c, m = center.coords, target.coeffs
    d = sum(a * b for a, b in zip(c, m))
    if d == 0:
        raise triangle.DegenerateProjection(f"center {center} lies on target {target}")
    return [[d * (i == j) - c[i] * m[j] for j in range(3)] for i in range(3)]


def _matmul3(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _matrix_composite(data):
    """The composite as it was built before the closed formula: three 3 x 3
    products, restricted to the middle axis, in the chart."""
    t = _matmul3(
        _projection_matrix(data.P, AXIS_Y),
        _matmul3(_projection_matrix(data.Q, AXIS_X), _projection_matrix(data.R, AXIS_Z)),
    )
    assert t[1][0] == 0 and t[1][2] == 0
    return triangle._normalize_matrix2(((t[0][0], -t[0][2]), (-t[2][0], t[2][2])))


def _matrix_classify(P, Q, R):
    """classify with the matrix composite: the oracle of the closed formula."""
    delta = discriminant(P, Q, R)
    try:
        m = _matrix_composite(TriangleData(P, Q, R))
    except ValueError as exc:
        return triangle.Classification(Kind.DEGENERATE, None, delta, (), 0, False, str(exc))
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
        return triangle.Classification(Kind.DEGENERATE, m, delta, (), 0, False, "composite not invertible")
    disc, vecs, rational = triangle._eigen_fixed_vectors(m)
    if vecs is None:
        return triangle.Classification(Kind.DEGENERATE, m, delta, (), 0, True, "composite is scalar")
    points = tuple(point(v[0], 0, v[1]) for v in vecs)
    if disc == 0:
        return triangle.Classification(Kind.DOUBLE_POINT, m, delta, points, 1, True)
    return triangle.Classification(Kind.TWO_REDUCED_POINTS, m, delta, points, 2, rational)


# coordinates of height at most 50, with zeros and repeated points drawn often
_coordinate = st.one_of(st.integers(-50, 50), st.sampled_from([0, 0, 1, -1]))
_point = st.tuples(_coordinate, _coordinate, _coordinate).filter(any).map(point)


@settings(max_examples=400, deadline=None)
@given(_point, _point, _point, st.sampled_from(["distinct", "P=Q", "Q=R", "P=Q=R"]))
def test_classify_matches_the_matrix_composite(P, Q, R, tie):
    if tie in ("P=Q", "P=Q=R"):
        Q = P
    if tie in ("Q=R", "P=Q=R"):
        R = Q
    assert classify(P, Q, R) == _matrix_classify(P, Q, R)
    try:
        expected = _matrix_composite(TriangleData(P, Q, R))
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            composite_projectivity(TriangleData(P, Q, R))
    else:
        assert composite_projectivity(TriangleData(P, Q, R)) == expected


def test_classify_matches_the_matrix_composite_on_degenerate_cases():
    # a center on the middle axis, Q on {x0=0}, R on {x2=0}, and both
    cases = [
        (point(1, 0, 2), point(1, 1, 1), point(1, 2, 3)),
        (point(1, 1, 1), point(0, 1, 2), point(1, 2, 3)),
        (point(1, 1, 1), point(1, 2, 3), point(1, 2, 0)),
        (point(1, 1, 1), point(0, 1, 2), point(1, 2, 0)),
        (point(0, 1, 0), point(1, 1, 0), point(0, 1, 1)),
        EXAMPLE,
        HEART,
    ]
    for P, Q, R in cases:
        assert classify(P, Q, R) == _matrix_classify(P, Q, R)
