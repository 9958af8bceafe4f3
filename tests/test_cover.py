import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from rigidsurf.arrangement import BASE_POINTS, Arrangement, closure, singular_points
from rigidsurf.cover import (
    ACCEPTANCE_BLOCK,
    LabelMap,
    acceptance_estimate,
    all_characters,
    chi_class,
    class_keys,
    complete_labels,
    critical_chi_solutions,
    distinct_nonzero,
    empirical_acceptance,
    pairing_lift,
    projective_label,
    random_label_search,
    validate_labels,
    _completion_matrix,
)
from rigidsurf.picard import DivisorClass, intersect, strict_transform, zero
from rigidsurf.projective import line, meet, point


def test_pairing_lift_examples():
    assert pairing_lift((0, 0, 0, 1), (2, 4, 3, 5), 7) == 5
    assert pairing_lift((0, 0, 0, 2), (2, 4, 3, 5), 7) == 3
    assert pairing_lift((0, 0, 0, 0), (6, 6, 6, 6), 7) == 0


def test_completion_reproduces_bundled_labels(heart, table, labels):
    assert labels.line_labels == heart.line_labels
    assert labels.line_labels[33] == (5, 5, 4, 4)


def test_completion_column_sums_vanish(labels):
    for k in range(4):
        assert sum(lab[k] for lab in labels.line_labels) % 7 == 0


def test_exceptional_label_at_coordinate_point(table, labels):
    k = table.point_index(point(1, 0, 0))
    assert labels.point_labels[k] == (0, 4, 5, 5)
    # componentwise sum of the six incident line labels
    through = table.lines_through[k]
    s = [sum(labels.line_labels[i][c] for i in through) % 7 for c in range(4)]
    assert tuple(s) == (0, 4, 5, 5)


def test_validate_bundled(labels, table):
    report = validate_labels(labels, table)
    assert report.all_ok
    assert report.distinct_projective_labels == 85
    assert report.projective_space_size == 400


def test_validate_flags_duplicates(labels, table):
    tampered = LabelMap(
        labels.p,
        labels.r,
        (labels.line_labels[0],) + labels.line_labels[1:],
        (labels.line_labels[0],) + labels.point_labels[1:],
    )
    report = validate_labels(tampered, table)
    assert not report.injectivity


def _meet_crossings(table):
    """Where two branch components meet, found by intersecting every line pair."""
    lines = table.arrangement.lines
    sing = set(table.points)
    doubles = [
        (i, j)
        for i, j in combinations(range(len(lines)), 2)
        if meet(lines[i], lines[j]) not in sing
    ]
    exceptional = [(("E", nu), i) for nu, through in enumerate(table.lines_through) for i in through]
    return doubles, exceptional


def test_crossing_pairs_match_meet_scan(table):
    # one label everywhere makes every crossing dependent, so the report
    # lists all of them, in order
    stage = singular_points(Arrangement(closure(BASE_POINTS, 3)[-1].lines))
    for tab, n_doubles in ((table, 248), (stage, None)):
        doubles, exceptional = _meet_crossings(tab)
        one = (1, 0)
        same = LabelMap(3, 2, (one,) * len(tab.arrangement.lines), (one,) * tab.num_points)
        report = validate_labels(same, tab)
        assert not report.smoothness
        assert report.details["dependent_label_pairs"] == doubles + exceptional
        assert n_doubles is None or len(doubles) == n_doubles


def test_validate_flags_dependent_labels_at_a_double_point(labels, table):
    doubles, _ = _meet_crossings(table)
    i, j = doubles[len(doubles) // 2]
    line_labels = list(labels.line_labels)
    line_labels[j] = tuple(2 * x % 7 for x in line_labels[i])
    report = validate_labels(LabelMap(7, 4, tuple(line_labels), labels.point_labels), table)
    assert not report.smoothness
    assert (i, j) in report.details["dependent_label_pairs"]


def test_validate_flags_dependent_labels_on_an_exceptional_divisor(labels, table):
    nu = 7
    i = table.lines_through[nu][1]
    point_labels = list(labels.point_labels)
    point_labels[nu] = tuple(3 * x % 7 for x in labels.line_labels[i])
    report = validate_labels(LabelMap(7, 4, labels.line_labels, tuple(point_labels)), table)
    assert not report.smoothness
    assert (("E", nu), i) in report.details["dependent_label_pairs"]


def test_validate_flags_labels_in_a_hyperplane(labels, table):
    def flatten(labs):
        return tuple(lab[:3] + (0,) for lab in labs)

    report = validate_labels(
        LabelMap(7, 4, flatten(labels.line_labels), flatten(labels.point_labels)), table
    )
    assert report.divisibility
    assert not report.spanning and not report.all_ok


def _literal_divisibility_failures(labels, table):
    """Characters whose H or E coefficient is not divisible by p, all p^r checked."""
    p = labels.p
    chars = np.array(all_characters(p, labels.r), dtype=np.int64)
    pl = (chars @ np.array(labels.line_labels, dtype=np.int64).T) % p
    pe = (chars @ np.array(labels.point_labels, dtype=np.int64).T) % p
    h_coeff = pl.sum(axis=1)
    e_coeff = pe - pl @ table.incidence.T
    bad = (h_coeff % p != 0) | (e_coeff % p != 0).any(axis=1)
    return {tuple(int(x) for x in chars[i]) for i in np.nonzero(bad)[0]}


def _damaged_label_maps(table, r, rng):
    """Random, completed and one-entry-damaged label maps for (Z/7)^r."""
    n, m = len(table.arrangement.lines), table.num_points

    def draw(count):
        return tuple(tuple(rng.randrange(7) for _ in range(r)) for _ in range(count))

    yield LabelMap(7, r, draw(n), draw(m))
    partial = [lab for lab in draw(n - 1) if any(lab)]
    if len(partial) < n - 1:
        return
    done = complete_labels(partial, table, 7, r)
    yield done
    for which in ("line", "point"):
        labs = list(done.line_labels if which == "line" else done.point_labels)
        k, j = rng.randrange(len(labs)), rng.randrange(r)
        labs[k] = labs[k][:j] + ((labs[k][j] + rng.randrange(1, 7)) % 7,) + labs[k][j + 1:]
        if which == "line":
            yield LabelMap(7, r, tuple(labs), done.point_labels)
        else:
            yield LabelMap(7, r, done.line_labels, tuple(labs))


@pytest.mark.parametrize("r", [4, 5])
def test_divisibility_on_unit_characters_matches_all_characters(table, r):
    rng = random.Random(40 + r)
    checked = 0
    for _ in range(4):
        for labels in _damaged_label_maps(table, r, rng):
            literal = _literal_divisibility_failures(labels, table)
            report = validate_labels(labels, table)
            assert report.divisibility == (not literal)
            units = {tuple(int(j == k) for k in range(r)) for j in range(r)}
            assert set(report.details.get("divisibility_failures", [])) == literal & units
            checked += 1
    assert checked >= 12


def test_divisibility_witness_names_an_exceptional_failure(labels, table):
    # the H coefficients stay divisible; only E_0's coefficient breaks
    point_labels = list(labels.point_labels)
    point_labels[0] = ((point_labels[0][0] + 1) % 7,) + point_labels[0][1:]
    report = validate_labels(LabelMap(7, 4, labels.line_labels, tuple(point_labels)), table)
    assert not report.divisibility
    assert report.details["divisibility_failures"] == [(1, 0, 0, 0)]


def test_class_keys_match_projective_label():
    labs = all_characters(7, 4)  # all of F_7^4
    keys = class_keys(np.array(labs, dtype=np.int64), 7)
    by_class: dict = {}
    for lab, key in zip(labs, keys):
        cls = projective_label(lab, 7)
        assert (key == -1) == (cls is None)
        by_class.setdefault(cls, set()).add(int(key))
    # equal keys exactly when equal classes
    assert all(len(ks) == 1 for ks in by_class.values())
    assert len(set().union(*by_class.values())) == len(by_class) == 401


def test_chi_class_coefficients(labels, table):
    cls = chi_class(labels, table, (0, 0, 0, 1))
    assert cls.h == 16
    assert cls.e[table.point_index(point(1, 0, 0))] == -2
    cls2 = chi_class(labels, table, (0, 0, 0, 2))
    assert cls2.e[table.point_index(point(1, 0, 0))] == -3


def test_chi_class_zero_character(labels, table):
    assert chi_class(labels, table, (0, 0, 0, 0)) == zero(table.num_points)


def test_chi_class_exceptional_nonpositive(labels, table):
    rng = random.Random(5)
    chars = all_characters(7, 4)
    for _ in range(50):
        chi = chars[rng.randrange(len(chars))]
        cls = chi_class(labels, table, chi)
        assert cls.h >= 0
        assert all(e <= 0 for e in cls.e)


def test_intersection_example(labels, table):
    # strict transform of line 26 against H minus the class of (0,0,0,1)
    lchi = chi_class(labels, table, (0, 0, 0, 1))
    h = DivisorClass(1, (0,) * table.num_points)
    assert intersect(strict_transform(25, table), h - lchi) == -13


def test_pardini_relation_on_random_pairs(labels, table):
    """Class additivity up to a 0/1 correction supported on the branches."""
    rng = random.Random(20240608)
    chars = all_characters(7, 4)
    m = table.num_points
    for _ in range(500):
        chi1 = chars[rng.randrange(len(chars))]
        chi2 = chars[rng.randrange(len(chars))]
        chi12 = tuple((a + b) % 7 for a, b in zip(chi1, chi2))
        diff = (
            chi_class(labels, table, chi1)
            + chi_class(labels, table, chi2)
            - chi_class(labels, table, chi12)
        )
        expected = zero(m)
        for i in range(34):
            eps = (
                pairing_lift(chi1, labels.line_labels[i], 7)
                + pairing_lift(chi2, labels.line_labels[i], 7)
            ) // 7
            assert eps in (0, 1)
            if eps:
                expected = expected + strict_transform(i, table)
        for nu in range(m):
            eps = (
                pairing_lift(chi1, labels.point_labels[nu], 7)
                + pairing_lift(chi2, labels.point_labels[nu], 7)
            ) // 7
            assert eps in (0, 1)
            if eps:
                expected = expected + DivisorClass(
                    0, tuple(1 if k == nu else 0 for k in range(m))
                )
        assert diff == expected


def test_critical_chi_solutions(labels, table):
    k = table.point_index(point(2, 1, 0))
    through = table.lines_through[k]
    assert [labels.line_labels[i] for i in through] == [
        (2, 4, 3, 5), (6, 6, 3, 2), (3, 6, 3, 3),
    ]
    sols = critical_chi_solutions([labels.line_labels[i] for i in through], 7)
    third = sols[2]
    assert third is not None
    assert third.particular == (5, 4, 3, 0)
    assert third.basis == ((5, 2, 4, 1),)
    assert third.count(7) == 7  # p^(r-3)
    enumerated = set(third.enumerate(7))
    expected = {
        ((5 + 5 * k) % 7, (4 + 2 * k) % 7, (3 + 4 * k) % 7, k % 7)
        for k in range(7)
    }
    assert enumerated == expected


def test_critical_chi_inconsistent_system():
    sols = critical_chi_solutions([(1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)], 7)
    # first label distinguished: chi_1 = 6 and 2*chi_1 = 0 cannot both hold
    assert sols[0] is None


def test_acceptance_estimate_value():
    est = acceptance_estimate(34, 51, 7, 4)
    assert abs(float(est) - 0.000255) < 2e-5


def test_search_finds_valid_labels_on_small_arrangement():
    # a cheap configuration: the first closure stage of the base points
    from rigidsurf.arrangement import BASE_POINTS, closure

    arr = Arrangement(closure(BASE_POINTS, 1)[0].lines)
    table = singular_points(arr)
    result = random_label_search(table, 5, 3, seed=7)
    assert result.accepted
    report = validate_labels(result.labels, table)
    assert report.all_ok
    again = random_label_search(table, 5, 3, seed=7)
    assert again.labels == result.labels and again.attempts == result.attempts


def test_search_refuses_more_labels_than_projective_classes():
    # six lines and four points need ten distinct classes; P^1(F_3) has
    # four, so no draw can succeed and the search must refuse at once
    arr = Arrangement(closure(BASE_POINTS, 1)[0].lines)
    table = singular_points(arr)
    with pytest.raises(ValueError, match="10 labels .* only 4 classes"):
        random_label_search(table, 3, 2, seed=2)
    # five drawn line labels already outnumber the three classes of P^1(F_2)
    with pytest.raises(ValueError, match="5 labels .* only 3 classes"):
        empirical_acceptance(table, 2, 2, seed=2, attempts=10)
    # exactly as many classes as labels is allowed: P^2(F_3) has 13
    assert random_label_search(table, 3, 3, seed=2).accepted


def test_empirical_acceptance_counts_no_success_on_one_line():
    # one line: no label is drawn, so every key row starts empty, and the
    # completed label of the line is minus the empty sum, zero
    table = singular_points(Arrangement((line(1, 0, 0),)))
    assert distinct_nonzero(np.zeros((2, 0), dtype=np.int32)).tolist() == [True, True]
    assert empirical_acceptance(table, 7, 4, seed=1, attempts=5) == (0, 5)


def test_search_refuses_labels_that_cannot_span():
    # every label is a sum of the n - 1 drawn ones, so two or three lines
    # cannot span (Z/7)^4 and the six-line quadrilateral, which spans
    # (Z/5)^3 above, cannot span (Z/3)^6; each is refused at once
    from rigidsurf.projective import line

    lines = [line(1, 0, 0), line(0, 1, 0), line(0, 0, 1), line(1, 1, 1)]
    for n in (2, 3):
        table = singular_points(Arrangement(tuple(lines[:n])))
        with pytest.raises(ValueError, match=f"sums of {n - 1} drawn ones, which cannot span"):
            random_label_search(table, 7, 4, seed=0)
    arr = Arrangement(closure(BASE_POINTS, 1)[0].lines)
    with pytest.raises(ValueError, match="sums of 5 drawn ones"):
        random_label_search(singular_points(arr), 3, 6, seed=0)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_completion_matrix_gives_the_completed_labels(table, seed):
    rng = np.random.default_rng(seed)
    n = len(table.arrangement.lines)
    partial = rng.integers(1, 7, size=(n - 1, 4))
    completed = complete_labels(partial.tolist(), table, 7, 4)
    assert [tuple(row) for row in (_completion_matrix(table) @ partial % 7).tolist()] == list(
        completed.all_labels
    )


def test_bundled_completion_is_free(table):
    # no completed label of the bundled arrangement is forced to vanish or
    # to share a class with another, for any small prime: two rows are
    # proportional exactly when all their 2 x 2 minors vanish
    for p in (2, 3, 5, 7, 11):
        rows = _completion_matrix(table) % p
        assert (rows != 0).any(axis=1).all()
        for i in range(len(rows) - 1):
            a, b = rows[i], rows[i + 1:]
            minors = a[None, :, None] * b[:, None, :] - b[:, :, None] * a[None, None, :]
            assert (minors % p).any(axis=(1, 2)).all()
    random_label_search(table, 7, 5, seed=1)


def _one_shot_acceptance(table, p, r, seed, attempts):
    """The acceptance loop as it was before staged rejection.

    Kept as an oracle: every attempt's labels are completed in full and
    all n + m class keys are checked in one sort.
    """
    n = len(table.arrangement.lines)
    powers = p ** np.arange(r - 1, -1, -1, dtype=np.int32)
    key_of = class_keys(np.arange(p**r)[:, None] // powers % p, p).astype(np.int32)
    inc_t = table.incidence.T.astype(np.float64)
    rng = np.random.default_rng(seed)
    successes = 0
    done = 0
    while done < attempts:
        draws = rng.integers(0, p, size=(ACCEPTANCE_BLOCK, n - 1, r), dtype=np.int32)
        drawn_keys = key_of[draws @ powers]
        kept = np.flatnonzero(distinct_nonzero(drawn_keys))[: attempts - done]
        draws, drawn_keys = draws[kept], drawn_keys[kept]
        last = -draws.sum(axis=1) % p
        lines_all = np.concatenate([draws, last[:, None, :]], axis=1)
        sums = lines_all.transpose(0, 2, 1).astype(np.float64) @ inc_t
        points = sums.astype(np.int32).transpose(0, 2, 1) % p
        keys = np.concatenate(
            [drawn_keys, key_of[last @ powers][:, None], key_of[points @ powers]], axis=1
        )
        successes += int(distinct_nonzero(keys).sum())
        done += kept.size
    return successes, attempts


@pytest.mark.parametrize(
    "quadrilateral, p, r, seed, attempts",
    [
        # six lines and four triple points in (Z/7)^3: about half the
        # attempts pass, so every stage sees survivors
        (True, 7, 3, 1, 1),
        (True, 7, 3, 2, 1_999),
        (True, 7, 3, 3, 2_001),
        (True, 7, 3, 4, 4_567),
        (True, 7, 3, 5, 6_113),
        # the bundled table in (Z/7)^5: about a third pass
        (False, 7, 5, 8, 3_001),
    ],
)
def test_staged_acceptance_matches_one_shot_oracle(table, quadrilateral, p, r, seed, attempts):
    if quadrilateral:
        table = singular_points(Arrangement(closure(BASE_POINTS, 1)[0].lines))
    expected = _one_shot_acceptance(table, p, r, seed, attempts)
    assert empirical_acceptance(table, p, r, seed, attempts) == expected
    assert expected[0] > 0


def test_empirical_acceptance_seeded_reproducible(table):
    a = empirical_acceptance(table, 7, 4, seed=13, attempts=2000)
    b = empirical_acceptance(table, 7, 4, seed=13, attempts=2000)
    assert a == b


# counts of the earlier loop, which drew 50,000 int64 attempts per batch;
# the cases straddle that batch and the current block size
@pytest.mark.parametrize(
    "p, r, seed, attempts, expected",
    [
        (7, 4, 20240601, 100_000, 27),
        (7, 4, 2, 49_999, 13),
        (7, 4, 4, 123_457, 34),
        (7, 5, 5, 30_000, 10031),
        (11, 4, 6, 20_000, 2398),
        (5, 5, 7, 20_000, 364),
    ],
)
def test_empirical_acceptance_golden_counts(table, p, r, seed, attempts, expected):
    assert empirical_acceptance(table, p, r, seed, attempts) == (expected, attempts)


def test_empirical_acceptance_memory_does_not_grow_with_attempts(table):
    table.incidence  # cached before tracing
    tracemalloc.start()
    try:
        empirical_acceptance(table, 7, 4, seed=20240601, attempts=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_empirical_acceptance_refuses_large_key_table(table):
    # 4,099^2 = 16,801,801 vectors exceed the 2^24 int32 keys of 64 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"4099\^2 = 16801801 .* 2\^24 = 16777216"):
            empirical_acceptance(table, 4099, 2, seed=1, attempts=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_complete_labels_rejects_zero_prescribed(table):
    partial = [(0, 0, 0, 0)] + [(1, 0, 0, k % 6 + 1) for k in range(32)]
    with pytest.raises(ValueError):
        complete_labels(partial, table, 7, 4)


def test_label_map_requires_prime():
    with pytest.raises(ValueError):
        LabelMap(6, 2, ((1, 0),), ())


def test_projective_label():
    assert projective_label((0, 0, 0, 0), 7) is None
    assert projective_label((2, 4, 0, 6), 7) == (1, 2, 0, 3)
    assert projective_label((3, 1, 0, 0), 7) == projective_label((6, 2, 0, 0), 7)
