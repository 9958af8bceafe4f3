import functools
import random
import tracemalloc
from itertools import combinations, islice, permutations

import numpy as np
import pytest

from rigidsurf import cover
from rigidsurf.arrangement import BASE_POINTS, Arrangement, closure, singular_points
from rigidsurf.cover import (
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


def _draw_distinct_projective(rng, count, p, r):
    """One label per ``rng.integers`` call until ``count`` lie in distinct classes."""
    out, seen = [], set()
    while len(out) < count:
        lab = tuple(int(x) for x in rng.integers(0, p, size=r))
        key = projective_label(lab, p)
        if key is None or key in seen:
            continue
        seen.add(key)
        out.append(lab)
    return out


def _one_label_at_a_time_search(table, p, r, seed):
    """The search as it was before the chunked stream: one draw call per
    label and a label map completed for every attempt.

    Kept as the oracle of the stream and of the attempt count.
    """
    n = len(table.arrangement.lines)
    rng = np.random.default_rng(seed)
    for attempt in range(1, 100_000):
        labels = complete_labels(_draw_distinct_projective(rng, n - 1, p, r), table, p, r)
        if not distinct_nonzero(class_keys(np.array(labels.all_labels, dtype=np.int64), p)):
            continue
        if validate_labels(labels, table).all_ok:
            return labels, attempt
    raise AssertionError("the oracle found no label map")


@pytest.mark.parametrize("p", [3, 5, 7, 101])
@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("chunk", [4, 1_024])
def test_search_replays_the_one_label_stream(monkeypatch, p, r, chunk):
    # six lines and four triple points: P^2(F_3) has just the 13 classes
    # that ten labels need, so (3, 3) searches read many labels per
    # attempt; chunks of 4 labels end inside every attempt of 5
    monkeypatch.setattr(cover, "LABEL_CHUNK", chunk)
    table = singular_points(Arrangement(closure(BASE_POINTS, 1)[0].lines))
    for seed in range(8):
        result = random_label_search(table, p, r, seed)
        assert (result.labels, result.attempts) == _one_label_at_a_time_search(table, p, r, seed)


@pytest.mark.parametrize("p, r, seeds", [(7, 5, range(3)), (101, 5, range(2)), (7, 4, [3])])
def test_search_replays_the_one_label_stream_on_the_bundled_table(table, p, r, seeds):
    # (Z/7)^4 seed 3 ends after 500 attempts, about 16 draw chunks
    for seed in seeds:
        result = random_label_search(table, p, r, seed)
        assert (result.labels, result.attempts) == _one_label_at_a_time_search(table, p, r, seed)


@functools.cache
def _class_representatives(p, r):
    """The labels whose first nonzero entry is 1, ordered by their base-p value."""
    vectors = (tuple(x // p ** (r - 1 - e) % p for e in range(r)) for x in range(1, p**r))
    return [v for v in vectors if v[next(e for e in range(r) if v[e])] == 1]


def _label_of(t, p, r):
    """Label t of the acceptance draw: (t mod (p - 1) + 1) times the
    representative of class t // (p - 1); None for t >= p^r - 1, a
    skipped draw."""
    if t >= p**r - 1:
        return None
    return tuple((t % (p - 1) + 1) * x % p for x in _class_representatives(p, r)[t // (p - 1)])


def _scalar_acceptance(table, p, r, seed, attempts):
    """The row sampler one attempt at a time, with no staging and no packing.

    Kept as the oracle of empirical_acceptance: each row is ``width``
    consecutive float32 draws u, label t = floor(2^24 u) // (2^24 // p^r);
    a row keeps its first n - 1 labels in distinct classes, skipping zero
    ones, is not counted when it holds fewer, and otherwise succeeds when
    its completed label map has all n + m labels nonzero and in distinct
    classes.
    """
    n = len(table.arrangement.lines)
    per = 2**24 // p**r
    width, _ = cover._row_width(n - 1, p, r, per)
    labels = {}
    rng = np.random.default_rng(seed)
    successes = done = 0
    while done < attempts:
        kept, seen = [], set()
        for u in rng.random(size=width, dtype=np.float32).tolist():
            t = int(u * 2**24) // per
            if t not in labels:
                labels[t] = _label_of(t, p, r)
            lab = labels[t]
            key = lab and projective_label(lab, p)
            if key and key not in seen and len(kept) < n - 1:
                seen.add(key)
                kept.append(lab)
        if len(kept) < n - 1:
            continue
        done += 1
        classes = [projective_label(lab, p) for lab in complete_labels(kept, table, p, r).all_labels]
        successes += None not in classes and len(set(classes)) == len(classes)
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
def test_staged_acceptance_matches_scalar_oracle(table, quadrilateral, p, r, seed, attempts):
    if quadrilateral:
        table = singular_points(Arrangement(closure(BASE_POINTS, 1)[0].lines))
    expected = _scalar_acceptance(table, p, r, seed, attempts)
    assert empirical_acceptance(table, p, r, seed, attempts) == expected
    assert expected[0] > 0


def test_empirical_acceptance_seeded_reproducible(table):
    a = empirical_acceptance(table, 7, 4, seed=13, attempts=2000)
    b = empirical_acceptance(table, 7, 4, seed=13, attempts=2000)
    assert a == b


# counts of the scalar oracle above; the cases end inside a block of rows
# and straddle the 50,000 attempts of an earlier batch
@pytest.mark.parametrize(
    "p, r, seed, attempts, expected",
    [
        (7, 4, 20240601, 100_000, 31),
        (7, 4, 2, 49_999, 13),
        (7, 4, 4, 123_457, 31),
        (7, 5, 5, 30_000, 10148),
        (11, 4, 6, 20_000, 2353),
        (5, 5, 7, 20_000, 348),
    ],
)
def test_empirical_acceptance_golden_counts(table, p, r, seed, attempts, expected):
    assert empirical_acceptance(table, p, r, seed, attempts) == (expected, attempts)


@pytest.mark.parametrize("block", [1_000, 1_999, 5_000])
def test_empirical_acceptance_does_not_depend_on_the_block(table, monkeypatch, block):
    expected = empirical_acceptance(table, 7, 5, 9, 12_345)
    monkeypatch.setattr(cover, "ACCEPTANCE_BLOCK", block)
    assert empirical_acceptance(table, 7, 5, 9, 12_345) == expected


def test_empirical_acceptance_matches_exact_enumeration():
    # the six lines and four triple points in (Z/2)^4: label classes are
    # the 15 nonzero vectors, so an attempt draws 5 distinct ones, and
    # over all 15 * 14 * 13 * 12 * 11 = 360,360 such draws the completed
    # labels (the last line the sum of the five, each point the sum of
    # its lines) are all nonzero and distinct in 120,960
    table = singular_points(Arrangement(closure(BASE_POINTS, 1)[0].lines))
    draws = np.array(list(permutations(range(1, 16), 5)), dtype=np.int8)
    lines_all = np.concatenate([draws, np.bitwise_xor.reduce(draws, axis=1)[:, None]], axis=1)
    points = [np.bitwise_xor.reduce(lines_all[:, list(through)], axis=1) for through in table.lines_through]
    labels = np.sort(np.column_stack([lines_all, *points]), axis=1)
    good = int(((labels[:, 0] > 0) & (labels[:, 1:] != labels[:, :-1]).all(axis=1)).sum())
    assert (good, len(draws)) == (120_960, 360_360)

    rate = good / len(draws)
    attempts = 50_000
    sigma = (rate * (1 - rate) / attempts) ** 0.5
    for seed in range(3):
        successes, _ = empirical_acceptance(table, 2, 4, seed, attempts)
        assert abs(successes / attempts - rate) <= 4 * sigma


@pytest.mark.parametrize("width", range(1, 8))
def test_skip_probabilities_match_enumeration_of_rows(width):
    # (Z/2)^4: each of the 16 equally likely draws is a class of its own
    # but the 16th, skipped; every row of ``width`` draws is enumerated by
    # the bit mask of the classes it holds
    bits = np.append(1 << np.arange(15), 0).astype(np.uint16)
    masks = np.zeros(1, dtype=np.uint16)
    for _ in range(width - 1):
        masks = (masks[:, None] | bits).ravel()
    held = np.array([bin(m).count("1") for m in range(2**15)], dtype=np.int8)
    rows = np.zeros(width + 1, dtype=np.int64)
    for b in bits.tolist():
        rows += np.bincount(held[masks | b], minlength=width + 1)
    assert rows.sum() == 16**width
    for count in range(1, 16):
        skip = next(islice(cover._skip_probabilities(count, 2, 4, 2**20), width - 1, None))
        assert skip == pytest.approx(rows[:count].sum() / 16**width, abs=1e-12)


def test_row_width_keeps_almost_every_row():
    # the bundled table in (Z/7)^4: 33 drawn labels in 400 classes; rows
    # of 33 keep only a quarter, rows of 38 all but 0.5%
    per = 2**24 // 7**4
    width, skip = cover._row_width(33, 7, 4, per)
    assert (width, round(skip, 4)) == (38, 0.0046)
    assert next(islice(cover._skip_probabilities(33, 7, 4, per), 32, None)) == pytest.approx(0.7469, abs=1e-4)
    assert next(islice(cover._skip_probabilities(33, 7, 4, per), width - 2, None)) >= cover.ROW_SKIP


def _generic_lines(n):
    # lines dual to points of a conic: no three meet, so there are no
    # singular points
    return singular_points(Arrangement(tuple(line(1, k, k * k) for k in range(n))))


def test_empirical_acceptance_runs_when_every_class_is_drawn():
    # 15 drawn labels in the 15 classes of P^3(F_2): whole rows of 15
    # are all distinct with probability about 1e-6, so rejecting rows
    # hung; the row sampler reads about 114 labels per attempt.  The last
    # line's label, the sum of every nonzero vector, is zero
    table = _generic_lines(16)
    assert cover._row_width(15, 2, 4, 2**20)[0] == 114
    assert empirical_acceptance(table, 2, 4, seed=3, attempts=2_000) == (0, 2_000)


def test_empirical_acceptance_refuses_rows_beyond_the_cap(table):
    # 63 drawn labels in the 63 classes of P^5(F_2) take 64 H_63, about
    # 303, labels per attempt on average
    with pytest.raises(ValueError, match=r"reads 303 labels on average to find 63 .* P\^5\(F_2\), above the cap 256"):
        empirical_acceptance(_generic_lines(64), 2, 6, seed=1, attempts=10)
    # the bundled table's 33 drawn labels in P^5(F_2) take about 47
    assert cover._mean_labels(33, 2, 6, 2**18) == pytest.approx(64 * sum(1 / k for k in range(31, 64)))


def test_empirical_acceptance_memory_does_not_grow_with_attempts(table):
    # the buffers of one block, allocated once per call, are the peak;
    # a first call imports numpy.random before tracing
    empirical_acceptance(table, 7, 4, seed=1, attempts=1)
    peaks = []
    for attempts in (50_000, 100_000):
        tracemalloc.start()
        try:
            empirical_acceptance(table, 7, 4, seed=20240601, attempts=attempts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 2 * 2**20
    assert peaks[1] <= peaks[0] + 2**16


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
