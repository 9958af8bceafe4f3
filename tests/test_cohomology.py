import inspect
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import Phase, assume, example, find, given, settings, strategies as st

import rigidsurf.cohomology as cohomology
from rigidsurf.arrangement import incidence_sums
from rigidsurf.certify import build_sweep
from rigidsurf.cohomology import (
    EMPTY,
    RANK_PRIME,
    FatPointScheme,
    _euler_rows,
    _line_bank,
    _orders,
    _residual,
    _spanning_rows,
    _start,
    bareiss_rank,
    conditions_matrix,
    conditions_matrix_mod,
    fat_degrees,
    fat_points,
    h0_h1,
    h1_is_zero,
    hilbert_rank,
    ideal_of_chi,
    monomials,
    rank_mod,
    regularities,
    regularity,
)
from rigidsurf.cover import label_map
from rigidsurf.modp import ranks_mod
from rigidsurf.projective import incident, join, point


def scheme(*pairs):
    return FatPointScheme(tuple((point(*c), h) for c, h in pairs))


def _no_step(rich, mults, t):
    """A residuation that takes no step: each scheme is its own residual."""
    return mults, (mults * (mults + 1) // 2).sum(axis=1), t


# --- independent oracle: symbolic differentiation + rational row reduction


def oracle_rows(fat, t):
    """Conditions rows by symbolic differentiation, in ``_orders`` order."""
    x, y, z = sympy.symbols("x y z")
    mons = [
        x**a * y**b * z**(t - a - b)
        for a in range(t, -1, -1)
        for b in range(t - a, -1, -1)
    ]
    rows = []
    for pnt, h in fat.points:
        subs = dict(zip((x, y, z), pnt.coords))
        orders = [(a, b, c) for a in range(h) for b in range(h - a) for c in range(h - a - b)]
        for a, b, c in sorted(orders, key=lambda abc: (sum(abc), abc)):
            rows.append([int(sympy.diff(mono, x, a, y, b, z, c).subs(subs)) for mono in mons])
    return rows


def oracle_rank(fat, t):
    return _rref_rank(oracle_rows(fat, t))


def _rref_rank(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# --- examples


def test_rank_simple_point():
    assert hilbert_rank(scheme(((1, 2, 1), 1)), 1) == 1


def test_rank_double_point_on_linear_forms():
    assert hilbert_rank(scheme(((1, 0, 0), 2)), 1) == 3


def test_rank_two_simple_points_degree_one():
    assert hilbert_rank(scheme(((1, 0, 0), 1), ((0, 1, 0), 1)), 1) == 2


def test_h0_h1_examples():
    assert h0_h1(EMPTY, 2) == (6, 0)
    assert h0_h1(scheme(((1, 1, 1), 1)), 0) == (0, 0)
    assert h0_h1(scheme(((1, 0, 0), 1), ((0, 1, 0), 1)), 0) == (0, 1)
    assert h0_h1(scheme(((1, 0, 0), 1)), -1) == (0, 1)


def test_regularity_examples():
    assert regularity(EMPTY) == 0
    assert regularity(scheme(((1, 2, 3), 1))) == 1
    assert regularity(scheme(((1, 0, 0), 2))) == 2


def test_regularity_fast_path_agrees():
    rng = random.Random(3)
    for _ in range(25):
        fat = _random_scheme(rng)
        if not fat.points:
            continue
        points = [p for p, _ in fat.points]
        mults = [[h for _, h in fat.points]]
        assert regularity(fat) == regularity(fat, fast=True)
        assert regularity(fat) == regularities(points, mults)[0]


# a fixed point set: four points on z = 0, three on x = y, and two more
FIXED_POINTS = tuple(
    point(*c)
    for c in (
        (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (1, 1, 1), (2, 2, 1), (0, 0, 1), (1, 2, 3), (3, 1, 2)
    )
)


def test_regularities_match_exact_scan():
    # one batched scan over many multiplicity rows against the exact scan
    # of each scheme; from the counting bound many schemes need a later
    # degree
    rng = random.Random(11)
    rows = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in FIXED_POINTS] for _ in range(60)]
    rows += [[0] * len(FIXED_POINTS), [3, 3, 3, 3, 0, 0, 0, 0, 0], [1] * len(FIXED_POINTS)]
    schemes = [fat_points(FIXED_POINTS, row) for row in rows]
    exact = [regularity(fat) for fat in schemes]
    assert regularities(FIXED_POINTS, rows).tolist() == exact
    # rows whose scan from its first possible degree did not stop there
    later = [
        reg for fat, reg in zip(schemes, exact)
        if fat.points and reg - 1 > next(t for t in range(99) if comb(t + 2, 2) >= fat.degree)
    ]
    assert len(later) >= 20
    # nonpositive multiplicities leave a point out
    negative = [[-h for h in row] for row in rows]
    assert not regularities(FIXED_POINTS, negative).any()


def test_regularities_fall_back_when_the_first_prime_fails(monkeypatch):
    # mod 7 many full-rank conditions matrices lose rank; the exact
    # decision must then certify h1 = 0 instead of moving up a degree
    import rigidsurf.cohomology as cohomology

    rng = random.Random(12)
    rows = [[rng.choice((0, 1, 1, 2, 3)) for _ in FIXED_POINTS] for _ in range(30)]
    exact = [regularity(fat_points(FIXED_POINTS, row)) for row in rows]
    monkeypatch.setattr(cohomology, "RANK_PRIME", 7)
    assert regularities(FIXED_POINTS, rows).tolist() == exact


def test_regularities_rank_each_degree_once_mod_the_prime(monkeypatch):
    # a scheme the stack leaves short of full rank goes straight to the
    # exact rank: one bank per scanned degree, no second rank mod the
    # prime; each scan starts at the heavier of the line bank's bound and
    # the counting bound, and with residuation taking no step every
    # scheme goes through the stacks from there
    import rigidsurf.cohomology as cohomology

    rng = random.Random(13)
    rows = [[rng.choice((0, 1, 1, 2, 3)) for _ in FIXED_POINTS] for _ in range(30)]
    schemes = [fat_points(FIXED_POINTS, row) for row in rows]
    exact = [regularity(fat) for fat in schemes]
    rich = _line_bank(FIXED_POINTS)
    scanned = set()
    for row, fat, reg in zip(rows, schemes, exact):
        counting = next(t for t in range(99) if comb(t + 2, 2) >= fat.degree)
        first = max(int((rich @ row).max()) - 1, counting)
        scanned.update(range(first, reg))

    calls = {"conditions_matrix_mod": 0, "rank_mod": 0, "hilbert_rank": 0}

    def counted(name):
        original = getattr(cohomology, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(cohomology, "RANK_PRIME", 7)
    monkeypatch.setattr(cohomology, "_residual", _no_step)
    for name in calls:
        monkeypatch.setattr(cohomology, name, counted(name))
    assert regularities(FIXED_POINTS, rows).tolist() == exact
    assert calls["rank_mod"] == 0
    assert calls["conditions_matrix_mod"] == len(scanned)
    assert calls["hilbert_rank"] > 0


def test_regularities_build_each_bank_at_its_levels_multiplicities(monkeypatch):
    # each level's bank holds each point at the largest multiplicity a
    # job of that level gives it; with residuation taking no step the
    # jobs at t are the schemes whose scan passes t, so point 0 is
    # banked at multiplicity 3 at degree 3 and at 1 further up
    rows = [[3, 0, 0, 0, 1, 0, 0, 0, 0], [1, 1, 1, 0, 2, 2, 0, 1, 1], [1, 2, 0, 2, 1, 1, 2, 2, 0], [1] * 9]
    rng = random.Random(15)
    rows += [[rng.choice((0, 1, 1, 2, 3)) for _ in FIXED_POINTS] for _ in range(20)]
    mults = np.array(rows)
    exact = np.array([regularity(fat_points(FIXED_POINTS, row)) for row in rows])
    counting = np.array([next(t for t in range(99) if comb(t + 2, 2) >= d) for d in fat_degrees(mults)])
    start = _start(_line_bank(FIXED_POINTS), mults, counting)
    banks = {}

    def recorded(fat, t, q):
        bank = conditions_matrix_mod(fat, t, q)
        top = [dict((pnt, h) for pnt, h in fat.points).get(pnt, 0) for pnt in FIXED_POINTS]
        banks[t] = (top, bank.shape[0])
        return bank

    monkeypatch.setattr(cohomology, "_residual", _no_step)
    monkeypatch.setattr(cohomology, "conditions_matrix_mod", recorded)
    assert regularities(FIXED_POINTS, rows).tolist() == exact.tolist()
    assert sorted(banks) == sorted({t for a, b in zip(start, exact) for t in range(a, b)})
    for t, (top, count) in banks.items():
        assert top == mults[(start <= t) & (t < exact)].max(axis=0).tolist()
        assert count == sum(comb(h + 2, 3) for h in top)
    assert {banks[t][0][0] for t in banks} >= {1, 3}


def test_bundled_sweep_banks_hold_only_the_rows_its_jobs_use(sweep, cond_a, monkeypatch):
    # one bank per scanned level, 8 on the bundled sweep, at the levels'
    # own multiplicities: 8,160 rows when every bank held all 51 points
    # at the largest multiplicity, 4
    from rigidsurf.certify import check_condition_a

    rows = []

    def recorded(fat, t, q):
        bank = conditions_matrix_mod(fat, t, q)
        rows.append(bank.shape[0])
        return bank

    monkeypatch.setattr(cohomology, "conditions_matrix_mod", recorded)
    assert check_condition_a(sweep) == cond_a
    assert len(rows) == 8 and sum(rows) <= 600


def test_lower_multiplicity_rows_are_a_prefix():
    # the batched scan selects a scheme's rows from the rows of the
    # largest multiplicity, so each point's rows must nest, and the
    # order-(h - 1) rows it keeps must sit where _euler_rows looks
    for pnt in FIXED_POINTS:
        top = conditions_matrix_mod(scheme((pnt.coords, 4)), 6, RANK_PRIME)
        for h in range(1, 4):
            rows = conditions_matrix_mod(scheme((pnt.coords, h)), 6, RANK_PRIME)
            assert rows.tolist() == top[: comb(h + 2, 3)].tolist()
        for h in range(1, 5):
            block = range(comb(h + 1, 3), comb(h + 2, 3))
            assert {sum(_orders(4)[i]) for i in block} == {h - 1}
            assert _euler_rows(np.array([h]), 6, np.array([0])).tolist() == list(block)


def test_regularities_split_stacks_by_the_cell_budget(monkeypatch):
    # a small budget splits each degree's schemes into several stacks;
    # the zero-padded stacks must still give the exact scan's regularities
    import rigidsurf.cohomology as cohomology

    rng = random.Random(14)
    rows = [[rng.choice((0, 1, 1, 2, 3)) for _ in FIXED_POINTS] for _ in range(40)]
    schemes = [fat_points(FIXED_POINTS, row) for row in rows]
    exact = [regularity(fat) for fat in schemes]
    shapes = []

    def recorded(stack, q):
        shapes.append(stack.shape)
        return ranks_mod(stack, q)

    monkeypatch.setattr(cohomology, "ranks_mod", recorded)
    assert regularities(FIXED_POINTS, rows).tolist() == exact
    unsplit = len(shapes)
    shapes.clear()
    monkeypatch.setattr(cohomology, "_STACK_CELLS", 100)
    assert regularities(FIXED_POINTS, rows).tolist() == exact
    assert len(shapes) > unsplit
    assert all(b == 1 or b * r * c <= 100 for b, r, c in shapes)
    assert any(b > 1 for b, _, _ in shapes)


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3), st.integers(1, 4)),
        min_size=1,
        max_size=2,
        unique_by=lambda v: point(v[:3]),
    ),
    st.integers(0, 8),
)
@example([(1, 0, 1, 4), (0, 1, 1, 3)], 1)
def test_euler_rows_keep_the_rank(pairs, t):
    # the Euler-reduced rows have the rank of every order, computed
    # independently by symbolic differentiation, also for t < h - 1
    fat = FatPointScheme(tuple((point(v[:3]), v[3]) for v in pairs))
    rows = conditions_matrix(fat, t)
    kept = [rows[i] for i in _spanning_rows(fat, t)]
    assert bareiss_rank(kept) == hilbert_rank(fat, t) == oracle_rank(fat, t)
    if t >= max(h for _, h in fat.points) - 1:
        assert len(kept) == fat.degree


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(*[st.integers(-4, 4)] * 3).filter(any), st.integers(1, 4)),
        min_size=1,
        max_size=3,
        unique_by=lambda v: point(v[0]),
    ),
    st.integers(0, 8),
)
@example([((1, 0, 1), 4), ((0, 1, 1), 3)], 0)
@example([((1, -2, 3), 4), ((2, 1, -1), 1)], 2)
@example([((3, -1, 2), 2)], 8)
def test_conditions_matrix_matches_symbolic_rows(pairs, t):
    # every exact entry, also the zero rows of orders above t < h - 1,
    # against symbolic differentiation; the mod-q matrices are checked
    # against these exact ones below
    fat = scheme(*pairs)
    assert conditions_matrix(fat, t) == oracle_rows(fat, t)


def test_bundled_sweep_falls_back_only_on_true_deficiencies(sweep, cond_a, monkeypatch):
    # the stacks mod RANK_PRIME leave 4 original schemes short of full
    # rank, and the full conditions matrix of each is short over Q as
    # well: the int32-sized prime adds no fallback a larger prime would
    # have avoided.  19 scans start at s, one above the bound s - 1 of
    # their heaviest bank lines, because two of those lines meet off the
    # support; Bareiss confirms h1 > 0 at s - 1 for each
    from rigidsurf.certify import check_condition_a

    fallbacks, raised = [], []
    start = cohomology._start

    def recorded(fat, t):
        fallbacks.append((fat, t))
        return hilbert_rank(fat, t)

    def recorded_start(rich, mults, counting):
        first = start(rich, mults, counting)
        below = incidence_sums(mults, rich).max(axis=1) - 1
        up = first > np.maximum(counting, below)
        raised.extend((fat_points(sweep.table.points, row), int(t)) for row, t in zip(mults[up], below[up]))
        return first

    monkeypatch.setattr(cohomology, "hilbert_rank", recorded)
    monkeypatch.setattr(cohomology, "_start", recorded_start)
    assert check_condition_a(sweep) == cond_a
    assert (len(fallbacks), len(raised)) == (4, 19)
    for fat, t in fallbacks + raised:
        assert bareiss_rank(conditions_matrix(fat, t)) < fat.degree


def test_regularities_cap_the_scan(monkeypatch):
    # both start bounds lie below the cap 3 + sum of multiplicities, so
    # only ranks that never certify h1 = 0 can carry a scan past it
    import rigidsurf.cohomology as cohomology

    monkeypatch.setattr(cohomology, "_residual", _no_step)
    monkeypatch.setattr(cohomology, "ranks_mod", lambda stack, q: np.zeros(len(stack), np.int64))
    monkeypatch.setattr(cohomology, "hilbert_rank", lambda fat, t: 0)
    with pytest.raises(ArithmeticError, match="exceeded bound 4"):
        regularities(FIXED_POINTS[:1], [[1]])


def test_ideal_of_chi(labels, table):
    fat, d = ideal_of_chi(labels, table, (0, 0, 0, 1))
    assert d == 13
    mults = dict(fat.points)
    assert mults[point(1, 0, 0)] == 1
    fat2, _ = ideal_of_chi(labels, table, (0, 0, 0, 2))
    assert dict(fat2.points)[point(1, 0, 0)] == 2
    fat0, d0 = ideal_of_chi(labels, table, (0, 0, 0, 0))
    assert d0 == -3 and len(fat0) == 0


def test_h0_canonical_twist_zero_character(labels, table):
    assert h0_h1(*ideal_of_chi(labels, table, (0, 0, 0, 0)))[0] == 0


def test_h1_vanishes_at_twist_degree(labels, table):
    rng = random.Random(12)
    from rigidsurf.cover import all_characters

    chars = all_characters(7, 4)
    for _ in range(12):
        chi = chars[rng.randrange(1, len(chars))]
        fat, d = ideal_of_chi(labels, table, chi)
        assert h1_is_zero(fat, d)
        h0, h1 = h0_h1(fat, d)
        assert h1 == 0
        assert h0 == comb(d + 2, 2) - fat.degree


# --- properties


def _random_scheme(rng, max_points=4, max_mult=3):
    target = rng.randint(1, max_points)
    pts = set()
    while len(pts) < target:
        pts.add(point(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(1, 3)))
    return FatPointScheme(
        tuple((p, rng.randint(1, max_mult)) for p in sorted(pts))
    )


def test_euler_bookkeeping():
    rng = random.Random(99)
    for _ in range(60):
        fat = _random_scheme(rng)
        t = rng.randint(0, 8)
        h0, h1 = h0_h1(fat, t)
        assert h0 - h1 == comb(t + 2, 2) - fat.degree
        assert h0 >= 0 and h1 >= 0


def test_h1_nonincreasing_and_persistent():
    rng = random.Random(4242)
    for _ in range(40):
        fat = _random_scheme(rng)
        bound = 3 + sum(h for _, h in fat.points)
        values = [h0_h1(fat, t)[1] for t in range(bound + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        if 0 in values:
            first = values.index(0)
            assert all(v == 0 for v in values[first:])


def _line_bound(fat):
    """max over lines of (sum of multiplicities of the points on it) - 1."""
    pts = [p for p, _ in fat.points]
    best = max(h for _, h in fat.points)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            ell = join(p, q)
            best = max(best, sum(h for r, h in fat.points if incident(r, ell)))
    return best - 1


small = st.integers(-5, 5)
triples = st.tuples(small, small, small).filter(lambda v: v != (0, 0, 0))


@settings(max_examples=30, deadline=None)
@given(
    triples,
    triples,
    st.lists(
        st.tuples(st.tuples(small, small).filter(lambda v: v != (0, 0)), st.integers(1, 3)),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.tuples(triples, st.integers(1, 2)), max_size=2),
)
def test_collinear_fat_points_force_h1(a, b, on_line, off_line):
    # fat points on one line with multiplicities summing to s keep h1 > 0
    # in every degree t <= s - 2, whatever else the scheme contains
    assume(point(a) != point(b))
    ell = join(point(a), point(b))
    fat_points = {}
    for (s_, u), h in on_line:
        fat_points.setdefault(point(tuple(s_ * x + u * y for x, y in zip(a, b))), h)
    line_sum = sum(fat_points.values())
    for v, h in off_line:
        if not incident(point(v), ell):
            fat_points.setdefault(point(v), h)
    fat = FatPointScheme(tuple(sorted(fat_points.items())))
    for t in range(line_sum - 1):
        assert hilbert_rank(fat, t) < fat.degree
    assert _line_bound(fat) >= line_sum - 1


@st.composite
def residuation_cases(draw):
    """A point set with up to five points on one line and up to three
    anywhere, a few multiplicity rows on it, and for each row a degree
    within one below and two above its counting bound."""
    a, b = draw(triples), draw(triples)
    assume(point(a) != point(b))
    pairs = st.tuples(small, small).filter(lambda v: v != (0, 0))
    coords = [tuple(s_ * x + u * y for x, y in zip(a, b)) for s_, u in draw(st.lists(pairs, max_size=5))]
    coords += draw(st.lists(triples, max_size=3))
    points = list(dict.fromkeys(point(v) for v in coords))
    assume(points)
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)),
                         min_size=1, max_size=3))
    degrees = []
    for row in rows:
        deg = sum(h * (h + 1) // 2 for h in row)
        first = next(t for t in range(99) if comb(t + 2, 2) >= deg)
        degrees.append(max(0, first + draw(st.integers(-1, 2))))
    return points, rows, degrees


def _false_proofs(case):
    """The rows a chain of line residuations empties, though h1 > 0 for them."""
    points, rows, degrees = case
    _, res_deg, _ = _residual(_line_bank(points), np.array(rows), np.array(degrees))
    schemes = [fat_points(points, row) for row in rows]
    return [(fat, t) for fat, t, d in zip(schemes, degrees, res_deg) if d == 0 and hilbert_rank(fat, t) < fat.degree]


def _false_residual_proofs(case, nonempty=False):
    """The rows whose residual has h1 = 0 in its degree, though h1 > 0 for
    the original in its own; with ``nonempty``, only nonempty residuals.
    Asserts on the way that a residual past the counting bound is its
    untouched original."""
    points, rows, degrees = case
    res, res_deg, res_t = _residual(_line_bank(points), np.array(rows), np.array(degrees))
    wrong = []
    for row, t, h, d, t_ in zip(rows, degrees, res, res_deg, res_t.tolist()):
        fat = fat_points(points, row)
        assert d <= comb(t_ + 2, 2) or (t_ == t and d == fat.degree)
        if (d or not nonempty) and hilbert_rank(fat_points(points, h), max(t_, 0)) == d:
            if hilbert_rank(fat, t) < fat.degree:
                wrong.append((fat, t))
    return wrong


@settings(max_examples=100, deadline=None)
@given(residuation_cases())
@example(([point(1, k, 0) for k in range(4)] + [point(0, 1, 0)], [[1, 1, 1, 1, 0], [2, 2, 2, 2, 1]], [3, 6]))
@example(([point(1, k, 1) for k in range(5)] + [point(2, 3, 5)], [[2, 1, 1, 2, 1, 3]], [5]))
def test_residuation_proofs_agree_with_the_exact_rank(case):
    # every h1 = 0 a residuation chain claims holds for the exact rank
    assert _false_proofs(case) == []


def test_residuation_property_catches_a_loosened_rule(monkeypatch):
    # with s_L <= t + 2 in place of t + 1 a chain peels off a line the
    # residual sequence does not allow, and the property above finds a
    # false proof
    import rigidsurf.cohomology as cohomology

    monkeypatch.setattr(cohomology, "_room", lambda t: t + 2)
    case = find(
        residuation_cases(),
        lambda c: bool(_false_proofs(c)),
        settings=settings(
            max_examples=500, deadline=None, database=None, derandomize=True, phases=[Phase.generate]
        ),
    )
    assert _false_proofs(case)


@settings(max_examples=60, deadline=None)
@given(residuation_cases())
@example(([point(1, k, 1) for k in range(5)] + [point(2, 3, 5)], [[2, 1, 1, 2, 1, 3]], [5]))
def test_residual_ranks_agree_with_the_exact_rank(case):
    # every h1 = 0 concluded from a full-rank residual holds for the exact
    # rank of the original, and every residual keeps deg' <= C(t' + 2, 2)
    assert _false_residual_proofs(case) == []


def test_residual_rank_property_catches_a_loosened_rule(monkeypatch):
    # the s_L <= t + 2 mutant also leaves a nonempty residual of full rank
    # whose original is short of it
    import rigidsurf.cohomology as cohomology

    monkeypatch.setattr(cohomology, "_room", lambda t: t + 2)
    case = find(
        residuation_cases(),
        lambda c: bool(_false_residual_proofs(c, nonempty=True)),
        settings=settings(
            max_examples=500, deadline=None, database=None, derandomize=True, phases=[Phase.generate]
        ),
    )
    assert _false_residual_proofs(case, nonempty=True)


def _scalar_residual(rich, row, t):
    """One chain of the rule :func:`_residual` documents, scheme by scheme in
    Python integers: over the bank lines and then one line per point, peel
    the heaviest line with 0 < s_L <= t + 1 and deg - s_L <= C(t + 1, 2),
    the first one on ties, until none is left or the scheme is empty."""
    lines = [np.flatnonzero(line).tolist() for line in rich] + [[i] for i in range(len(row))]
    h, deg = list(row), sum(x * (x + 1) // 2 for x in row)
    while deg:
        sums = [sum(h[i] for i in line) for line in lines]
        allowed = [j for j, s in enumerate(sums) if 0 < s <= t + 1 and deg - s <= (t + 1) * t // 2]
        if not allowed:
            break
        j = max(allowed, key=sums.__getitem__)
        deg -= sums[j]
        h = [x - 1 if i in lines[j] and x > 0 else x for i, x in enumerate(h)]
        t -= 1
    return h, deg, t


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_residual_matches_a_scalar_chain(table, data):
    # the vectorized chains, with their shared working arrays and live
    # rows, take exactly the steps of the documented rule on the bundled
    # 51 points, scheme by scheme
    rich = _line_bank(table.points)
    # a few fat points each, so that the chains take steps
    supports = data.draw(st.lists(st.dictionaries(st.integers(0, 50), st.integers(1, 4), max_size=16),
                                  min_size=1, max_size=6))
    rows = [[support.get(i, 0) for i in range(51)] for support in supports]
    degrees = data.draw(st.lists(st.integers(0, 12), min_size=len(rows), max_size=len(rows)))
    res, res_deg, res_t = _residual(rich, np.array(rows), np.array(degrees))
    got = [(h.tolist(), int(d), int(t)) for h, d, t in zip(res, res_deg, res_t)]
    assert got == [_scalar_residual(rich, row, t) for row, t in zip(rows, degrees)]


def test_every_chain_at_d_minus_2_empties_its_scheme(sweep, table):
    # reg < d exactly when h1(I_Z(d - 2)) = 0, and on the bundled map a
    # chain of residuations proves it with no matrix for every character
    mults = np.clip(sweep.h_mult[1:], 0, None)
    _, res_deg, _ = _residual(_line_bank(table.points), mults, sweep.d_chi[1:] - 2)
    assert res_deg.size == 2400 and not res_deg.any()


@st.composite
def two_line_cases(draw):
    """Points on two lines through a node, the node included, and up to two
    anywhere; a multiplicity row on them; and the incidences of the lines."""
    node, b, c = draw(triples), draw(triples), draw(triples)
    assume(len({point(node), point(b), point(c)}) == 3)
    first, second = join(point(node), point(b)), join(point(node), point(c))
    assume(first != second)
    pairs = st.tuples(small, small).filter(lambda v: v != (0, 0))
    coords = [node]
    for end in (b, c):
        coords += [tuple(s_ * x + u * y for x, y in zip(node, end)) for s_, u in draw(st.lists(pairs, max_size=3))]
    coords += draw(st.lists(triples, max_size=2))
    points = list(dict.fromkeys(point(v) for v in coords))
    row = draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)))
    lines = np.array([[incident(p, ell) for p in points] for ell in (first, second)])
    return points, row, lines


def _false_raises(case, start=_start):
    """The scheme and its start, if ``start`` raises it above the line and
    counting bounds though h1 = 0 one degree below."""
    points, row, lines = case
    fat = fat_points(points, row)
    counting = next(t for t in range(99) if comb(t + 2, 2) >= fat.degree)
    line = max(sum(h for h, on in zip(row, ell) if on) for ell in lines) - 1
    first = int(start(lines, np.array([row]), np.array([counting]))[0])
    if first <= max(counting, line) or hilbert_rank(fat, first - 1) < fat.degree:
        return []
    return [(fat, first)]


@settings(max_examples=60, deadline=None)
@given(two_line_cases())
@example(([point(1, 0, 0), point(1, 1, 0), point(0, 1, 0), point(0, 0, 1), point(1, 0, 1)],
          [2, 2, 2, 2, 1], np.array([[1, 1, 1, 0, 0], [1, 0, 0, 1, 1]], bool)))
@example(([point(1, 0, 0), point(1, 1, 0), point(1, 2, 0), point(0, 1, 0),
           point(0, 0, 1), point(1, 0, 1), point(2, 0, 1)],
          [0, 1, 1, 1, 1, 1, 1], np.array([[1, 1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 1, 1, 1]], bool)))
def test_two_line_witness_agrees_with_the_exact_rank(case):
    # a start raised above the heaviest line's bound s - 1 claims h1 > 0
    # at s - 1 from a conic of two heaviest lines, which the exact rank
    # must confirm
    assert _false_raises(case) == []


def _mutant_case(mutant):
    """A case on which :func:`_start`, with its raise rule replaced by
    ``mutant``, raises a start the exact rank refutes."""
    source = inspect.getsource(_start)
    rule = "k * (k - 1) // 2 > met"
    assert rule in source
    namespace = dict(vars(cohomology))
    exec(source.replace(rule, mutant), namespace)
    start = namespace["_start"]
    case = find(
        two_line_cases(),
        lambda c: bool(_false_raises(c, start)),
        settings=settings(
            max_examples=500, deadline=None, database=None, derandomize=True, phases=[Phase.generate]
        ),
    )
    assert _false_raises(case, start) and not _false_raises(case)
    return case


def test_two_line_property_catches_a_doubled_node():
    # counting a fat point hP at the node as 2h, not 2h - 1, counts every
    # pair of heaviest lines as meeting off the support
    points, row, lines = _mutant_case("k * (k - 1) // 2 > 0")
    node = np.flatnonzero(lines.all(axis=0))
    assert node.size == 1 and row[node[0]] > 0


def test_two_line_property_catches_a_single_heaviest_line():
    # one heaviest line alone proves h1 > 0 only up to s - 2
    points, row, lines = _mutant_case("(k * (k - 1) // 2 > met) | (k == 1)")
    sums = [sum(h for h, on in zip(row, ell) if on) for ell in lines]
    assert sums.count(max(sums)) == 1


def _scalar_conic_lengths(rich, mults):
    """Length of each scheme on each conic L1 + L2 of two ``rich`` lines
    (schemes x pairs): a fat point hP off the node meets it in its line's
    length h, and at the node in 2h - 1 (the monomials of degree < h that
    xy does not divide), so the length is s1 + s2, less one when the node
    is a point of the scheme."""
    on = mults.astype(np.int64) @ rich.T
    return np.array([
        on[:, a] + on[:, b] - (mults[:, rich[a] & rich[b]] > 0).sum(axis=1)
        for a, b in combinations(range(len(rich)), 2)
    ]).T


STRESS_MAPS = Path(__file__).resolve().parent / "data" / "stress_maps.json"


@pytest.mark.parametrize("key", [None, (7, 4, 3), (11, 4, 1)], ids=["bundled", "p7-r4-seed3", "p11-r4-seed1"])
def test_no_two_line_conic_proves_h1_from_the_start(labels, table, key):
    # a conic of two bank lines of length L proves h1 > 0 in every degree
    # t with L >= 2t + 2, up to L // 2 - 1; each scan starts past all of
    # them, and where the heaviest lines' bound starts it: 19, 21 and 83
    # starts are raised one above s - 1 on the bundled and stress maps
    if key is not None:
        (entry,) = [e for e in json.loads(STRESS_MAPS.read_text()) if (e["p"], e["r"], e["seed"]) == key]
        labels = label_map(entry["line_labels"], table, entry["p"], entry["r"])
    mults = np.clip(build_sweep(labels, table).h_mult[1:], 0, None)
    rich = _line_bank(table.points)
    counting = np.array([next(t for t in range(99) if comb(t + 2, 2) >= d) for d in fat_degrees(mults)])
    first = _start(rich, mults, counting)
    lengths = _scalar_conic_lengths(rich, mults)
    assert (lengths < 2 * first[:, None] + 2).all()
    line = (mults.astype(np.int64) @ rich.T).max(axis=1) - 1
    assert first.tolist() == np.maximum.reduce([counting, line, lengths.max(axis=1) // 2]).tolist()
    raised = int((first > np.maximum(counting, line)).sum())
    assert raised == {None: 19, (7, 4, 3): 21, (11, 4, 1): 83}[key]


def test_line_bank_lines_are_exact_joins():
    # each line of the bank is the full incidence of a join of two
    # points, computed exactly also past int64 coordinates
    big = 2**40
    points = [point(1, k * big, 0) for k in range(4)] + [point(big, 1, 1), point(1, 1, 1)]
    assert _line_bank(points).tolist() == [[True] * 4 + [False] * 2]
    # z = 0 and x = y, which meet at (1:1:0)
    assert _line_bank(FIXED_POINTS).sum(axis=1).tolist() == [4, 4]
    for pts in (FIXED_POINTS, points):
        for row in _line_bank(pts):
            on = [p for p, hit in zip(pts, row) if hit]
            ell = join(on[0], on[1])
            assert row.tolist() == [incident(p, ell) for p in pts]


@pytest.mark.parametrize("stage", ["bundled", "closure-3"])
def test_line_bank_keeps_one_row_per_line_in_row_order(table, stage):
    # the distinct incidence rows of the joins through at least four
    # points, in the lexicographic row order of np.unique(axis=0); the 97
    # points of closure stage 3 pack into more than eight bytes a row
    from rigidsurf.arrangement import BASE_POINTS, closure

    points = table.points if stage == "bundled" else closure(BASE_POINTS, 3)[-1].points
    xyz = np.array([p.coords for p in points])
    a, b = np.triu_indices(len(xyz), 1)
    on = (np.cross(xyz[a], xyz[b]) @ xyz.T) == 0
    reference = np.unique(on[on.sum(axis=1) >= 4], axis=0)
    assert np.array_equal(_line_bank(points), reference)
    assert len(reference) == {"bundled": 45, "closure-3": 169}[stage]


def _random_signed_scheme(rng, max_points=4, max_mult=3):
    pts = set()
    while len(pts) < rng.randint(1, max_points):
        v = tuple(rng.randint(-4, 4) for _ in range(3))
        if v != (0, 0, 0):
            pts.add(point(v))
    return FatPointScheme(tuple((p, rng.randint(1, max_mult)) for p in sorted(pts)))


def _reduced(rows, q):
    return [[v % q for v in row] for row in rows]


def test_conditions_matrix_mod_reduces_exact_matrix():
    rng = random.Random(31337)
    for _ in range(60):
        fat = _random_signed_scheme(rng)
        t = rng.randint(0, 7)
        for q in (RANK_PRIME, 2_147_483_587, 7, 1_000_003):
            mod = conditions_matrix_mod(fat, t, q)
            # built in the elimination's dtype: int32 up to RANK_PRIME, where
            # a product of two residues still fits, int64 above it
            assert mod.dtype == (np.int32 if q <= RANK_PRIME else np.int64)
            assert mod.tolist() == _reduced(conditions_matrix(fat, t), q)
    assert conditions_matrix_mod(EMPTY, 3, 7).shape == (0, 10)


def test_conditions_matrix_mod_on_bundled_schemes(labels, table):
    from rigidsurf.cover import all_characters

    chars = all_characters(7, 4)
    for chi in chars[1::300]:
        fat, d = ideal_of_chi(labels, table, chi)
        for t in (d - 2, d):
            exact = conditions_matrix(fat, t)
            for q in (RANK_PRIME, 2_147_483_587):
                assert conditions_matrix_mod(fat, t, q).tolist() == _reduced(exact, q)


def test_mod_rank_is_lower_bound():
    rng = random.Random(777)
    for _ in range(40):
        fat = _random_scheme(rng)
        t = rng.randint(0, 6)
        exact = hilbert_rank(fat, t)
        for q in (2_147_483_629, 1_000_003):
            assert rank_mod(conditions_matrix_mod(fat, t, q), q) <= exact


def test_bareiss_rank_known_matrices():
    assert bareiss_rank([[2, 4], [1, 2]]) == 1
    assert bareiss_rank([[1, 0, 3], [0, 5, 1], [2, 10, 8]]) == 2  # singular
    assert bareiss_rank([[1, 0, 3], [0, 5, 1], [2, 10, 9]]) == 3
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[0, 0], [0, 0]]) == 0


def test_conditions_matrix_shape():
    fat = scheme(((1, 2, 1), 2), ((0, 1, 0), 1))
    rows = conditions_matrix(fat, 3)
    # one row per derivative of order < h (Euler makes some redundant);
    # the independent count is the scheme degree
    assert len(rows) == 5
    assert fat.degree == 4
    assert len(rows[0]) == len(monomials(3)) == 10
    assert bareiss_rank(rows) == fat.degree


def test_fat_point_validation():
    with pytest.raises(ValueError):
        FatPointScheme(((point(1, 0, 0), 0),))
    with pytest.raises(ValueError):
        FatPointScheme(((point(1, 0, 0), 1), (point(2, 0, 0), 1)))


def test_fat_degrees_sum_in_int64_past_the_int16_squares():
    # h(h + 1)/2 of h = 2^15 - 1 is past int16, and h^2 of h = 2^31 - 1
    # past int32; the degrees are exact in int64 for narrow rows
    for h, dtype in [(2**15 - 1, np.int16), (2**31 - 1, np.int32), (0, np.int16)]:
        rows = np.array([[h, 1, 0], [0, 0, 0]], dtype=dtype)
        degrees = fat_degrees(rows)
        assert degrees.dtype == np.int64 and degrees.tolist() == [h * (h + 1) // 2 + 1, 0]
