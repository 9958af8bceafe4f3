import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
import sympy
from hypothesis import Phase, assume, example, find, given, settings, strategies as st

from rigidsurf.cohomology import (
    EMPTY,
    RANK_PRIME,
    FatPointScheme,
    _euler_rows,
    _line_bank,
    _orders,
    _residual,
    _spanning_rows,
    _two_line_witness,
    bareiss_rank,
    conditions_matrix,
    conditions_matrix_mod,
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
    # the stacks mod RANK_PRIME leave 23 original schemes short of full
    # rank, and the full conditions matrix of each is short over Q as
    # well: the int32-sized prime adds no fallback a larger prime would
    # have avoided.  A conic of two bank lines proves h1 > 0 for 19 of
    # them, each confirmed here by Bareiss, and only 4 reach the exact rank
    import rigidsurf.cohomology as cohomology
    from rigidsurf.certify import check_condition_a

    fallbacks, witnessed = [], []
    witness = cohomology._two_line_witness

    def recorded(fat, t):
        fallbacks.append((fat, t))
        return hilbert_rank(fat, t)

    def recorded_witness(lines, mults, t):
        claims = witness(lines, mults, t)
        witnessed.extend((fat_points(sweep.table.points, row), t) for row in mults[claims])
        return claims

    monkeypatch.setattr(cohomology, "hilbert_rank", recorded)
    monkeypatch.setattr(cohomology, "_two_line_witness", recorded_witness)
    assert check_condition_a(sweep) == cond_a
    assert (len(fallbacks), len(witnessed)) == (4, 19)
    for fat, t in fallbacks + witnessed:
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

    monkeypatch.setattr(cohomology, "_fits", lambda s, t: (s > 0) & (s <= t + 2))
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

    monkeypatch.setattr(cohomology, "_fits", lambda s, t: (s > 0) & (s <= t + 2))
    case = find(
        residuation_cases(),
        lambda c: bool(_false_residual_proofs(c, nonempty=True)),
        settings=settings(
            max_examples=500, deadline=None, database=None, derandomize=True, phases=[Phase.generate]
        ),
    )
    assert _false_residual_proofs(case, nonempty=True)


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


def _false_witnesses(case):
    """The highest degree a two-line witness claims h1 > 0 in, if h1 = 0 there."""
    points, row, lines = case
    claimed = [t for t in range(sum(row)) if _two_line_witness(lines, np.array([row]), t)[0]]
    if not claimed:
        return []
    fat = fat_points(points, row)
    return [(fat, claimed[-1])] if hilbert_rank(fat, claimed[-1]) == fat.degree else []


@settings(max_examples=60, deadline=None)
@given(two_line_cases())
@example(([point(1, 0, 0), point(1, 1, 0), point(0, 1, 0), point(0, 0, 1), point(1, 0, 1)],
          [2, 2, 2, 2, 1], np.array([[1, 1, 1, 0, 0], [1, 0, 0, 1, 1]], bool)))
def test_two_line_witness_agrees_with_the_exact_rank(case):
    # h1 > 0 decreases downward, so checking the highest claimed degree
    # checks every claim
    assert _false_witnesses(case) == []


def test_two_line_property_catches_a_doubled_node(monkeypatch):
    # counting a fat point at the node as 2h, not 2h - 1, claims h1 > 0
    # where it vanishes
    import rigidsurf.cohomology as cohomology

    def doubled_node(lines, mults):
        a, b = np.triu_indices(len(lines), 1)
        on = mults @ lines.T
        return on[:, a] + on[:, b]

    monkeypatch.setattr(cohomology, "_conic_lengths", doubled_node)
    case = find(
        two_line_cases(),
        lambda c: bool(_false_witnesses(c)),
        settings=settings(
            max_examples=500, deadline=None, database=None, derandomize=True, phases=[Phase.generate]
        ),
    )
    assert _false_witnesses(case)


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
            assert mod.dtype == np.int64
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
