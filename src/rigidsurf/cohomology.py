"""Hilbert functions, h0/h1 and regularity of fat-point schemes in the plane.

A fat point of multiplicity h imposes the vanishing of all partial
derivatives of order < h (characteristic zero).  The conditions matrix
for degree-t forms has one row per derivative condition and one column
per degree-t monomial; its rank over Q decides everything.  The exact
rank uses fraction-free (Bareiss) elimination on integer matrices;
full row rank mod the one prime ``RANK_PRIME`` certifies full rank,
which is what the large verification sweep needs, and Bareiss settles
every other case.  The sweep's schemes all live on one point set, so
:func:`regularities` scans them together: per degree, one bank of
conditions rows and one stacked elimination mod the prime per shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .arrangement import IncidenceTable
from .cover import LabelMap, chi_class
from .modp import rank_mod, ranks_mod
from .picard import canonical_class
from .projective import ProjectivePoint

RANK_PRIME = 2_147_483_629
# int64 row operations multiply two residues, exact only below 2^62
assert RANK_PRIME < 2**31


@dataclass(frozen=True)
class FatPointScheme:
    """Distinct plane points with multiplicities >= 1."""

    points: tuple[tuple[ProjectivePoint, int], ...]

    def __post_init__(self):
        pts = [p for p, _ in self.points]
        if len(set(pts)) != len(pts):
            raise ValueError("fat points must be pairwise distinct")
        if any(h < 1 for _, h in self.points):
            raise ValueError("multiplicities must be >= 1")

    @property
    def degree(self) -> int:
        return sum(h * (h + 1) // 2 for _, h in self.points)

    def __len__(self) -> int:
        return len(self.points)


EMPTY = FatPointScheme(())


def fat_points(points, mults) -> FatPointScheme:
    """The scheme of the points with a positive multiplicity in ``mults``."""
    return FatPointScheme(tuple((pnt, int(h)) for pnt, h in zip(points, mults) if h > 0))


def ideal_of_chi(labels: LabelMap, table: IncidenceTable, chi) -> tuple[FatPointScheme, int]:
    """Fat-point scheme and twist degree attached to a character.

    Writing the character class tensored with the canonical class as
    d*H - sum h_k E_k, the scheme collects the points with h_k >= 1 and
    d is the plane degree in which its sections are measured.
    """
    m = table.num_points
    cls = chi_class(labels, table, chi) + canonical_class(m)
    d = cls.h
    fat = tuple(
        (table.points[nu], -cls.e[nu])
        for nu in range(m)
        if -cls.e[nu] >= 1
    )
    if any(h < -1 for h in (-x for x in cls.e)):
        raise ArithmeticError("exceptional multiplicities must be >= -1")
    return FatPointScheme(fat), d


def monomials(t: int) -> list[tuple[int, int, int]]:
    """Exponent triples of the degree-t monomials, in a fixed order."""
    return [(a, b, t - a - b) for a in range(t, -1, -1) for b in range(t - a, -1, -1)]


def _orders(h: int) -> list[tuple[int, int, int]]:
    """Derivative orders (a, b, c) with a + b + c < h, in conditions-row order.

    The order is by total order first, so the orders below h are the
    first C(h+2, 3) orders below any larger multiplicity.
    """
    return [(a, b, s - a - b) for s in range(h) for a in range(s + 1) for b in range(s - a + 1)]


def _condition_rows(pnt: ProjectivePoint, h: int, mons, powers):
    """Rows for the order < h vanishing conditions at one point.

    ``powers[x]`` maps an integer coordinate value to its power table;
    entries are falling-factorial times monomial derivative evaluations.
    """
    x, y, z = pnt.coords
    rows = []
    for a, b, c in _orders(h):
        row = []
        for e0, e1, e2 in mons:
            if e0 < a or e1 < b or e2 < c:
                row.append(0)
                continue
            coeff = 1
            for k in range(a):
                coeff *= e0 - k
            for k in range(b):
                coeff *= e1 - k
            for k in range(c):
                coeff *= e2 - k
            row.append(coeff * powers[x][e0 - a] * powers[y][e1 - b] * powers[z][e2 - c])
        rows.append(row)
    return rows


def _power_tables(scheme: FatPointScheme, t: int):
    values = {c for pnt, _ in scheme.points for c in pnt.coords}
    tables = {}
    for v in values:
        tab = [1] * (t + 1)
        for k in range(1, t + 1):
            tab[k] = tab[k - 1] * v
        tables[v] = tab
    return tables


def conditions_matrix(scheme: FatPointScheme, t: int) -> list[list[int]]:
    """Exact integer conditions matrix for degree-t forms."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    mons = monomials(t)
    powers = _power_tables(scheme, t)
    rows: list[list[int]] = []
    for pnt, h in scheme.points:
        rows.extend(_condition_rows(pnt, h, mons, powers))
    return rows


def conditions_matrix_mod(scheme: FatPointScheme, t: int, q: int) -> np.ndarray:
    """Conditions matrix reduced mod q (a reduction of the exact one).

    Row (a, b, c) of a point (x : y : z) at the monomial with exponents
    (e0, e1, e2) is D_x[a, e0] * D_y[b, e1] * D_z[c, e2] with the
    per-coordinate tables D_v[a, e] = (e)_a * v^(e - a) mod q; the
    falling factorial (e)_a vanishes for e < a, which zeroes the
    monomials a derivative kills.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    assert 0 < q < 2**31, "int64 products of two residues need q < 2^31"
    exps = np.array(monomials(t), dtype=np.int64).reshape(-1, 3)
    if not scheme.points:
        return np.zeros((0, len(exps)), dtype=np.int64)
    hmax = max(h for _, h in scheme.points)
    coords = [c % q for pnt, _ in scheme.points for c in pnt.coords]
    values, which = np.unique(np.array(coords, dtype=np.int64), return_inverse=True)
    which = which.reshape(-1, 3)

    e = np.arange(t + 1, dtype=np.int64)
    powers = np.ones((len(values), t + 1), dtype=np.int64)
    for k in range(1, t + 1):
        powers[:, k] = powers[:, k - 1] * values % q
    falling = np.ones((hmax, t + 1), dtype=np.int64)
    for a in range(1, hmax):
        falling[a] = falling[a - 1] * np.maximum(e - a + 1, 0) % q
    shift = np.maximum(e[None, :] - np.arange(hmax)[:, None], 0)
    tables = falling[None, :, :] * powers[:, shift] % q  # value x a x e
    assert tables.min() >= 0 and tables.max() < q, "table entries must be reduced"

    # one row per point and derivative order (a, b, c) with a + b + c < h
    rows = np.array(
        [(i, *abc) for i, (_, h) in enumerate(scheme.points) for abc in _orders(h)],
        dtype=np.int64,
    )
    pt = rows[:, 0]
    out = tables[which[pt, 0][:, None], rows[:, 1][:, None], exps[:, 0]]
    for k in (1, 2):
        out = out * tables[which[pt, k][:, None], rows[:, k + 1][:, None], exps[:, k]] % q
    return out


def bareiss_rank(matrix) -> int:
    """Exact rank of an integer matrix by fraction-free elimination.

    One-step Bareiss: every division is exact, intermediate entries stay
    integral (they are minors of the input).
    """
    m = [list(map(int, row)) for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivval = m[rank][c]
        for i in range(rank + 1, rows):
            row_i = m[i]
            f = row_i[c]
            if f or any(row_i[c:]):
                row_r = m[rank]
                for j in range(c, cols):
                    row_i[j] = (row_i[j] * pivval - f * row_r[j]) // prev
        prev = pivval
        rank += 1
        if rank == rows:
            break
    return rank


def hilbert_rank(scheme: FatPointScheme, t: int) -> int:
    """Exact rank of the degree-t conditions matrix (t >= 0)."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    if not scheme.points:
        return 0
    return bareiss_rank(conditions_matrix(scheme, t))


def h1_is_zero(scheme: FatPointScheme, t: int) -> bool:
    """Exact decision of h1 = 0 in degree t, certificate-first.

    Fewer monomials than the scheme degree decide it at once.  Otherwise
    full row rank mod ``RANK_PRIME`` certifies full rank over Q (a
    nonzero minor mod q is nonzero over Z); when the prime does not
    certify it, the exact rank settles the question.
    """
    if not scheme.points:
        return True
    if t < 0:
        return False
    deg = scheme.degree
    if comb(t + 2, 2) < deg:
        return False
    if rank_mod(conditions_matrix_mod(scheme, t, RANK_PRIME), RANK_PRIME) == deg:
        return True
    return hilbert_rank(scheme, t) == deg


def h0_h1(scheme: FatPointScheme, t: int) -> tuple[int, int]:
    """Exact h0 and h1 of the twisted ideal sheaf in degree t.

    For t >= 0 these come from the conditions rank; for t < 0 there are
    no sections and h1 equals the scheme degree.  The Euler bookkeeping
    h0 - h1 = C(t+2, 2) - deg is asserted on every computed pair.
    """
    deg = scheme.degree
    if t < 0:
        return 0, deg
    rank = hilbert_rank(scheme, t)
    h0 = comb(t + 2, 2) - rank
    h1 = deg - rank
    assert h0 - h1 == comb(t + 2, 2) - deg
    return h0, h1


def regularity(scheme: FatPointScheme, fast: bool = False) -> int:
    """Castelnuovo-Mumford regularity of the fat-point ideal sheaf.

    Upward scan for the first degree with vanishing h1 (vanishing
    persists upward for these sheaves); h2 is controlled automatically
    in the relevant range.  The empty scheme has regularity 0.  The
    scan is capped by the crude bound 3 + sum of multiplicities.
    """
    if not scheme.points:
        return 0
    deg = scheme.degree
    bound = 3 + sum(h for _, h in scheme.points)
    t = _first_possible_degree(deg)
    while t <= bound:
        vanished = h1_is_zero(scheme, t) if fast else (deg - hilbert_rank(scheme, t) == 0)
        if vanished:
            return t + 1
        t += 1
    raise ArithmeticError(f"regularity scan exceeded bound {bound}")


def _first_possible_degree(deg: int) -> int:
    """Smallest t with C(t+2,2) >= deg; below it h1 > 0 for free."""
    t = 0
    while comb(t + 2, 2) < deg:
        t += 1
    return t


def regularities(points, mults, starts) -> np.ndarray:
    """Regularity of many fat-point schemes on one point set, in one scan.

    Row k of ``mults`` gives the multiplicity of each of ``points`` in
    scheme k (values <= 0 leave the point out), and ``starts[k]`` is a
    proven lower bound for its first vanishing degree.  Each scheme is
    scanned upward as by ``regularity(scheme, fast=True)`` from that
    bound, with the same decisions:

    - at degree t, every scheme's conditions matrix mod ``RANK_PRIME``,
      exactly as :func:`conditions_matrix_mod` builds it, is a row
      selection from one bank: the conditions matrix of all points at
      the largest multiplicity;
    - the schemes whose matrices share a shape are ranked as one stack;
      full rank (the degree) certifies h1 = 0 at t;
    - any other scheme has its exact rank taken (:func:`hilbert_rank`,
      by Bareiss) and moves on to t + 1 only when h1 does not vanish
      there.

    These are the decisions of :func:`h1_is_zero`, and each (scheme,
    degree) is ranked mod the prime only once.
    """
    points = tuple(points)
    mults = np.clip(np.asarray(mults, dtype=np.int64).reshape(-1, len(points)), 0, None)
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    count = mults.shape[0]
    regs = np.zeros(count, dtype=np.int64)
    deg = (mults * (mults + 1) // 2).sum(axis=1)
    if not deg.any():
        return regs
    bound = 3 + mults.sum(axis=1)
    # the smallest t with C(t+2, 2) >= deg, below which h1 > 0 for free
    triangular = np.array([comb(t + 2, 2) for t in range(int(bound.max()) + 1)])
    t = np.maximum(starts, np.searchsorted(triangular, deg))

    # every scheme's bank rows, scheme after scheme, point after point: a
    # point of multiplicity h takes the first C(h+2, 3) rows of its block
    hmax = int(mults.max())
    owner, i = np.nonzero(mults)
    h = mults[owner, i]
    n = h * (h + 1) * (h + 2) // 6
    within = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    bank_rows = np.repeat(i * comb(hmax + 2, 3), n) + within
    n_rows = np.bincount(owner, weights=n, minlength=count).astype(np.int64)
    first_row = np.cumsum(n_rows) - n_rows
    full = FatPointScheme(tuple((pnt, hmax) for pnt in points))
    q = RANK_PRIME

    live = np.nonzero(deg)[0]
    while live.size:
        level = int(t[live].min())
        now = live[t[live] == level]
        over = now[level > bound[now]]
        if over.size:
            raise ArithmeticError(f"regularity scan exceeded bound {int(bound[over[0]])}")
        bank = conditions_matrix_mod(full, level, q)
        for size in np.unique(n_rows[now]):
            group = now[n_rows[now] == size]
            ranks = ranks_mod(bank[bank_rows[first_row[group][:, None] + np.arange(size)]], q)
            for k, certified in zip(group.tolist(), (ranks == deg[group]).tolist()):
                if certified or hilbert_rank(fat_points(points, mults[k]), level) == deg[k]:
                    regs[k] = level + 1
                else:
                    t[k] += 1
        live = live[regs[live] == 0]
    return regs


__all__ = [
    "EMPTY",
    "FatPointScheme",
    "RANK_PRIME",
    "bareiss_rank",
    "conditions_matrix",
    "conditions_matrix_mod",
    "fat_points",
    "h0_h1",
    "h1_is_zero",
    "hilbert_rank",
    "ideal_of_chi",
    "monomials",
    "rank_mod",
    "regularities",
    "regularity",
]
