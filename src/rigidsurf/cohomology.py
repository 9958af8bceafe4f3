"""Hilbert functions, h0/h1 and regularity of fat-point schemes in the plane.

A fat point of multiplicity h imposes the vanishing of all partial
derivatives of order < h (characteristic zero).  The conditions matrix
for degree-t forms has one row per derivative condition and one column
per degree-t monomial; its rank over Q decides everything.  Euler's
identity, (t - k) g(P) = sum_i P_i d_i g(P) for an order-k partial g of
a degree-t form, makes the rows of order k = min(h - 1, t) span a
point's rows, so every rank is taken on those alone: exactly deg rows
once t >= h - 1, and the exact rank builds only those rows.  The exact
rank uses fraction-free (Bareiss) elimination on integer matrices;
full row rank mod the one prime ``RANK_PRIME`` certifies full rank,
which is what the large verification sweep needs, and Bareiss settles
every other case.  The prime is small enough for the elimination to
run on int32 residues.  The sweep's schemes all live on one point set,
so :func:`regularities` scans them together: per degree, one bank of
conditions rows and a few stacked eliminations mod the prime, one per
bucket of similar row counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

import numpy as np

from .arrangement import IncidenceTable
from .cover import LabelMap, chi_class
from .modp import kernel_dtype, rank_mod, ranks_mod
from .picard import canonical_class
from .projective import ProjectivePoint

# the largest prime q with (q - 1)^2 < 2^31, so that the residues and
# every fraction-free row update of the stacked elimination fit int32
# (modp.kernel_dtype); a smaller prime can only send more schemes to the
# exact fallback, never change a verdict
RANK_PRIME = 46_337
assert kernel_dtype(RANK_PRIME) == np.int32

# regularities buckets the schemes of one degree by their row count
# rounded up to the next cap of a x1.25 sequence, and ranks each bucket
# in stacks of at most _STACK_CELLS cells.  On the bundled sweep (2
# cores, numpy 2.4) x1.25 made 57 stacks in 0.53 s, x1.5 50 in 0.52 s,
# x2 56 in 0.54 s and x1.1 75 in 0.55 s.  Unsplit, the x1.25 buckets
# reach 271,890 cells (55,728 for one stack per exact shape) and raise
# the certificate's peak RSS from 45.9 to 51.3 MB; split at 65,536
# cells it stays at 45.3 MB.  Re-measured with int32 residues (4 rounds
# of 7 in-process certificates): medians 0.39-0.43 s for x1.25 and
# 65,536 cells, 0.37-0.41 s for 131,072 cells, 0.38-0.40 s for x1.5,
# 0.37-0.43 s for x1.1 and 0.30-0.46 s for x2, peak RSS 44-45 MB
# throughout; no setting is clearly faster, so the constants stay.
_ROW_RATIO = 1.25
_STACK_CELLS = 65_536


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


def _euler_rows(h, t, block_start) -> np.ndarray:
    """Indices of the conditions rows that span all of them, point after point.

    ``h`` and ``block_start`` hold, per point, its multiplicity and the
    index of its first row (rows in ``_orders`` order); ``t`` is the
    degree, shared or per point.  Orders above t vanish on degree-t
    forms, and Euler's identity makes each order-k row a combination of
    the order-(k+1) rows whenever k < t, so the rows of order
    k = min(h - 1, t), rows C(k+2, 3) ... C(k+2, 3) + C(k+2, 2) - 1 of
    the block, have the rank of the whole block over Q (and mod every
    prime above t, which the identity divides by).  For t >= h - 1 they are the C(h+1, 2) rows of order h - 1,
    so a scheme keeps exactly its degree in rows.
    """
    k = np.minimum(h - 1, t)
    n = (k + 1) * (k + 2) // 2
    first = block_start + k * (k + 1) * (k + 2) // 6
    return np.repeat(first - (np.cumsum(n) - n), n) + np.arange(n.sum())


def _spanning_rows(scheme: FatPointScheme, t: int) -> np.ndarray:
    """The rows of ``conditions_matrix(scheme, t)`` kept by :func:`_euler_rows`."""
    h = np.array([h for _, h in scheme.points], dtype=np.int64)
    size = h * (h + 1) * (h + 2) // 6
    return _euler_rows(h, t, np.cumsum(size) - size)


def _condition_rows(pnt: ProjectivePoint, orders, mons, powers):
    """Rows for the vanishing of the derivatives ``orders`` at one point.

    ``powers[x]`` maps an integer coordinate value to its power table;
    entries are falling-factorial times monomial derivative evaluations.
    """
    x, y, z = pnt.coords
    rows = []
    for a, b, c in orders:
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
        rows.extend(_condition_rows(pnt, _orders(h), mons, powers))
    return rows


def _euler_matrix(scheme: FatPointScheme, t: int) -> list[list[int]]:
    """The rows of ``conditions_matrix(scheme, t)`` that :func:`_spanning_rows` keeps.

    Only the rows of order k = min(h - 1, t) of each point are built:
    the last C(k+2, 2) of the orders below k + 1.
    """
    mons = monomials(t)
    powers = _power_tables(scheme, t)
    rows: list[list[int]] = []
    for pnt, h in scheme.points:
        k = min(h - 1, t)
        rows.extend(_condition_rows(pnt, _orders(k + 1)[comb(k + 2, 3):], mons, powers))
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
    """Exact rank of the degree-t conditions matrix (t >= 0).

    Bareiss runs on the Euler-reduced rows (:func:`_euler_matrix`, the
    only rows it builds), which have the rank of the whole matrix for
    every t >= 0: deg rows once t >= h - 1 at every point.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    if not scheme.points:
        return 0
    return bareiss_rank(_euler_matrix(scheme, t))


def h1_is_zero(scheme: FatPointScheme, t: int) -> bool:
    """Exact decision of h1 = 0 in degree t, certificate-first.

    Fewer monomials than the scheme degree decide it at once.  Past
    that, C(t+2, 2) >= deg >= C(h+1, 2) gives t >= h - 1 at every point,
    so the Euler-reduced rows (:func:`_euler_rows`) form a deg-row matrix
    with the rank of the whole one.  Full row rank mod ``RANK_PRIME``
    certifies full rank over Q (a nonzero minor mod q is nonzero over
    Z); when the prime does not certify it, the exact rank settles the
    question.

    This is the scalar reference path, kept for tests and perfbench;
    the certificate decides h1 only in :func:`regularities`.
    """
    if not scheme.points:
        return True
    if t < 0:
        return False
    deg = scheme.degree
    if comb(t + 2, 2) < deg:
        return False
    rows = conditions_matrix_mod(scheme, t, RANK_PRIME)[_spanning_rows(scheme, t)]
    if rank_mod(rows, RANK_PRIME) == deg:
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

    This is the scalar reference path (``fast=True`` through
    :func:`h1_is_zero`, else by exact rank), kept for tests and
    perfbench; the certificate uses :func:`regularities`.
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

    - at degree t, every scheme's Euler-reduced conditions matrix mod
      ``RANK_PRIME`` (:func:`_euler_rows` of what
      :func:`conditions_matrix_mod` builds) is a row selection from one
      bank: the conditions matrix of all points at the largest
      multiplicity, cast once to the elimination's dtype, so the
      gathered stacks are eliminated without another reduction.  The
      scan starts where C(t+2, 2) >= deg, so t >= h - 1 at every point
      and each matrix has exactly deg rows;
    - the schemes are bucketed by deg rounded up to the next cap of a
      x1.25 sequence and ranked as stacks of at most ``_STACK_CELLS``
      cells, each padded with zero rows (which leave a rank alone) to
      its largest deg; full rank (the degree) certifies h1 = 0 at t;
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

    # every scheme's bank rows, scheme after scheme, point after point:
    # from the scan's start on, the C(h+1, 2) rows of order h - 1 of each
    # point's block, deg rows in all
    hmax = int(mults.max())
    owner, i = np.nonzero(mults)
    bank_rows = _euler_rows(mults[owner, i], t[owner], i * comb(hmax + 2, 3))
    assert bank_rows.size == deg.sum(), "the scan starts at t >= h - 1"
    first_row = np.cumsum(deg) - deg
    caps = [1]
    while caps[-1] < deg.max():
        caps.append(max(caps[-1] + 1, ceil(caps[-1] * _ROW_RATIO)))
    caps = np.array(caps)
    full = FatPointScheme(tuple((pnt, hmax) for pnt in points))
    q = RANK_PRIME

    live = np.nonzero(deg)[0]
    while live.size:
        level = int(t[live].min())
        now = live[t[live] == level]
        over = now[level > bound[now]]
        if over.size:
            raise ArithmeticError(f"regularity scan exceeded bound {int(bound[over[0]])}")
        bank = conditions_matrix_mod(full, level, q).astype(kernel_dtype(q))
        cap = caps[np.searchsorted(caps, deg[now])]
        for bucket in np.unique(cap).tolist():
            group = now[cap == bucket]
            per_stack = max(1, _STACK_CELLS // (bucket * bank.shape[1]))
            for chunk in np.array_split(group, ceil(group.size / per_stack)):
                span = np.arange(deg[chunk].max())
                real = span < deg[chunk][:, None]
                stack = bank[bank_rows[np.where(real, first_row[chunk][:, None] + span, 0)]]
                stack[~real] = 0
                ranks = ranks_mod(stack, q)
                for k, certified in zip(chunk.tolist(), (ranks == deg[chunk]).tolist()):
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
