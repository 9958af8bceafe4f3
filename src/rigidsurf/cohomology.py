"""Hilbert functions, h0/h1 and regularity of fat-point schemes in the plane.

A fat point of multiplicity h imposes the vanishing of all partial
derivatives of order < h (characteristic zero).  The conditions matrix
for degree-t forms has one row per derivative condition and one column
per degree-t monomial; its rank over Q decides everything.  Euler's
identity, (t - k) g(P) = sum_i P_i d_i g(P) for an order-k partial g of
a degree-t form, makes the rows of order k = min(h - 1, t) span a
point's rows, so every rank is taken on those alone: exactly deg rows
once t >= h - 1.  Every rank keeps only those rows of a matrix built
in full; one builder gives both the exact matrix and its residues mod
a prime.  The exact rank uses fraction-free (Bareiss) elimination on
integer matrices; full row rank mod the one prime ``RANK_PRIME``
certifies full rank, which is what the large verification sweep needs,
and Bareiss settles every other case.  The prime is small enough for
the elimination to run on int32 residues.  The sweep's schemes all
live on one point set, so :func:`regularities` scans them together.  It
builds one bank of the lines through at least four of the points; the
heaviest bank line of each scheme bounds where its scan starts.  At
that first degree a chain of residuations along bank lines (Horace's
method) empties most schemes, which proves h1 = 0 with no matrix at
all.  A chain stops before its residual would pass the counting bound,
so the residual it leaves is ranked in its place, at a lower degree and
with fewer rows, and full rank there proves h1 = 0 for the scheme.
Residuals and the originals they do not settle are ranked per degree
from one bank of conditions rows, in zero-padded stacks mod the prime.
An original short of full rank there has h1 > 0 proved by a conic of
two bank lines or settled by Bareiss.  Each shortcut proves one
direction only: residuation h1 = 0, the conic h1 > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

import numpy as np

from .arrangement import IncidenceTable, incidence_sums
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

# regularities ranks the jobs of one degree in zero-padded stacks of at
# most _STACK_CELLS cells.  On the bundled sweep, with residuals ranked
# in place of their schemes, the largest stack has 19,600 cells and
# none is split; the cap bounds the memory of sweeps residuation leaves
# larger.
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


def _conditions(scheme: FatPointScheme, t: int, q: int | None = None) -> np.ndarray:
    """Conditions matrix for degree-t forms: exact, or reduced mod q.

    Row (a, b, c) of a point (x : y : z) at the monomial with exponents
    (e0, e1, e2) is D_x[a, e0] * D_y[b, e1] * D_z[c, e2] with the
    per-coordinate tables D_v[a, e] = (e)_a * v^(e - a); the falling
    factorial (e)_a vanishes for e < a, which zeroes the monomials a
    derivative kills.  Rows come point after point, in ``_orders``
    order.  With no modulus the entries are Python integers (an object
    array); with one they are int64 residues, reduced after each product.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    if q is None:
        dtype, reduce = object, (lambda a: a)
    else:
        assert 0 < q < 2**31, "int64 products of two residues need q < 2^31"
        dtype, reduce = np.int64, (lambda a: a % q)
    exps = np.array(monomials(t), dtype=np.int64).reshape(-1, 3)
    if not scheme.points:
        return np.zeros((0, len(exps)), dtype=dtype)
    mult = np.array([h for _, h in scheme.points], dtype=np.int64)
    hmax = int(mult.max())
    coords = [reduce(c) for pnt, _ in scheme.points for c in pnt.coords]
    values, which = np.unique(np.array(coords, dtype=dtype), return_inverse=True)
    which = which.reshape(-1, 3)

    e = np.arange(t + 1, dtype=np.int64)
    powers = np.ones((len(values), t + 1), dtype=dtype)
    for k in range(1, t + 1):
        powers[:, k] = reduce(powers[:, k - 1] * values)
    falling = np.ones((hmax, t + 1), dtype=dtype)
    for a in range(1, hmax):
        falling[a] = reduce(falling[a - 1] * np.maximum(e - a + 1, 0))
    shift = np.maximum(e[None, :] - np.arange(hmax)[:, None], 0)
    tables = reduce(falling[None, :, :] * powers[:, shift])  # value x a x e

    # one row per point and derivative order (a, b, c) with a + b + c < h:
    # the first C(h+2, 3) rows of the order table of the largest multiplicity
    size = mult * (mult + 1) * (mult + 2) // 6
    pt = np.repeat(np.arange(mult.size), size)
    within = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    order = np.array(_orders(hmax), dtype=np.int64)[within]
    out = tables[which[pt, 0][:, None], order[:, :1], exps[:, 0]]
    for k in (1, 2):
        out = reduce(out * tables[which[pt, k][:, None], order[:, k:k + 1], exps[:, k]])
    return out


def conditions_matrix(scheme: FatPointScheme, t: int) -> list[list[int]]:
    """Exact integer conditions matrix for degree-t forms."""
    return _conditions(scheme, t).tolist()


def conditions_matrix_mod(scheme: FatPointScheme, t: int, q: int) -> np.ndarray:
    """Conditions matrix reduced mod q (a reduction of the exact one), as int64."""
    return _conditions(scheme, t, q)


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

    Bareiss runs on the Euler-reduced rows (:func:`_spanning_rows` of
    the exact matrix), which have the rank of the whole matrix for
    every t >= 0: deg rows once t >= h - 1 at every point.
    """
    if t < 0:
        raise ValueError("degree must be nonnegative")
    if not scheme.points:
        return 0
    return bareiss_rank(_conditions(scheme, t)[_spanning_rows(scheme, t)])


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


def _line_bank(points) -> np.ndarray:
    """Incidences (lines x points) of the lines through at least four of ``points``.

    Each is found as the join of a pair of the points.  Incidence is
    exact: the join of two integer points is their cross product, and a
    point lies on it when their dot product vanishes.  In int64 the dot
    products stay within 6 c^3 < 2^63 for coordinates up to c = 2^20;
    larger coordinates are multiplied as Python integers.

    A line through k of the points is the join of C(k, 2) pairs; one row
    is kept per line, the rows sorted lexicographically (first point
    first), the order of ``np.unique(rows, axis=0)``.  Sorting the rows'
    packed bits gives it in 0.12 ms on the bundled points, against 4.4 ms.
    """
    xyz = np.array([pnt.coords for pnt in points], dtype=object).reshape(-1, 3)
    if not xyz.size or np.abs(xyz).max() <= 2**20:
        xyz = xyz.astype(np.int64)
    a, b = np.triu_indices(len(xyz), 1)
    joins = np.cross(xyz[a], xyz[b])
    # a repeated point joins to zero, which is no line
    on = ((joins @ xyz.T) == 0) & (joins != 0).any(axis=1)[:, None]
    rows = on[on.sum(axis=1) >= 4]
    if not len(rows):
        return rows
    packed = np.packbits(rows, axis=1)
    order = np.lexsort(packed.T[::-1])
    packed, rows = packed[order], rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (packed[1:] != packed[:-1]).any(axis=1)
    return rows[first]


def _fits(s, t):
    """Whether a line meeting the scheme in degree s may be residuated in degree t."""
    return (s > 0) & (s <= t + 1)


def _residual(rich, mults, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a greedy chain of line residuations leaves of each scheme.

    For a line L whose points have multiplicities summing to s_L, the
    residual sequence
    0 -> I_{Res_L Z}(t - 1) -> I_Z(t) -> O_L(t - s_L) -> 0, with
    h1(O_P1(t - s_L)) = 0 when s_L <= t + 1, makes h1(I_Z(t)) = 0 follow
    from h1(I_{Res_L Z}(t - 1)) = 0, where Res_L Z lowers the multiplicity
    of each point of Z on L by one, and its degree by s_L (Horace's
    method: Hirschowitz, Manuscripta Math. 50, 1985).  So h1 = 0 for the
    last residual of a chain proves it for Z in degree t; the empty
    scheme has h1 = 0 in every degree.

    A line is peeled in degree t only when it fits (:func:`_fits`) and
    deg - s_L <= C(t + 1, 2): a residual past the counting bound has
    h1 > 0, so no chain through it can end well.  Every residual of a
    scheme with deg <= C(t + 2, 2) therefore keeps deg' <= C(t' + 2, 2),
    so t' >= h' - 1 at each of its points.  The lines are the ``rich``
    ones (:func:`_line_bank`) and, for each point, a line through it
    alone, whose s_L is the point's multiplicity (a point lies on
    infinitely many lines over Q, and only finitely many meet another
    point).  Each step takes the heaviest line allowed; a chain stops
    when none is, or when it empties the scheme.  Line sums come from
    :func:`incidence_sums`; the multiplicities and degrees are held in
    int16 whenever the sums and degrees fit.

    Returns the residual multiplicities, degrees and degrees t' (int64).
    """
    small = max(int(t.max(initial=0)) + 1, int(mults.sum(axis=1).max(initial=0))) < 2**15
    dtype = np.int16 if small else np.int64
    h, t = mults.astype(dtype), t.astype(dtype)
    deg = (mults * (mults + 1) // 2).sum(axis=1)
    lines = np.concatenate([rich, np.eye(h.shape[1], dtype=bool)])
    live = np.flatnonzero(deg)
    while live.size:
        hl, tl = h[live], t[live].astype(np.int64)
        s = np.concatenate([incidence_sums(hl, rich), hl], axis=1, dtype=dtype)
        allowed = _fits(s, tl[:, None]) & (s >= (deg[live] - tl * (tl + 1) // 2)[:, None])
        best = (s * allowed).argmax(axis=1)
        step = allowed[np.arange(live.size), best]
        live, hl, best = live[step], hl[step], best[step]
        deg[live] -= s[step, best]
        hl -= lines[best] & (hl > 0)
        h[live] = hl
        t[live] -= 1
        live = live[deg[live] > 0]
    return h.astype(np.int64), deg, t.astype(np.int64)


def _conic_lengths(lines, mults) -> np.ndarray:
    """Length of each scheme on each conic L1 + L2 of two ``lines`` (schemes x pairs).

    Off the node a fat point hP meets L1 + L2 in its line's length h; at
    the node it has length 2h - 1 (the monomials of degree < h that xy
    does not divide), so the length is s1 + s2, less one when the node is
    a point of the scheme.
    """
    a, b = np.triu_indices(len(lines), 1)
    on = incidence_sums(mults, lines)
    nodes = incidence_sums(mults > 0, lines[a] & lines[b])
    return on[:, a] + on[:, b] - nodes


def _two_line_witness(lines, mults, t) -> np.ndarray:
    """Which schemes a conic of two ``lines`` proves to have h1 > 0 in degree t >= 0.

    The residual sequence of a conic C,
    0 -> I_{Res_C Z}(t - 2) -> I_Z(t) -> I_{Z∩C, C}(t) -> 0, has
    h2(O(t - 2)) = 0, so h1(I_Z(t)) >= h1(I_{Z∩C, C}(t)) >= s - h0(O_C(t))
    = s - 2t - 1 for Z∩C of length s (:func:`_conic_lengths`); a length
    s >= 2t + 2 proves h1 > 0.
    """
    return (_conic_lengths(lines, mults) >= 2 * t + 2).any(axis=1)


def regularities(points, mults) -> np.ndarray:
    """Regularity of many fat-point schemes on one point set, in one scan.

    Row k of ``mults`` gives the multiplicity of each of ``points`` in
    scheme k (values <= 0 leave the point out).  Each scheme gets the
    regularity of ``regularity(scheme, fast=True)``, from proofs alone:

    - t0 is the larger of the counting bound, the smallest t with
      C(t+2, 2) >= deg, and s - 1 for the heaviest line of the line bank
      (:func:`_line_bank`), whose points' multiplicities sum to s: the
      scheme restricts to a degree-s scheme on it, which forces h1 > 0
      in every degree t <= s - 2.  So h1 > 0 at t0 - 1;
    - at t0, a chain of residuations along the same lines
      (:func:`_residual`) reduces each scheme to a residual Res in a
      degree t' <= t0, and h1(I_Res(t')) = 0 proves h1 = 0 at t0, so
      reg = t0 + 1.  An empty residual proves it without a matrix;
    - the rest is one level-ordered loop over jobs, each a scheme with
      its degree: a residual at t' (when the chain took a step), or an
      original scheme from t0 on.  A job's Euler-reduced conditions
      matrix mod ``RANK_PRIME`` (:func:`_euler_rows` of what
      :func:`conditions_matrix_mod` builds) has exactly its deg rows,
      since deg <= C(t+2, 2) gives t >= h - 1 at every point, selected
      from one bank per level: the conditions matrix of all points at
      the largest multiplicity, cast once to the elimination's dtype,
      so the gathered stacks are eliminated without another reduction;
    - the jobs at one level are ranked in stacks of at most
      ``_STACK_CELLS`` cells, each padded with zero rows (which leave a
      rank alone) to its largest deg.  Full rank certifies h1 = 0 for
      the job: a residual's proves reg = t0 + 1, and an original's at t
      proves reg = t + 1;
    - a residual short of full rank decides nothing, and its original
      joins the jobs at t0.  An original short of it at t has h1 > 0
      proved by a conic of two bank lines (:func:`_two_line_witness`) or
      settled by its exact rank (:func:`hilbert_rank`, by Bareiss), and
      moves on to t + 1 only when h1 does not vanish there.

    Both bounds are at most the sum of multiplicities minus one, below
    the scan cap 3 + that sum; the cap is checked at every ranked degree.
    Each job is ranked mod the prime at most once per degree.
    """
    points = tuple(points)
    mults = np.clip(np.asarray(mults, dtype=np.int64).reshape(-1, len(points)), 0, None)
    regs = np.zeros(mults.shape[0], dtype=np.int64)
    deg = (mults * (mults + 1) // 2).sum(axis=1)
    if not deg.any():
        return regs
    bound = 3 + mults.sum(axis=1)
    rich = _line_bank(points)
    triangular = np.array([comb(t + 2, 2) for t in range(int(bound.max()) + 1)])
    heaviest = incidence_sums(mults, rich).max(axis=1, initial=0)
    t = np.maximum(heaviest - 1, np.searchsorted(triangular, deg))
    live = np.nonzero(deg)[0]

    res, res_deg, res_t = _residual(rich, mults[live], t[live])
    emptied = live[res_deg == 0]
    regs[emptied] = t[emptied] + 1
    stalled = res_deg > 0
    stepped = stalled & (res_t < t[live])
    if not stalled.any():
        return regs

    # the jobs: the residuals of the chains that took a step, then the
    # original of every stalled scheme, held back while its residual is
    # pending
    residuals = int(stepped.sum())
    owner = np.concatenate([live[stepped], live[stalled]])
    job = np.concatenate([res[stepped], mults[live[stalled]]])
    level_of = np.concatenate([res_t[stepped], t[live[stalled]]])
    original_of = residuals + np.flatnonzero(stepped[stalled])
    pending = np.ones(owner.size, dtype=bool)
    pending[original_of] = False

    # every job's bank rows, job after job, point after point: the
    # C(h+1, 2) rows of order h - 1 of each point's block, deg rows in all
    job_deg = (job * (job + 1) // 2).sum(axis=1)
    hmax = int(job.max())
    which, i = np.nonzero(job)
    bank_rows = _euler_rows(job[which, i], level_of[which], i * comb(hmax + 2, 3))
    assert bank_rows.size == job_deg.sum(), "every job has t >= h - 1"
    first_row = np.cumsum(job_deg) - job_deg
    full = FatPointScheme(tuple((pnt, hmax) for pnt in points))
    q = RANK_PRIME

    while pending.any():
        level = int(level_of[pending].min())
        now = np.flatnonzero(pending & (level_of == level))
        over = owner[now[bound[owner[now]] < level]]
        if over.size:
            raise ArithmeticError(f"regularity scan exceeded bound {int(bound[over[0]])}")
        bank = conditions_matrix_mod(full, level, q).astype(kernel_dtype(q))
        per_stack = max(1, _STACK_CELLS // (int(job_deg[now].max()) * bank.shape[1]))
        certified = []
        for chunk in np.array_split(now, ceil(now.size / per_stack)):
            span = np.arange(job_deg[chunk].max())
            real = span < job_deg[chunk][:, None]
            stack = bank[bank_rows[np.where(real, first_row[chunk][:, None] + span, 0)]]
            stack[~real] = 0
            certified.append(ranks_mod(stack, q) == job_deg[chunk])
        certified = np.concatenate(certified)
        pending[now] = False

        residual = now < residuals
        proved = owner[now[residual & certified]]
        regs[proved] = t[proved] + 1
        pending[original_of[now[residual & ~certified]]] = True
        regs[owner[now[~residual & certified]]] = level + 1
        short = now[~residual & ~certified]
        if not short.size:
            continue
        witnessed = _two_line_witness(rich, job[short], level)
        moved = short[witnessed].tolist()
        for j in short[~witnessed].tolist():
            k = owner[j]
            if hilbert_rank(fat_points(points, mults[k]), level) == deg[k]:
                regs[k] = level + 1
            else:
                moved.append(j)
        level_of[moved] += 1
        pending[moved] = True
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
