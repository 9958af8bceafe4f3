"""Triangle configurations: three fixed points, three axis lines, and the
closing triangle of variable points/lines.

A configuration is determined by fixed points P, Q, R together with the
axis lines {x0=0}, {x1=0}, {x2=0}.  A solution is a triple of points
X, Y, Z on the axis lines and lines L_P, L_Q, L_R through P, Q, R with
L_P = XY, L_Q = XZ, L_R = YZ.  Solutions correspond to fixed points of
the projectivity of the middle axis obtained by composing the three
perspectivities Y -> Z (center R), Z -> X (center Q), X -> Y (center P),
so the solution count and scheme structure are read off a 2x2 matrix.

Chart convention: the middle axis {x1=0} is coordinatized by the chart
sending the plane point (a : 0 : b) to the column vector (a, -b).  The
matrix returned by :func:`composite_projectivity` is written in that
chart, and fixed points are reported by filling the eigenvector back
into the middle slot, i.e. the vector (v0, v1) prints as (v0 : 0 : v1).
Use :func:`chart_to_plane` to convert such a chart point to the actual
plane point (which flips the sign of the last coordinate).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .projective import (
    ProjectiveLine,
    ProjectivePoint,
    cross,
    incident,
    join,
    line,
    normalize_triple,
    point,
)

AXIS_X = line(1, 0, 0)  # x0 = 0, carries X
AXIS_Y = line(0, 1, 0)  # x1 = 0, carries Y
AXIS_Z = line(0, 0, 1)  # x2 = 0, carries Z

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


class DegenerateProjection(ValueError):
    """A perspectivity center lies on its target line (map undefined)."""


class Kind(enum.Enum):
    TWO_REDUCED_POINTS = "two_reduced_points"
    DOUBLE_POINT = "double_point"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class TriangleData:
    """Fixed data of a triangle configuration.

    Coincident centers are allowed here (they classify as degenerate
    through the scalar-matrix branch); centers on their target axis are
    rejected when the composite is formed.
    """

    P: ProjectivePoint
    Q: ProjectivePoint
    R: ProjectivePoint

    def __post_init__(self):
        for p in (self.P, self.Q, self.R):
            if incident(p, AXIS_Y):
                raise ValueError(f"{p} lies on the middle axis {AXIS_Y}")


@dataclass(frozen=True)
class Classification:
    kind: Kind
    matrix: Matrix2 | None
    discriminant: int
    fixed_points: tuple[ProjectivePoint, ...]  # chart points on the middle axis
    fixed_point_count: int                     # counted with eigenstructure
    rational_fixed_points: bool
    reason: str = ""


@dataclass(frozen=True)
class Solution:
    """A full solution with all twelve incidences verified."""

    X: ProjectivePoint
    Y: ProjectivePoint
    Z: ProjectivePoint
    L_P: ProjectiveLine
    L_Q: ProjectiveLine
    L_R: ProjectiveLine


def _normalize_matrix2(m: Matrix2) -> Matrix2:
    flat = [m[0][0], m[0][1], m[1][0], m[1][1]]
    g = 0
    for x in flat:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero matrix")
    flat = [x // g for x in flat]
    for x in flat:
        if x:
            if x < 0:
                flat = [-y for y in flat]
            break
    return ((flat[0], flat[1]), (flat[2], flat[3]))


def proj_equal_matrix2(a: Matrix2, b: Matrix2) -> bool:
    """Equality up to a nonzero rational scalar."""
    return _normalize_matrix2(a) == _normalize_matrix2(b)


def composite_projectivity(data: TriangleData) -> Matrix2:
    """The composed perspectivity of the middle axis, as a primitive 2x2.

    Composes projection from R onto {x2=0}, then from Q onto {x0=0},
    then from P onto {x1=0}, restricted to {x1=0} and expressed in the
    chart of the module docstring.  Raises DegenerateProjection when a
    center sits on its target line.

    Projection from C onto the line M sends x to (C.M) x - (M.x) C.
    From R onto {x2=0} the point (a : 0 : b) goes to (r2 a - r0 b :
    -r1 b : 0), then from Q onto {x0=0} and from P onto {x1=0}; the
    product of the three 3x3 matrices, restricted to the middle axis and
    conjugated by the chart diag(1, -1), is the 2x2 below.
    """
    p0, p1, p2 = data.P.coords
    q0, q1, q2 = data.Q.coords
    r0, r1, r2 = data.R.coords
    if q0 == 0:
        raise DegenerateProjection(f"center {data.Q} lies on target {AXIS_X}")
    if r2 == 0:
        raise DegenerateProjection(f"center {data.R} lies on target {AXIS_Z}")
    return _normalize_matrix2((
        (p0 * q1 * r2, p0 * (q1 * r0 - q0 * r1)),
        (r2 * (p1 * q2 - p2 * q1), p1 * q2 * r0 + p2 * q0 * r1 - p2 * q1 * r0),
    ))


def chart_to_plane(p: ProjectivePoint) -> ProjectivePoint:
    """Plane point for a chart point of the middle axis (flips last sign)."""
    a, b, c = p.coords
    if b != 0:
        raise ValueError(f"{p} is not on the middle axis")
    return point(a, 0, -c)


def discriminant(P: ProjectivePoint, Q: ProjectivePoint, R: ProjectivePoint) -> int:
    """The multidegree (2,2,2) discriminant on primitive representatives.

    Vanishes exactly when the composed perspectivity has a repeated
    eigenvalue, i.e. when the configuration degenerates to a double
    point (equals the characteristic-polynomial discriminant of the
    unreduced composite matrix).
    """
    p, q, r = P.coords, Q.coords, R.coords
    s = p[0] * q[1] * r[2] + p[1] * q[2] * r[0] + p[2] * q[0] * r[1] - p[2] * q[1] * r[0]
    return s * s - 4 * p[0] * p[1] * q[0] * q[2] * r[1] * r[2]


def _eigen_fixed_vectors(m: Matrix2):
    """Eigenvectors of a 2x2 integer matrix over Q, as primitive pairs.

    Returns (disc, vectors, rational): two vectors for distinct rational
    eigenvalues, one for a repeated eigenvalue with 1-dim eigenspace,
    none for an irrational conjugate pair, None marker for scalar.
    """
    (a, b), (c, d) = m
    if b == 0 and c == 0 and a == d:
        return 0, None, True  # scalar: fixes the axis pointwise
    tr = a + d
    disc = (a - d) ** 2 + 4 * b * c
    if disc == 0:
        return 0, [_kernel_vector(m, tr)], True
    root = isqrt(abs(disc))
    if disc < 0 or root * root != disc:
        return disc, [], False  # conjugate pair, not rational
    return disc, [_kernel_vector(m, eig2) for eig2 in (tr + root, tr - root)], True


def _kernel_vector(m: Matrix2, x: int):
    """Primitive kernel vector of the singular 2m - x*I, x twice an eigenvalue."""
    (a, b), (c, d) = m
    if 2 * a - x or b:
        return _normalize_pair((-2 * b, 2 * a - x))
    return _normalize_pair((x - 2 * d, 2 * c))


def _normalize_pair(v):
    g = gcd(abs(v[0]), abs(v[1]))
    v = (v[0] // g, v[1] // g)
    for x in v:
        if x:
            return v if x > 0 else (-v[0], -v[1])
    raise ValueError("zero eigenvector")


def classify(P: ProjectivePoint, Q: ProjectivePoint, R: ProjectivePoint) -> Classification:
    """Solution structure of the configuration via the 2x2 eigenproblem.

    Fixed points are chart points (see module docstring); apply
    :func:`chart_to_plane` for the plane points.
    """
    delta = discriminant(P, Q, R)
    try:
        m = composite_projectivity(TriangleData(P, Q, R))
    except ValueError as exc:
        return Classification(Kind.DEGENERATE, None, delta, (), 0, False, str(exc))
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0:
        return Classification(
            Kind.DEGENERATE, m, delta, (), 0, False, "composite not invertible"
        )
    disc, vecs, rational = _eigen_fixed_vectors(m)
    if vecs is None:
        return Classification(
            Kind.DEGENERATE, m, delta, (), 0, True, "composite is scalar"
        )
    to_point = lambda v: point(v[0], 0, v[1])
    if disc == 0:
        return Classification(
            Kind.DOUBLE_POINT, m, delta, (to_point(vecs[0]),), 1, True
        )
    return Classification(
        Kind.TWO_REDUCED_POINTS,
        m,
        delta,
        tuple(to_point(v) for v in vecs),
        2,
        rational,
    )


def solve_realization(
    P: ProjectivePoint, Q: ProjectivePoint, R: ProjectivePoint
) -> list[Solution]:
    """Reconstruct full solutions from the rational fixed points.

    For each fixed point: Y is its plane point on the middle axis, Z the
    image of Y from center R on {x2=0}, X the image of Z from center Q
    on {x0=0}; the lines are the joins.  All twelve incidences are
    re-verified; any failure is an internal-consistency error.
    """
    cls = classify(P, Q, R)
    if cls.kind is Kind.DEGENERATE:
        raise ValueError(f"degenerate configuration: {cls.reason}")
    solutions = []
    for chart_pt in cls.fixed_points:
        y = chart_to_plane(chart_pt)
        z = _project(R, AXIS_Z, y)
        x = _project(Q, AXIS_X, z)
        l_p = join(x, y)
        l_q = join(x, z)
        l_r = join(y, z)
        sol = Solution(x, y, z, l_p, l_q, l_r)
        _verify_solution(P, Q, R, sol)
        solutions.append(sol)
    return solutions


def _project(center, target, x):
    return point(normalize_triple(cross(cross(center.coords, x.coords), target.coeffs)))


def _verify_solution(P, Q, R, sol: Solution):
    incidences = [
        (P, sol.L_P), (Q, sol.L_Q), (R, sol.L_R),
        (sol.X, AXIS_X), (sol.Y, AXIS_Y), (sol.Z, AXIS_Z),
        (sol.X, sol.L_P), (sol.Y, sol.L_P),
        (sol.X, sol.L_Q), (sol.Z, sol.L_Q),
        (sol.Y, sol.L_R), (sol.Z, sol.L_R),
    ]
    for pt, ln in incidences:
        if not incident(pt, ln):
            raise AssertionError(
                f"internal consistency: {pt} not on {ln} in reconstructed solution"
            )


# ---------------------------------------------------------------------------
# seeded search for double-point triples


def double_point_completions(
    P: ProjectivePoint, Q: ProjectivePoint, r1: int, r2: int
) -> list[ProjectivePoint]:
    """All R = (r0 : r1 : r2) with vanishing discriminant, given the rest.

    The discriminant is (a r0 + b)^2 - c with c independent of r0, so
    rational solutions exist iff c is a perfect square.
    """
    p, q = P.coords, Q.coords
    a = p[1] * q[2] - p[2] * q[1]
    b = p[0] * q[1] * r2 + p[2] * q[0] * r1
    c = 4 * p[0] * p[1] * q[0] * q[2] * r1 * r2
    if a == 0:
        return []  # degenerate pencil: discriminant independent of r0
    if c < 0:
        return []
    s = isqrt(c)
    if s * s != c:
        return []
    out = []
    for sign in {s, -s}:
        r0 = Fraction(sign - b, a)
        cand = point(r0.numerator, r1 * r0.denominator, r2 * r0.denominator)
        if cand not in out:
            out.append(cand)
    return sorted(out)


# Candidates drawn by search_double_point before it gives up.
MAX_SCAN_ATTEMPTS = 200_000

# Mersenne Twister words drawn per call by search_double_point; a scan of
# ten triples below height 10 reads about 2,200.
WORD_BLOCK = 2_048


def _randint_blocks(rng: random.Random, h: int):
    """Yield, block after block, the values ``rng.randint(-h, h)`` would return.

    For 2h + 1 < 2^32 with bit length k, ``randint`` reads one 32-bit
    word per try, keeps its top k bits and tries again while they are at
    least 2h + 1.  ``getrandbits(32 m)`` returns the next m words, least
    significant first, so replaying that rule on them gives the same
    values in the same order.
    """
    n = 2 * h + 1
    shift = 32 - n.bit_length()
    while True:
        bits = rng.getrandbits(32 * WORD_BLOCK).to_bytes(4 * WORD_BLOCK, "little")
        values = np.frombuffer(bits, dtype="<u4") >> shift
        yield values[values < n].astype(np.int64) - h


def _may_complete(draws: np.ndarray, h: int) -> np.ndarray:
    """Which rows (P, Q, r1, r2) of ``draws`` can give a double-point completion.

    A row is out when P or Q is the zero triple, r1 = r2 = 0, or, as in
    :func:`double_point_completions`, a = 0, c < 0 or c is not a square.
    Normalizing P and Q divides a by a nonzero integer and c by a square,
    so the tests hold on the raw draws.  The sign of c is the product of
    the signs; c itself is formed only while 4 h^6 < 2^53, where int64
    and float64 hold it exactly, and above that no row is dropped for it.
    """
    p0, p1, p2, q0, q1, q2, r1, r2 = draws.T
    keep = draws[:, 0:3].any(axis=1) & draws[:, 3:6].any(axis=1) & ((r1 != 0) | (r2 != 0))
    keep &= p1 * q2 != p2 * q1
    keep &= np.sign(p0) * np.sign(p1) * np.sign(q0) * np.sign(q2) * np.sign(r1) * np.sign(r2) >= 0
    if 4 * h**6 < 2**53:
        c = 4 * p0 * p1 * q0 * q2 * r1 * r2
        root = np.sqrt(np.abs(c)).round().astype(np.int64)
        keep &= root * root == c
    return keep


def search_double_point(height_bound: int, count: int, seed: int) -> list[tuple]:
    """Seeded scan for triples classifying as a double point.

    Draws P, Q and two coordinates of R at random below the height
    bound, completes R through the vanishing discriminant, and keeps
    triples whose classification is DOUBLE_POINT, until ``count`` are
    found or ``MAX_SCAN_ATTEMPTS`` candidates are drawn.  Deterministic
    for a given seed; results sorted canonically.

    The draws are those of eight ``randint(-height_bound, height_bound)``
    calls per candidate, replayed in blocks (:func:`_randint_blocks`), and
    candidates that cannot complete are dropped in bulk
    (:func:`_may_complete`) before any point is built.  Raises
    ValueError unless 1 <= height_bound < 2^31.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    if height_bound >= 2**31:
        raise ValueError("height bound must be below 2^31")
    found = set()
    attempts = 0
    pending = np.empty(0, dtype=np.int64)
    for values in _randint_blocks(random.Random(seed), height_bound):
        if len(found) >= count or attempts >= MAX_SCAN_ATTEMPTS:
            break
        pending = np.concatenate([pending, values])
        usable = min(len(pending) // 8, MAX_SCAN_ATTEMPTS - attempts)
        draws = pending[: 8 * usable].reshape(usable, 8)
        pending = pending[8 * usable:]
        attempts += usable
        for coords in draws[_may_complete(draws, height_bound)].tolist():
            try:
                P = point(coords[0:3])
                Q = point(coords[3:6])
                for R in double_point_completions(P, Q, coords[6], coords[7]):
                    if len({P, Q, R}) != 3:
                        continue
                    if classify(P, Q, R).kind is Kind.DOUBLE_POINT:
                        found.add((P, Q, R))
            except (ValueError, ZeroDivisionError):
                continue
            if len(found) >= count:
                break
    return sorted(found)[:count]


__all__ = [
    "AXIS_X",
    "AXIS_Y",
    "AXIS_Z",
    "Classification",
    "DegenerateProjection",
    "Kind",
    "Solution",
    "TriangleData",
    "chart_to_plane",
    "classify",
    "composite_projectivity",
    "discriminant",
    "double_point_completions",
    "proj_equal_matrix2",
    "search_double_point",
    "solve_realization",
]
