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

from .projective import (
    ProjectiveLine,
    ProjectivePoint,
    cross,
    dot,
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


def _projection_matrix(center: ProjectivePoint, target: ProjectiveLine):
    """3x3 integer matrix of projection from ``center`` onto ``target``.

    x maps to (C.M) x - (M.x) C, the intersection of line(C, x) with M.
    """
    c = center.coords
    m = target.coeffs
    d = dot(c, m)
    if d == 0:
        raise DegenerateProjection(f"center {center} lies on target {target}")
    return [
        [d * (1 if i == j else 0) - c[i] * m[j] for j in range(3)]
        for i in range(3)
    ]


def _matmul3(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


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
    """
    t = _matmul3(
        _projection_matrix(data.P, AXIS_Y),
        _matmul3(
            _projection_matrix(data.Q, AXIS_X),
            _projection_matrix(data.R, AXIS_Z),
        ),
    )
    assert t[1][0] == 0 and t[1][2] == 0, "composite must preserve the middle axis"
    # chart (a:0:b) -> (a,-b) conjugates the raw restriction by diag(1,-1)
    raw = ((t[0][0], -t[0][2]), (-t[2][0], t[2][2]))
    return _normalize_matrix2(raw)


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
        data = TriangleData(P, Q, R)
        m = composite_projectivity(data)
    except (ValueError, DegenerateProjection) as exc:
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


def search_double_point(height_bound: int, count: int, seed: int) -> list[tuple]:
    """Seeded scan for triples classifying as a double point.

    Draws P, Q and two coordinates of R at random below the height
    bound, completes R through the vanishing discriminant, and keeps
    triples whose classification is DOUBLE_POINT.  Deterministic for a
    given seed; results sorted canonically.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    rng = random.Random(seed)
    found = set()
    attempts = 0
    max_attempts = 200_000
    while len(found) < count and attempts < max_attempts:
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
