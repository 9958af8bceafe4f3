"""Line arrangements: closure construction, incidence tables, the bundled
34-line configuration, and its structural checks.

The closure construction iterates "lines through >= 2 known points" /
"points on >= 2 known lines" starting from the four base points
(1:0:0), (0:1:0), (0:0:1), (1:1:1).  The bundled configuration is the
third closure stage plus six chosen lines pairing up at three designated
points P, Q, R, plus the three lines of the associated triangle
configuration.  Everything is deduplicated through canonical coordinates
and ordered lexicographically, so downstream indices are stable.

Crossings come from one map, :func:`intersection_points`, which meets
each pair of lines once; the singular points, the structural checks and
the incidence problem read it, and a sub-arrangement's crossings are a
view of it (:func:`sub_crossings`).
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field, fields
from importlib import resources
from itertools import combinations

import numpy as np

from .projective import (
    ProjectiveLine,
    ProjectivePoint,
    height,
    join,
    line,
    meet,
    min_entry_height,
    point,
)

BASE_POINTS = (point(1, 0, 0), point(0, 1, 0), point(0, 0, 1), point(1, 1, 1))

DATA_ENV_VAR = "RIGIDSURF_DATA"


class HeartMismatchError(RuntimeError):
    """Recomputed configuration disagrees with the bundled dataset."""


@dataclass(frozen=True)
class Arrangement:
    """An ordered list of pairwise distinct lines."""

    lines: tuple[ProjectiveLine, ...]

    def __post_init__(self):
        if len(set(self.lines)) != len(self.lines):
            raise ValueError("arrangement lines must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.lines)

    def index(self, l: ProjectiveLine) -> int:
        return self.lines.index(l)


@dataclass(frozen=True)
class IncidenceTable:
    """Singular points (on >= 3 lines) of an arrangement.

    ``points`` is sorted lexicographically on canonical coordinates;
    ``mu[k]`` counts the lines through ``points[k]``; ``lines_through[k]``
    holds their indices; ``points_on[i]`` the singular points on line i;
    ``incidence`` is the same data as a matrix.
    """

    arrangement: Arrangement
    points: tuple[ProjectivePoint, ...]
    mu: tuple[int, ...]
    lines_through: tuple[tuple[int, ...], ...]
    points_on: tuple[tuple[int, ...], ...]

    def point_index(self, p: ProjectivePoint) -> int:
        return self.points.index(p)

    def is_member(self, line_idx: int, point_idx: int) -> bool:
        return line_idx in self.lines_through[point_idx]

    @property
    def num_points(self) -> int:
        return len(self.points)

    @functools.cached_property
    def incidence(self) -> np.ndarray:
        """Read-only m x n int64 matrix, 1 where line i passes through points[k]."""
        inc = np.zeros((self.num_points, len(self.arrangement.lines)), dtype=np.int64)
        for k, through in enumerate(self.lines_through):
            inc[k, list(through)] = 1
        inc.flags.writeable = False
        return inc


@dataclass(frozen=True)
class ClosureStage:
    lines: tuple[ProjectiveLine, ...]
    points: tuple[ProjectivePoint, ...]


def closure(start_points, iterations: int) -> list[ClosureStage]:
    """Alternating lines-through-pairs / points-on-pairs construction.

    Stage i holds all lines through >= 2 points of stage i-1 and all
    points on >= 2 of those lines.  Outputs are sorted canonically.
    """
    pts = sorted(set(start_points))
    if len(pts) < 2:
        raise ValueError("closure needs at least 2 distinct points")
    stages = []
    for _ in range(iterations):
        lns = sorted({join(p, q) for p, q in combinations(pts, 2)})
        pts = sorted({meet(l, m) for l, m in combinations(lns, 2)})
        stages.append(ClosureStage(tuple(lns), tuple(pts)))
    return stages


def intersection_points(lines_seq) -> dict[ProjectivePoint, set[int]]:
    """The crossing map: every pairwise intersection point, mapped to incident line indices.

    Includes double points.  A line through a crossing meets each other
    line through it there, so the set holds every line through the point.
    """
    found: dict[ProjectivePoint, set[int]] = {}
    lines_seq = list(lines_seq)
    for i, j in combinations(range(len(lines_seq)), 2):
        p = meet(lines_seq[i], lines_seq[j])
        found.setdefault(p, set()).update((i, j))
    return found


def sub_crossings(crossings, subset) -> dict[ProjectivePoint, set[int]]:
    """``intersection_points`` of the lines ``subset``, read off the crossing map.

    ``crossings`` is the map of a whole arrangement and ``subset`` lists
    distinct line indices into it.  A point is a crossing of the
    sub-arrangement exactly when at least two of its lines lie in the
    subset; its lines are renumbered by their position in ``subset``.
    """
    position = {i: k for k, i in enumerate(subset)}
    found: dict[ProjectivePoint, set[int]] = {}
    for p, through in crossings.items():
        kept = {position[i] for i in through if i in position}
        if len(kept) >= 2:
            found[p] = kept
    return found


def singular_points(arr: Arrangement, crossings=None) -> IncidenceTable:
    """Points on >= 3 lines, in deterministic lexicographic order, from the
    arrangement's crossing map (``crossings``, computed when not given)."""
    if crossings is None:
        crossings = intersection_points(arr.lines)
    sing = sorted(p for p, through in crossings.items() if len(through) >= 3)
    lines_through = tuple(tuple(sorted(crossings[p])) for p in sing)
    mu = tuple(len(t) for t in lines_through)
    points_on = tuple(
        tuple(k for k, t in enumerate(lines_through) if i in t)
        for i in range(len(arr.lines))
    )
    return IncidenceTable(arr, tuple(sing), mu, lines_through, points_on)


def gather_index(incidence) -> np.ndarray:
    """The members of each row of a 0/1 ``incidence``, for :func:`gather_sums`.

    Row j lists the columns in row j of ``incidence``, padded to the
    widest row with the column count n, which names a zero row.
    """
    members = np.asarray(incidence).astype(bool)
    rows, n = members.shape
    size = members.sum(axis=1)
    cols = np.full((rows, int(size.max(initial=0))), n)
    k, j = np.nonzero(members)
    cols[k, np.arange(k.size) - np.repeat(np.cumsum(size) - size, size)] = j
    return cols


def narrow_dtype(bound: int) -> type:
    """The narrowest of int16, int32 and int64 that holds every integer of absolute value <= ``bound``."""
    return next((d for d in (np.int16, np.int32) if bound <= np.iinfo(d).max), np.int64)


def narrowed(values, bound: int) -> np.ndarray:
    """``values``, checked to lie within +-``bound``, in its :func:`narrow_dtype` (a copy only if cast)."""
    values = np.asarray(values)
    assert -bound <= values.min(initial=0) and values.max(initial=0) <= bound, f"values exceed {bound}"
    return values.astype(narrow_dtype(bound), copy=False)


def gather_sums(values, index) -> np.ndarray:
    """:func:`incidence_sums` over an incidence given by its :func:`gather_index`.

    ``values`` has one column per column of the incidence.
    """
    values = np.asarray(values)
    width = index.shape[1]
    dtype = narrow_dtype(width * max(abs(int(values.max(initial=0))), abs(int(values.min(initial=0)))))
    padded = np.zeros((values.shape[1] + 1, values.shape[0]), dtype=dtype)
    padded[:-1] = values.T
    out = np.zeros((index.shape[0], values.shape[0]), dtype=dtype)
    for c in range(width):
        out += padded[index[:, c]]
    return np.ascontiguousarray(out.T)


def incidence_sums(values, incidence) -> np.ndarray:
    """``values @ incidence.T`` for a 0/1 ``incidence``, exactly and C-ordered.

    Entry (k, j) adds the entries of row k of ``values`` over the columns
    in row j of ``incidence``.  With at most w members in a row, that is
    w gathers of rows of the transposed values, padded with a zero row,
    added in the :func:`narrow_dtype` of w times the largest absolute
    value, which is the dtype returned.  On 2 cores this was 5-10 times
    faster than numpy's int64 matmul, which has no BLAS, on the sweep's
    products; float BLAS, threaded by default, was slower still.  A
    caller that sums over one incidence many times builds its
    :func:`gather_index` once and calls :func:`gather_sums`.
    """
    return gather_sums(values, gather_index(incidence))


def double_points(arr: Arrangement) -> tuple[ProjectivePoint, ...]:
    crossings = intersection_points(arr.lines)
    return tuple(sorted(p for p, through in crossings.items() if len(through) == 2))


# ---------------------------------------------------------------------------
# the bundled configuration


@dataclass(frozen=True)
class HeartData:
    """The bundled 34-line configuration with its designated structure."""

    arrangement: Arrangement
    line_labels: tuple[tuple[int, ...], ...]
    p: int
    r: int
    P: ProjectivePoint
    Q: ProjectivePoint
    R: ProjectivePoint
    closure_line_indices: tuple[int, ...]   # the closure stage lines
    pair_line_indices: tuple[int, ...]      # six lines pairing up at P, Q, R
    triangle_line_indices: tuple[int, ...]  # lines of the triangle solution
    expected: dict = field(default_factory=dict)

    @property
    def pqr(self) -> tuple[ProjectivePoint, ProjectivePoint, ProjectivePoint]:
        return (self.P, self.Q, self.R)


def data_dir_path() -> str | None:
    return os.environ.get(DATA_ENV_VAR)


def _read_data_text(name: str) -> str:
    override = data_dir_path()
    if override:
        with open(os.path.join(override, name), encoding="utf-8") as fh:
            return fh.read()
    return resources.files("rigidsurf.data").joinpath(name).read_text(encoding="utf-8")


def parse_label_table(text: str, p: int | None = None, r: int | None = None):
    """Parse a TSV of ``index, dual coordinates, label tuple`` rows.

    Raises ValueError naming the first data row that is not an index,
    a nonzero line and integer labels; given ``p`` and ``r``, also the
    first whose label is not r entries in 0..p-1.
    """
    lines_out: list[ProjectiveLine] = []
    labels: list[tuple[int, ...]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        row = raw.strip()
        if not row or row.startswith("#"):
            continue
        cells = row.split("\t")
        if not cells[0].lstrip("-").isdigit():
            continue  # header row
        try:
            values = [int(c) for c in cells]
            if len(values) < 4:
                raise ValueError(f"{len(values)} cells, expected an index and three line coordinates")
            lines_out.append(line(values[1:4]))
            label = tuple(values[4:])
            if r is not None and len(label) != r:
                raise ValueError(f"label {label} of line {values[0]} has {len(label)} entries, expected {r}")
            if p is not None and any(not 0 <= x < p for x in label):
                raise ValueError(f"label {label} of line {values[0]} has an entry outside 0..{p - 1}")
        except ValueError as exc:
            raise ValueError(f"row {number}: {exc}") from None
        labels.append(label)
    return lines_out, labels


def format_label_table(lines_seq, labels) -> str:
    width = len(labels[0]) if labels else 0
    header = "i\ta\tb\tc\t" + "\t".join(f"l{k+1}" for k in range(width))
    rows = [header]
    for k, (l, lab) in enumerate(zip(lines_seq, labels), start=1):
        rows.append("\t".join([str(k), *map(str, l.coeffs), *map(str, lab)]))
    return "\n".join(rows) + "\n"


def load_heart_table(p: int | None = None, r: int | None = None):
    """Lines and labels of the data's ``table1.tsv`` (see :func:`parse_label_table`)."""
    try:
        return parse_label_table(_read_data_text("table1.tsv"), p, r)
    except ValueError as exc:
        raise ValueError(f"table1.tsv {exc}") from None


def load_heart_construction() -> dict:
    return json.loads(_read_data_text("heart.json"))


def build_heart() -> HeartData:
    """Recompute the bundled configuration and cross-check the dataset.

    The closure stage, the six paired lines and the triangle lines are
    rebuilt from the construction inputs; the result must match the
    bundled table exactly (the table fixes the line order 1..34 used by
    the label columns).  Any disagreement raises with a diff.
    """
    from .triangle import solve_realization  # deferred: triangle imports us

    cons = load_heart_construction()
    table_lines, labels = load_heart_table(cons["p"], cons["r"])
    iters = cons["closure_iterations"]
    stages = closure(BASE_POINTS, iters)
    closure_lines = set(stages[-1].lines)

    pair_lines = [line(*c) for c in cons["pair_lines"]]
    pqr = tuple(point(*cons[k]) for k in ("P", "Q", "R"))
    solutions = solve_realization(*pqr)
    if len(solutions) != 1:
        raise HeartMismatchError(
            f"triangle configuration for {pqr} has {len(solutions)} solutions, expected 1"
        )
    tri_lines = [solutions[0].L_P, solutions[0].L_Q, solutions[0].L_R]

    recomputed = closure_lines | set(pair_lines) | set(tri_lines)
    bundled = set(table_lines)
    if recomputed != bundled or len(table_lines) != len(recomputed):
        missing = sorted(bundled - recomputed)
        extra = sorted(recomputed - bundled)
        raise HeartMismatchError(
            f"recomputed configuration differs from bundled table: "
            f"missing={missing} extra={extra}"
        )

    n_closure = len(closure_lines)
    if set(table_lines[:n_closure]) != closure_lines:
        raise HeartMismatchError("bundled table does not list the closure lines first")
    if table_lines[n_closure:n_closure + 6] != pair_lines:
        raise HeartMismatchError("bundled table disagrees with the paired lines block")
    if table_lines[n_closure + 6:] != tri_lines:
        raise HeartMismatchError("bundled table disagrees with the triangle lines block")

    arr = Arrangement(tuple(table_lines))
    return HeartData(
        arrangement=arr,
        line_labels=tuple(labels),
        p=cons["p"],
        r=cons["r"],
        P=pqr[0],
        Q=pqr[1],
        R=pqr[2],
        closure_line_indices=tuple(range(n_closure)),
        pair_line_indices=tuple(range(n_closure, n_closure + 6)),
        triangle_line_indices=tuple(range(n_closure + 6, len(table_lines))),
        expected=cons.get("expected", {}),
    )


def heart_tsv_roundtrip() -> tuple[str, str]:
    """Bundled table text vs the recomputed arrangement serialized back."""
    raw = _read_data_text("table1.tsv")
    heart = build_heart()
    return raw, format_label_table(heart.arrangement.lines, heart.line_labels)


# ---------------------------------------------------------------------------
# structural checks on a heart-shaped arrangement


@dataclass(frozen=True)
class StructureReport:
    """Per-condition verdicts with witnesses for the three checks."""

    pair_lines_hit_closure_points: bool
    pair_lines_meet_at_pqr: bool
    triangle_lines_avoid_extras: bool
    witnesses: dict

    @property
    def checks(self) -> dict:
        """The three verdicts by name, as the reports show them."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "witnesses"}

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def check_structure(heart: HeartData, crossings=None) -> StructureReport:
    """Verify the three properties the elimination argument relies on.

    (1) each paired line passes through >= 2 points of the closure stage;
    (2) the six paired lines meet two-by-two exactly at P, Q, R;
    (3) each triangle line contains no intersection point of the other
        31 lines apart from its own designated point.

    The points of (1) and (3) are crossings of sub-arrangements, read
    off the arrangement's crossing map (``crossings``, computed when not
    given), which also lists every line through each of them.
    """
    arr = heart.arrangement
    if crossings is None:
        crossings = intersection_points(arr.lines)
    cons_points = sub_crossings(crossings, heart.closure_line_indices)
    witnesses: dict = {}

    ok1 = True
    for i in heart.pair_line_indices:
        hits = [p for p in cons_points if i in crossings[p]]
        if len(hits) < 2:
            ok1 = False
            witnesses.setdefault("pair_line_misses", []).append(
                {"line": i + 1, "closure_points_hit": sorted(map(str, hits))}
            )

    ok2 = True
    pair_idx = heart.pair_line_indices
    for designated, (i, j) in zip(
        heart.pqr, (pair_idx[0:2], pair_idx[2:4], pair_idx[4:6])
    ):
        got = meet(arr.lines[i], arr.lines[j])
        if got != designated:
            ok2 = False
            witnesses.setdefault("pair_meeting_mismatch", []).append(
                {"lines": [i + 1, j + 1], "expected": str(designated), "got": str(got)}
            )

    plus_lines = [i for i in range(len(arr)) if i not in heart.triangle_line_indices]
    plus_points = sub_crossings(crossings, plus_lines)
    ok3 = True
    for designated, i in zip(heart.pqr, heart.triangle_line_indices):
        bad = sorted(p for p in plus_points if i in crossings[p] and p != designated)
        if bad:
            ok3 = False
            witnesses.setdefault("triangle_line_extra_points", []).append(
                {"line": i + 1, "points": [str(p) for p in bad]}
            )

    witnesses["plus_point_count"] = len(plus_points)
    return StructureReport(ok1, ok2, ok3, witnesses)


def height_report(heart: HeartData) -> dict:
    """Sanity statistics under both height readings (max and min entry)."""
    lns = [heart.arrangement.lines[i] for i in heart.closure_line_indices]
    pts = list(intersection_points(lns))
    return {
        "closure_points_max_height": max(height(p) for p in pts),
        "closure_points_min_reading": max(min_entry_height(p) for p in pts),
        "closure_lines_max_height": max(height(l) for l in lns),
        "closure_lines_min_reading": max(min_entry_height(l) for l in lns),
        "pqr_heights": [height(p) for p in heart.pqr],
        "pqr_min_readings": [min_entry_height(p) for p in heart.pqr],
    }


# ---------------------------------------------------------------------------
# file formats


def arrangement_to_json(arr: Arrangement, pqr=None) -> str:
    payload: dict = {"lines": [list(l.coeffs) for l in arr.lines]}
    if pqr:
        payload["P"], payload["Q"], payload["R"] = (list(p.coords) for p in pqr)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def arrangement_from_json(text: str):
    """Parse an arrangement file; returns (Arrangement, pqr or None).

    Raises ValueError naming the first line or point that is not three
    integers.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or not isinstance(payload.get("lines"), list):
        raise ValueError('expected an object with a "lines" list')
    lines = payload["lines"]
    arr = Arrangement(tuple(line(_triple(c, f"line {k}")) for k, c in enumerate(lines, start=1)))
    pqr = None
    if all(k in payload for k in ("P", "Q", "R")):
        pqr = tuple(point(_triple(payload[k], k)) for k in ("P", "Q", "R"))
    return arr, pqr


def _triple(value, name: str):
    if not (isinstance(value, list) and len(value) == 3 and all(type(x) is int for x in value)):
        raise ValueError(f"{name} must be three integers, got {json.dumps(value)}")
    return value


__all__ = [
    "Arrangement",
    "BASE_POINTS",
    "ClosureStage",
    "HeartData",
    "HeartMismatchError",
    "IncidenceTable",
    "StructureReport",
    "arrangement_from_json",
    "arrangement_to_json",
    "build_heart",
    "check_structure",
    "closure",
    "double_points",
    "format_label_table",
    "gather_index",
    "gather_sums",
    "height_report",
    "incidence_sums",
    "intersection_points",
    "load_heart_construction",
    "load_heart_table",
    "narrow_dtype",
    "narrowed",
    "parse_label_table",
    "singular_points",
    "sub_crossings",
]
