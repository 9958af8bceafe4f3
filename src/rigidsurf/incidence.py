"""Incidence problems and the elimination fixpoint.

An incidence problem consists of fixed points/lines, named variable
slots, declared point-on-line relations, and a reference realization
satisfying all of them.  Elimination repeatedly replaces a variable
line through two distinct fixed points by their join (dually, a
variable point on two distinct fixed lines by their meet), verifying
each step against the realization.  What survives is the residual
problem; for the bundled configuration it is exactly the triangle
pattern, which certifies the double-point structure.

The problem's point slots and relations come from the arrangement's
crossing map (``arrangement.intersection_points``), which a caller that
holds it passes in, so no pair of lines is met twice.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field

from . import triangle as _triangle
from .arrangement import BASE_POINTS, Arrangement, intersection_points, singular_points
from .arrangement import sub_crossings
from .projective import ProjectiveLine, ProjectivePoint, incident, join, meet


class InconsistencyError(RuntimeError):
    """An eliminated slot's computed coordinates contradict the realization."""


@dataclass(frozen=True)
class IncidenceProblem:
    fixed_points: dict[str, ProjectivePoint]
    fixed_lines: dict[str, ProjectiveLine]
    variable_points: tuple[str, ...]
    variable_lines: tuple[str, ...]
    relations: tuple[tuple[str, str], ...]  # (point slot, line slot)
    realization: dict[str, object]          # coordinates for every variable slot

    def validate(self) -> None:
        point_slots = set(self.fixed_points) | set(self.variable_points)
        line_slots = set(self.fixed_lines) | set(self.variable_lines)
        for p, l in self.relations:
            if p not in point_slots or l not in line_slots:
                raise ValueError(f"relation ({p}, {l}) references unknown slots")
        for name in (*self.variable_points, *self.variable_lines):
            if name not in self.realization:
                raise ValueError(f"variable slot {name} has no realization")
        vals_p = [self.realization[n] for n in self.variable_points]
        vals_l = [self.realization[n] for n in self.variable_lines]
        if len(set(vals_p)) != len(vals_p):
            raise ValueError("variable point realizations must be pairwise distinct")
        if len(set(vals_l)) != len(vals_l):
            raise ValueError("variable line realizations must be pairwise distinct")
        if len(set(self.fixed_points.values())) != len(self.fixed_points):
            raise ValueError("fixed points must be pairwise distinct")
        if len(set(self.fixed_lines.values())) != len(self.fixed_lines):
            raise ValueError("fixed lines must be pairwise distinct")
        for p, l in self.relations:
            pt = self.fixed_points.get(p) or self.realization[p]
            ln = self.fixed_lines.get(l) or self.realization[l]
            if not incident(pt, ln):
                raise ValueError(f"realization violates relation ({p}, {l})")


@dataclass(frozen=True)
class EliminationStep:
    wave: int
    kind: str            # "line" or "point"
    slot: str
    witnesses: tuple[str, str]
    coords: tuple[int, int, int]


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[EliminationStep, ...]

    @property
    def wave_slots(self) -> list[list[str]]:
        waves: list[list[str]] = []
        for s in self.steps:
            while len(waves) <= s.wave:
                waves.append([])
            waves[s.wave].append(s.slot)
        return waves

    def to_jsonable(self) -> dict:
        return {
            "steps": [
                {
                    "wave": s.wave,
                    "kind": s.kind,
                    "slot": s.slot,
                    "witnesses": list(s.witnesses),
                    "coords": list(s.coords),
                }
                for s in self.steps
            ]
        }


def from_arrangement(arr: Arrangement, extra_points=(), crossings=None) -> IncidenceProblem:
    """Incidence problem of an arrangement with the four base points fixed.

    Variable slots: every line, every singular point other than the base
    points, and any extra points supplied by the caller (with their
    actual incidences).  Requires the base points to be singular points
    of the arrangement.

    The relations of a crossing are its lines in the arrangement's
    crossing map (``crossings``, computed when not given); an extra
    point that is no crossing lies on at most one line, found by an
    incidence test.
    """
    if crossings is None:
        crossings = intersection_points(arr.lines)
    table = singular_points(arr, crossings)
    sing = set(table.points)
    for q in BASE_POINTS:
        if q not in sing:
            raise ValueError(f"base point {q} is not a singular point of the arrangement")

    var_point_set = (sing | set(extra_points)) - set(BASE_POINTS)
    var_points = sorted(var_point_set)
    point_names = {p: f"v{k+1}" for k, p in enumerate(var_points)}
    fixed_points = {f"q{k+1}": q for k, q in enumerate(BASE_POINTS)}
    line_names = {i: f"L{i+1}" for i in range(len(arr.lines))}

    def lines_through(p) -> list[int]:
        if p in crossings:
            return sorted(crossings[p])
        return [i for i, l in enumerate(arr.lines) if incident(p, l)]

    relations = []
    realization: dict[str, object] = {}
    for i, l in enumerate(arr.lines):
        realization[line_names[i]] = l
    for name, q in fixed_points.items():
        relations += [(name, line_names[i]) for i in lines_through(q)]
    for p in var_points:
        realization[point_names[p]] = p
        relations += [(point_names[p], line_names[i]) for i in lines_through(p)]

    prob = IncidenceProblem(
        fixed_points=fixed_points,
        fixed_lines={},
        variable_points=tuple(point_names[p] for p in var_points),
        variable_lines=tuple(line_names[i] for i in range(len(arr.lines))),
        relations=tuple(relations),
        realization=realization,
    )
    prob.validate()
    return prob


def eliminate(prob: IncidenceProblem, seed: int | None = None):
    """Run the elimination fixpoint; returns (reduced problem, trace).

    With ``seed=None`` all rules enabled at a stage fire together, in
    deterministic slot order (the "waves" schedule).  With an integer
    seed, one enabled rule fires at a time in seeded random order; the
    residual problem must not depend on the schedule (confluence).

    The fixpoint is a worklist: witness pairs are computed once per slot
    and recomputed only for the partners of the slots a step fixed.  The
    steps, waves and residue are those of rescanning every variable slot
    each round, as the enabled rules and their slot order are the same.
    """
    rng = random.Random(seed) if seed is not None else None

    fixed_pts = dict(prob.fixed_points)
    fixed_lns = dict(prob.fixed_lines)
    var_pts = set(prob.variable_points)
    var_lns = set(prob.variable_lines)

    line_partners: dict[str, list[str]] = {l: [] for l in var_lns}
    point_partners: dict[str, list[str]] = {p: [] for p in var_pts}
    for p, l in prob.relations:
        if l in line_partners:
            line_partners[l].append(p)
        if p in point_partners:
            point_partners[p].append(l)

    def line_witnesses(l: str):
        seen: list[str] = []
        for p in line_partners[l]:
            if p in fixed_pts and (not seen or fixed_pts[p] != fixed_pts[seen[0]]):
                seen.append(p)
                if len(seen) == 2:
                    return tuple(seen)
        return None

    def point_witnesses(p: str):
        seen: list[str] = []
        for l in point_partners[p]:
            if l in fixed_lns and (not seen or fixed_lns[l] != fixed_lns[seen[0]]):
                seen.append(l)
                if len(seen) == 2:
                    return tuple(seen)
        return None

    def fire(kind: str, slot: str, witnesses, wave: int) -> EliminationStep:
        if kind == "line":
            computed = join(fixed_pts[witnesses[0]], fixed_pts[witnesses[1]])
            expected = prob.realization[slot]
            if computed != expected:
                raise InconsistencyError(
                    f"{slot}: join of {witnesses} gives {computed}, "
                    f"realization has {expected}"
                )
            for p in line_partners[slot]:
                if p in fixed_pts and not incident(fixed_pts[p], computed):
                    raise InconsistencyError(
                        f"{slot}: fixed partner {p} not on computed line {computed}"
                    )
            var_lns.discard(slot)
            fixed_lns[slot] = computed
            return EliminationStep(wave, "line", slot, witnesses, computed.coeffs)
        computed = meet(fixed_lns[witnesses[0]], fixed_lns[witnesses[1]])
        expected = prob.realization[slot]
        if computed != expected:
            raise InconsistencyError(
                f"{slot}: meet of {witnesses} gives {computed}, "
                f"realization has {expected}"
            )
        for l in point_partners[slot]:
            if l in fixed_lns and not incident(computed, fixed_lns[l]):
                raise InconsistencyError(
                    f"{slot}: computed point {computed} not on fixed partner {l}"
                )
        var_pts.discard(slot)
        fixed_pts[slot] = computed
        return EliminationStep(wave, "point", slot, witnesses, computed.coords)

    # The slot order is fixed once: lines before points, each in _slot_key
    # order.  Each slot's witness pair is cached, and the candidates are
    # the sorted positions of the slots that have one.  Witnesses read
    # only the fixed partners of a slot, and a fixed slot never changes,
    # so after a step only the fired slots' still-variable partners can
    # differ from the cache: re-examining those gives the list a full
    # rescan would.  A
    # slot never loses its pair, as two fixed partners in distinct places
    # stay fixed; a newly fixed partner earlier in its list may change it.
    order = [("line", l) for l in sorted(var_lns, key=_slot_key)]
    order += [("point", p) for p in sorted(var_pts, key=_slot_key)]
    line_pos = {slot: k for k, (kind, slot) in enumerate(order) if kind == "line"}
    point_pos = {slot: k for k, (kind, slot) in enumerate(order) if kind == "point"}
    cached = [line_witnesses(s) if kind == "line" else point_witnesses(s) for kind, s in order]
    candidates = [k for k, w in enumerate(cached) if w]
    steps: list[EliminationStep] = []
    wave = 0
    while candidates:
        if rng is None:
            fired, candidates = candidates, []
        else:
            fired = [candidates.pop(rng.randrange(len(candidates)))]
        # a wave fires with the witnesses of the start of its round
        touched: set[int] = set()
        for k in fired:
            kind, slot = order[k]
            steps.append(fire(kind, slot, cached[k], wave))
            cached[k] = None
            if kind == "line":
                touched.update(point_pos[p] for p in line_partners[slot] if p in var_pts)
            else:
                touched.update(line_pos[l] for l in point_partners[slot] if l in var_lns)
        # a partner fired later in the same wave is fixed by now
        touched.difference_update(fired)
        for k in touched:
            kind, slot = order[k]
            w = line_witnesses(slot) if kind == "line" else point_witnesses(slot)
            if w and not cached[k]:
                insort(candidates, k)
            cached[k] = w
        wave += 1

    residual_relations = tuple(
        (p, l) for p, l in prob.relations if p in var_pts or l in var_lns
    )
    reduced = IncidenceProblem(
        fixed_points=fixed_pts,
        fixed_lines=fixed_lns,
        variable_points=tuple(s for kind, s in order if kind == "point" and s in var_pts),
        variable_lines=tuple(s for kind, s in order if kind == "line" and s in var_lns),
        relations=residual_relations,
        realization={
            k: v
            for k, v in prob.realization.items()
            if k in var_pts or k in var_lns
        },
    )
    return reduced, EliminationTrace(tuple(steps))


def _slot_key(name: str):
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


def match_triangle(reduced: IncidenceProblem):
    """Recognize the triangle pattern in a residual problem.

    Requires exactly three variable points, each on one fixed axis line;
    three variable lines, each through one fixed point; the six cross
    relations wiring them into a triangle; and nothing else.  Returns
    the fixed points (P, Q, R) ordered by the axes their opposite
    variable points lie on, or None if the pattern does not match.
    """
    if len(reduced.variable_points) != 3 or len(reduced.variable_lines) != 3:
        return None
    if len(reduced.relations) != 12:
        return None

    axes = {_triangle.AXIS_X: "X", _triangle.AXIS_Y: "Y", _triangle.AXIS_Z: "Z"}
    var_pts = set(reduced.variable_points)
    var_lns = set(reduced.variable_lines)

    point_fixed_lines: dict[str, list] = {p: [] for p in var_pts}
    point_var_lines: dict[str, set] = {p: set() for p in var_pts}
    line_fixed_points: dict[str, list] = {l: [] for l in var_lns}
    for p, l in reduced.relations:
        p_var, l_var = p in var_pts, l in var_lns
        if p_var and l_var:
            point_var_lines[p].add(l)
        elif p_var:
            point_fixed_lines[p].append(reduced.fixed_lines.get(l))
        elif l_var:
            line_fixed_points[l].append(reduced.fixed_points.get(p))
        else:
            return None

    role_of: dict[str, str] = {}
    for p in var_pts:
        fls = point_fixed_lines[p]
        if len(fls) != 1 or fls[0] not in axes or len(point_var_lines[p]) != 2:
            return None
        role_of[p] = axes[fls[0]]
    if sorted(role_of.values()) != ["X", "Y", "Z"]:
        return None
    for l in var_lns:
        if len(line_fixed_points[l]) != 1:
            return None

    slot_for = {role: name for name, role in role_of.items()}
    lines_xy = point_var_lines[slot_for["X"]] & point_var_lines[slot_for["Y"]]
    lines_xz = point_var_lines[slot_for["X"]] & point_var_lines[slot_for["Z"]]
    lines_yz = point_var_lines[slot_for["Y"]] & point_var_lines[slot_for["Z"]]
    if not (len(lines_xy) == len(lines_xz) == len(lines_yz) == 1):
        return None
    triple = (lines_xy.pop(), lines_xz.pop(), lines_yz.pop())
    if len(set(triple)) != 3:
        return None
    return tuple(line_fixed_points[l][0] for l in triple)


@dataclass(frozen=True)
class DoublePointCertificate:
    ok: bool
    message: str
    pqr: tuple | None
    classification: str | None
    discriminant: int | None
    residual_relation_count: int
    wave_sizes: tuple[int, ...]
    extra_point_count: int
    trace: EliminationTrace
    reduced: IncidenceProblem = field(repr=False, default=None)

    def to_jsonable(self) -> dict:
        """The report fields: all but the verdict, the trace and the residue."""
        return {
            "message": self.message,
            "pqr": [str(x) for x in self.pqr] if self.pqr else None,
            "classification": self.classification,
            "discriminant": self.discriminant,
            "residual_relations": self.residual_relation_count,
            "wave_sizes": list(self.wave_sizes),
            "extra_points": self.extra_point_count,
        }


def certify_double_point(arr: Arrangement, pqr=None, crossings=None) -> DoublePointCertificate:
    """Eliminate, match the triangle pattern, and classify the residue.

    When the designated points P, Q, R are known, the three closing lines
    are identified through the triangle solution and every intersection
    point of the remaining lines is admitted as a variable slot, which
    is what lets the fixpoint sweep everything else away.  Those points
    and the problem's relations are read off the arrangement's crossing
    map (``crossings``, computed when not given).
    """
    if crossings is None:
        crossings = intersection_points(arr.lines)
    closing: set[int] = set()
    if pqr is not None:
        try:
            for sol in _triangle.solve_realization(*pqr):
                lns = (sol.L_P, sol.L_Q, sol.L_R)
                if all(l in arr.lines for l in lns):
                    closing = {arr.index(l) for l in lns}
                    break
        except ValueError:
            closing = set()

    kept = [i for i in range(len(arr.lines)) if i not in closing]
    extra = tuple(sorted(sub_crossings(crossings, kept)))
    prob = from_arrangement(arr, extra_points=extra, crossings=crossings)
    reduced, trace = eliminate(prob)
    wave_sizes = tuple(len(w) for w in trace.wave_slots)

    matched = match_triangle(reduced)
    if matched is None:
        return DoublePointCertificate(
            False, "residual problem does not match the triangle pattern",
            None, None, None, len(reduced.relations), wave_sizes, len(extra),
            trace, reduced,
        )
    if pqr is not None and tuple(matched) != tuple(pqr):
        return DoublePointCertificate(
            False, f"residual triangle has fixed points {matched}, expected {pqr}",
            tuple(matched), None, None, len(reduced.relations), wave_sizes,
            len(extra), trace, reduced,
        )
    cls = _triangle.classify(*matched)
    ok = cls.kind is _triangle.Kind.DOUBLE_POINT
    message = (
        "incidence problem is a double point"
        if ok
        else f"residual triangle classifies as {cls.kind.value}"
    )
    return DoublePointCertificate(
        ok, message, tuple(matched), cls.kind.value, cls.discriminant,
        len(reduced.relations), wave_sizes, len(extra), trace, reduced,
    )


__all__ = [
    "DoublePointCertificate",
    "EliminationStep",
    "EliminationTrace",
    "IncidenceProblem",
    "InconsistencyError",
    "certify_double_point",
    "eliminate",
    "from_arrangement",
    "match_triangle",
]
