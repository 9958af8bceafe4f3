import random

import pytest

from rigidsurf.arrangement import Arrangement, closure, BASE_POINTS, intersection_points
from rigidsurf.incidence import (
    InconsistencyError,
    IncidenceProblem,
    _slot_key,
    certify_double_point,
    eliminate,
    from_arrangement,
    match_triangle,
)
from rigidsurf.projective import incident, join, line, meet, point
from rigidsurf.triangle import solve_realization


def heart_problem(heart):
    kept = [l for i, l in enumerate(heart.arrangement.lines) if i not in (31, 32, 33)]
    extra = tuple(sorted(intersection_points(kept)))
    return from_arrangement(heart.arrangement, extra_points=extra)


def test_from_arrangement_requires_base_points():
    arr = Arrangement((line(1, 0, 0), line(0, 1, 0), line(0, 0, 1)))
    with pytest.raises(ValueError):
        from_arrangement(arr)


def test_from_arrangement_satisfies_relations(heart):
    prob = heart_problem(heart)
    prob.validate()
    assert len(prob.variable_lines) == 34
    # slots: every singular point and every crossing of the 31 kept lines
    assert len(prob.variable_points) == 217


def _incident_relations(arr, prob):
    """Relations by testing every slot point against every line."""
    slots = {**prob.fixed_points, **{v: prob.realization[v] for v in prob.variable_points}}
    return tuple(
        (name, f"L{i + 1}") for name, p in slots.items() for i, l in enumerate(arr.lines) if incident(p, l)
    )


def test_from_arrangement_relations_are_the_incidences(heart):
    # relations come from the crossing map, and from an incidence test for
    # extra points that are no crossing: one on a single line, one on none
    arr = heart.arrangement
    crossings = intersection_points(arr.lines)
    on_one = next(
        p for k in range(1, 50) if (p := meet(arr.lines[0], line(1, k, 7919))) not in crossings
    )
    off = point(3, 5, 7919)
    assert not any(incident(off, l) for l in arr.lines)
    problems = [
        (arr, from_arrangement(arr)),
        (arr, certify_problem(heart)),
        (arr, from_arrangement(arr, extra_points=(on_one, off), crossings=crossings)),
    ]
    closure_3 = Arrangement(closure(BASE_POINTS, 3)[-1].lines)
    problems.append((closure_3, from_arrangement(closure_3)))
    for a, prob in problems:
        assert prob.relations == _incident_relations(a, prob)
    extra = problems[2][1]
    names = {extra.realization[v]: v for v in extra.variable_points}
    assert [sum(p == names[q] for p, _ in extra.relations) for q in (on_one, off)] == [1, 0]
    assert from_arrangement(arr, crossings=crossings) == from_arrangement(arr)


def test_single_line_through_two_fixed_points_eliminates():
    stages = closure(BASE_POINTS, 1)
    arr = Arrangement(stages[0].lines)
    prob = from_arrangement(arr)
    reduced, trace = eliminate(prob)
    assert not reduced.variable_lines
    assert not reduced.variable_points
    assert not reduced.relations
    assert len(trace.steps) >= 6


def test_heart_elimination_waves(heart):
    reduced, trace = eliminate(heart_problem(heart))
    waves = trace.wave_slots
    assert [len(w) for w in waves] == [6, 3, 3, 6, 16, 84, 6, 121]
    stages = closure(BASE_POINTS, 3)
    # first wave: exactly the lines through two base points
    first = {heart.arrangement.lines[int(s[1:]) - 1] for s in waves[0]}
    assert first == set(stages[0].lines)
    # fifth wave completes the closure lines
    lines_fixed = {
        heart.arrangement.lines[int(s[1:]) - 1]
        for w in waves[:5]
        for s in w
        if s.startswith("L")
    }
    assert lines_fixed == set(stages[-1].lines)


def test_heart_reduces_to_triangle(heart):
    reduced, _ = eliminate(heart_problem(heart))
    assert len(reduced.relations) == 12
    assert len(reduced.variable_points) == 3
    assert len(reduced.variable_lines) == 3
    matched = match_triangle(reduced)
    assert matched == (point(1, 4, 2), point(3, 14, 3), point(14, 25, 1))


def test_trace_replay_reproduces_residue(heart):
    prob = heart_problem(heart)
    reduced, trace = eliminate(prob)
    fixed_p = dict(prob.fixed_points)
    fixed_l = dict(prob.fixed_lines)
    for step in trace.steps:
        # witnesses must already be fixed when the step fires
        for w in step.witnesses:
            assert w in fixed_p or w in fixed_l
        if step.kind == "line":
            fixed_l[step.slot] = line(*step.coords)
        else:
            fixed_p[step.slot] = point(*step.coords)
        assert prob.realization[step.slot] == (
            fixed_l[step.slot] if step.kind == "line" else fixed_p[step.slot]
        )
    assert set(prob.variable_points) - set(fixed_p) == set(reduced.variable_points)
    assert set(prob.variable_lines) - set(fixed_l) == set(reduced.variable_lines)


def test_elimination_confluent_over_random_orders(heart):
    prob = heart_problem(heart)
    reference, _ = eliminate(prob)
    for seed in range(20):
        reduced, _ = eliminate(prob, seed=seed)
        assert reduced.variable_points == reference.variable_points
        assert reduced.variable_lines == reference.variable_lines
        assert set(reduced.relations) == set(reference.relations)


def _resorting_eliminate(prob, seed=None):
    """The elimination loop as it was when it re-sorted the slots every round.

    Kept as an oracle for the fixed slot order of ``eliminate``; the
    realization checks are left out, so it returns only the steps as
    (wave, kind, slot, witnesses, coords) and the surviving slots.
    """
    rng = random.Random(seed) if seed is not None else None
    fixed_pts, fixed_lns = dict(prob.fixed_points), dict(prob.fixed_lines)
    var_pts, var_lns = set(prob.variable_points), set(prob.variable_lines)
    partners = {s: [] for s in var_pts | var_lns}
    for p, l in prob.relations:
        if l in var_lns:
            partners[l].append(p)
        if p in var_pts:
            partners[p].append(l)

    def witnesses(slot, fixed):
        seen = []
        for o in partners[slot]:
            if o in fixed and (not seen or fixed[o] != fixed[seen[0]]):
                seen.append(o)
                if len(seen) == 2:
                    return tuple(seen)
        return None

    def fire(kind, slot, w, wave):
        if kind == "line":
            fixed_lns[slot] = join(fixed_pts[w[0]], fixed_pts[w[1]])
            var_lns.discard(slot)
            return (wave, kind, slot, w, fixed_lns[slot].coeffs)
        fixed_pts[slot] = meet(fixed_lns[w[0]], fixed_lns[w[1]])
        var_pts.discard(slot)
        return (wave, kind, slot, w, fixed_pts[slot].coords)

    steps, wave = [], 0
    while True:
        candidates = []
        for l in sorted(var_lns, key=_slot_key):
            w = witnesses(l, fixed_pts)
            if w:
                candidates.append(("line", l, w))
        for p in sorted(var_pts, key=_slot_key):
            w = witnesses(p, fixed_lns)
            if w:
                candidates.append(("point", p, w))
        if not candidates:
            break
        if rng is not None:
            candidates = [candidates[rng.randrange(len(candidates))]]
        steps += [fire(kind, slot, w, wave) for kind, slot, w in candidates]
        wave += 1
    return steps, tuple(sorted(var_pts, key=_slot_key)), tuple(sorted(var_lns, key=_slot_key))


def certify_problem(heart):
    """The problem ``certify_double_point`` eliminates, found as it finds it."""
    sol = solve_realization(*heart.pqr)[0]
    arr = heart.arrangement
    closing = {arr.index(l) for l in (sol.L_P, sol.L_Q, sol.L_R)}
    kept = [l for i, l in enumerate(arr.lines) if i not in closing]
    return from_arrangement(arr, extra_points=tuple(sorted(intersection_points(kept))))


def mixed_problem(heart=None):
    """L1 and v1 both enabled at the start, v1 also on L1.

    Both fire in wave 0, so firing L1 touches v1 while it is still
    variable, and v1 must not be re-examined once it has fired too.
    """
    return IncidenceProblem(
        fixed_points={"q1": point(1, 0, 0), "q2": point(0, 1, 0)},
        fixed_lines={"M1": line(1, -1, 0), "M2": line(1, -1, 1)},
        variable_points=("v1",),
        variable_lines=("L1",),
        relations=(("q1", "L1"), ("q2", "L1"), ("v1", "L1"), ("v1", "M1"), ("v1", "M2")),
        realization={"L1": line(0, 0, 1), "v1": point(1, 1, 0)},
    )


def heart_with_fixed_lines(heart):
    """The heart problem with every third variable line fixed at its realization.

    Fixed points and fixed lines from the start make waves that fire
    lines and points together, unlike problems built by from_arrangement.
    """
    prob = heart_problem(heart)
    lines = sorted(prob.variable_lines, key=_slot_key)
    moved = set(lines[::3])
    return IncidenceProblem(
        fixed_points=prob.fixed_points,
        fixed_lines={**prob.fixed_lines, **{l: prob.realization[l] for l in moved}},
        variable_points=prob.variable_points,
        variable_lines=tuple(l for l in prob.variable_lines if l not in moved),
        relations=prob.relations,
        realization={k: v for k, v in prob.realization.items() if k not in moved},
    )


PROBLEMS = {
    "heart-no-extra-points": lambda heart: from_arrangement(heart.arrangement),
    "closure-3": lambda heart: from_arrangement(Arrangement(closure(BASE_POINTS, 3)[-1].lines)),
    "certify": certify_problem,
    "mixed": mixed_problem,
    "heart-with-fixed-lines": heart_with_fixed_lines,
}


def _steps(trace):
    return [(s.wave, s.kind, s.slot, s.witnesses, s.coords) for s in trace.steps]


def _assert_matches_resorting_loop(prob, seed):
    reduced, trace = eliminate(prob, seed=seed)
    assert (_steps(trace), reduced.variable_points, reduced.variable_lines) == _resorting_eliminate(
        prob, seed
    )


@pytest.mark.parametrize("seed", [None, 0, 1, 7, 19])
def test_elimination_matches_resorting_loop(heart, seed):
    _assert_matches_resorting_loop(heart_problem(heart), seed)


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in PROBLEMS for seed in (None, 0, 1, 7, 19)]
    + [("certify", seed) for seed in range(100, 120)],
)
def test_elimination_matches_resorting_loop_on_more_problems(heart, name, seed):
    _assert_matches_resorting_loop(PROBLEMS[name](heart), seed)


def test_wave_fires_a_line_and_a_point_on_it_once_each():
    _, trace = eliminate(mixed_problem())
    assert [(s.wave, s.kind, s.slot, s.witnesses) for s in trace.steps] == [
        (0, "line", "L1", ("q1", "q2")),
        (0, "point", "v1", ("M1", "M2")),
    ]


def test_heart_with_fixed_lines_fires_lines_and_points_in_one_wave(heart):
    _, trace = eliminate(heart_with_fixed_lines(heart))
    kinds = {}
    for s in trace.steps:
        kinds.setdefault(s.wave, set()).add(s.kind)
    assert {"line", "point"} in kinds.values()


def test_certify_double_point_trace_matches_resorting_loop(heart):
    cert = certify_double_point(heart.arrangement, heart.pqr)
    steps, var_pts, var_lns = _resorting_eliminate(certify_problem(heart))
    assert _steps(cert.trace) == steps
    assert (cert.reduced.variable_points, cert.reduced.variable_lines) == (var_pts, var_lns)
    assert cert.wave_sizes == (6, 3, 3, 6, 16, 84, 6, 121)


def _chain_problem(bad_slot=None):
    """A chain q1, q2 -> L1 -> v1 -> L2, its realization wrong at ``bad_slot``.

    v1 gains its second fixed line only when L1 fires, and L2 its second
    fixed point only when v1 fires, so a wrong slot is reached only
    through the slots re-examined after a step.
    """
    realization = {"L1": line(0, 0, 1), "v1": point(1, 1, 0), "L2": line(1, -1, 1)}
    wrong = {"v1": point(2, 1, 0), "L2": line(1, -1, 2)}
    if bad_slot is not None:
        realization[bad_slot] = wrong[bad_slot]
    return IncidenceProblem(
        fixed_points={"q1": point(1, 0, 0), "q2": point(0, 1, 0), "q3": point(0, 1, 1)},
        fixed_lines={"M1": line(1, -1, 0)},
        variable_points=("v1",),
        variable_lines=("L1", "L2"),
        relations=(
            ("q1", "L1"), ("q2", "L1"), ("v1", "L1"), ("v1", "M1"),
            ("v1", "L2"), ("q3", "L2"),
        ),
        realization=realization,
    )


@pytest.mark.parametrize("seed", [None, 3])
def test_chain_eliminates_when_consistent(seed):
    prob = _chain_problem()
    prob.validate()
    reduced, trace = eliminate(prob, seed=seed)
    assert [(s.wave, s.slot) for s in trace.steps] == [(0, "L1"), (1, "v1"), (2, "L2")]
    assert not reduced.variable_points and not reduced.variable_lines


@pytest.mark.parametrize("bad_slot", ["v1", "L2"])
@pytest.mark.parametrize("seed", [None, 3])
def test_inconsistency_found_on_a_slot_enabled_by_a_step(bad_slot, seed):
    with pytest.raises(InconsistencyError, match=f"^{bad_slot}: "):
        eliminate(_chain_problem(bad_slot), seed=seed)


def test_inconsistent_realization_detected():
    # a hand-made problem whose realization disagrees with the forced join
    prob = IncidenceProblem(
        fixed_points={"q1": point(1, 0, 0), "q2": point(0, 1, 0)},
        fixed_lines={},
        variable_points=(),
        variable_lines=("L1",),
        relations=(("q1", "L1"), ("q2", "L1")),
        realization={"L1": line(0, 1, 1)},  # not the join of q1, q2
    )
    with pytest.raises(InconsistencyError):
        eliminate(prob)


def test_match_triangle_rejects_empty_residue():
    empty = IncidenceProblem({}, {}, (), (), (), {})
    assert match_triangle(empty) is None


def test_match_triangle_rejects_extra_relation(heart):
    reduced, _ = eliminate(heart_problem(heart))
    extra = reduced.relations + (("q1", reduced.variable_lines[0]),)
    tampered = IncidenceProblem(
        fixed_points={**reduced.fixed_points},
        fixed_lines=reduced.fixed_lines,
        variable_points=reduced.variable_points,
        variable_lines=reduced.variable_lines,
        relations=extra,
        realization=reduced.realization,
    )
    assert match_triangle(tampered) is None


def test_certify_heart(heart):
    cert = certify_double_point(heart.arrangement, heart.pqr)
    assert cert.ok
    assert cert.classification == "double_point"
    assert cert.discriminant == 0
    assert cert.residual_relation_count == 12
    assert cert.extra_point_count == 218
    assert cert.pqr == heart.pqr


def test_certify_fails_on_perturbed_closing_line(heart):
    lines = list(heart.arrangement.lines)
    lines[31] = join(heart.P, point(97, 5, 3))  # generic line through P
    cert = certify_double_point(Arrangement(tuple(lines)), heart.pqr)
    assert not cert.ok
    assert cert.pqr is None
    assert "triangle pattern" in cert.message


def test_certify_closure_only_arrangement():
    arr = Arrangement(closure(BASE_POINTS, 3)[-1].lines)
    cert = certify_double_point(arr)
    assert not cert.ok
    assert cert.residual_relation_count == 0
