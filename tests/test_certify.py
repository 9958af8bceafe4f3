import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from rigidsurf.arrangement import Arrangement, BASE_POINTS, closure, singular_points
from rigidsurf.certify import (
    admissible,
    build_sweep,
    check_ample,
    check_condition_a,
    check_condition_b,
    check_condition_c,
    full_certificate,
    invariants,
)
from rigidsurf.cohomology import fat_points, h0_h1, h1_is_zero, ideal_of_chi, regularity
from rigidsurf.cover import all_characters, chi_class, random_label_search
from rigidsurf.picard import hyperplane, intersect, strict_transform
from rigidsurf.projective import incident, join, point


def _scheme_of(sweep, idx):
    return fat_points(sweep.table.points, sweep.h_mult[idx]), int(sweep.d_chi[idx])


def test_condition_a_all_pass(cond_a):
    assert cond_a.verdict
    assert len(cond_a.per_chi) == 2400
    assert not cond_a.failures
    for _, reg, d in cond_a.per_chi:
        assert reg < d


def test_condition_a_parallel_matches_serial(sweep, cond_a):
    parallel = check_condition_a(sweep, threads=2)
    assert parallel.per_chi == cond_a.per_chi
    assert parallel.verdict == cond_a.verdict


def test_condition_a_example_character(sweep, cond_a):
    # chi = (0,0,0,1) is index 1 in lexicographic order; its twist degree is 13
    idx, reg, d = cond_a.per_chi[0]
    assert idx == 1 and d == 13
    assert reg < 13


def test_bank_start_is_the_arrangement_line_bound(sweep, table, cond_a, monkeypatch):
    # the line bank of the scan (the 45 lines through at least four of
    # the 51 points) bounds every character's first vanishing degree
    # exactly as the 34 arrangement lines do; the scan starts each scheme
    # at the larger of that bound and the counting bound, and gets the
    # regularity of the scalar scan from the counting bound
    import rigidsurf.cohomology as cohomology

    m = np.clip(sweep.h_mult[1:], 0, None)
    arrangement_start = (m @ sweep.inc).max(axis=1) - 1
    rich = cohomology._line_bank(table.points)
    assert rich.shape == (45, 51)
    assert ((m @ rich.T).max(axis=1) - 1).tolist() == arrangement_start.tolist()

    starts = []
    original = cohomology._residual

    def residual(rich, mults, t):
        starts.append(t.copy())
        return original(rich, mults, t)

    monkeypatch.setattr(cohomology, "_residual", residual)
    assert check_condition_a(sweep) == cond_a
    deg = (m * (m + 1) // 2).sum(axis=1)
    counting = np.array([next(t for t in range(99) if comb(t + 2, 2) >= d) for d in deg])
    assert starts[0].tolist() == np.maximum(arrangement_start, counting)[deg > 0].tolist()
    first = np.array([reg for _, reg, _ in cond_a.per_chi]) - 1
    assert (arrangement_start <= first).all()
    for idx, reg, d in cond_a.per_chi[::97]:
        assert regularity(_scheme_of(sweep, idx)[0], fast=True) == reg


def _lines_through_two_points(table):
    """Points x lines incidence of the lines through >= 2 of the table points."""
    lines = sorted({join(p, q) for p, q in combinations(table.points, 2)})
    return np.array([[incident(p, l) for l in lines] for p in table.points], dtype=np.int64)


def test_first_vanishing_degree_within_segre_bound(sweep, table, cond_a):
    # Segre's bound for fat points in the plane (Fatabbi 1994, Thien
    # 2000): the first vanishing degree reg - 1 is at most
    # max(max_L sum_{P on L} m_P - 1, floor(sum m_P / 2)) over the lines L
    # through two or more points; an independent check, never a verdict
    inc2 = _lines_through_two_points(table)
    assert inc2.shape == (51, 543)
    m = np.clip(sweep.h_mult[1:], 0, None)
    segre = np.maximum((m @ inc2).max(axis=1) - 1, m.sum(axis=1) // 2)
    first = np.array([reg for _, reg, _ in cond_a.per_chi]) - 1
    assert (first <= segre).all()
    assert int((first == segre).sum()) == 74


def _direct_h1_at_d(sweep, idx):
    scheme, d = _scheme_of(sweep, idx)
    return d >= 0 and h1_is_zero(scheme, d)


def test_derived_h1_at_d_matches_direct_decision(sweep, cond_a):
    stride = list(zip(cond_a.per_chi, cond_a.h1_at_d))[::97]
    for (idx, _reg, _d), h1d in stride:
        assert h1d == _direct_h1_at_d(sweep, idx)


def test_sweep_class_coefficients_signed_correctly(sweep):
    # every character class: nonnegative H part, nonpositive E parts
    assert (sweep.c_chi >= 0).all()
    assert (sweep.e_floor >= 0).all()
    assert sweep.c_chi[0] == 0 and not sweep.e_floor[0].any()


def test_condition_b(sweep):
    res = check_condition_b(sweep)
    assert res.verdict
    assert res.max_value < 0
    assert res.exceptional_cross_check_ok
    assert res.pairs_checked == 2400 * 34


def test_condition_b_example_value(sweep):
    # strict transform of line 26 against the class of (0,0,0,1):
    # self-intersection -1, pairing with the class 14, so the value is -15
    d_dot_l = sweep.c_chi[1] - (sweep.e_floor[1] @ sweep.inc)[25]
    value = (1 - sweep.k_points_on_line[25]) - d_dot_l
    assert value == -15


def test_condition_c(sweep):
    res = check_condition_c(sweep)
    assert res.verdict
    assert res.min_slack >= 0


def test_sweep_matches_scalar_character_classes(labels, table, sweep):
    # the vectorized class coefficients and fat-point schemes against the
    # one-character constructions, on every character
    chars = all_characters(7, 4)
    assert sweep.chars.tolist() == [list(chi) for chi in chars]
    for idx, chi in enumerate(chars):
        cls = chi_class(labels, table, chi)
        assert cls.h == sweep.c_chi[idx]
        assert cls.e == tuple(-sweep.e_floor[idx])
        assert _scheme_of(sweep, idx) == ideal_of_chi(labels, table, chi)


def _admissible_lines(labels, table, chi):
    """Admissible strict transforms of one character, from its class."""
    h_minus = hyperplane(table.num_points) - chi_class(labels, table, chi)
    return [
        i
        for i, lab in enumerate(labels.line_labels)
        if sum(c * x for c, x in zip(chi, lab)) % labels.p != labels.p - 1
        and intersect(h_minus, strict_transform(i, table)) < 0
    ]


def test_admissible_matches_scalar_membership(labels, table, sweep):
    adm = admissible(sweep)
    assert adm.shape == (7**4, 34)
    for idx, chi in enumerate(all_characters(7, 4)):
        assert np.nonzero(adm[idx])[0].tolist() == _admissible_lines(labels, table, chi)


def test_admissible_set_membership(sweep):
    # row 1 is the character (0, 0, 0, 1)
    members = np.nonzero(admissible(sweep)[1])[0].tolist()
    # membership excludes pairing 6 and requires strict negativity
    for i in members:
        assert sweep.pair_lines[1][i] != 6
    assert 25 in members  # the -13 example line


def test_admissible_set_critical_character(table, sweep):
    # the critical character (5, 4, 3, 0), row 1,932, at (2:1:0): the two
    # lines pairing to zero must be admissible so the count bound at that
    # point is met
    assert sweep.chars[1932].tolist() == [5, 4, 3, 0]
    members = admissible(sweep)[1932]
    k = table.point_index(point(2, 1, 0))
    through = table.lines_through[k]
    members_through = [i for i in through if members[i]]
    assert len(members_through) >= 2


def test_critical_character_count_bound(labels, table):
    # at most 3 * p^(r-3) critical characters per triple point
    from rigidsurf.cover import all_characters, pairing_lift

    p = labels.p
    triple_points = [k for k in range(table.num_points) if table.mu[k] == 3]
    chars = all_characters(p, labels.r)
    for k in triple_points[:5]:
        through = table.lines_through[k]
        crit = 0
        for chi in chars:
            pairs = sorted(pairing_lift(chi, labels.line_labels[i], p) for i in through)
            if pairs[0] == 0 and pairs[1] == 0 and pairs[2] == p - 1:
                crit += 1
        assert crit <= 3 * p ** (labels.r - 3)


def test_ample_conditions(table):
    res = check_ample(7, table)
    assert res.verdict
    assert res.conditions["self_intersection_value"] == 25734
    assert res.conditions["multiplicity_bound"] == str(Fraction(442, 21))
    assert res.conditions["max_multiplicity"] == 7


def test_ample_rejects_small_prime(table):
    assert not check_ample(2, table).verdict


def test_invariants(sweep, cond_a):
    inv = invariants(sweep, cond_a)
    assert inv.K2 == 1_260_966
    assert inv.chi == 151_851
    assert inv.pg == 151_850
    assert inv.q == 0
    assert inv.q_h1_route_ok
    assert inv.bmy_ok
    assert inv.K2 <= 9 * inv.chi
    assert Fraction(825, 100) <= inv.slope <= Fraction(835, 100)
    assert inv.kuranishi_lower_bound == 10 * inv.chi - 2 * inv.K2


def test_full_certificate(certificate):
    s = certificate.sections
    assert certificate.ok
    assert s["overall"]["verdict"] == "rigid, not infinitesimally rigid, K ample"
    assert s["incidence"]["verdict"]
    assert s["incidence"]["residual_relations"] == 12
    assert s["building_data"]["distinct_projective_labels"] == 85
    assert s["condition_a"]["characters_checked"] == 2400
    assert s["invariants"]["K2"] == 1_260_966
    assert s["invariants"]["chi_matches_expected"] == 151_851
    assert s["invariants"]["q"] == 0


def test_certificate_json_deterministic(certificate, heart):
    from rigidsurf.certify import full_certificate as run

    again = run(heart)
    first = json.loads(certificate.to_json(include_timings=False))
    second = json.loads(again.to_json(include_timings=False))
    assert certificate.to_json(include_timings=False) == again.to_json(include_timings=False)
    assert first == second


def test_certificate_does_not_import_numpy_ma():
    # np.unique with no return_* flag imports numpy.ma (numpy 2.4), about
    # 11 ms of a cold certificate; the certificate path must avoid it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "from rigidsurf.arrangement import build_heart\n"
        "from rigidsurf.certify import full_certificate\n"
        "full_certificate(build_heart()).to_json()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.mark.parametrize("threads", [1, 2])
def test_certificate_is_the_seed_certificate(heart, threads):
    # the live certificate, byte for byte, is the reference the benchmark
    # gates on: digest 39b5bc91...5230372, at one worker and at two
    seed = Path(__file__).resolve().parents[1] / "perfbench" / "seed_certificate.json"
    text = full_certificate(heart, threads=threads).to_json(include_timings=False)
    assert text == seed.read_text(encoding="utf-8")


def _quadrilateral_sweep(p, seed):
    """Sweep of a seeded (Z/p)^3 label map on the complete quadrilateral."""
    table = singular_points(Arrangement(closure(BASE_POINTS, 1)[0].lines))
    return build_sweep(random_label_search(table, p, 3, seed).labels, table)


# (p, seed) of seeded (Z/p)^3 maps on the complete quadrilateral, and
# the irregularity q of their covers
QUADRILATERAL_MAPS = [(3, 2, 0), (5, 4, 0), (5, 1, 4), (7, 3, 3)]


def test_condition_a_fails_on_degenerate_labels():
    # small synthetic configurations: low twist degrees, some negative,
    # make reg < d impossible for some characters; h1 at d is derived
    # from reg on every character and must agree with the direct decision
    for p, seed, q in QUADRILATERAL_MAPS:
        sweep = _quadrilateral_sweep(p, seed)
        cond = check_condition_a(sweep)
        assert not cond.verdict
        assert cond.failures == [
            {"chi": sweep.chars[idx].tolist(), "reg": reg, "d": d}
            for idx, reg, d in cond.per_chi
            if reg >= d
        ]
        assert any(d < 0 for _, _, d in cond.per_chi)
        assert len(cond.h1_at_d) == len(cond.per_chi) == p**3 - 1
        for (idx, _reg, _d), h1d in zip(cond.per_chi, cond.h1_at_d):
            assert h1d == _direct_h1_at_d(sweep, idx)
        assert invariants(sweep, cond).q == q


def test_condition_a_and_invariants_decide_no_h1_on_their_own(monkeypatch):
    # the regularity scan is the only h1 decision of the certificate path
    import rigidsurf.certify as certify
    import rigidsurf.cohomology as cohomology

    def no_h1_is_zero(*args):
        raise AssertionError("h1_is_zero called outside the regularity scan")

    sweep = _quadrilateral_sweep(7, 3)
    monkeypatch.setattr(cohomology, "h1_is_zero", no_h1_is_zero)
    monkeypatch.setattr(certify, "h1_is_zero", no_h1_is_zero)
    cond = check_condition_a(sweep)
    assert not all(cond.h1_at_d)
    assert invariants(sweep, cond).q == 3


def test_certificate_routes_most_first_degrees_through_residuation(heart, certificate, monkeypatch):
    # residuation along lines empties 2,027 of the 2,400 schemes at their
    # first degrees, and the residuals of most others are ranked in their
    # place, so the stacks mod the prime need 8 eliminations (plus the
    # spanning check's one) in place of 57; a conic of two bank lines
    # proves h1 > 0 for 19 of the 23 originals the prime leaves short, and
    # the other 4, all true deficiencies, take the exact fallback
    import rigidsurf.cohomology as cohomology
    import rigidsurf.modp as modp

    calls = {"_eliminate": 0, "bareiss_rank": 0}
    emptied, witnessed = [], []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    def recorded(name, out, view):
        original = getattr(cohomology, name)

        def wrapper(*args):
            result = original(*args)
            out.append(view(result))
            return result

        monkeypatch.setattr(cohomology, name, wrapper)

    counted(modp, "_eliminate")
    counted(cohomology, "bareiss_rank")
    recorded("_residual", emptied, lambda res: int((res[1] == 0).sum()))
    recorded("_two_line_witness", witnessed, lambda claims: int(claims.sum()))
    cert = full_certificate(heart)
    assert cert.to_json(include_timings=False) == certificate.to_json(include_timings=False)
    assert calls["_eliminate"] == 9  # 58 before residuation, 13 before residual ranking
    assert calls["bareiss_rank"] == 4  # 23 before the two-line witness
    assert emptied == [2027]
    assert sum(witnessed) == 19


def test_certificate_builds_each_constant_once(heart, certificate, monkeypatch):
    # one crossing map of the 34 lines serves the singular points, the
    # structure checks and the incidence problem (5 computations before),
    # and each conditions matrix reads its rows from one order table of
    # its largest multiplicity, not from a per-point tuple index
    import rigidsurf.cohomology as cohomology

    calls = {"intersection_points": 0, "_conditions": 0}
    tables = []
    original = sys.modules["rigidsurf.arrangement"].intersection_points

    def crossing_map(*args):
        calls["intersection_points"] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("rigidsurf") and getattr(module, "intersection_points", None) is original:
            monkeypatch.setattr(module, "intersection_points", crossing_map)

    def wrap(name, record):
        inner = getattr(cohomology, name)

        def wrapper(*args):
            record(args)
            return inner(*args)

        monkeypatch.setattr(cohomology, name, wrapper)

    wrap("_orders", tables.append)
    wrap("_conditions", lambda args: calls.__setitem__("_conditions", calls["_conditions"] + 1))
    cert = full_certificate(heart)
    assert cert.to_json(include_timings=False) == certificate.to_json(include_timings=False)
    assert calls["intersection_points"] == 1
    assert calls["_conditions"] == 12  # 8 stack banks and 4 Bareiss fallbacks
    assert len(tables) == 12


def test_build_sweep_refuses_huge_groups(heart):
    # (Z/101)^5 labels pass validation, but the sweep would hold
    # 101^5 x 141 int64 cells; the refusal comes before any allocation
    from rigidsurf.certify import full_certificate as run

    table = singular_points(heart.arrangement)
    labels = random_label_search(table, 101, 5, seed=0).labels
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=r"101\^5 = 10510100501 .* cap 2\^24"):
            run(heart, labels=labels)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20


def test_full_certificate_fails_on_duplicated_labels(heart):
    from rigidsurf.arrangement import singular_points
    from rigidsurf.certify import full_certificate as run
    from rigidsurf.cover import complete_labels

    good = heart.line_labels
    table = singular_points(heart.arrangement)
    dup = complete_labels((good[0],) + good[1:-2] + (good[0],), table, heart.p, heart.r)
    cert = run(heart, labels=dup)
    assert not cert.ok
    assert not cert.sections["building_data"]["injectivity"]
    assert cert.sections["condition_a"] == {"skipped": "building_data failed"}


def test_full_certificate_skips_the_sweep_after_incidence_fails(heart, monkeypatch):
    # a wrong P breaks the double-point certificate while the labels stay
    # valid; the character sweep must not run on such an input
    import dataclasses

    import rigidsurf.certify as certify

    def no_sweep(*args, **kwargs):
        raise AssertionError("the character sweep ran after the incidence failed")

    monkeypatch.setattr(certify, "check_condition_a", no_sweep)
    cert = certify.full_certificate(dataclasses.replace(heart, P=point(1, 2, 3)))
    s = json.loads(cert.to_json(include_timings=False))
    assert not cert.ok and s["overall"]["verdict"] == "verification failed"
    assert not s["incidence"]["verdict"]
    assert s["building_data"]["verdict"] and s["ampleness"]["verdict"]
    for name in ("condition_a", "condition_b", "condition_c", "invariants"):
        assert s[name] == {"skipped": "incidence failed"}


def test_condition_a_caps_the_workers(monkeypatch):
    # a huge --threads asks for no more workers than CPUs and characters;
    # the executor is replaced, so no process starts
    import rigidsurf.certify as certify

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    sweep = _quadrilateral_sweep(3, 2)
    serial = check_condition_a(sweep)
    monkeypatch.setattr(certify.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for cpus, workers in ((3, 3), (100_000, len(sweep.chars) - 1)):
        monkeypatch.setattr(certify.os, "cpu_count", lambda: cpus)
        capped = check_condition_a(sweep, threads=100_000)
        assert requested.pop() == workers
        assert (capped.per_chi, capped.h1_at_d) == (serial.per_chi, serial.h1_at_d)
    assert not requested


def test_full_certificate_fails_on_labels_not_divisible(heart, labels):
    # build_sweep rejects such labels; the certificate records the
    # failure and skips the character sections instead of raising
    from rigidsurf.certify import full_certificate as run
    from rigidsurf.cover import LabelMap

    first = tuple((x + 1) % 7 for x in labels.line_labels[0])
    bad = LabelMap(labels.p, labels.r, (first,) + labels.line_labels[1:], labels.point_labels)
    cert = run(heart, labels=bad)
    s = json.loads(cert.to_json(include_timings=False))
    assert not cert.ok and s["overall"]["verdict"] == "verification failed"
    assert not s["building_data"]["divisibility"]
    assert s["ampleness"]["verdict"]
    for name in ("condition_a", "condition_b", "condition_c", "invariants"):
        assert s[name] == {"skipped": "building_data failed"}


def test_canonical_twist_matches_lattice_count(sweep, labels, table, cond_a):
    from math import comb

    # exact elimination route equals the lattice section count for a
    # sample of characters (the h1-vanishing collapse)
    for (idx, _reg, d), deg in list(zip(cond_a.per_chi, cond_a.degrees))[::401]:
        chi = tuple(int(x) for x in sweep.chars[idx])
        assert h0_h1(*ideal_of_chi(labels, table, chi))[0] == comb(d + 2, 2) - deg


def test_invariants_on_synthetic_cover():
    # chi and q stay nonnegative and exact on a small valid cover
    sweep = _quadrilateral_sweep(5, 4)
    inv = invariants(sweep, check_condition_a(sweep))
    assert inv.q >= 0
    assert inv.chi == 1 - inv.q + inv.pg
