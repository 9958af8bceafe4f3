"""Top-level verification: the three vanishing/negativity conditions over
all nontrivial characters, ampleness of the canonical class downstairs,
numerical invariants of the cover, and the consolidated certificate.

The character sweep is exact throughout: lattice arithmetic is plain
integer arithmetic (narrowed to proven bounds, summed in int64), and every
cohomological vanishing is either certified by a full-row-rank witness
mod a prime (hence exact) or settled by fraction-free elimination.
Condition (a) runs one batched regularity scan per worker: it starts
each character where the heaviest lines of its own line bank, alone or
two as a conic, force h1 > 0 below, residuation along those lines
proves most first vanishing degrees or leaves a smaller residual to
rank, and the Euler-reduced witnesses of the rest are ranked in
zero-padded stacks, with Bareiss as the exact fallback.  That scan is
the only place h1 = 0 is decided: h1 in the twist degree, which the
invariants need, is read off the regularity it returns.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from . import __version__
from .arrangement import HeartData, IncidenceTable, check_structure, singular_points
from .arrangement import incidence_sums, intersection_points, narrow_dtype, narrowed
from .cohomology import fat_degrees, fat_points, h0_h1, regularities
# unused here; perfbench's self-test reads certify.h1_is_zero, so the name stays
from .cohomology import h1_is_zero
from .cover import LabelMap, label_map, validate_labels
from .incidence import certify_double_point
from .picard import branch_class, canonical_class, intersect


# ---------------------------------------------------------------------------
# vectorized sweep data


@dataclass
class SweepData:
    """Exact per-character lattice data for a label map, narrowed to bounds by :func:`build_sweep`."""

    labels: LabelMap
    table: IncidenceTable
    chars: np.ndarray       # p^r x r
    c_chi: np.ndarray       # H-coefficient of each character class
    e_floor: np.ndarray     # p^r x m, = pairing of the class with E_nu (>= 0)
    d_chi: np.ndarray       # twist degree of the canonical tensor
    h_mult: np.ndarray      # p^r x m fat-point multiplicities (may be <= 0)
    pair_lines: np.ndarray  # p^r x n pairings with line labels
    inc: np.ndarray         # m x n incidence matrix
    k_points_on_line: np.ndarray

    @functools.cached_property
    def e_on_lines(self) -> np.ndarray:
        """p^r x n: ``e_floor`` summed over the points on each line.

        Conditions (b) and (c) share it; it is built on first use, after
        condition (a), so the regularity scan does not hold it.
        """
        return incidence_sums(self.e_floor, self.inc.T)


# build_sweep holds p^r x (r + n + 2m) cells: the characters, the line
# pairings, the E-pairings and the multiplicities.  The bundled (Z/7)^4
# sweep needs 336,140 of them, in int16; the cap counts cells, not bytes.
MAX_SWEEP_CELLS = 2**24


def build_sweep(labels: LabelMap, table: IncidenceTable) -> SweepData:
    """The lattice data of all p^r characters, in lexicographic order.

    ``e_floor`` sums the line pairings over the lines through each point
    with :func:`incidence_sums`.  Each array is :func:`narrowed` to its
    bound: p - 1 for the characters and pairings (reduced from products
    of at most r(p - 1)^2), n(p - 1)/p for ``c_chi`` and mu_max(p - 1)/p
    for ``e_floor``.  Raises ``ValueError`` before allocating anything
    when the sweep arrays would exceed ``MAX_SWEEP_CELLS`` cells.
    """
    p, r = labels.p, labels.r
    cells = p**r * (r + len(table.arrangement.lines) + 2 * table.num_points)
    if cells > MAX_SWEEP_CELLS:
        raise ValueError(
            f"p^r = {p}^{r} = {p**r} characters need {cells} sweep cells, "
            f"over the cap 2^24 = {MAX_SWEEP_CELLS}"
        )
    inc = table.incidence
    dtype = narrow_dtype(r * (p - 1) ** 2)
    chars = np.indices((p,) * r, dtype=dtype).reshape(r, p**r).T
    pair_lines = narrowed(chars @ np.array(labels.line_labels, dtype=dtype).T % p, p - 1)
    total = pair_lines.sum(axis=1, dtype=np.int64)
    if (total % p).any():
        raise ArithmeticError("line labels violate divisibility")
    c_chi = narrowed(total // p, len(table.arrangement.lines) * (p - 1) // p)
    e_floor = narrowed(incidence_sums(pair_lines, inc) // p, max(table.mu, default=0) * (p - 1) // p)
    return SweepData(
        labels=labels,
        table=table,
        chars=narrowed(chars, p - 1),
        c_chi=c_chi,
        e_floor=e_floor,
        d_chi=c_chi - 3,
        h_mult=e_floor - 1,
        pair_lines=pair_lines,
        inc=inc,
        k_points_on_line=inc.sum(axis=0),
    )


# ---------------------------------------------------------------------------
# condition (a): regularity below the twist degree


@dataclass
class ConditionAResult:
    verdict: bool
    per_chi: list  # (chi index, reg, d) for all nontrivial characters
    degrees: list
    h1_at_d: list  # d >= 0 and h1 = 0 in the twist degree d
    failures: list


def check_condition_a(sweep: SweepData, threads: int = 1) -> ConditionAResult:
    """reg < d for every nontrivial character, with exact reg recorded.

    reg comes from one certified upward scan over all characters
    (:func:`regularities`, which proves where each scan may start from
    the lines and two-line conics of its own line bank, proves h1 = 0
    there by residuation along its lines, emptying the scheme or ranking
    the residual mod a prime, ranks the rest upward mod the prime, and
    settles by Bareiss where that rank falls short); with several
    workers, each scans a contiguous slice of the characters.  The
    workers are capped by the CPU count and the number of characters;
    the output does not depend on their number.

    h1 in the twist degree d feeds the irregularity computation, and it
    is read off reg rather than decided again: the scan proves h1 > 0
    in every degree below reg - 1 and h1 = 0 at reg - 1, and h1 = 0
    persists upward (Castelnuovo-Mumford regularity).  So ``h1_at_d``,
    "d >= 0 and h1 = 0 in degree d", is exactly d >= max(reg - 1, 0);
    the empty scheme has reg 0.
    """
    points = sweep.table.points
    mults = sweep.h_mult[1:]
    workers = min(threads, os.cpu_count() or 1, len(mults))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only where a pool runs

        cuts = np.linspace(0, len(mults), workers + 1).astype(int)
        slices = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(regularities, [points] * workers, [mults[s] for s in slices])
            regs = np.concatenate(list(parts))
    else:
        regs = regularities(points, mults)

    degrees = fat_degrees(np.clip(mults, 0, None)).tolist()
    twist = sweep.d_chi[1:]
    per_chi = list(zip(range(1, len(regs) + 1), regs.tolist(), twist.tolist()))
    h1_at_d = (twist >= np.maximum(regs - 1, 0)).tolist()
    failures = [
        {"chi": sweep.chars[idx].tolist(), "reg": reg, "d": d}
        for idx, reg, d in per_chi
        if reg >= d
    ]
    return ConditionAResult(not failures, per_chi, degrees, h1_at_d, failures)


# ---------------------------------------------------------------------------
# conditions (b) and (c): lattice negativity and admissible counts


@dataclass
class ConditionBResult:
    verdict: bool
    max_value: int
    witness: dict
    pairs_checked: int
    exceptional_cross_check_ok: bool


def check_condition_b(sweep: SweepData) -> ConditionBResult:
    """D.(D - L_chi) < 0 for every strict transform and nontrivial chi.

    Exceptional divisors need no search: their coefficient in every
    character class is nonpositive, so E.(E - L_chi) = -1 + coefficient
    is automatically negative.  ``exceptional_cross_check_ok`` recomputes
    them anyway as a cross-check of that justification.  The values
    (1 - k) - (c - e_on) are held in the dtype of their bound.
    """
    bound = sweep.table.num_points + int(sweep.c_chi.max(initial=0)) + int(sweep.e_on_lines.max(initial=0))
    values = np.subtract(sweep.e_on_lines, sweep.c_chi[:, None], dtype=narrow_dtype(bound))
    values += 1 - sweep.k_points_on_line
    sub = values[1:]
    max_value = int(sub.max())
    flat = int(sub.argmax())
    chi_idx, line_idx = divmod(flat, sub.shape[1])
    witness = {
        "chi": [int(x) for x in sweep.chars[chi_idx + 1]],
        "line": int(line_idx + 1),
        "value": max_value,
    }
    exc_ok = bool((-1 - sweep.e_floor[1:] < 0).all())
    return ConditionBResult(max_value < 0, max_value, witness, int(sub.size), exc_ok)


@dataclass
class ConditionCResult:
    verdict: bool
    min_slack: int
    witness: dict
    binding_cases: int


def admissible(sweep: SweepData) -> np.ndarray:
    """Admissible strict transforms, a p^r x n boolean matrix.

    Line i is admissible for a character when the pairing with its label
    avoids p - 1 and the hyperplane class minus the character class is
    negative on its strict transform: 1 - c + e_on < 0.
    """
    p = sweep.labels.p
    return (sweep.pair_lines != p - 1) & (sweep.e_on_lines < (sweep.c_chi - 1)[:, None])


def check_condition_c(sweep: SweepData) -> ConditionCResult:
    """Each exceptional divisor meets enough admissible strict transforms.

    For every nontrivial character and every blown-up point, the number
    of admissible lines through the point must be at least 2 minus the
    pairing of the character class with the exceptional divisor; the
    bound only binds when that pairing is 0 or 1.
    """
    counts = incidence_sums(admissible(sweep), sweep.inc)
    need = 2 - sweep.e_floor
    bound = int(counts.max(initial=0)) + int(sweep.e_floor.max(initial=0)) + 2
    slack = np.subtract(counts, need, dtype=narrow_dtype(bound))[1:]
    min_slack = int(slack.min())
    flat = int(slack.argmin())
    chi_idx, nu = divmod(flat, slack.shape[1])
    witness = {
        "chi": [int(x) for x in sweep.chars[chi_idx + 1]],
        "point": str(sweep.table.points[nu]),
        "count": int(counts[1:][chi_idx, nu]),
        "required": int(need[1:][chi_idx, nu]),
    }
    binding = int((need[1:] > 0).sum())
    return ConditionCResult(min_slack >= 0, min_slack, witness, binding)


# ---------------------------------------------------------------------------
# ampleness downstairs


@dataclass
class AmpleResult:
    verdict: bool
    conditions: dict


def check_ample(p: int, table: IncidenceTable) -> AmpleResult:
    """The four inequalities making the canonical class of the cover ample.

    All comparisons are exact rational comparisons.
    """
    n = len(table.arrangement.lines)
    mus = table.mu
    lhs = (p - 1) * n - 3 * p
    square_term = lhs * lhs - sum(((p - 1) * mu - (2 * p - 1)) ** 2 for mu in mus)
    bound = Fraction((2 * p - 1) * n, 3 * p)
    conditions = {
        "prime_at_least_3": p >= 3,
        "positive_self_intersection": square_term > 0,
        "multiplicities_below_bound": all(mu < bound for mu in mus),
        "enough_lines": n * (p - 1) > 3 * p,
        "self_intersection_value": square_term,
        "multiplicity_bound": str(bound),
        "max_multiplicity": max(mus) if mus else 0,
    }
    verdict = (
        conditions["prime_at_least_3"]
        and conditions["positive_self_intersection"]
        and conditions["multiplicities_below_bound"]
        and conditions["enough_lines"]
    )
    return AmpleResult(verdict, conditions)


# ---------------------------------------------------------------------------
# invariants of the covering surface


@dataclass
class InvariantsResult:
    K2: int
    chi: int
    pg: int
    q: int
    slope: Fraction
    bmy_ok: bool
    kuranishi_lower_bound: int
    q_h1_route_ok: bool

    def to_jsonable(self) -> dict:
        return {**asdict(self), "slope": str(self.slope), "slope_decimal": f"{float(self.slope):.4f}"}


def invariants(sweep: SweepData, cond_a: ConditionAResult) -> InvariantsResult:
    """K^2, chi, p_g, q and the sanity inequalities, all exact.

    K^2 comes from the ramification square; chi sums the Euler
    characteristics of the inverse character classes (the trivial
    character contributing exactly 1); p_g sums h0 of the canonical
    twists, where h1 vanishing in the twist degree (certified per
    character) collapses h0 to a lattice count.  q is computed as
    1 - chi + p_g and must agree with the per-character h1 vanishing
    route.
    """
    p, r = sweep.labels.p, sweep.labels.r
    table = sweep.table
    m = table.num_points
    ks = canonical_class(m)
    b = branch_class(table)
    ample_div = p * ks + (p - 1) * b
    k2 = intersect(ample_div, ample_div) * p ** (r - 2)

    # row sums of (-e)(1 - e) = e^2 - e, in int64 without an int64 copy of e
    c, e = sweep.c_chi.astype(np.int64), sweep.e_floor
    inter = c * (c - 3) - (np.einsum("ij,ij->i", e, e, dtype=np.int64) - e.sum(axis=1, dtype=np.int64))
    if (inter % 2).any():
        raise ArithmeticError("character class Euler terms must be even")
    if inter[0] != 0:
        raise ArithmeticError("trivial character must contribute exactly 1")
    chi_total = int((inter // 2 + 1).sum())

    pg = 0
    all_h1_vanish = True
    for (idx, _reg, d), deg, h1d in zip(cond_a.per_chi, cond_a.degrees, cond_a.h1_at_d):
        if d < 0:
            continue
        if h1d:
            pg += comb(d + 2, 2) - deg
        else:
            all_h1_vanish = False
            pg += h0_h1(fat_points(table.points, sweep.h_mult[idx]), d)[0]

    q = 1 - chi_total + pg
    if q < 0:
        raise ArithmeticError(f"negative irregularity q={q}")
    return InvariantsResult(
        K2=k2,
        chi=chi_total,
        pg=pg,
        q=q,
        slope=Fraction(k2, chi_total),
        bmy_ok=k2 <= 9 * chi_total,
        kuranishi_lower_bound=10 * chi_total - 2 * k2,
        q_h1_route_ok=all_h1_vanish and q == 0,
    )


# ---------------------------------------------------------------------------
# the consolidated certificate


@dataclass
class Certificate:
    sections: dict
    timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.sections["overall"]["pass"]

    def to_json(self, include_timings: bool = True) -> str:
        payload = dict(self.sections)
        if include_timings:
            payload["timings"] = self.timings
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _character_sections(
    sweep: SweepData, heart: HeartData, threads: int, sections: dict, timings: dict
) -> bool:
    """Fill in conditions (a), (b), (c) and the invariants; True if all pass."""
    t0 = time.perf_counter()
    cond_a = check_condition_a(sweep, threads=threads)
    timings["condition_a"] = time.perf_counter() - t0
    regs = [reg for _, reg, _ in cond_a.per_chi]
    margins = [d - reg for _, reg, d in cond_a.per_chi]
    sections["condition_a"] = {
        "verdict": cond_a.verdict,
        "characters_checked": len(cond_a.per_chi),
        "regularity_range": [min(regs), max(regs)] if regs else None,
        "min_margin": min(margins) if margins else None,
        "per_chi_reg_and_degree": [[reg, d] for _, reg, d in cond_a.per_chi],
        "failures": cond_a.failures[:10],
    }

    t0 = time.perf_counter()
    cond_b = check_condition_b(sweep)
    timings["condition_b"] = time.perf_counter() - t0
    sections["condition_b"] = asdict(cond_b)

    t0 = time.perf_counter()
    cond_c = check_condition_c(sweep)
    timings["condition_c"] = time.perf_counter() - t0
    sections["condition_c"] = asdict(cond_c)

    t0 = time.perf_counter()
    inv = invariants(sweep, cond_a)
    timings["invariants"] = time.perf_counter() - t0
    expected = heart.expected or {}
    inv_json = inv.to_jsonable()
    if "chi_any_of" in expected:
        matches = [v for v in expected["chi_any_of"] if v == inv.chi]
        inv_json["chi_expected_any_of"] = expected["chi_any_of"]
        inv_json["chi_matches_expected"] = matches[0] if matches else None
    if "K2" in expected:
        inv_json["K2_matches_expected"] = inv.K2 == expected["K2"]
    sections["invariants"] = inv_json

    return bool(cond_a.verdict and cond_b.verdict and cond_c.verdict and inv.q == 0)


def full_certificate(heart: HeartData, threads: int = 1, labels: LabelMap | None = None) -> Certificate:
    """Run the whole pipeline on a configuration with designated structure.

    Chains the double-point certification of the incidence problem, the
    label validation, the three character conditions, ampleness, and
    the invariants; the overall verdict passes only if every section
    does.  The character sections are skipped, and recorded so, when
    the incidence or the building data fails.

    Without ``labels`` the heart's line labels are taken as given, with
    the exceptional labels they force, so a damaged label table fails
    divisibility in the building data section, which names the unit
    characters.  The arrangement's crossing map is computed once, here,
    for the singular points and the incidence section.
    """
    crossings = intersection_points(heart.arrangement.lines)
    table = singular_points(heart.arrangement, crossings)
    if labels is None:
        labels = label_map(heart.line_labels, table, heart.p, heart.r)
    timings: dict = {}
    sections: dict = {
        "inputs": {
            "arrangement_digest": _digest([list(l.coeffs) for l in heart.arrangement.lines]),
            "labels_digest": _digest([list(x) for x in labels.all_labels]),
            "p": labels.p,
            "r": labels.r,
            "lines": len(heart.arrangement.lines),
            "blown_up_points": table.num_points,
            "tool": {"name": "rigidsurf", "version": __version__},
        }
    }

    t0 = time.perf_counter()
    structure = check_structure(heart, crossings)
    dp = certify_double_point(heart.arrangement, heart.pqr, crossings)
    timings["incidence"] = time.perf_counter() - t0
    sections["incidence"] = {
        "verdict": bool(dp.ok and structure.all_ok),
        "structure_checks": structure.checks,
        **dp.to_jsonable(),
    }

    t0 = time.perf_counter()
    validation = validate_labels(labels, table)
    timings["building_data"] = time.perf_counter() - t0
    sections["building_data"] = {"verdict": validation.all_ok, **validation.to_jsonable()}
    if validation.details:
        sections["building_data"]["failures"] = validation.details

    t0 = time.perf_counter()
    ample = check_ample(labels.p, table)
    timings["ampleness"] = time.perf_counter() - t0
    sections["ampleness"] = {"verdict": ample.verdict, **ample.conditions}

    # the character sweep needs a certified incidence and valid building
    # data: build_sweep raises on labels that are not divisible, and any
    # other failure already decides the verdict
    skipped = None if validation.all_ok else "building_data failed"
    if not sections["incidence"]["verdict"]:
        skipped = "incidence failed"
    if skipped is None:
        sweep = build_sweep(labels, table)
        sweep_ok = _character_sections(sweep, heart, threads, sections, timings)
    else:
        for name in ("condition_a", "condition_b", "condition_c", "invariants"):
            sections[name] = {"skipped": skipped}
        sweep_ok = False

    all_pass = (
        sections["incidence"]["verdict"] and validation.all_ok and ample.verdict and sweep_ok
    )
    sections["overall"] = {
        "pass": bool(all_pass),
        "verdict": "rigid, not infinitesimally rigid, K ample" if all_pass else "verification failed",
    }
    return Certificate(sections, timings)


__all__ = [
    "AmpleResult",
    "Certificate",
    "ConditionAResult",
    "ConditionBResult",
    "ConditionCResult",
    "InvariantsResult",
    "SweepData",
    "admissible",
    "build_sweep",
    "check_ample",
    "check_condition_a",
    "check_condition_b",
    "check_condition_c",
    "full_certificate",
    "invariants",
]
