"""Workload inputs, the timed work and the correctness gates.

Each workload has three steps, all run inside one fresh process per
repetition (see ``rep.py``):

* ``setup(workload, seed)`` builds the inputs: imports, ``build_heart``,
  ``singular_points`` and ``complete_labels``, plus the inputs the
  workload draws from its seed;
* ``work(workload, inputs)`` is the timed part;
* ``check(workload, inputs, output)`` is the untimed correctness gate.
  It returns (operations checked, operations failed, items of work).

The program receives only the generated inputs; the seed never reaches
it except as the seeds of its own seeded searches.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from math import comb

# the benchmark's workloads, as listed in BENCHMARK.json
WORKLOADS = ("certify-1w", "search")
# runnable by name but not part of the benchmark: with four workloads the
# run-time budget allows only 25-s runs, too short to keep the spread of
# ten runs within the 25% bound on a shared 2-core virtual machine
# (see interactions.json)
OTHER_WORKLOADS = ("certify-2w", "oracle")

SEED_DIGEST = "39b5bc91575774c14a89765c1a74a0eabc09be3f0e90cb6ee69ba333b5230372"
SEED_INVARIANTS = {"K2": 1_260_966, "chi": 151_851, "q": 0}
SEED_CERTIFICATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "seed_certificate.json")

# oracle: one character from each stratum of this many, strata ordered by
# the seed certificate's (reg, d) so every seed draws the same mix of sizes
ORACLE_STRATUM = 6

# search: sizes of one repetition
LABEL_GROUP = (7, 5)        # (Z/7)^5: a search ends after ~3 attempts
LABEL_SEARCHES = 20
ACCEPTANCE_GROUP = (7, 4)   # the paper's group, for the vectorized count
ACCEPTANCE_ATTEMPTS = 50_000
SCHEDULES = 10
TRIANGLE_SCANS = 10
TRIANGLE_HEIGHT = 10
TRIANGLE_COUNT = 10


def load_seed_certificate() -> dict:
    with open(SEED_CERTIFICATE, encoding="utf-8") as fh:
        return json.load(fh)


def oracle_sample(seed: int, per_chi) -> list[int]:
    """Character indices (1-based, lexicographic) drawn one per stratum."""
    order = sorted(range(1, len(per_chi) + 1), key=lambda i: (per_chi[i - 1][0], per_chi[i - 1][1], i))
    rng = random.Random(seed)
    return sorted(
        rng.choice(order[k:k + ORACLE_STRATUM]) for k in range(0, len(order), ORACLE_STRATUM)
    )


def search_seeds(seed: int) -> dict:
    rng = random.Random(seed)
    draw = lambda k: [rng.randrange(2**32) for _ in range(k)]
    return {
        "labels": draw(LABEL_SEARCHES),
        "acceptance": draw(1)[0],
        "schedules": draw(SCHEDULES),
        "triangles": draw(TRIANGLE_SCANS),
    }


def draw_inputs(workload: str, seed: int) -> dict:
    """The seed-dependent part of a workload's inputs (plain data)."""
    if workload in ("certify-1w", "certify-2w"):
        return {"threads": 1 if workload == "certify-1w" else 2}
    if workload == "oracle":
        per_chi = load_seed_certificate()["condition_a"]["per_chi_reg_and_degree"]
        return {"characters": oracle_sample(seed, per_chi)}
    if workload == "search":
        return search_seeds(seed)
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int) -> dict:
    from rigidsurf import arrangement, cover

    heart = arrangement.build_heart()
    table = arrangement.singular_points(heart.arrangement)
    labels = cover.complete_labels(heart.line_labels[:-1], table, heart.p, heart.r)
    inputs = {"heart": heart, "table": table, "labels": labels, **draw_inputs(workload, seed)}
    if workload == "oracle":
        from rigidsurf import cohomology

        chars = cover.all_characters(heart.p, heart.r)
        per_chi = load_seed_certificate()["condition_a"]["per_chi_reg_and_degree"]
        inputs["schemes"] = [
            (idx, *cohomology.ideal_of_chi(labels, table, chars[idx]), *per_chi[idx - 1])
            for idx in inputs["characters"]
        ]
    elif workload == "search":
        inputs["problem"] = _elimination_problem(heart)
    return inputs


def _elimination_problem(heart):
    """The incidence problem ``certify_double_point`` eliminates."""
    from rigidsurf import arrangement, incidence, triangle

    arr = heart.arrangement
    sol = triangle.solve_realization(*heart.pqr)[0]
    closing = {arr.index(l) for l in (sol.L_P, sol.L_Q, sol.L_R)}
    kept = [l for i, l in enumerate(arr.lines) if i not in closing]
    extra = tuple(sorted(arrangement.intersection_points(kept)))
    return incidence.from_arrangement(arr, extra_points=extra)


# ---------------------------------------------------------------------------
# timed work


def work(workload: str, inputs: dict):
    if workload.startswith("certify"):
        from rigidsurf import certify

        cert = certify.full_certificate(inputs["heart"], threads=inputs["threads"])
        return cert.to_json(include_timings=False)
    if workload == "oracle":
        from rigidsurf import cohomology

        return [
            (cohomology.regularity(scheme, fast=False), cohomology.h0_h1(scheme, d))
            for _idx, scheme, d, _reg, _d in inputs["schemes"]
        ]
    if workload == "search":
        return _search(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def _search(inputs: dict) -> dict:
    from rigidsurf import cover, incidence, triangle

    table = inputs["table"]
    found = [cover.random_label_search(table, *LABEL_GROUP, seed=s) for s in inputs["labels"]]
    acceptance = cover.empirical_acceptance(
        table, *ACCEPTANCE_GROUP, inputs["acceptance"], ACCEPTANCE_ATTEMPTS
    )
    residues = [incidence.eliminate(inputs["problem"])[0]]
    residues += [incidence.eliminate(inputs["problem"], seed=s)[0] for s in inputs["schedules"]]
    triples = [
        t
        for s in inputs["triangles"]
        for t in triangle.search_double_point(TRIANGLE_HEIGHT, TRIANGLE_COUNT, s)
    ]
    return {"found": found, "acceptance": acceptance, "residues": residues, "triples": triples}


# ---------------------------------------------------------------------------
# correctness gates


def certificate_failures(text: str) -> list[str]:
    """Why a certificate text is not the seed's certificate (empty if it is)."""
    failures = []
    if hashlib.sha256(text.encode()).hexdigest() != SEED_DIGEST:
        failures.append("certificate digest differs from the seed digest")
    try:
        sections = json.loads(text)
        overall = sections["overall"]["pass"]
        inv = {k: sections["invariants"][k] for k in SEED_INVARIANTS}
    except (ValueError, KeyError, TypeError) as exc:
        return failures + [f"certificate does not parse: {exc!r}"]
    if overall is not True:
        failures.append("overall verdict does not pass")
    if inv != SEED_INVARIANTS:
        failures.append(f"invariants {inv} differ from {SEED_INVARIANTS}")
    return failures


def check(workload: str, inputs: dict, output) -> tuple[int, int, int, list[str]]:
    """(operations checked, operations failed, items of work, failure notes)."""
    if workload.startswith("certify"):
        notes = certificate_failures(output)
        items = json.loads(output)["condition_a"]["characters_checked"] if not notes else 0
        return 1, int(bool(notes)), items, notes
    if workload == "oracle":
        notes = []
        for (idx, scheme, d, reg_ref, d_ref), (reg, (h0, h1)) in zip(inputs["schemes"], output):
            if (reg, d) != (reg_ref, d_ref) or h1 != 0 or h0 != comb(d + 2, 2) - scheme.degree:
                notes.append(f"character {idx}: reg={reg} d={d} h0={h0} h1={h1}, seed reg={reg_ref} d={d_ref}")
        n = len(inputs["schemes"])
        return n, len(notes), n, notes
    if workload == "search":
        return _check_search(inputs, output)
    raise ValueError(f"unknown workload {workload!r}")


def _residue_key(problem):
    return (
        sorted(problem.fixed_points.items()),
        sorted(problem.fixed_lines.items()),
        problem.variable_points,
        problem.variable_lines,
        problem.relations,
    )


def _check_search(inputs: dict, output: dict):
    from rigidsurf import cover, triangle

    table = inputs["table"]
    notes = []
    for seed, res in zip(inputs["labels"], output["found"]):
        if not (res.accepted and cover.validate_labels(res.labels, table).all_ok):
            notes.append(f"label map of seed {seed} fails validation")
    successes, attempts = output["acceptance"]
    p, r = ACCEPTANCE_GROUP
    est = float(cover.acceptance_estimate(len(table.arrangement.lines), table.num_points, p, r))
    sigma = math.sqrt(est * (1 - est) / ACCEPTANCE_ATTEMPTS)
    if attempts != ACCEPTANCE_ATTEMPTS or abs(successes / attempts - est) > 6 * sigma:
        notes.append(f"acceptance {successes}/{attempts} far from the estimate {est:.6f}")
    reference = _residue_key(output["residues"][0])
    for seed, residue in zip([None, *inputs["schedules"]], output["residues"]):
        if _residue_key(residue) != reference:
            notes.append(f"elimination residue of schedule {seed} differs")
    for P, Q, R in output["triples"]:
        if triangle.classify(P, Q, R).kind is not triangle.Kind.DOUBLE_POINT:
            notes.append(f"triple {P} {Q} {R} is not a double point")
    ops = len(output["found"]) + 1 + len(output["residues"]) + len(output["triples"])
    items = sum(res.attempts for res in output["found"]) + attempts
    return ops, len(notes), items, notes
