#!/usr/bin/env python3
"""Time the parts of one seeded ``search`` or ``certify-1w`` benchmark repetition.

The inputs are those of ``perfbench/workloads.py`` for the given seed.
A ``search`` repetition has four parts: 20 label searches, one
empirical acceptance count, the waves schedule plus 10 seeded
elimination schedules, and 10 double-point scans.  A ``certify-1w``
repetition is one ``full_certificate`` with 1 worker and its
``to_json``; its parts are the ``Certificate.timings`` sections, the
crossing map and ``build_sweep`` (which run outside them) and
``to_json``.  Six parts inside condition (a) are also reported and left
out of the total: its line bank, its scan start and its residuation
chains, as ``condition_a.line_bank``, ``condition_a.start`` and
``condition_a.residual``, and the three steps of its rank loop, the
per-degree conditions banks, the stacked ranks mod the prime and the
exact Bareiss ranks, as ``condition_a.banks``, ``condition_a.ranks`` and
``condition_a.bareiss``, each summed over its calls in condition (a)
alone.  Each part runs once, in the benchmark's order, and prints as
one JSON object with its wall time, the minor page faults it took
(``ru_minflt``) and a short summary of its output.  A ``certify-1w`` part also gives ``rss_mb``,
how far the process's peak RSS (``ru_maxrss``) stood above its value
after set-up when the part ended, in the first certificate, so the part
that first reaches the process's peak is the one that sets it; and
``peak_mib``, the most memory ``tracemalloc`` saw the part hold above
what it started with, taken from a second, traced certificate in the
same process.  The object gives the traced peak of one whole
certificate and its JSON.  With ``--repeat N`` the repetition runs in
N fresh processes, one after the other, and the object gives each
part's median of every metric over them, with the N values.

    PYTHONPATH=src python scripts/search_split.py --seed 1
    PYTHONPATH=src python scripts/search_split.py --seed 1 --repeat 5
    PYTHONPATH=src python scripts/search_split.py --workload certify-1w --seed 1 --repeat 5
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# the functions full_certificate calls, by the part they are reported in:
# the Certificate.timings section they run in, or the crossing map and
# build_sweep, which run outside the sections
CERTIFY_PARTS = {
    "intersection_points": "crossings",
    "singular_points": "crossings",
    "check_structure": "incidence",
    "certify_double_point": "incidence",
    "validate_labels": "building_data",
    "check_ample": "ampleness",
    "build_sweep": "build_sweep",
    "check_condition_a": "condition_a",
    "check_condition_b": "condition_b",
    "check_condition_c": "condition_c",
    "invariants": "invariants",
}
# functions of rigidsurf.cohomology that condition (a) calls, by the part
# they are reported in; a part named with a dot runs inside another one
COHOMOLOGY_PARTS = {
    "_line_bank": "condition_a.line_bank",
    "_start": "condition_a.start",
    "_residual": "condition_a.residual",
    "conditions_matrix_mod": "condition_a.banks",
    "ranks_mod": "condition_a.ranks",
    "hilbert_rank": "condition_a.bareiss",
}
# the peaks so far of the traced parts that are running, outermost first
_open_peaks = []


def _timed(call):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = call()
    wall = time.perf_counter() - t0
    return out, {
        "wall_s": round(wall, 4),
        "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
    }


def _traced(call):
    """``_timed``, plus the traced peak above the start when tracemalloc is on."""
    if not tracemalloc.is_tracing():
        return _timed(call)
    # a part inside another resets the peak, so the peak reached so far
    # is first carried into every part around it
    for frame in _open_peaks:
        frame[0] = max(frame[0], tracemalloc.get_traced_memory()[1])
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    _open_peaks.append(frame := [0])
    try:
        out, part = _timed(call)
    finally:
        _open_peaks.pop()
    part["peak_mib"] = round((max(frame[0], tracemalloc.get_traced_memory()[1]) - held) / 2**20, 3)
    return out, part


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("search", "certify-1w"), default="search")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes to take medians over")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.repeat > 1:
        print(json.dumps(_medians(args.workload, args.seed, args.repeat)))
    elif args.workload == "certify-1w":
        print(json.dumps(_certify_parts(args.seed)))
    else:
        print(json.dumps(_search_parts(args.seed)))


def _search_parts(seed: int) -> dict:
    from rigidsurf import cover, incidence, triangle

    inputs = workloads.setup("search", seed)
    table, problem = inputs["table"], inputs["problem"]
    parts = {}

    found, parts["label_search"] = _timed(
        lambda: [cover.random_label_search(table, *workloads.LABEL_GROUP, seed=s) for s in inputs["labels"]]
    )
    parts["label_search"]["attempts"] = sum(res.attempts for res in found)

    count, parts["acceptance"] = _timed(
        lambda: cover.empirical_acceptance(
            table, *workloads.ACCEPTANCE_GROUP, inputs["acceptance"], workloads.ACCEPTANCE_ATTEMPTS
        )
    )
    parts["acceptance"]["count"] = list(count)

    residues, parts["elimination"] = _timed(
        lambda: [incidence.eliminate(problem)[0]]
        + [incidence.eliminate(problem, seed=s)[0] for s in inputs["schedules"]]
    )
    parts["elimination"]["schedules"] = len(residues)

    triples, parts["triangles"] = _timed(
        lambda: [
            t
            for s in inputs["triangles"]
            for t in triangle.search_double_point(workloads.TRIANGLE_HEIGHT, workloads.TRIANGLE_COUNT, s)
        ]
    )
    parts["triangles"]["triples"] = len(triples)

    total = round(sum(part["wall_s"] for part in parts.values()), 4)
    return {"seed": seed, "total_wall_s": total, "parts": parts}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _certify_parts(seed: int) -> dict:
    """Wall time, faults and peak RSS of each part of the first certificate, traced peaks of a second one."""
    from rigidsurf import certify, cohomology

    inputs = workloads.setup("certify-1w", seed)
    set_up = _max_rss_mb()
    wraps = [(certify, name, part) for name, part in CERTIFY_PARTS.items()]
    wraps += [(cohomology, name, part) for name, part in COHOMOLOGY_PARTS.items()]
    originals = [getattr(module, name) for module, name, _ in wraps]
    parts, running = {}, set()

    def wrapped(inner, name):
        def call(*args, **kwargs):
            # a part named with a dot counts only its calls inside the other
            # part (hilbert_rank also runs in invariants)
            if "." in name and name.partition(".")[0] not in running:
                return inner(*args, **kwargs)
            running.add(name)
            try:
                out, part = _traced(lambda: inner(*args, **kwargs))
            finally:
                running.discard(name)
            part["rss_mb"] = round(_max_rss_mb() - set_up, 3)
            into = parts.setdefault(name, {})
            for metric, value in part.items():
                # the calls of a part run one after the other: peaks are
                # the largest of theirs, times and faults their sums
                peak = metric in ("peak_mib", "rss_mb")
                into[metric] = max(into.get(metric, 0), value) if peak else into.get(metric, 0) + value
            return out

        return call

    def certificate():
        cert = certify.full_certificate(inputs["heart"], threads=inputs["threads"])
        return wrapped(lambda: cert.to_json(include_timings=False), "to_json")()

    try:
        for (module, name, part), inner in zip(wraps, originals):
            setattr(module, name, wrapped(inner, part))
        text = certificate()
        first = dict(parts)
        parts.clear()
        tracemalloc.start()
        try:
            certificate()
        finally:
            tracemalloc.stop()
    finally:
        for (module, name, _), inner in zip(wraps, originals):
            setattr(module, name, inner)
    for name, part in first.items():
        part["wall_s"] = round(part["wall_s"], 4)
        part["peak_mib"] = parts[name]["peak_mib"]

    tracemalloc.start()
    try:
        certify.full_certificate(inputs["heart"], threads=inputs["threads"]).to_json(include_timings=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "workload": "certify-1w",
        "seed": seed,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "total_wall_s": round(sum(part["wall_s"] for name, part in first.items() if "." not in name), 4),
        "peak_mib": round(peak / 2**20, 3),
        "parts": first,
    }


def _medians(workload: str, seed: int, repeat: int) -> dict:
    """Each part's median of each metric over ``repeat`` fresh processes."""
    runs = []
    for _ in range(repeat):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(done.stdout)["parts"])
    parts = {}
    for name in runs[0]:
        parts[name] = {}
        for metric in ("wall_s", "minflt", "rss_mb", "peak_mib"):
            if metric not in runs[0][name]:
                continue
            values = [run[name][metric] for run in runs]
            parts[name][metric] = statistics.median(values)
            parts[name][f"{metric}_runs"] = values
    return {"workload": workload, "seed": seed, "repeat": repeat, "parts": parts}


if __name__ == "__main__":
    main()
