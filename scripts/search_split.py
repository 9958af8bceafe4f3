#!/usr/bin/env python3
"""Time the four parts of one seeded ``search`` benchmark repetition.

The inputs are those of ``perfbench/workloads.py`` for the given seed:
20 label searches, one empirical acceptance count, the waves schedule
plus 10 seeded elimination schedules, and 10 double-point scans.  Each
part runs once, in the benchmark's order, and prints as one JSON object
with its wall time, the minor page faults it took (``ru_minflt``) and a
short summary of its output.  With ``--repeat N`` the repetition runs in
N fresh processes, one after the other, and the object gives each part's
median wall time and faults over them, with the N values.

    PYTHONPATH=src python scripts/search_split.py --seed 1
    PYTHONPATH=src python scripts/search_split.py --seed 1 --repeat 5
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def _timed(call):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = call()
    wall = time.perf_counter() - t0
    return out, {
        "wall_s": round(wall, 4),
        "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1, help="fresh processes to take medians over")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.repeat > 1:
        print(json.dumps(_medians(args.seed, args.repeat)))
        return

    from rigidsurf import cover, incidence, triangle

    inputs = workloads.setup("search", args.seed)
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
    print(json.dumps({"seed": args.seed, "total_wall_s": total, "parts": parts}))


def _medians(seed: int, repeat: int) -> dict:
    """Each part's median wall time and faults over ``repeat`` fresh processes."""
    runs = []
    for _ in range(repeat):
        done = subprocess.run(
            [sys.executable, __file__, "--seed", str(seed)], capture_output=True, text=True, check=True
        )
        runs.append(json.loads(done.stdout)["parts"])
    parts = {}
    for name in runs[0]:
        parts[name] = {}
        for metric in ("wall_s", "minflt"):
            values = [run[name][metric] for run in runs]
            parts[name][metric] = statistics.median(values)
            parts[name][f"{metric}_runs"] = values
    return {"seed": seed, "repeat": repeat, "parts": parts}


if __name__ == "__main__":
    main()
