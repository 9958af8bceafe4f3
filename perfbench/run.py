#!/usr/bin/env python3
"""The rigidsurf benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-1w --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every benchmark workload

``certify-2w`` and ``oracle`` run by name too, but are not in
``BENCHMARK.json`` (see ``workloads.OTHER_WORKLOADS``).

Each repetition runs in a fresh process (``rep.py``), one at a time, so
the benchmark never has more worker processes than the 2 of
``certify-2w``.  Repetitions run until the next one would pass
``--seconds`` (at least two).  Set-up is also sampled by extra
set-up-only processes, after one untimed warm-up.  Every repetition
passes a correctness gate; a failed one is counted in ``failed`` and its
timings are left out of the medians.

With ``--trace 0`` the last line of stdout reports the end-to-end
metrics (medians over repetitions); with ``--trace 1`` one untraced and
one traced repetition run, and the line reports the per-layer metrics of
the traced one.  A summary with sample counts goes to stderr, and the
run record, spans included, to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"
MIN_REPS = 2
SETUP_SAMPLES = 11
DEADLINE_S = 165  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class RepFailed(Exception):
    """A repetition process exited badly or printed no record."""


def _machine() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
    }


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run rep.py; returns (monotonic spawn time, its JSON record)."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), *args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RepFailed(f"repetition timed out after {timeout:.0f} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"repetition exited with {proc.returncode}")
    return start, json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: int, trace: bool, began: float) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    remaining = lambda: DEADLINE_S - (time.monotonic() - began)

    try:
        _spawn([*base, "--setup-only"], remaining())  # warm-up: byte-code and file caches
    except RepFailed:
        pass  # the repetitions below fail the same way and are counted

    reps, failures = [], []
    setups = []
    t_start = time.monotonic()
    last = 0.0
    planned = [False, True]  # with tracing: one untraced, then one traced repetition
    while True:
        done = len(reps) + len(failures)
        if trace:
            if done == len(planned):
                break
            traced = planned[done]
        else:
            if done >= MIN_REPS and time.monotonic() - t_start + last > seconds:
                break
            traced = False
        if reps and last > remaining():
            break
        extra = []
        trace_dir = None
        if traced:
            trace_dir = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}")
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            extra = ["--trace-dir", trace_dir]
        t_rep = time.monotonic()
        try:
            spawned, rec = _spawn([*base, *extra], remaining())
        except RepFailed as exc:
            failures.append({"traced": traced, "notes": [str(exc)]})
            last = time.monotonic() - t_rep
            continue
        last = time.monotonic() - t_rep
        rec["setup_s"] = rec["ready"] - spawned
        rec["traced"] = traced
        setups.append(rec["setup_s"])
        (failures if rec["failed"] else reps).append(rec)

    while len(setups) < SETUP_SAMPLES and remaining() > 10:
        try:
            spawned, rec = _spawn([*base, "--setup-only"], remaining())
        except RepFailed as exc:
            failures.append({"traced": False, "notes": [str(exc)]})
            break
        setups.append(rec["ready"] - spawned)

    attempted = sum(r.get("ops", 1) for r in reps + failures)
    failed = sum(r.get("failed", 1) for r in failures)
    timed = [r for r in reps if not r["traced"]] or [r for r in failures if "wall_s" in r]
    e2e = {
        "setup_s": _median(setups),
        "wall_s": _median([r["wall_s"] for r in timed]),
        "items_per_s": _median([r["items"] / r["wall_s"] for r in timed if r["wall_s"] > 0]),
        "cpu_s": _median([r["cpu_s"] for r in timed]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in timed]),
    }
    result = {
        "workload": name,
        "seed": seed,
        "correct": not failures and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "samples": {"setup_s": len(setups), "timed": len(timed)},
        "reps": [{k: r.get(k) for k in ("traced", "setup_s", "wall_s", "cpu_s", "items")} for r in reps],
        "setups": setups,
        "end_to_end": e2e,
        "failures": [f.get("notes") for f in failures],
    }
    if trace:
        traced_rep = next((r for r in reps + failures if r.get("traced") and "layers" in r), None)
        layers = dict(traced_rep["layers"]) if traced_rep else {}
        missing = [m for m, _u, _t, _q in spans.LAYER_METRICS if layers.get(m) is None]
        overhead = traced_rep["wall_s"] - e2e["wall_s"] if traced_rep and timed else None
        layers["trace.overhead_s"] = overhead
        if overhead is None:
            missing.append("trace.overhead_s")
        result["per_layer"] = layers
        result["missing"] = missing
    return result


def _report(result: dict, trace: bool) -> dict:
    """The result line for one workload: correct, attempted, failed, metrics."""
    if trace:
        units = {m: u for m, u, _t, _q in spans.LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        metrics = {
            m: {"value": result["per_layer"].get(m) or 0, "unit": u} for m, u in units.items()
        }
    else:
        metrics = {m: {"value": result["end_to_end"][m], "unit": u} for m, u in END_TO_END}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _summarize(result: dict) -> None:
    err = result["failed"] / result["attempted"]
    print(f"== {result['workload']} (seed {result['seed']})", file=sys.stderr)
    n = result["samples"]
    for metric, unit in END_TO_END:
        count = n["setup_s"] if metric == "setup_s" else n["timed"]
        value = result["end_to_end"][metric]
        print(f"  {metric:<12} {value:12.4f} {unit:<4} (median of {count})", file=sys.stderr)
    print(f"  {'error_rate':<12} {err:12.4f} {'':<4} ({result['failed']}/{result['attempted']} operations)", file=sys.stderr)
    for notes in result["failures"]:
        print(f"  failed: {notes}", file=sys.stderr)
    for metric in result.get("missing", ()):
        print(f"  missing: {metric}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, *workloads.OTHER_WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "rigidsurf", "__init__.py")):
        print("run from the root of a rigidsurf checkout: src/rigidsurf is missing", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    machine = _machine()
    print(f"machine: {json.dumps(machine)}", file=sys.stderr)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), time.monotonic())
        result["machine"] = machine
        _summarize(result)
        record = os.path.join(OUT_DIR, f"run-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(record, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        results.append(result)

    if len(results) == 1:
        print(json.dumps(_report(results[0], bool(args.trace))))
    else:
        reports = {r["workload"]: _report(r, bool(args.trace)) for r in results}
        print(json.dumps({
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in reports.items() for m, v in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
