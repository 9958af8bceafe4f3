"""One repetition of a workload in a fresh process.

Run by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH``.  Prints one JSON line: the monotonic time at which the
inputs were ready (the parent subtracts its spawn time), the wall and
CPU time of the work, peak RSS, and the gate's verdict.  With
``--trace-dir`` the program's functions are wrapped (see ``spans.py``),
the spans are written to ``<trace-dir>/spans.json`` and the per-layer
metrics are added to the line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # every workload imports every module, so setup_s counts the same imports
    import rigidsurf
    from rigidsurf import arrangement, certify, cohomology, cover, incidence, triangle  # noqa: F401

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(rigidsurf.__file__).startswith(src + os.sep):
        print(f"rigidsurf imported from {rigidsurf.__file__}, not from {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = None
    if args.trace_dir:
        tracer = spans.Tracer(worker_dir=args.trace_dir)
        tracer.install()
    inputs = workloads.setup(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    cpu0 = _cpu(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    output = workloads.work(args.workload, inputs)
    wall = time.perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    record = {"ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_kb / 1024}
    if tracer is not None:
        tracer.uninstall()
        tracer.collect_workers()
        tracer.dump(os.path.join(args.trace_dir, "spans.json"))
        record["layers"] = spans.layer_metrics(tracer.spans, tracer.missing)
        record["missing"] = tracer.missing

    ops, failed, items, notes = workloads.check(args.workload, inputs, output)
    record.update(ops=ops, failed=failed, items=items, notes=notes[:5])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
