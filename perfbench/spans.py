"""Span tracing from outside the program, and the per-layer metrics.

A :class:`Tracer` replaces public functions of ``rigidsurf`` modules by
wrappers that record one span per call: name, start, end, the span that
caused it, and a few exact counts taken from the arguments or the
result.  The program itself is not changed.  A target that no longer
exists is recorded as missing and every metric derived from it is
reported as missing; the run carries on.

Spans stay in memory and are written out when the run ends.  Worker
processes forked by a process pool inherit the wrappers; each worker
appends the spans of every finished root call to its own file, and
:meth:`Tracer.collect_workers` merges them back, attaching each worker
root to the innermost parent-process span that encloses it in time
(``perf_counter`` is the system-wide monotonic clock on Linux).
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import sys
import time
from math import comb

PACKAGE = "rigidsurf"

# module.function names wrapped in a traced run
TARGETS = (
    "arrangement.build_heart",
    "arrangement.singular_points",
    "arrangement.check_structure",
    "incidence.certify_double_point",
    "incidence.eliminate",
    "triangle.search_double_point",
    "triangle.classify",
    "cover.complete_labels",
    "cover.validate_labels",
    "cover.random_label_search",
    "cover.empirical_acceptance",
    "cohomology.h1_is_zero",
    "cohomology.conditions_matrix_mod",
    "cohomology.rank_mod",
    "cohomology.conditions_matrix",
    "cohomology.bareiss_rank",
    "cohomology.hilbert_rank",
    "cohomology.regularity",
    "cohomology.h0_h1",
    "certify.full_certificate",
    "certify.build_sweep",
    "certify.check_condition_a",
    "certify._regularity_job",
    "certify.check_condition_b",
    "certify.check_condition_c",
    "certify.check_ample",
    "certify.invariants",
)


def _cells(matrix) -> int:
    """Entries of a numpy matrix or of a list of rows."""
    if hasattr(matrix, "size"):
        return int(matrix.size)
    return len(matrix) * len(matrix[0]) if matrix else 0


def _h1_is_zero(args, result):
    scheme, t = args[0], args[1]
    deg = scheme.degree
    return {"deg": deg, "bound": not scheme.points or t < 0 or comb(t + 2, 2) < deg}


# exact counts taken from a call, by target; each returns a small dict
EXTRACTORS = {
    "cohomology.h1_is_zero": _h1_is_zero,
    "cohomology.conditions_matrix_mod": lambda args, result: {"cells": _cells(result)},
    "cohomology.rank_mod": lambda args, result: {"cells": _cells(args[0]), "rank": int(result)},
    "cohomology.conditions_matrix": lambda args, result: {"cells": _cells(result)},
    "cohomology.bareiss_rank": lambda args, result: {"cells": _cells(args[0])},
    "cover.random_label_search": lambda args, result: {"attempts": int(result.attempts)},
}


class Tracer:
    """Records spans of wrapped ``rigidsurf`` functions in memory."""

    def __init__(self, targets=TARGETS, worker_dir: str | None = None):
        self.targets = tuple(targets)
        self.worker_dir = worker_dir
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._pid = os.getpid()
        self._worker = False
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        # import every module before patching, so no later import binds a wrapper
        originals = {}
        for target in self.targets:
            modname, _, attr = target.rpartition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                self.missing.append(target)
                continue
            original = getattr(module, attr, None)
            if callable(original):
                originals[target] = original
            else:
                self.missing.append(target)
        for target, original in originals.items():
            wrapper = self._wrap(target, original)
            # every module that imported the function by name gets the wrapper
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, name: str, original):
        extract = EXTRACTORS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                self._become_worker()
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(sid, name, t0, parent, {"raised": True})
                raise
            extra = None
            if extract is not None:
                try:
                    extra = extract(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    extra = None
            self._close(sid, name, t0, parent, extra)
            return result

        return wrapper

    def _close(self, sid, name, t0, parent, extra) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        span = {"id": sid, "name": name, "t0": t0, "t1": t1, "parent": parent}
        if extra:
            span["extra"] = extra
        self.spans.append(span)
        if self._worker and not self._stack:
            self._flush_worker()

    # -- worker processes --------------------------------------------------

    def _become_worker(self) -> None:
        """First traced call in a forked worker: drop the parent's state."""
        self._pid = os.getpid()
        self._worker = True
        self.spans = []
        self._stack = []

    def _flush_worker(self) -> None:
        if self.worker_dir is None:
            self.spans = []
            return
        path = os.path.join(self.worker_dir, f"worker-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect_workers(self) -> int:
        """Merge the span files written by workers; returns spans merged."""
        if self.worker_dir is None:
            return 0
        merged = 0
        local = sorted(self.spans, key=lambda s: s["t1"] - s["t0"])
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                batches = [json.loads(line) for line in fh if line.strip()]
            os.remove(path)
            for batch in batches:
                ids = {}
                for span in batch:
                    ids[span["id"]] = self._next
                    self._next += 1
                for span in batch:
                    span["id"] = ids[span["id"]]
                    if span["parent"] is not None:
                        span["parent"] = ids[span["parent"]]
                    else:
                        span["parent"] = _enclosing(local, span)
                    self.spans.append(span)
                    merged += 1
        return merged

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


def _enclosing(candidates, span):
    """Innermost span (candidates sorted by duration) enclosing ``span``."""
    for cand in candidates:
        if cand["t0"] <= span["t0"] and span["t1"] <= cand["t1"]:
            return cand["id"]
    return None


# ---------------------------------------------------------------------------
# self time and metrics


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its children."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    return {
        s["id"]: (s["t1"] - s["t0"]) - covered(s["t0"], s["t1"], children.get(s["id"], ()))
        for s in spans
    }


# (metric name, unit, target, quantity)
LAYER_METRICS = (
    ("cohomology.h1_is_zero.calls", "count", "cohomology.h1_is_zero", "calls"),
    ("cohomology.h1_is_zero.s", "s", "cohomology.h1_is_zero", "s"),
    ("cohomology.h1_is_zero.route_bound", "count", "cohomology.h1_is_zero", "route_bound"),
    ("cohomology.h1_is_zero.route_prime1", "count", "cohomology.h1_is_zero", "route_prime1"),
    ("cohomology.h1_is_zero.route_prime2", "count", "cohomology.h1_is_zero", "route_prime2"),
    ("cohomology.h1_is_zero.route_exact", "count", "cohomology.h1_is_zero", "route_exact"),
    ("cohomology.conditions_matrix_mod.calls", "count", "cohomology.conditions_matrix_mod", "calls"),
    ("cohomology.conditions_matrix_mod.self_s", "s", "cohomology.conditions_matrix_mod", "self_s"),
    ("cohomology.conditions_matrix_mod.cells", "count", "cohomology.conditions_matrix_mod", "cells"),
    ("cohomology.rank_mod.calls", "count", "cohomology.rank_mod", "calls"),
    ("cohomology.rank_mod.self_s", "s", "cohomology.rank_mod", "self_s"),
    ("cohomology.rank_mod.cells", "count", "cohomology.rank_mod", "cells"),
    ("cohomology.rank_mod.cert_ratio", "ratio", "cohomology.rank_mod", "cert_ratio"),
    ("cohomology.conditions_matrix.calls", "count", "cohomology.conditions_matrix", "calls"),
    ("cohomology.conditions_matrix.self_s", "s", "cohomology.conditions_matrix", "self_s"),
    ("cohomology.conditions_matrix.cells", "count", "cohomology.conditions_matrix", "cells"),
    ("cohomology.bareiss_rank.calls", "count", "cohomology.bareiss_rank", "calls"),
    ("cohomology.bareiss_rank.self_s", "s", "cohomology.bareiss_rank", "self_s"),
    ("cohomology.bareiss_rank.cells", "count", "cohomology.bareiss_rank", "cells"),
    ("cohomology.hilbert_rank.calls", "count", "cohomology.hilbert_rank", "calls"),
    ("cohomology.hilbert_rank.s", "s", "cohomology.hilbert_rank", "s"),
    ("cohomology.regularity.calls", "count", "cohomology.regularity", "calls"),
    ("cohomology.regularity.s", "s", "cohomology.regularity", "s"),
    ("cohomology.h0_h1.calls", "count", "cohomology.h0_h1", "calls"),
    ("cohomology.h0_h1.s", "s", "cohomology.h0_h1", "s"),
    ("certify.build_sweep.s", "s", "certify.build_sweep", "s"),
    ("certify.check_condition_a.s", "s", "certify.check_condition_a", "s"),
    ("certify.check_condition_a.self_s", "s", "certify.check_condition_a", "self_s"),
    ("certify.check_condition_b.s", "s", "certify.check_condition_b", "s"),
    ("certify.check_condition_c.s", "s", "certify.check_condition_c", "s"),
    ("certify.check_ample.s", "s", "certify.check_ample", "s"),
    ("certify.invariants.s", "s", "certify.invariants", "s"),
    ("certify.full_certificate.self_s", "s", "certify.full_certificate", "self_s"),
    ("cover.complete_labels.calls", "count", "cover.complete_labels", "calls"),
    ("cover.complete_labels.s", "s", "cover.complete_labels", "s"),
    ("cover.validate_labels.calls", "count", "cover.validate_labels", "calls"),
    ("cover.validate_labels.s", "s", "cover.validate_labels", "s"),
    ("cover.random_label_search.s", "s", "cover.random_label_search", "s"),
    ("cover.random_label_search.attempts", "count", "cover.random_label_search", "attempts"),
    ("cover.empirical_acceptance.s", "s", "cover.empirical_acceptance", "s"),
    ("incidence.certify_double_point.s", "s", "incidence.certify_double_point", "s"),
    ("incidence.eliminate.calls", "count", "incidence.eliminate", "calls"),
    ("incidence.eliminate.s", "s", "incidence.eliminate", "s"),
    ("triangle.search_double_point.s", "s", "triangle.search_double_point", "s"),
    ("triangle.classify.calls", "count", "triangle.classify", "calls"),
    ("arrangement.build_heart.s", "s", "arrangement.build_heart", "s"),
    ("arrangement.singular_points.s", "s", "arrangement.singular_points", "s"),
    ("arrangement.check_structure.s", "s", "arrangement.check_structure", "s"),
)

# targets whose spans decide the h1 route of their parent h1_is_zero call
ROUTE_TARGETS = ("cohomology.h1_is_zero", "cohomology.rank_mod", "cohomology.hilbert_rank")


def _route(span, kids) -> str | None:
    extra = span.get("extra") or {}
    if extra.get("bound"):
        return "route_bound"
    if "cohomology.hilbert_rank" in kids:
        return "route_exact"
    return {1: "route_prime1", 2: "route_prime2"}.get(kids.get("cohomology.rank_mod", 0))


def _certifies(rank_span, by_id) -> bool:
    """A rank mod p that reaches the degree of the calling h1_is_zero."""
    parent = by_id.get(rank_span["parent"])
    if parent is None or parent["name"] != "cohomology.h1_is_zero":
        return False
    rank = (rank_span.get("extra") or {}).get("rank")
    return rank is not None and rank == (parent.get("extra") or {}).get("deg")


def layer_metrics(spans, missing) -> dict:
    """Metric name -> value, or None where a target it needs is missing."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    child_names: dict = {}
    for s in spans:
        if s["parent"] is not None:
            kids = child_names.setdefault(s["parent"], {})
            kids[s["name"]] = kids.get(s["name"], 0) + 1
    routes: dict = {}
    for s in by_name.get("cohomology.h1_is_zero", ()):
        route = _route(s, child_names.get(s["id"], {}))
        if route:
            routes[route] = routes.get(route, 0) + 1

    out = {}
    for metric, _unit, target, quantity in LAYER_METRICS:
        needs = ROUTE_TARGETS if quantity.startswith("route_") else (target,)
        if any(t in missing for t in needs):
            out[metric] = None
            continue
        group = by_name.get(target, ())
        if quantity == "calls":
            value = len(group)
        elif quantity == "s":
            value = sum(s["t1"] - s["t0"] for s in group)
        elif quantity == "self_s":
            value = sum(selfs[s["id"]] for s in group)
        elif quantity in ("cells", "attempts"):
            value = sum((s.get("extra") or {}).get(quantity, 0) for s in group)
        elif quantity == "cert_ratio":
            certified = sum(1 for s in group if _certifies(s, by_id))
            value = certified / len(group) if group else 0.0
        else:
            value = routes.get(quantity, 0)
        out[metric] = value
    return out
