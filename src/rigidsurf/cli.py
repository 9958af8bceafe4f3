"""Command-line front end.

Subcommands: closure, heart, triangle, incidence, lambda, certify,
invariants, plot.  With no input files the bundled configuration is
used.  Exit status 0 means every requested verification passed, 1 a
verification failure (artifacts are still written), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import arrangement as arrmod
from . import certify as certmod
from . import cover as covermod
from . import incidence as incmod
from . import triangle as trimod
from .plot import arrangement_svg
from .projective import point


class InputError(Exception):
    """Malformed input file or argument (exit status 2)."""


def _parse_triple(text: str):
    for sep in (":", ","):
        if sep in text:
            parts = text.split(sep)
            if len(parts) != 3:
                raise InputError(f"expected three components in {text!r}")
            try:
                return tuple(int(x) for x in parts)
            except ValueError as exc:
                raise InputError(f"non-integer component in {text!r}: {exc}") from exc
    raise InputError(f"cannot parse triple {text!r} (use a:b:c or a,b,c)")


def _parse_point(text: str):
    try:
        return point(*_parse_triple(text))
    except ValueError as exc:
        raise InputError(f"{text!r} is not a point: {exc}") from exc


def _heart():
    """The bundled configuration; a malformed data table is an input error."""
    try:
        return arrmod.build_heart()
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_arrangement(path: str | None):
    """Arrangement and designated points from --in, or the bundled data."""
    if path is None:
        heart = _heart()
        return heart.arrangement, heart.pqr, heart
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        if path.endswith(".tsv"):
            lines, _ = arrmod.parse_label_table(text)
            return arrmod.Arrangement(tuple(lines)), None, None
        arr, pqr = arrmod.arrangement_from_json(text)
        return arr, pqr, None
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "tsv":
        rows = ["\t".join(map(str, (k, v))) for k, v in sorted(payload.items())]
        _write_output("\n".join(rows) + "\n", args.out)
    else:
        _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)


def cmd_closure(args) -> int:
    stages = arrmod.closure(arrmod.BASE_POINTS, args.iters)
    payload = {
        "iterations": args.iters,
        "line_counts": [len(s.lines) for s in stages],
        "point_counts": [len(s.points) for s in stages],
    }
    if args.verbose:
        payload["lines"] = [[list(l.coeffs) for l in s.lines] for s in stages]
    _emit(payload, args)
    return 0


def cmd_heart(args) -> int:
    heart = _heart()
    report = arrmod.check_structure(heart)
    table = arrmod.singular_points(heart.arrangement)
    payload = {
        "lines": len(heart.arrangement.lines),
        "singular_points": table.num_points,
        "structure_checks": report.checks,
        "heights": arrmod.height_report(heart),
    }
    _emit(payload, args)
    return 0 if report.all_ok else 1


def cmd_triangle(args) -> int:
    pqr = [_parse_point(t) for t in (args.P, args.Q, args.R)] if args.action != "search" else None
    if args.action == "classify":
        cls = trimod.classify(*pqr)
        payload = {
            "kind": cls.kind.value,
            "matrix": [list(r) for r in cls.matrix] if cls.matrix else None,
            "discriminant": cls.discriminant,
            "fixed_points": [str(p) for p in cls.fixed_points],
            "fixed_point_count": cls.fixed_point_count,
            "rational_fixed_points": cls.rational_fixed_points,
            "reason": cls.reason,
        }
        _emit(payload, args)
        return 0
    if args.action == "solve":
        try:
            sols = trimod.solve_realization(*pqr)
        except ValueError as exc:
            _emit({"error": str(exc)}, args)
            return 1
        payload = {
            "solutions": [
                {
                    "X": str(s.X), "Y": str(s.Y), "Z": str(s.Z),
                    "L_P": str(s.L_P), "L_Q": str(s.L_Q), "L_R": str(s.L_R),
                }
                for s in sols
            ]
        }
        _emit(payload, args)
        return 0
    try:
        found = trimod.search_double_point(args.height_bound, args.count, args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = {
        "triples": [[str(P), str(Q), str(R)] for P, Q, R in found],
        "count": len(found),
        "seed": args.seed,
    }
    _emit(payload, args)
    return 0


def cmd_incidence(args) -> int:
    arr, pqr, _ = _load_arrangement(args.infile)
    try:
        cert = incmod.certify_double_point(arr, pqr)
    except ValueError as exc:
        # a malformed arrangement, such as one whose base points are not singular
        raise InputError(str(exc)) from exc
    if args.trace:
        trace_payload = cert.trace.to_jsonable()
        trace_payload["residual"] = {
            "variable_points": list(cert.reduced.variable_points),
            "variable_lines": list(cert.reduced.variable_lines),
            "relations": [list(rel) for rel in cert.reduced.relations],
        }
        _write_output(json.dumps(trace_payload, indent=2, sort_keys=True) + "\n", args.trace)
    _emit({"ok": cert.ok, **cert.to_jsonable()}, args)
    return 0 if cert.ok else 1


def cmd_lambda(args) -> int:
    arr, _, heart = _load_arrangement(args.infile)
    table = arrmod.singular_points(arr)
    if args.action == "search":
        try:
            result = covermod.random_label_search(table, args.p, args.r, args.seed)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        payload = {
            "attempts": result.attempts,
            "line_labels": [list(l) for l in result.labels.line_labels],
            "point_labels": [list(l) for l in result.labels.point_labels],
            "estimate": str(covermod.acceptance_estimate(
                len(arr.lines), table.num_points, args.p, args.r)),
        }
        _emit(payload, args)
        return 0
    if args.labels:
        try:
            with open(args.labels, encoding="utf-8") as fh:
                lines, labels = arrmod.parse_label_table(fh.read())
        except (OSError, ValueError) as exc:
            raise InputError(f"{args.labels}: {exc}") from exc
        if tuple(lines) != arr.lines:
            raise InputError("label table lines disagree with the arrangement")
    elif heart is not None:
        labels = heart.line_labels
    else:
        raise InputError("lambda validate needs --labels with a label table")
    try:
        lm = covermod.complete_labels(labels[:-1], table, args.p, args.r)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    completion_ok = lm.line_labels == tuple(tuple(x) for x in labels)
    report = covermod.validate_labels(lm, table)
    _emit({"completion_consistent": completion_ok, **report.to_jsonable()}, args)
    return 0 if report.all_ok and completion_ok else 1


def cmd_certify(args) -> int:
    cert = certmod.full_certificate(_heart(), threads=args.threads)
    text = cert.to_json()
    if args.out:
        _write_output(text, args.out)
        print(f"certificate written to {args.out}; overall pass: {cert.ok}")
    else:
        sys.stdout.write(text)
    return 0 if cert.ok else 1


def cmd_invariants(args) -> int:
    cert = certmod.full_certificate(_heart(), threads=args.threads)
    _emit(cert.sections["invariants"], args)
    return 0 if cert.ok else 1


def cmd_plot(args) -> int:
    arr, _, _ = _load_arrangement(args.infile)
    svg = arrangement_svg(arr)
    _write_output(svg, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rigidsurf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, include_format=True):
        p.add_argument("--out", help="output path (default: stdout)")
        if include_format:
            p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("closure", help="run the iterative closure construction")
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--verbose", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("heart", help="rebuild the bundled configuration and check it")
    add_common(p)
    p.set_defaults(func=cmd_heart)

    p = sub.add_parser("triangle", help="triangle configuration tools")
    p.add_argument("action", choices=("classify", "solve", "search"))
    p.add_argument("P", nargs="?", help="first point, a:b:c")
    p.add_argument("Q", nargs="?", help="second point, a:b:c")
    p.add_argument("R", nargs="?", help="third point, a:b:c")
    p.add_argument("--height-bound", type=int, default=10)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("incidence", help="eliminate an incidence problem")
    p.add_argument("action", choices=("eliminate",))
    p.add_argument("--in", dest="infile", help="arrangement JSON (default: bundled)")
    p.add_argument("--trace", help="write the elimination trace JSON here")
    add_common(p)
    p.set_defaults(func=cmd_incidence)

    p = sub.add_parser("lambda", help="label map search and validation")
    p.add_argument("action", choices=("search", "validate"))
    p.add_argument("--p", type=int, default=7)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", help="arrangement JSON or label TSV")
    p.add_argument("--labels", help="label table TSV for validate")
    add_common(p)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("certify", help="full verification of the bundled dataset")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", help="certificate path (default: stdout)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("invariants", help="the invariants section of the certificate")
    p.add_argument("--threads", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("plot", help="render an arrangement as SVG")
    p.add_argument("--in", dest="infile", help="arrangement JSON (default: bundled)")
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "triangle" and args.action != "search":
            if not (args.P and args.Q and args.R):
                raise InputError("triangle classify/solve need P Q R")
        if args.command == "lambda":
            if not covermod.is_prime(args.p):
                raise InputError(f"--p must be prime, got {args.p}")
            if args.r < 1:
                raise InputError(f"--r must be >= 1, got {args.r}")
        if getattr(args, "threads", 1) < 1:
            raise InputError("--threads must be >= 1")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
