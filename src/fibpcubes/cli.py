"""Command-line front end: counts, polynomials, verification, exports.

Exit codes: 0 all good, 1 verification mismatch, 2 usage error, 3 size
limit exceeded, 141 stdout closed by its reader (128 + SIGPIPE).  The only
bound on n is the ``--cap`` option of the commands that build graphs; the
vertex, cube-census and distance-sweep limits belong to the modules that
allocate the memory.  JSON payloads carry every number as a decimal string
so that 64-bit consumers cannot silently overflow.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .cubes import check_census_limit
from .errors import SizeLimitError
from .graph import (
    build,
    direction_edge_count,
    direction_edge_counts_closed,
    graph_json,
    to_dot,
    total_edges_closed,
)
from .invariants import (
    irregularity_closed,
    irregularity_oracle,
    mostar_closed,
    mostar_oracle,
    wiener_closed,
    wiener_oracle,
)
from .polynomials import MARKERS
from .sequences import pfib
from .series import DEFAULT_ORDER
from .strings import check_vertex_limit, max_weight, weight_census
from .verify import CHOICES, closed_poly, run_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_PIPE = 141

# The default --cap: the largest n that verify, export and indices build.
DEFAULT_CAP = 24


def _span(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected INT or A..B, got {text!r}"
        ) from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"invalid range {text!r}")
    return lo, hi


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibpcubes",
        description="Exact counts, polynomials, and identity checks for "
        "Fibonacci p-cubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser(
        "count", help="closed-form vertex/edge counts and weight census"
    )
    count.add_argument("--p", type=_span, required=True, metavar="P[..P2]")
    count.add_argument(
        "--n", "--n-range", dest="n", type=_span, required=True, metavar="N[..N2]"
    )
    count.add_argument("--format", choices=("text", "json", "csv"), default="text")
    count.set_defaults(run=cmd_count)

    poly = sub.add_parser("poly", help="print one counting polynomial")
    poly.add_argument("kind", choices=tuple(MARKERS))
    poly.add_argument("--p", type=_nonneg, required=True)
    poly.add_argument("--n", type=_nonneg, required=True)
    poly.add_argument("--format", choices=("text", "json"), default="text")
    poly.set_defaults(run=cmd_poly)

    verify = sub.add_parser("verify", help="run closed-form vs oracle suites")
    verify.add_argument("suite", choices=CHOICES)
    verify.add_argument("--p", type=_span, default=(1, 3), metavar="P[..P2]")
    verify.add_argument(
        "--n", "--n-range", dest="n", type=_span, default=(0, 8), metavar="N[..N2]"
    )
    verify.add_argument("--N", dest="order", type=_nonneg, default=DEFAULT_ORDER)
    verify.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(run=cmd_verify)

    export = sub.add_parser("export", help="write the materialized graph")
    export.add_argument("--p", type=_nonneg, required=True)
    export.add_argument("--n", type=_nonneg, required=True)
    export.add_argument("--format", choices=("dot", "json"), default="dot")
    export.add_argument("--output", default="-", help="file path or - for stdout")
    export.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    export.set_defaults(run=cmd_export)

    indices = sub.add_parser(
        "indices", help="distance/degree invariants, closed and oracle"
    )
    indices.add_argument("--p", type=_nonneg, required=True)
    indices.add_argument("--n", type=_nonneg, required=True)
    indices.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    indices.add_argument("--format", choices=("json", "text"), default="json")
    indices.set_defaults(run=cmd_indices)
    return parser


def _values(span: tuple[int, int]) -> range:
    return range(span[0], span[1] + 1)


def _count_rows(args: argparse.Namespace) -> list[dict]:
    rows = []
    for p in _values(args.p):
        for n in _values(args.n):
            rows.append(
                {
                    "p": str(p),
                    "n": str(n),
                    "vertices": str(pfib(p, n + p + 1)),
                    "edges": str(total_edges_closed(p, n)),
                    "max_weight": str(max_weight(p, n)),
                    "weight_census": [str(c) for c in weight_census(p, n)],
                }
            )
    return rows


def cmd_count(args: argparse.Namespace) -> int:
    rows = _count_rows(args)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        keys = ("p", "n", "vertices", "edges", "max_weight")
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([*keys, "weights"])
        for row in rows:
            writer.writerow([row[k] for k in keys] + [" ".join(row["weight_census"])])
    else:
        for row in rows:
            print(
                f"p={row['p']} n={row['n']} vertices={row['vertices']} "
                f"edges={row['edges']} max_weight={row['max_weight']} "
                f"weights={','.join(row['weight_census'])}"
            )
    return EXIT_OK


def cmd_poly(args: argparse.Namespace) -> int:
    p, n, kind = args.p, args.n, args.kind
    poly = closed_poly(kind, p, n)
    if args.format == "json":
        doc = {"p": str(p), "n": str(n), "kind": kind, **poly.to_json()}
        print(json.dumps(doc, indent=2))
    else:
        print(poly.render())
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n_max, cap = args.n[1], args.cap
    # gf builds no graph; the others' largest graph has the smallest p.
    if args.suite != "gf":
        if n_max > cap:
            raise SizeLimitError(f"n range up to {n_max} exceeds the graph cap {cap}")
        check_vertex_limit(args.p[0], n_max)
    # Supports shrink as p grows, so the first n refused at the smallest p
    # is the first census the cubes suite would refuse.
    if args.suite in ("cubes", "all"):
        for n in _values(args.n):
            check_census_limit(args.p[0], n)
    results = run_suite(args.suite, _values(args.p), _values(args.n), order=args.order)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.name}"
            if r.detail:
                line += f": {r.detail}"
            print(line)
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    g = build(args.p, args.n, cap=args.cap)
    if args.format == "json":
        payload = json.dumps(graph_json(g), indent=2) + "\n"
    else:
        payload = to_dot(g)
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:  # a missing directory, a directory, no permission
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def _indices_doc(args: argparse.Namespace) -> dict:
    p, n = args.p, args.n
    closed_dirs = direction_edge_counts_closed(p, n)
    doc: dict = {
        "p": str(p),
        "n": str(n),
        "vertices": str(pfib(p, n + p + 1)),
        "edges": str(sum(closed_dirs)),
        "wiener": {"closed": str(wiener_closed(p, n)), "oracle": None},
        "mostar": {"closed": str(mostar_closed(p, n)), "oracle": None},
        "irregularity": {
            "closed": str(irregularity_closed(p, n)) if n >= p else None,
            "oracle": None,
            "note": None if n >= p else "theorem not applicable (n < p), oracle-only",
        },
        "edge_counts_by_direction": {
            "closed": [str(c) for c in closed_dirs],
            "oracle": None,
        },
    }
    if n <= args.cap:
        g = build(p, n)
        doc["irregularity"]["oracle"] = str(irregularity_oracle(g))
        doc["edge_counts_by_direction"]["oracle"] = [
            str(direction_edge_count(g, i)) for i in range(1, n + 1)
        ]
        try:  # beyond the sweep limit the distance oracles stay null
            doc["wiener"]["oracle"] = str(wiener_oracle(g))
            doc["mostar"]["oracle"] = str(mostar_oracle(g))
        except SizeLimitError:
            pass
    return doc


def cmd_indices(args: argparse.Namespace) -> int:
    doc = _indices_doc(args)
    if args.format == "text":
        buffer = io.StringIO()
        buffer.write(f"p={doc['p']} n={doc['n']} vertices={doc['vertices']} ")
        buffer.write(f"edges={doc['edges']}\n")
        for key in ("wiener", "mostar", "irregularity"):
            entry = doc[key]
            buffer.write(
                f"{key}: closed={entry['closed']} oracle={entry['oracle']}\n"
            )
        sys.stdout.write(buffer.getvalue())
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Answers can exceed the interpreter's int/str digit limit, where it has
    # one.  Lift it only after parsing, so that over-long numbers on the
    # command line are still refused, and restore it for in-process callers.
    lift_digits = hasattr(sys, "set_int_max_str_digits")
    if lift_digits:
        saved_digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader that closed the pipe is found here
        return code
    except BrokenPipeError:  # the reader left; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lift_digits:
            sys.set_int_max_str_digits(saved_digits)


def entry() -> None:
    sys.exit(main())
