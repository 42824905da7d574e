"""Command-line front end: counts, polynomials, verification, exports.

Exit codes: 0 all good, 1 verification mismatch, 2 usage error, 3 size
limit exceeded or out of memory, 141 stdout closed by its reader (128 +
SIGPIPE).  The only bound on n is the ``--cap`` option of the commands that
build graphs; the vertex, cube-census and distance-sweep limits belong to
the modules that allocate the memory.  Commands hand their JSON answers
to one writer as plain dicts, lists, ints and generators; the writer, not
each command, makes every number a decimal string, so that 64-bit
consumers cannot silently overflow.  Every command computes its scalars
before the first byte, so a refused request writes nothing; then it
writes the answer piece by piece.  The rows that ``count`` and ``indices``
print, the weight census and the per-direction edge counts, stream from
their recurrences entry by entry, on exact decimals
(``sequences.decimal_text``), whose text takes time linear in its digits
where an int's is quadratic; the checks compare the int rows.  ``export``
writes its graph the same way, so no whole payload is ever built.  Each
command imports the layers it runs when it runs, so a fresh process loads
no more than its command needs.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import TextIO

from .errors import SizeLimitError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_PIPE = 141

# The default --cap: the largest n that verify, export and indices build.
DEFAULT_CAP = 24
# The parser's choices and defaults, copied so that parsing loads no layer;
# a test holds them to verify.CHOICES, tuple(polynomials.MARKERS) and
# series.DEFAULT_ORDER.
SUITE_CHOICES = ("cubes", "gf", "indices", "irregularity", "counts", "all")
POLY_KINDS = ("cube", "weight", "distance")
DEFAULT_ORDER = 20


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


@cache  # argparse leaves reference cycles behind: build them once per process
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

    poly = sub.add_parser("poly", help="print one counting polynomial")
    poly.add_argument("kind", choices=POLY_KINDS)
    poly.add_argument("--p", type=_nonneg, required=True)
    poly.add_argument("--n", type=_nonneg, required=True)
    poly.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run closed-form vs oracle suites")
    verify.add_argument("suite", choices=SUITE_CHOICES)
    verify.add_argument("--p", type=_span, default=(1, 3), metavar="P[..P2]")
    verify.add_argument(
        "--n", "--n-range", dest="n", type=_span, default=(0, 8), metavar="N[..N2]"
    )
    verify.add_argument("--N", dest="order", type=_nonneg, default=DEFAULT_ORDER)
    verify.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    verify.add_argument("--format", choices=("text", "json"), default="text")

    export = sub.add_parser("export", help="write the materialized graph")
    export.add_argument("--p", type=_nonneg, required=True)
    export.add_argument("--n", type=_nonneg, required=True)
    export.add_argument("--format", choices=("dot", "json"), default="dot")
    export.add_argument("--output", default="-", help="file path or - for stdout")
    export.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)

    indices = sub.add_parser(
        "indices", help="distance/degree invariants, closed and oracle"
    )
    indices.add_argument("--p", type=_nonneg, required=True)
    indices.add_argument("--n", type=_nonneg, required=True)
    indices.add_argument("--cap", type=_nonneg, default=DEFAULT_CAP)
    indices.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _values(span: tuple[int, int]) -> range:
    return range(span[0], span[1] + 1)


def _count_points(args: argparse.Namespace) -> list[tuple[int, ...]]:
    """(p, n, |V|, |E|, top weight) for every grid point."""
    from .sequences import pfib_terms, total_edges_closed
    from .strings import max_weight

    return [
        (p, n, pfib_terms(p, n + p + 1)[0], total_edges_closed(p, n), max_weight(p, n))
        for p in _values(args.p)
        for n in _values(args.n)
    ]


def _write_json(doc: object, out: "TextIO | None" = None) -> None:
    """Write ``doc`` as ``json.dump(doc, indent=2)`` would, and a newline,
    to ``out`` (stdout by default), piece by piece.

    This is the one place that knows the JSON format.  Every int but a
    bool is written as its quoted decimal string.  None, the bools,
    strings, dicts, lists and tuples are written as ``json.dump`` writes
    them.  Any other iterable is an array, written entry by entry as it is
    walked, so a generator row is made, written and dropped one entry at a
    time.  Such a row's strings are number text or 0/1 text, which needs
    no escape, so they are quoted as they are.
    """
    from json.encoder import encode_basestring_ascii as escape

    literals = {None: "null", True: "true", False: "false"}

    def write(container: object, newline: str) -> None:
        inner = newline + "  "
        keyed = isinstance(container, dict)
        walked = not keyed and not isinstance(container, (list, tuple))
        brackets = "{}" if keyed else "[]"
        opener = brackets[0] + inner
        # no generator of its own: the walk holds only what the container makes
        for item in container.items() if keyed else container:  # one write per scalar
            if keyed:
                key, item = item
                opener += escape(key) + ": "
            if item is None or item.__class__ is bool:
                put(opener + literals[item])
            elif isinstance(item, int) or walked and isinstance(item, str):
                put(f'{opener}"{item}"')
            elif isinstance(item, str):
                put(opener + escape(item))
            else:  # a dict, a list, a tuple or another iterable
                put(opener)
                write(item, inner)
            opener = "," + inner
        put(newline + brackets[1] if opener[0] == "," else brackets)

    put = (sys.stdout if out is None else out).write
    write(doc, "\n")
    put("\n")


_COUNT_KEYS = ("p", "n", "vertices", "edges", "max_weight")
# Per format: the header, a line up to its weights, the weight separator.
_COUNT_LINES = {
    "text": ("", "p={} n={} vertices={} edges={} max_weight={} weights=", ","),
    "csv": (",".join(_COUNT_KEYS) + ",weights\n", "{},{},{},{},{},", " "),
}


def cmd_count(args: argparse.Namespace) -> int:
    from .sequences import decimal_text
    from .strings import weight_row

    points = _count_points(args)
    if args.format == "json":  # each point is made when the writer reaches it
        _write_json(
            {
                **dict(zip(_COUNT_KEYS, point)),
                "weight_census": decimal_text(weight_row, *point[:2]),
            }
            for point in points
        )
        return EXIT_OK
    header, line, sep = _COUNT_LINES[args.format]
    out = sys.stdout
    out.write(header)
    for point in points:
        weights = decimal_text(weight_row, *point[:2])
        out.write(line.format(*point) + next(weights))  # w = 0 is always there
        out.writelines(sep + weight for weight in weights)
        out.write("\n")
    return EXIT_OK


def cmd_poly(args: argparse.Namespace) -> int:
    from . import polynomials

    p, n, kind = args.p, args.n, args.kind
    poly = getattr(polynomials, polynomials.CLOSED_POLY[kind])(p, n)
    if args.format == "json":
        _write_json({"p": p, "n": n, "kind": kind, **poly.to_json()})
    else:  # term by term, so the whole text never exists at once
        sys.stdout.writelines(poly.pieces())
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .cubes import check_census_limit
    from .series import check_series_limit
    from .strings import check_vertex_limit
    from .verify import run_suite

    n_max, cap = args.n[1], args.cap
    # gf builds no graph; the others' largest graph has the smallest p.
    if args.suite != "gf":
        if n_max > cap:
            raise SizeLimitError(f"n range up to {n_max} exceeds the graph cap {cap}")
        check_vertex_limit(args.p[0], n_max)
    # The series grow with p, so the largest p is the one to refuse.
    if args.suite in ("gf", "all"):
        check_series_limit(args.p[1])
    # Supports shrink as p grows, so the first n refused at the smallest p
    # is the first census the cubes suite would refuse.
    if args.suite in ("cubes", "all"):
        for n in _values(args.n):
            check_census_limit(args.p[0], n)
    results = run_suite(args.suite, _values(args.p), _values(args.n), order=args.order)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        _write_json(
            [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
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
    from .graph import build, graph_json, to_dot

    g = build(args.p, args.n, cap=args.cap)

    def render(out: TextIO) -> None:
        if args.format == "json":
            _write_json(graph_json(g), out)
        else:
            out.writelines(to_dot(g))

    if args.output == "-":
        render(sys.stdout)
        return EXIT_OK
    try:  # opened only once the graph is built, so a refusal makes no file
        with open(args.output, "w", encoding="utf-8") as handle:
            render(handle)
    except OSError as exc:  # a missing directory, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _indices_doc(args: argparse.Namespace) -> dict:
    """The indices answer; the per-direction row only for JSON, which prints it."""
    from .graph import build, direction_edge_count
    from .invariants import (
        irregularity_closed,
        irregularity_oracle,
        mostar_closed,
        mostar_oracle,
        wiener_closed,
        wiener_oracle,
    )
    from .sequences import (
        decimal_text,
        direction_products,
        pfib_terms,
        total_edges_closed,
    )

    p, n = args.p, args.n
    doc: dict = {
        "p": p,
        "n": n,
        "vertices": pfib_terms(p, n + p + 1)[0],
        "edges": total_edges_closed(p, n),
        "wiener": {"closed": wiener_closed(p, n), "oracle": None},
        "mostar": {"closed": mostar_closed(p, n), "oracle": None},
        "irregularity": {
            "closed": irregularity_closed(p, n) if n >= p else None,
            "oracle": None,
            "note": None if n >= p else "theorem not applicable (n < p), oracle-only",
        },
    }
    g = build(p, n) if n <= args.cap else None
    if g is not None:
        doc["irregularity"]["oracle"] = irregularity_oracle(g)
        try:  # beyond the sweep limit the distance oracles stay null
            doc["wiener"]["oracle"] = wiener_oracle(g)
            doc["mostar"]["oracle"] = mostar_oracle(g)
        except SizeLimitError:
            pass
    if args.format == "json":
        doc["edge_counts_by_direction"] = {
            "closed": decimal_text(direction_products, p, n),
            "oracle": None
            if g is None
            else [direction_edge_count(g, i) for i in range(1, n + 1)],
        }
    return doc


def cmd_indices(args: argparse.Namespace) -> int:
    doc = _indices_doc(args)
    if args.format == "text":
        out = sys.stdout
        out.write(f"p={doc['p']} n={doc['n']} vertices={doc['vertices']} ")
        out.write(f"edges={doc['edges']}\n")
        for key in ("wiener", "mostar", "irregularity"):
            entry = doc[key]
            out.write(f"{key}: closed={entry['closed']} oracle={entry['oracle']}\n")
    else:
        _write_json(doc)
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
        # the module's current cmd_*, so that a rebinding of it takes effect
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a reader that closed the pipe is found here
        return code
    except BrokenPipeError:  # the reader left; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:  # the unwound frames have freed what ran out
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lift_digits:
            sys.set_int_max_str_digits(saved_digits)


def entry() -> None:
    sys.exit(main())
