"""Closed-form versus oracle check suites, shared by the CLI and the tests.

Each suite recomputes every identity from both sides over a (p, n) grid,
and reports one result per identity and parameter p with the first
counterexample when something disagrees.  ``SUITES`` lists each suite's
checks in report order: a check is a function of one grid ``Point`` (gf's,
of a ``Series``) that yields its mismatch lines there, and raises ``Note``
on what it leaves unchecked.  A layer that refuses its input raises
``ValueError``, and the runner makes that the mismatch line of each check
that reads the layer.  Size limits are enforced where memory is
allocated: a graph beyond the vertex limit is refused, and a distance
oracle beyond the sweep limit leaves a note on each check it skipped.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import groupby, product
from typing import Callable, Iterator, NamedTuple, Sequence

from .cubes import cube_census
from .errors import SizeLimitError
from .graph import (
    PCubeGraph, bfs_distances, bitset_ids, build, check_sweep_limit,
    direction_edge_count, direction_edge_count_closed, direction_edge_counts_closed,
    edge_bitsets,
)
from .invariants import (
    imbalance_census, irregularity_closed, irregularity_oracle, left_pairs, lift_edge,
    mostar_closed, mostar_oracle, project_pair, right_pairs, wiener_closed,
    wiener_oracle,
)
from .polynomials import (
    CLOSED_POLY, MARKERS, cube_count_closed, cube_poly_closed, dist_cube_count_closed,
    dist_cube_poly_closed, substitute, weight_poly,
)
from .sequences import (
    decimal_text, direction_products, direction_row_products, direction_row_sums,
    kfold_convolution, pfib, total_edges_closed,
)
from .series import (
    DEFAULT_ORDER, gap_denominator, gf_terms, pfib_series, verify_cube_count_gf,
    verify_weight_gf_expansion,
)
from .strings import count_by_weight, is_pvalid, max_weight, weight_census, weight_row

Lines = Iterator[str]  # a check's mismatch lines


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class Note(Exception):
    """What a check left unchecked at one point; its result lists it."""


class Series(NamedTuple):
    p: int
    order: int

    def __str__(self) -> str:
        return f"p={self.p}"


class Point:
    """One (p, n) of the grid.  Each artefact is made on first use by the
    layer functions bound in this module.  A refused artefact is not kept:
    each check that reads it raises the refusal again, and fails on it."""

    def __init__(self, p: int, n: int) -> None:
        self.p, self.n = p, n

    def __str__(self) -> str:
        return f"p={self.p} n={self.n}"

    @cached_property
    def graph(self) -> PCubeGraph:
        return build(self.p, self.n)

    @cached_property
    def cubes(self) -> dict:
        return cube_census(self.graph)

    @cached_property
    def cube_poly(self):
        return cube_poly_closed(self.p, self.n)

    @cached_property
    def indices(self) -> tuple[int, int]:
        return wiener_closed(self.p, self.n), mostar_closed(self.p, self.n)

    @cached_property
    def imbalance(self) -> list:
        return imbalance_census(self.graph)

    @cached_property
    def irr(self) -> int:
        return irregularity_oracle(self.graph)


def _order(pt: Point) -> Lines:
    order, expected = pt.graph.vertex_count, pfib(pt.p, pt.n + pt.p + 1)
    if order != expected:
        yield f"{pt}: |V|={order} expected {expected}"


def _size(pt: Point) -> Lines:
    size, expected = pt.graph.edge_count, total_edges_closed(pt.p, pt.n)
    if size != expected:
        yield f"{pt}: |E|={size} expected {expected}"


def _directions(pt: Point) -> Lines:
    # Each count four ways: the graph's, the one-pass list, the decimal text
    # that indices prints, the single product.  The row is a palindrome.
    # Both routes of the row give that list and text, whichever one
    # direction_products picks, so the switch never decides what is checked.
    p, n, listed = pt.p, pt.n, direction_edge_counts_closed(pt.p, pt.n)
    text = list(decimal_text(direction_products, p, n))
    if len(listed) != n or len(text) != n:
        yield f"{pt}: {len(listed)} directions listed, {len(text)} as text"
    if listed != listed[::-1] or text != text[::-1]:
        yield f"{pt}: the row is not a palindrome"
    for i, in_list, in_text in zip(range(1, n + 1), listed, text):
        counted = direction_edge_count(pt.graph, i)
        closed = direction_edge_count_closed(p, n, i)
        if not counted == in_list == closed or in_text != str(closed):
            yield (f"{pt} i={i}: counted {counted} listed {in_list} "
                   f"text {in_text} expected {closed}")
    routes = (("products", direction_row_products), ("sums", direction_row_sums))
    for name, route in routes:
        for form, made, picked in (
            ("list", list(route(p, n)), listed),
            ("text", list(decimal_text(route, p, n)), text),
        ):
            if made != picked:
                yield f"{pt}: the {name} route differs from the {form}"


def _weight_census(pt: Point) -> Lines:
    # Each weight four ways: the graph's census, the one-pass row, the decimal
    # text that count prints, one binomial.
    p, n = pt.p, pt.n
    census = Counter(b.bit_count() for b in pt.graph.bits)
    row, top = weight_census(p, n), max_weight(p, n)
    text = list(decimal_text(weight_row, p, n))
    if len(row) != top + 1 or len(text) != top + 1:
        yield f"{pt}: row of {len(row)} weights, text of {len(text)}"
    for w in range(top + 2):
        in_row = row[w] if w < len(row) else 0
        in_text = text[w] if w < len(text) else "0"
        single = count_by_weight(p, n, w)
        if not census.get(w, 0) == in_row == single or in_text != str(single):
            yield (f"{pt} w={w}: census {census.get(w, 0)} row {in_row} "
                   f"text {in_text} expected {single}")


def _edge_recursion(pt: Point) -> Lines:
    p, n = pt.p, pt.n
    recursed = pfib(p, n) + sum(
        total_edges_closed(p, m) for m in (n - 1, n - p - 1) if m >= 0
    )
    if total_edges_closed(p, n) != recursed:
        yield f"{pt}: recursion gives {recursed}"


def _structure(pt: Point) -> Lines:
    g = pt.graph
    tag, bits = f"p={g.p} n={g.n}", g.bits
    # Per direction, the ids with an edge there: an id with two edges in one
    # direction counts once, and the degree sum falls short of 2|E|.  Each
    # bitset's first edge (lo, hi, i) that does not set exactly bit i is kept.
    ends, wrong = [0] * (g.n + 1), []
    for i, lows, offset in edge_bitsets(g):
        ends[i] |= lows | lows << offset
        mask = 1 << (g.n - i)
        for lo in bitset_ids(lows):
            if bits[lo] & mask or bits[lo + offset] != bits[lo] | mask:
                wrong.append((lo, lo + offset, i))
                break
    if sum(ids.bit_count() for ids in ends) != 2 * g.edge_count:
        yield f"{tag}: degree sum != 2|E|"
    # In string order each direction has one id offset, which the census reads.
    if not all(is_pvalid(b, g.p) for b in bits):
        yield f"{tag}: a vertex is not {g.p}-valid"
    if any(a >= b for a, b in zip(bits, bits[1:])):
        yield f"{tag}: vertex ids do not follow string order"
    if wrong:
        yield "{}: edge {}-{} does not set exactly bit {}".format(tag, *min(wrong))
    if g.vertex_count and min(bfs_distances(g, 0)) < 0:
        yield f"{tag}: graph is disconnected"


def _partial_cube(pt: Point) -> Lines:
    # Every edge flips one coordinate (the structure check), so each pair's
    # graph distance is at least its Hamming distance, and the two sums over
    # all pairs agree exactly when every pair does.
    g = pt.graph
    try:
        wiener = wiener_oracle(g)
    except SizeLimitError as exc:
        raise Note(f"{pt}: partial-cube not checked, {exc}")
    ones = [sum((b >> shift) & 1 for b in g.bits) for shift in range(g.n)]
    hamming_sum = sum(c * (g.vertex_count - c) for c in ones)
    if wiener != hamming_sum:
        yield f"{pt}: Wiener index {wiener} but Hamming sum {hamming_sum}"


def _cube_counts(pt: Point) -> Lines:
    census, p, n = pt.cubes, pt.p, pt.n
    for k in range(max_weight(p, n) + 2):
        oracle = sum(v for (kk, _), v in census.items() if kk == k)
        closed = cube_count_closed(p, n, k)
        coeff = pt.cube_poly.coeff(k)
        m = n - k * p + p + 1
        conv = kfold_convolution(p, k, m) if m >= 0 else 0
        if not oracle == closed == coeff == conv:
            yield (f"{pt} k={k}: oracle={oracle} sum={closed} "
                   f"expansion={coeff} convolution={conv}")


def _distance_counts(pt: Point) -> Lines:
    for k, d in product(range(max_weight(pt.p, pt.n) + 2), repeat=2):
        oracle = pt.cubes.get((k, d), 0)
        closed = dist_cube_count_closed(pt.p, pt.n, k, d)
        if oracle != closed:
            yield f"{pt} k={k} d={d}: oracle={oracle} closed={closed}"


def _daisy_identities(pt: Point) -> Lines:
    p, n, poly, xq = pt.p, pt.n, pt.cube_poly, MARKERS["distance"]
    wpoly, dpoly, top = weight_poly(p, n), dist_cube_poly_closed(p, n), max_weight(p, n)
    if dpoly != substitute(wpoly, xq):
        yield f"{pt}: D != W(x+q)"
    if poly != substitute(wpoly, 1):
        yield f"{pt}: C != W(x+1)"
    if dpoly != substitute(poly, xq - 1):
        yield f"{pt}: D != C(x+q-1)"
    if dpoly != dpoly.swap():
        yield f"{pt}: D(x,q) != D(q,x)"
    if poly(0) != pt.graph.vertex_count or poly.coeff(1) != pt.graph.edge_count:
        yield f"{pt}: C(0) or [x]C disagrees with graph"
    if poly.degree() != top:
        yield f"{pt}: deg C = {poly.degree()} != {top}"


def _gf_identities(s: Series) -> Lines:
    p, order = s
    # The recurrence run on F: sum_i den_i F_{n-i} is [t^n] t.
    den = gap_denominator(1, p).coeffs
    fib = pfib_series(p, order).coeffs
    if any(
        sum(c * fib[n - i] for i, c in enumerate(den[: n + 1])) != int(n == 1)
        for n in range(order + 1)
    ):
        yield f"p={p}: sequence series times (1 - t - t^{p + 1}) != t"
    # Each coefficient is set against its closed form as it is made, then
    # dropped: the streams hold O(p) terms, not the series.
    streams = {kind: gf_terms(p, kind, order) for kind in MARKERS}
    for n, (kind, terms) in product(range(order + 1), streams.items()):
        coeff = next(terms)
        closed = globals()[CLOSED_POLY[kind]](p, n)  # as rebound in this module
        if coeff != closed:
            yield (f"p={p} n={n}: {kind} gf gives {coeff.render()}, "
                   f"closed form {closed.render()}")
            break
    if not verify_weight_gf_expansion(p, order):
        yield f"p={p}: marked-series split identity fails"
    for k in range(4):
        if not verify_cube_count_gf(p, k, order):
            yield f"p={p} k={k}: fixed-k gf mismatch"


def _oracle_mismatch(pt: Point, oracle: Callable, closed: int) -> Lines:
    try:  # the graph serves only the distance oracles: skip it with them
        check_sweep_limit(pfib(pt.p, pt.n + pt.p + 1))
    except SizeLimitError as exc:
        raise Note(f"{pt}: oracle not checked, {exc}")
    found = oracle(pt.graph)
    if found != closed:
        yield f"{pt}: oracle {found} closed {closed}"


def _wiener(pt: Point) -> Lines:
    return _oracle_mismatch(pt, wiener_oracle, pt.indices[0])


def _mostar(pt: Point) -> Lines:
    return _oracle_mismatch(pt, mostar_oracle, pt.indices[1])


def _wiener_mostar_gap(pt: Point) -> Lines:
    # The jump's sum of squares against the listed row's and the table's.
    (wc, mc), p, n = pt.indices, pt.p, pt.n
    listed = sum(c * c for c in direction_edge_counts_closed(p, n))
    table = sum(direction_edge_count_closed(p, n, i) ** 2 for i in range(1, n + 1))
    if not wc - mc == listed == table:
        yield f"{pt}: W - Mo != sum of squared |E_i|"


# The irregularity checks, stated in README.md; all but the closed form read
# one imbalance census.
def _irregularity_closed(pt: Point) -> Lines:
    closed = irregularity_closed(pt.p, pt.n)
    if closed != pt.irr:
        yield f"{pt}: oracle {pt.irr} closed {closed}"


def _imbalance_records(pt: Point) -> Lines:
    pairs = sum(len(r.pairs) for r in pt.imbalance)
    if pairs != pt.irr:
        yield f"{pt}: |pairs|={pairs} irr={pt.irr}"


def _pair_set_sizes(pt: Point) -> Lines:
    census, p, n = pt.imbalance, pt.p, pt.n
    for d in range(1, min(p, n) + 1):
        rp, lp = (sum(1 for _ in side(census, d)) for side in (right_pairs, left_pairs))
        expected = total_edges_closed(p, n - d)
        if rp != expected or lp != expected:
            yield f"{pt} d={d}: |R|={rp} |L|={lp} expected {expected}"


def _projection_bijection(pt: Point) -> Lines:
    # The right pairs at offset d against the (p, n - d) graph's edges, one
    # direction at a time over all its id offsets.  Every pair is projected:
    # a refusal by project_pair or lift_edge is the first mismatch.
    g, census, found = pt.graph, pt.imbalance, []
    for d in range(1, min(g.p, g.n) + 1):
        tag = f"p={g.p} n={g.n} d={d}"
        try:
            smaller, covered = build(g.p, g.n - d), 0
            for i, pairs in groupby(right_pairs(census, d), lambda pair: pair[0]):
                target = {
                    smaller.bits[lo + offset]
                    for offset, lows in smaller.lows[i].items()
                    for lo in bitset_ids(lows)
                }
                images = set()
                for _, y in pairs:
                    x = g.bits[y] | 1 << (g.n - i)
                    hi, _ = project_pair(g, i, i + d, x)
                    if found:
                        continue  # only a refusal may still come, and it goes first
                    if hi not in target:
                        found.append(f"{tag}: projected edge is not in the smaller graph")
                    elif hi in images:
                        found.append(f"{tag}: projection is not injective")
                    else:
                        images.add(hi)
                        if lift_edge(g.n, d, hi, i) != x:
                            found.append(f"{tag}: lift does not round-trip the pair")
                covered += len(images)
        except ValueError as exc:
            yield f"{tag}: {exc}"
            return
        if not found and covered != smaller.edge_count:
            found.append(f"{tag}: image covers {covered} of {smaller.edge_count} edges")
    yield from found


def _neighbour_propositions(pt: Point) -> Lines:
    for r in pt.imbalance:
        if r.unforced or (r.pairs and abs(r.i - r.j) > pt.p):
            yield (f"{pt} i={r.i} j={r.j}: unforced={r.unforced} "
                   f"pairs={len(r.pairs)} offset={abs(r.i - r.j)}")


SUITES: dict[str, dict[str, Callable[..., Lines]]] = {
    "cubes": {"counts": _cube_counts, "distance-counts": _distance_counts,
              "daisy-identities": _daisy_identities},
    "gf": {"identities": _gf_identities},
    "indices": {"wiener": _wiener, "mostar": _mostar,
                "wiener-mostar-gap": _wiener_mostar_gap},
    "irregularity": {"closed-form": _irregularity_closed,
                     "imbalance-records": _imbalance_records,
                     "pair-set-sizes": _pair_set_sizes,
                     "projection-bijection": _projection_bijection,
                     "neighbour-propositions": _neighbour_propositions},
    "counts": {"order": _order, "size": _size, "directions": _directions,
               "weight-census": _weight_census, "edge-recursion": _edge_recursion,
               "structure": _structure, "partial-cube": _partial_cube},
}
CHOICES = (*SUITES, "all")


def suite_counts(ps: Sequence[int], ns: Sequence[int]) -> list[CheckResult]:
    """Order, size, direction counts, weight census, and structure checks."""
    return run_suite("counts", ps, ns)


def suite_cubes(ps: Sequence[int], ns: Sequence[int]) -> list[CheckResult]:
    """Cube counts against every closed form, plus the daisy identities."""
    return run_suite("cubes", ps, ns)


def suite_gf(ps: Sequence[int], order: int = DEFAULT_ORDER) -> list[CheckResult]:
    """All generating-function identities, coefficient-exact to the order."""
    return run_suite("gf", ps, (), order)


def suite_indices(ps: Sequence[int], ns: Sequence[int]) -> list[CheckResult]:
    """Wiener and Mostar closed forms against the ball-sweep oracles."""
    return run_suite("indices", ps, ns)


def suite_irregularity(ps: Sequence[int], ns: Sequence[int]) -> list[CheckResult]:
    """Irregularity closed form, imbalanced-pair sets, and the projection."""
    return run_suite("irregularity", ps, ns)


def _result(name: str, mismatches: list[str], notes: list[str]) -> CheckResult:
    if mismatches:
        return CheckResult(name, False, mismatches[0])
    return CheckResult(name, True, "; ".join(notes))


def run_suite(
    suite: str, ps: Sequence[int], ns: Sequence[int], order: int = DEFAULT_ORDER
) -> list[CheckResult]:
    """Run one named suite, or all in table order, over the grid, p by p: the
    gf check once at the series order, then the others on one ``Point`` per
    n.  Results are listed by suite, then p, then check."""
    if suite not in CHOICES:
        raise ValueError(f"unknown suite {suite!r}; choose from {CHOICES}")
    names = tuple(SUITES) if suite == "all" else (suite,)
    found = {(name, c, p): ([], []) for name in names for c in SUITES[name] for p in ps}

    def fill(name: str, context: Point | Series) -> None:
        for check, run in SUITES[name].items():
            mismatches, notes = found[name, check, context.p]
            try:
                mismatches.extend(run(context))
            except Note as note:
                notes.append(str(note))
            except ValueError as exc:  # a layer refused what the check reads
                mismatches.append(f"{context}: {exc}")

    for p in ps:
        if "gf" in names:
            fill("gf", Series(p, order))
        for point in (Point(p, n) for n in ns):
            for name in names:
                if name != "gf":
                    fill(name, point)
    return [_result(f"{name}/{check} p={p}", *found[name, check, p])
            for name in names for p in ps for check in SUITES[name]]
