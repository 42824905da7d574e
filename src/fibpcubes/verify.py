"""Closed-form versus oracle check suites, shared by the CLI and the tests.

Each suite recomputes every identity from both sides over a (p, n) grid,
and reports one result per identity and parameter p with the first
counterexample when something disagrees.  A suite is one row of ``SUITES``:
its check names in report order, and a function that fills the mismatches
and notes of every check for one (p, n).  ``run_suite`` walks the grid
once and builds each point's graph at most once, for every suite that reads
it; the gf suite reads none.  Size limits are enforced where memory is
allocated: a graph beyond the vertex limit is refused, and a distance
oracle beyond the sweep limit leaves a note on each check it skipped.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from itertools import groupby, product
from typing import Callable, NamedTuple, Sequence

from .cubes import cube_census
from .errors import SizeLimitError
from .graph import (
    PCubeGraph,
    bfs_distances,
    bitset_ids,
    build,
    check_sweep_limit,
    direction_edge_count,
    direction_edge_count_closed,
    direction_edge_counts_closed,
    edge_bitsets,
)
from .invariants import (
    imbalance_census,
    irregularity_closed,
    irregularity_oracle,
    left_pairs,
    lift_edge,
    mostar_closed,
    mostar_oracle,
    project_pair,
    right_pairs,
    wiener_closed,
    wiener_oracle,
)
from .polynomials import (
    CLOSED_POLY,
    MARKERS,
    cube_count_closed,
    cube_poly_closed,
    dist_cube_count_closed,
    dist_cube_poly_closed,
    substitute,
    weight_poly,
)
from .sequences import (
    decimal_text,
    direction_products,
    kfold_convolution,
    pfib,
    total_edges_closed,
)
from .series import (
    DEFAULT_ORDER,
    gap_denominator,
    gf_terms,
    pfib_series,
    verify_cube_count_gf,
    verify_weight_gf_expansion,
)
from .strings import count_by_weight, is_pvalid, max_weight, weight_census, weight_row

# Check name -> lines filled for one p across its n grid: the mismatches
# that fail the check, or the notes on what it left unchecked.
PerCheck = dict[str, list[str]]

PointGraph = Callable[[], PCubeGraph]  # built on the first call only


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, mismatches: list[str], notes: list[str]) -> CheckResult:
    if mismatches:
        return CheckResult(name, False, mismatches[0])
    return CheckResult(name, True, "; ".join(notes))


def _counts_at(
    bad: PerCheck, notes: PerCheck, graph: PointGraph, p: int, n: int
) -> None:
    g = graph()
    expected_order = pfib(p, n + p + 1)
    if g.vertex_count != expected_order:
        bad["order"].append(
            f"p={p} n={n}: |V|={g.vertex_count} expected {expected_order}"
        )
    expected_size = total_edges_closed(p, n)
    if g.edge_count != expected_size:
        bad["size"].append(f"p={p} n={n}: |E|={g.edge_count} expected {expected_size}")
    # Each count four ways: the graph's, the one-pass list, the decimal text
    # that indices prints, the single product.  The row is a palindrome.
    listed = direction_edge_counts_closed(p, n)
    text = list(decimal_text(direction_products, p, n))
    if len(listed) != n or len(text) != n:
        bad["directions"].append(
            f"p={p} n={n}: {len(listed)} directions listed, {len(text)} as text"
        )
    if listed != listed[::-1] or text != text[::-1]:
        bad["directions"].append(f"p={p} n={n}: the row is not a palindrome")
    for i, in_list, in_text in zip(range(1, n + 1), listed, text):
        counted = direction_edge_count(g, i)
        closed = direction_edge_count_closed(p, n, i)
        if not counted == in_list == closed or in_text != str(closed):
            bad["directions"].append(
                f"p={p} n={n} i={i}: counted {counted} listed {in_list} "
                f"text {in_text} expected {closed}"
            )
    # Each weight four ways: the graph's census, the one-pass row, the decimal
    # text that count prints, one binomial.
    census = Counter(b.bit_count() for b in g.bits)
    top = max_weight(p, n)
    row = weight_census(p, n)
    text = list(decimal_text(weight_row, p, n))
    if len(row) != top + 1 or len(text) != top + 1:
        bad["weight-census"].append(
            f"p={p} n={n}: row of {len(row)} weights, text of {len(text)}"
        )
    for w in range(top + 2):
        in_row = row[w] if w < len(row) else 0
        in_text = text[w] if w < len(text) else "0"
        single = count_by_weight(p, n, w)
        if not census.get(w, 0) == in_row == single or in_text != str(single):
            bad["weight-census"].append(
                f"p={p} n={n} w={w}: census {census.get(w, 0)} row {in_row} "
                f"text {in_text} expected {single}"
            )
    if n >= p + 1:
        recursed = (
            total_edges_closed(p, n - 1) + total_edges_closed(p, n - p - 1) + pfib(p, n)
        )
        if total_edges_closed(p, n) != recursed:
            bad["edge-recursion"].append(f"p={p} n={n}: recursion gives {recursed}")
    bad["structure"].extend(_structure_mismatches(g))
    try:
        bad["partial-cube"].extend(_partial_cube_mismatches(g))
    except SizeLimitError as exc:
        notes["partial-cube"].append(f"p={p} n={n}: partial-cube not checked, {exc}")


def _structure_mismatches(g: PCubeGraph) -> list[str]:
    out = []
    tag = f"p={g.p} n={g.n}"
    bits = g.bits
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
        out.append(f"{tag}: degree sum != 2|E|")
    # In string order each direction has one id offset, which the census reads.
    if not all(is_pvalid(b, g.p) for b in bits):
        out.append(f"{tag}: a vertex is not {g.p}-valid")
    if any(a >= b for a, b in zip(bits, bits[1:])):
        out.append(f"{tag}: vertex ids do not follow string order")
    if wrong:
        out.append("{}: edge {}-{} does not set exactly bit {}".format(tag, *min(wrong)))
    if g.vertex_count and min(bfs_distances(g, 0)) < 0:
        out.append(f"{tag}: graph is disconnected")
    return out


def _partial_cube_mismatches(g: PCubeGraph) -> list[str]:
    # Every edge flips one coordinate (the structure check), so each pair's
    # graph distance is at least its Hamming distance, and the two sums over
    # all pairs agree exactly when every pair does.
    tag = f"p={g.p} n={g.n}"
    order = g.vertex_count
    ones = [sum((b >> shift) & 1 for b in g.bits) for shift in range(g.n)]
    hamming_sum = sum(c * (order - c) for c in ones)
    try:
        wiener = wiener_oracle(g)
    except ValueError as exc:
        return [f"{tag}: {exc}"]
    if wiener != hamming_sum:
        return [f"{tag}: Wiener index {wiener} but Hamming sum {hamming_sum}"]
    return []


def _cubes_at(
    bad: PerCheck, notes: PerCheck, graph: PointGraph, p: int, n: int
) -> None:
    g = graph()
    try:
        census = cube_census(g)
    except ValueError as exc:  # the walk refuses disagreeing id offsets
        bad["counts"].append(f"p={p} n={n}: {exc}")
        return
    poly = cube_poly_closed(p, n)
    wpoly = weight_poly(p, n)
    dpoly = dist_cube_poly_closed(p, n)
    top = max_weight(p, n)
    for k in range(top + 2):
        oracle = sum(v for (kk, _), v in census.items() if kk == k)
        closed = cube_count_closed(p, n, k)
        coeff = poly.coeff(k)
        m = n - k * p + p + 1
        conv = kfold_convolution(p, k, m) if m >= 0 else 0
        if not oracle == closed == coeff == conv:
            bad["counts"].append(
                f"p={p} n={n} k={k}: oracle={oracle} sum={closed} "
                f"expansion={coeff} convolution={conv}"
            )
    for k in range(top + 2):
        for d in range(top + 2):
            oracle = census.get((k, d), 0)
            closed = dist_cube_count_closed(p, n, k, d)
            if oracle != closed:
                bad["distance-counts"].append(
                    f"p={p} n={n} k={k} d={d}: oracle={oracle} closed={closed}"
                )
    daisy = bad["daisy-identities"]
    xq = MARKERS["distance"]
    if dpoly != substitute(wpoly, xq):
        daisy.append(f"p={p} n={n}: D != W(x+q)")
    if poly != substitute(wpoly, 1):
        daisy.append(f"p={p} n={n}: C != W(x+1)")
    if dpoly != substitute(poly, xq - 1):
        daisy.append(f"p={p} n={n}: D != C(x+q-1)")
    if dpoly != dpoly.swap():
        daisy.append(f"p={p} n={n}: D(x,q) != D(q,x)")
    if poly(0) != g.vertex_count or poly.coeff(1) != g.edge_count:
        daisy.append(f"p={p} n={n}: C(0) or [x]C disagrees with graph")
    if poly.degree() != top:
        daisy.append(f"p={p} n={n}: deg C = {poly.degree()} != {top}")


def _gf_at(bad: PerCheck, notes: PerCheck, p: int, order: int) -> None:
    out = bad["identities"]
    # The recurrence run on F: sum_i den_i F_{n-i} is [t^n] t.
    den = gap_denominator(1, p).coeffs
    fib = pfib_series(p, order).coeffs
    if any(
        sum(c * fib[n - i] for i, c in enumerate(den[: n + 1])) != int(n == 1)
        for n in range(order + 1)
    ):
        out.append(f"p={p}: sequence series times (1 - t - t^{p + 1}) != t")
    # Each coefficient is set against its closed form as it is made, then
    # dropped: the streams hold O(p) terms, not the series.
    streams = {kind: gf_terms(p, kind, order) for kind in MARKERS}
    for n, (kind, terms) in product(range(order + 1), streams.items()):
        coeff = next(terms)
        closed = globals()[CLOSED_POLY[kind]](p, n)  # as rebound in this module
        if coeff != closed:
            out.append(
                f"p={p} n={n}: {kind} gf gives {coeff.render()}, "
                f"closed form {closed.render()}"
            )
            break
    if not verify_weight_gf_expansion(p, order):
        out.append(f"p={p}: marked-series split identity fails")
    for k in range(4):
        if not verify_cube_count_gf(p, k, order):
            out.append(f"p={p} k={k}: fixed-k gf mismatch")


def _indices_at(
    bad: PerCheck, notes: PerCheck, graph: PointGraph, p: int, n: int
) -> None:
    wc, mc = wiener_closed(p, n), mostar_closed(p, n)
    try:  # the graph serves only the distance oracles: skip it with them
        check_sweep_limit(pfib(p, n + p + 1))
    except SizeLimitError as exc:
        for check in ("wiener", "mostar"):
            notes[check].append(f"p={p} n={n}: oracle not checked, {exc}")
    else:
        g = graph()
        wo, mo = wiener_oracle(g), mostar_oracle(g)
        if wo != wc:
            bad["wiener"].append(f"p={p} n={n}: oracle {wo} closed {wc}")
        if mo != mc:
            bad["mostar"].append(f"p={p} n={n}: oracle {mo} closed {mc}")
    # The jump's sum of squares against the listed row's and the table's.
    listed = sum(c * c for c in direction_edge_counts_closed(p, n))
    table = sum(direction_edge_count_closed(p, n, i) ** 2 for i in range(1, n + 1))
    if not wc - mc == listed == table:
        bad["wiener-mostar-gap"].append(f"p={p} n={n}: W - Mo != sum of squared |E_i|")


def _irregularity_at(
    bad: PerCheck, notes: PerCheck, graph: PointGraph, p: int, n: int
) -> None:
    """Fill the five irregularity checks from one imbalance census.

    imbalance-records: the pairs number irr.  neighbour-propositions: no
    row has an unforced edge (Proposition 1) or pairs beyond offset p
    (Proposition 2).  closed-form: irr is 2 sum_d |E(n - d)|.
    pair-set-sizes: the pairs at offset d number |E(n - d)| on each side.
    projection-bijection: the right ones project one-to-one onto the edges
    of the (p, n - d) graph.
    """
    g = graph()
    try:
        census = imbalance_census(g)
    except ValueError as exc:  # the census refuses disagreeing id offsets
        bad["imbalance-records"].append(f"p={p} n={n}: {exc}")
        return
    oracle = irregularity_oracle(g)
    pairs = sum(len(r.pairs) for r in census)
    for r in census:
        if r.unforced or (r.pairs and abs(r.i - r.j) > p):
            bad["neighbour-propositions"].append(
                f"p={p} n={n} i={r.i} j={r.j}: unforced={r.unforced} "
                f"pairs={len(r.pairs)} offset={abs(r.i - r.j)}"
            )
    if pairs != oracle:
        bad["imbalance-records"].append(f"p={p} n={n}: |pairs|={pairs} irr={oracle}")
    if n < p:
        notes["closed-form"].append(
            f"p={p} n={n}: theorem not applicable (n < p), oracle-only; irr={oracle}"
        )
        return
    closed = irregularity_closed(p, n)
    if closed != oracle:
        bad["closed-form"].append(f"p={p} n={n}: oracle {oracle} closed {closed}")
    for d in range(1, p + 1):
        rp, lp = (sum(1 for _ in side(census, d)) for side in (right_pairs, left_pairs))
        expected = total_edges_closed(p, n - d)
        if rp != expected or lp != expected:
            bad["pair-set-sizes"].append(
                f"p={p} n={n} d={d}: |R|={rp} |L|={lp} expected {expected}"
            )
    bad["projection-bijection"].extend(_projection_mismatches(g, census, p))


def _projection_mismatches(g: PCubeGraph, census: list, p: int) -> list[str]:
    # The right pairs at offset d against the (p, n - d) graph's edges, one
    # direction at a time over all its id offsets.  Every pair is projected:
    # a refusal by project_pair or lift_edge is the first mismatch.
    found: list[str] = []
    for d in range(1, p + 1):
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
            return [f"{tag}: {exc}"]
        if not found and covered != smaller.edge_count:
            found.append(f"{tag}: image covers {covered} of {smaller.edge_count} edges")
    return found


# Suite name -> (check names in report order, filler), in the order `all`
# runs them.  The gf filler takes (p, order), the others (graph, p, n).
SUITES: dict[str, tuple[tuple[str, ...], Callable[..., None]]] = {
    "cubes": (("counts", "distance-counts", "daisy-identities"), _cubes_at),
    "gf": (("identities",), _gf_at),
    "indices": (("wiener", "mostar", "wiener-mostar-gap"), _indices_at),
    "irregularity": (
        ("closed-form", "imbalance-records", "pair-set-sizes",
         "projection-bijection", "neighbour-propositions"),
        _irregularity_at,
    ),
    "counts": (
        ("order", "size", "directions", "weight-census", "edge-recursion",
         "structure", "partial-cube"),
        _counts_at,
    ),
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


def run_suite(
    suite: str, ps: Sequence[int], ns: Sequence[int], order: int = DEFAULT_ORDER
) -> list[CheckResult]:
    """Run one named suite, or all of them in table order, over the given grid.

    The grid is walked once, p by p.  At each (p, n) one graph, built
    through ``build`` on first use, goes to every graph suite; the gf suite
    runs once per p at the series order.  Results are listed by suite, then
    p, then check.
    """
    if suite not in CHOICES:
        raise ValueError(f"unknown suite {suite!r}; choose from {CHOICES}")
    names = tuple(SUITES) if suite == "all" else (suite,)
    bad, notes = (
        {(name, p): {c: [] for c in SUITES[name][0]} for name in names for p in ps}
        for _ in range(2)
    )
    graph_suites = [name for name in names if name != "gf"]
    for p in ps:
        if "gf" in names:
            _gf_at(bad["gf", p], notes["gf", p], p, order)
        for n in ns:
            graph = cache(partial(build, p, n))
            for name in graph_suites:
                SUITES[name][1](bad[name, p], notes[name, p], graph, p, n)
    return [
        _result(f"{name}/{check} p={p}", bad[name, p][check], notes[name, p][check])
        for name in names
        for p in ps
        for check in SUITES[name][0]
    ]
