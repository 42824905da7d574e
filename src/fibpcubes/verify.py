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
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from typing import Callable, Sequence

from .cubes import cube_census
from .errors import SizeLimitError
from .graph import (
    PCubeGraph,
    bfs_distances,
    build,
    check_sweep_limit,
    direction_edge_count,
    direction_edge_count_closed,
    direction_edge_counts_closed,
    total_edges_closed,
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
    MARKERS,
    BivarPoly,
    Polynomial,
    cube_count_closed,
    cube_poly_closed,
    dist_cube_count_closed,
    dist_cube_poly_closed,
    substitute,
    weight_poly,
)
from .sequences import kfold_convolution, pfib
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    gap_denominator,
    pfib_series,
    rational_gf,
    verify_cube_count_gf,
    verify_weight_gf_expansion,
)
from .strings import count_by_weight, is_pvalid, max_weight, weight_census

# Check name -> lines filled for one p across its n grid: the mismatches
# that fail the check, or the notes on what it left unchecked.
PerCheck = dict[str, list[str]]

PointGraph = Callable[[], PCubeGraph]  # built on the first call only


@dataclass(frozen=True)
class CheckResult:
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
    # Each count three ways: the graph's, the one-pass list, the single product.
    listed = direction_edge_counts_closed(p, n)
    if len(listed) != n:
        bad["directions"].append(f"p={p} n={n}: {len(listed)} directions listed")
    for i, in_list in zip(range(1, n + 1), listed):
        counted = direction_edge_count(g, i)
        closed = direction_edge_count_closed(p, n, i)
        if not counted == in_list == closed:
            bad["directions"].append(
                f"p={p} n={n} i={i}: counted {counted} listed {in_list} "
                f"expected {closed}"
            )
    # Each weight three ways: the graph's census, the one-pass row, one binomial.
    census = Counter(v.weight for v in g.vertices)
    top = max_weight(p, n)
    row = weight_census(p, n)
    if len(row) != top + 1:
        bad["weight-census"].append(f"p={p} n={n}: row of {len(row)} weights")
    for w in range(top + 2):
        in_row = row[w] if w < len(row) else 0
        single = count_by_weight(p, n, w)
        if not census.get(w, 0) == in_row == single:
            bad["weight-census"].append(
                f"p={p} n={n} w={w}: census {census.get(w, 0)} row {in_row} "
                f"expected {single}"
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
    if sum(len(nbrs) for nbrs in g.adjacency) != 2 * g.edge_count:
        out.append(f"{tag}: degree sum != 2|E|")
    # In string order each direction has one id offset, which the census reads.
    if not all(is_pvalid(v, g.p) for v in g.vertices):
        out.append(f"{tag}: a vertex is not {g.p}-valid")
    bits = [v.bits for v in g.vertices]
    if any(a >= b for a, b in zip(bits, bits[1:])):
        out.append(f"{tag}: vertex ids do not follow string order")
    for lo, hi, i in g.edges:
        lo_bits, mask = g.vertices[lo].bits, 1 << (g.n - i)
        if lo_bits & mask or g.vertices[hi].bits != lo_bits | mask:
            out.append(f"{tag}: edge {lo}-{hi} does not set exactly bit {i}")
            break
    if g.vertex_count and min(bfs_distances(g, 0)) < 0:
        out.append(f"{tag}: graph is disconnected")
    return out


def _partial_cube_mismatches(g: PCubeGraph) -> list[str]:
    # Every edge flips one coordinate (the structure check), so each pair's
    # graph distance is at least its Hamming distance, and the two sums over
    # all pairs agree exactly when every pair does.
    tag = f"p={g.p} n={g.n}"
    order = g.vertex_count
    ones = [sum(v.bit(i) for v in g.vertices) for i in range(1, g.n + 1)]
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


def closed_poly(kind: str, p: int, n: int) -> Polynomial | BivarPoly:
    """The (p, n) polynomial of one MARKERS kind, from its closed form.

    Looked up in this module per call, so a rebound closed form is the one
    checked.
    """
    closed = {
        "cube": cube_poly_closed,
        "weight": weight_poly,
        "distance": dist_cube_poly_closed,
    }
    return closed[kind](p, n)


def _gf_at(bad: PerCheck, notes: PerCheck, p: int, order: int) -> None:
    out = bad["identities"]
    denom = gap_denominator(1, p, order)
    t_series = TruncatedSeries.from_coeffs(int, [0, 1], order)
    if pfib_series(p, order) * denom != t_series:
        out.append(f"p={p}: sequence series times (1 - t - t^{p + 1}) != t")
    gfs = {kind: rational_gf(p, kind, order) for kind in MARKERS}
    for n, (kind, gf) in product(range(order + 1), gfs.items()):
        closed = closed_poly(kind, p, n)
        if gf.coeff(n) != closed:
            out.append(
                f"p={p} n={n}: {kind} gf gives {gf.coeff(n).render()}, "
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
    squares = sum(c * c for c in direction_edge_counts_closed(p, n))
    if wc - mc != squares or squares < 0:
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
    right = {d: right_pairs(census, d) for d in range(1, p + 1)}
    for d, rp in right.items():
        lp = left_pairs(census, d)
        expected = total_edges_closed(p, n - d)
        if len(rp) != expected or len(lp) != expected:
            bad["pair-set-sizes"].append(
                f"p={p} n={n} d={d}: |R|={len(rp)} |L|={len(lp)} expected {expected}"
            )
    bad["projection-bijection"].extend(_projection_mismatches(g, right))


def _projection_mismatches(g: PCubeGraph, right: dict[int, list]) -> list[str]:
    # A pair that project_pair or lift_edge refuses is the first mismatch;
    # every pair is projected, also past its offset's first mismatch.
    found = []
    for d, pairs in right.items():
        try:
            found.extend(_bijection_mismatches(g, d, pairs))
        except ValueError as exc:
            return [f"p={g.p} n={g.n} d={d}: {exc}"]
    return found


def _bijection_mismatches(g: PCubeGraph, d: int, pairs: list) -> list[str]:
    tag = f"p={g.p} n={g.n} d={d}"
    smaller = build(g.p, g.n - d)
    target = {(smaller.vertices[hi].bits, dirn) for _, hi, dirn in smaller.edges}
    images, found = set(), []
    for i, y in pairs:
        x = g.vertices[y].bits | 1 << (g.n - i)
        hi, _ = project_pair(g, i, i + d, x)
        if found:
            continue  # only a refusal may still come, and it goes first
        if (hi, i) not in target:
            found.append(f"{tag}: projected edge is not in the smaller graph")
        elif (hi, i) in images:
            found.append(f"{tag}: projection is not injective")
        else:
            images.add((hi, i))
            if lift_edge(g.n, d, hi, i) != x:
                found.append(f"{tag}: lift does not round-trip the pair")
    if not found and len(images) != len(target):
        found.append(f"{tag}: image covers {len(images)} of {len(target)} edges")
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
