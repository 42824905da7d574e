"""Wiener index, Mostar index, and irregularity.

Each invariant comes twice: a graph-level oracle computed from the edges
alone, as the graph's direction bitsets, and a closed form in the sequence
values.  The Wiener and Mostar oracles read the graph's cached ball sweep,
``PCubeGraph.distance_sums``, so one sweep per graph serves both, and both
are refused with ``SizeLimitError`` beyond ``graph.SWEEP_LIMIT`` vertices;
``all_pairs_distances`` is the pairwise reference the tests hold them to.
The oracle side never uses the direction structure that the closed forms
rely on.

Irregularity rests on one census over ordered direction pairs (i, j),
``imbalance_census``, computed on bitsets of vertex ids, and its rows fill
every irregularity check: the pairs number irr; no row has an unforced
edge (Proposition 1) or pairs beyond offset p (Proposition 2); the pairs
at offset d number |E(n - d)| a side and project onto that graph's edges.
``right_pairs`` and ``left_pairs`` walk the rows lazily: no pair list is made.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .graph import PCubeGraph, bfs_distances, bitset_ids, direction_shifts, edge_bitsets
from .sequences import edge_terms, pfib_terms, square_sum_closed, total_edges_closed


def all_pairs_distances(g: PCubeGraph) -> list[list[int]]:
    """Full BFS distance table, one row per source vertex."""
    return [bfs_distances(g, s) for s in range(g.vertex_count)]


def wiener_oracle(g: PCubeGraph) -> int:
    """Sum of distances over unordered vertex pairs, from the ball sweep."""
    sums, apart = g.distance_sums
    if apart:
        raise ValueError("the Wiener index of a disconnected graph is infinite")
    return sum(sums) // 2


@lru_cache(maxsize=1)
def _closed_parts(p: int, n: int) -> tuple[int, int]:
    # (|V| * |E|, sum of squared direction counts), kept for the last (p, n)
    # only, so that Wiener and Mostar share one pass of each sequence.
    order_times_size = pfib_terms(p, n + p + 1)[0] * total_edges_closed(p, n)
    return order_times_size, square_sum_closed(p, n)


def wiener_closed(p: int, n: int) -> int:
    """|V| * |E| minus the sum of squared per-direction edge counts."""
    order_times_size, squares = _closed_parts(p, n)
    return order_times_size - squares


def mostar_oracle(g: PCubeGraph) -> int:
    """Per-edge |n_uv - n_vu|, from the distance sums T of the endpoints.

    A vertex closer to u than to its neighbour v is one step farther from
    v, and a vertex at equal distance counts on neither side, so
    n_uv - n_vu = T(v) - T(u).  Vertices out of reach add the same amount
    to both sums, so the identity holds on a disconnected graph too.
    """
    sums, _ = g.distance_sums
    return sum(
        abs(sums[lo] - sums[lo + offset])
        for _, lows, offset in edge_bitsets(g)
        for lo in bitset_ids(lows)
    )


def mostar_closed(p: int, n: int) -> int:
    """|V| * |E| minus twice the sum of squared per-direction edge counts."""
    order_times_size, squares = _closed_parts(p, n)
    return order_times_size - 2 * squares


def irregularity_oracle(g: PCubeGraph) -> int:
    """Sum of absolute degree differences over the edges.

    Degrees are counted edge by edge from the direction bitsets, each
    offset on its own, so no edge list is made.
    """
    bitsets = edge_bitsets(g)
    degree = [0] * g.vertex_count
    for _, lows, offset in bitsets:
        for lo in bitset_ids(lows):
            degree[lo] += 1
            degree[lo + offset] += 1
    return sum(
        abs(degree[lo] - degree[lo + offset])
        for _, lows, offset in bitsets
        for lo in bitset_ids(lows)
    )


def irregularity_closed(p: int, n: int) -> int:
    """Twice the sum of the edge counts of the p previous lengths.

    The theorem irr = 2 * sum_{d=1..p} |E(n - d)|, with the counts
    |E(n - m)| .. |E(n - 1)| taken together, m = min(p, n).  At n <= p + 1
    no two 1s fit, the graph is the star K_{1,n}, and the sum, |E(k)| = k
    there, gives its irr = n(n - 1).
    """
    m = min(p, n)
    return 2 * sum(edge_terms(p, n - m, m))


class ImbalanceRow(NamedTuple):
    """The direction-i edges xy, x carrying the 1 at i, seen at direction j."""

    i: int
    j: int
    pairs: tuple[int, ...]  # ascending ids y with a j-edge where x has none
    unforced: int  # edges where x has a j-edge and y none: 0 by Proposition 1


def imbalance_census(g: PCubeGraph) -> list[ImbalanceRow]:
    """The rows (i, j), i != j, with pairs or unforced edges, in (i, j) order.

    From ``direction_shifts``, which may refuse: has_j = lows_j | lows_j <<
    off_j holds the ids with a j-edge, and has_j >> off_i the y whose x has one.
    """
    shifts = direction_shifts(g)
    has = [(j, lows | lows << off) for j, lows, off in shifts]
    rows = []
    for i, lows, off in shifts:
        for j, has_j in has:  # (i, i) reports nothing: y and x have their i-edge
            at_x = has_j >> off
            pairs = bitset_ids(lows & has_j & ~at_x)
            unforced = (lows & at_x & ~has_j).bit_count()
            if pairs or unforced:
                rows.append(ImbalanceRow(i, j, pairs, unforced))
    return rows


def right_pairs(census: list[ImbalanceRow], d: int) -> Iterator[tuple[int, int]]:
    """(i, y) in ascending order for the pairs whose direction j sits d right of i."""
    return ((r.i, y) for r in census if r.j - r.i == d for y in r.pairs)


def left_pairs(census: list[ImbalanceRow], d: int) -> Iterator[tuple[int, int]]:
    """(i, y) in ascending order for the pairs whose direction j sits d left of i."""
    return ((r.i, y) for r in census if r.i - r.j == d for y in r.pairs)


def project_pair(g: PCubeGraph, i: int, j: int, x: int) -> tuple[int, int]:
    """Project the right pair (i, j, x) to the (p, n - d) edge at i, d = j - i.

    x is the packed 1-endpoint; its coordinates i+1 .. j, all 0, are dropped.
    Returns the packed oriented edge (with-1, without-1).
    """
    n = g.n
    if not 1 <= i < j <= n:
        raise ValueError(f"directions ({i}, {j}) are not a right pair in [1, {n}]")
    mask_i, mask_j = 1 << (n - i), 1 << (n - j)
    if not x & mask_i or x not in g.index or x ^ mask_i not in g.index:
        raise ValueError("pair endpoints are not an oriented edge of the graph")
    if x ^ mask_i ^ mask_j not in g.index:
        raise ValueError("witnessing edge is missing from the graph")
    if x ^ mask_j in g.index:
        raise ValueError("pair is not imbalanced: x + delta_j is a vertex")
    keep_low = n - j  # coordinates j+1 .. n survive unchanged
    hi = (x >> (n - i) << keep_low) | (x & ((1 << keep_low) - 1))
    return hi, hi ^ (1 << keep_low)


def lift_edge(n: int, d: int, hi: int, i: int) -> int:
    """The x of the one right pair (i, i + d, x) that projects to a given edge.

    hi is the packed (p, n - d) endpoint carrying the 1 at direction i; the
    lift inserts d zeros after coordinate i.
    """
    m = n - d
    if not 0 <= hi < 1 << m:
        raise ValueError(f"edge {hi:b} does not fit n - d = {m} coordinates")
    if not (1 <= i <= m and hi >> (m - i) & 1):
        raise ValueError(f"coordinate {i} of the edge is not 1")
    return (hi >> (m - i) << (n - i)) | (hi & ((1 << (m - i)) - 1))
