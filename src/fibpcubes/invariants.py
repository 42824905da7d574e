"""Wiener index, Mostar index, and irregularity.

Each invariant comes twice: a graph-level oracle computed from the
adjacency lists alone, and a closed form in the sequence values.  The
Wiener and Mostar oracles read the graph's cached ball sweep,
``PCubeGraph.distance_sums``, so one sweep per graph serves both, and both
are refused with ``SizeLimitError`` beyond ``graph.SWEEP_LIMIT`` vertices;
``all_pairs_distances`` is the pairwise reference the tests hold them to.
The oracle side never uses the direction structure that the closed forms
rely on.

Irregularity rests on one scan of (edge, direction) pairs,
``imbalance_census``, and its records fill every irregularity check: the
pairs number irr; each record's signed degree gap is its pair count
(Proposition 1) and its offsets stay within p (Proposition 2); the pairs
at offset d number |E(n - d)| a side and project onto that graph's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import PCubeGraph, bfs_distances, direction_edge_counts_closed
from .sequences import pfib
from .strings import PString


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
def _direction_sums(p: int, n: int) -> tuple[int, int]:
    # (|E|, sum of squared direction counts), kept for the last (p, n) only
    # so that Wiener and Mostar share one pass; the list itself is dropped.
    counts = direction_edge_counts_closed(p, n)
    return sum(counts), sum(c * c for c in counts)


def wiener_closed(p: int, n: int) -> int:
    """|V| * |E| minus the sum of squared per-direction edge counts."""
    edges, squares = _direction_sums(p, n)
    return pfib(p, n + p + 1) * edges - squares


def mostar_oracle(g: PCubeGraph) -> int:
    """Per-edge |n_uv - n_vu|, from the distance sums T of the endpoints.

    A vertex closer to u than to its neighbour v is one step farther from
    v, and a vertex at equal distance counts on neither side, so
    n_uv - n_vu = T(v) - T(u).  Vertices out of reach add the same amount
    to both sums, so the identity holds on a disconnected graph too.
    """
    sums, _ = g.distance_sums
    return sum(abs(sums[lo] - sums[hi]) for lo, hi, _ in g.edges)


def mostar_closed(p: int, n: int) -> int:
    """|V| * |E| minus twice the sum of squared per-direction edge counts."""
    edges, squares = _direction_sums(p, n)
    return pfib(p, n + p + 1) * edges - 2 * squares


def irregularity_oracle(g: PCubeGraph) -> int:
    """Sum of absolute degree differences over the edges."""
    return sum(
        abs(len(g.adjacency[lo]) - len(g.adjacency[hi])) for lo, hi, _ in g.edges
    )


def irregularity_closed(p: int, n: int) -> int:
    """Twice the sum of the edge counts of the p previous lengths.

    The theorem irr = 2 * sum_{d=1..p} |E(n - d)|, summed in one pass:
    with |E(m)| = sum_i F_i F_{m-i+1}, each F_i meets the window sum
    F_{n-i-p+1} + ... + F_{n-i} (indices below 1 dropped), which telescopes
    through F_{j+p+1} - F_{j+p} = F_j to F_{n-i+p+1} - F_{max(n-i+1, p+1)}.
    Only valid for n >= p; smaller n must go through the oracle.
    """
    if n < p:
        raise ValueError(f"closed form needs n >= p, got n = {n} < p = {p}")
    return 2 * sum(
        pfib(p, i) * (pfib(p, n - i + p + 1) - pfib(p, max(n - i + 1, p + 1)))
        for i in range(1, n)
    )


@dataclass(frozen=True)
class ImbalancedPair:
    """An edge y(y + delta_j) witnessing a missing neighbour of x.

    Here e = xy is an edge with x carrying the 1 at its direction i, and
    x + delta_j is not a vertex while y + delta_j is.
    """

    x: PString
    y: PString
    i: int
    j: int

    @property
    def offset(self) -> int:
        return abs(self.i - self.j)

    @property
    def side(self) -> str:
        return "right" if self.j > self.i else "left"


@dataclass(frozen=True)
class EdgeImbalance:
    """Imbalance record of one edge, oriented 1-endpoint first.

    imbalance is deg y - deg x, sign kept: the j at which only y + delta_j
    is a vertex (the pairs) less those at which only x + delta_j is.
    """

    x: PString
    y: PString
    direction: int
    imbalance: int
    pairs: tuple[ImbalancedPair, ...]


def imbalance_census(g: PCubeGraph) -> list[EdgeImbalance]:
    """For every edge, the imbalanced edges at its low endpoint.

    Records are ordered like g.edges; each record's pair list is ordered by
    the direction j of the witnessing edge.
    """
    records: list[EdgeImbalance] = []
    n = g.n
    for lo, hi, i in g.edges:
        x = g.vertices[hi]
        y = g.vertices[lo]
        pairs: list[ImbalancedPair] = []
        for j in range(1, n + 1):
            if j == i:
                continue
            mask = 1 << (n - j)
            if (y.bits ^ mask) in g.index and (x.bits ^ mask) not in g.index:
                pairs.append(ImbalancedPair(x, y, i, j))
        imbalance = len(g.adjacency[lo]) - len(g.adjacency[hi])
        records.append(EdgeImbalance(x, y, i, imbalance, tuple(pairs)))
    return records


def _pairs_at(records: list[EdgeImbalance], side: str, d: int) -> list[ImbalancedPair]:
    return [
        pair
        for record in records
        for pair in record.pairs
        if pair.side == side and pair.offset == d
    ]


def right_pairs(records: list[EdgeImbalance], d: int) -> list[ImbalancedPair]:
    """The pairs whose witnessing direction sits d places right of the edge's."""
    return _pairs_at(records, "right", d)


def left_pairs(records: list[EdgeImbalance], d: int) -> list[ImbalancedPair]:
    """The pairs whose witnessing direction sits d places left of the edge's."""
    return _pairs_at(records, "left", d)


def _validate_right_pair(g: PCubeGraph, pair: ImbalancedPair) -> None:
    n = g.n
    d = pair.j - pair.i
    if d < 1:
        raise ValueError("pair is not right-sided")
    if not (1 <= pair.i <= n and pair.j <= n):
        raise ValueError("pair directions outside the graph")
    if pair.x.bit(pair.i) != 1 or pair.y != pair.x.flip(pair.i):
        raise ValueError("pair endpoints are not an oriented edge")
    if pair.x.bits not in g.index or pair.y.bits not in g.index:
        raise ValueError("pair endpoints are not vertices")
    mask = 1 << (n - pair.j)
    if (pair.y.bits ^ mask) not in g.index:
        raise ValueError("witnessing edge is missing from the graph")
    if (pair.x.bits ^ mask) in g.index:
        raise ValueError("pair is not imbalanced: x + delta_j is a vertex")


def project_pair(g: PCubeGraph, pair: ImbalancedPair) -> tuple[PString, PString]:
    """Project a right-sided pair down to an edge d coordinates shorter.

    Coordinates i+1 .. i+d of the 1-endpoint are dropped (they are all 0);
    the result is the oriented edge (with-1, without-1) of the (p, n-d)
    graph at direction i.
    """
    _validate_right_pair(g, pair)
    n = g.n
    i = pair.i
    d = pair.j - pair.i
    keep_low = n - i - d  # coordinates i+d+1 .. n survive unchanged
    suffix = pair.x.bits & ((1 << keep_low) - 1)
    prefix = pair.x.bits >> (n - i)
    hi_bits = (prefix << keep_low) | suffix
    hi = PString(n - d, hi_bits)
    return hi, PString(n - d, hi_bits ^ (1 << keep_low))


def lift_edge(n: int, d: int, hi: PString, i: int) -> ImbalancedPair:
    """Rebuild the unique right-sided pair projecting to a given edge.

    The edge lives in the (p, n-d) graph, oriented so hi carries the 1 at
    direction i; the lift inserts d zeros after coordinate i and moves the
    1 across them for the low endpoint.
    """
    m = hi.n
    if m != n - d:
        raise ValueError(f"edge length {m} does not match n - d = {n - d}")
    if hi.bit(i) != 1:
        raise ValueError(f"coordinate {i} of {hi!r} is not 1")
    prefix = hi.bits >> (m - i)
    suffix = hi.bits & ((1 << (m - i)) - 1)
    x = PString(n, (prefix << (n - i)) | suffix)
    y = x.flip(i)
    return ImbalancedPair(x, y, i, i + d)
