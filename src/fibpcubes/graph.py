"""Materialized gap-constrained subgraphs of the hypercube.

Vertices are the p-valid strings of length n; two are adjacent when they
differ in exactly one coordinate.  Adjacency is found by clearing each set
bit and looking the result up in the vertex index, so construction costs
O(|V| * n) lookups and never scans vertex pairs.  The vertex limit is
checked by the enumeration before any vertex exists; ``build`` adds only an
optional bound on n.

A graph keeps only its packed strings in string order, their index, and
per direction the bitset of its edges' lower-endpoint ids under each id
offset.  Counts are lengths and popcounts.  Every check, BFS included,
reads the bitsets through ``edge_bitsets``, or ``direction_shifts`` where
it needs one offset per direction.  Made on first read, the adjacency
lists serve the ball sweep and ``export``, which labels the vertices from
``bits``; no library code reads the vertex objects.

Distances come from a BFS per source, or from one ball sweep cached on
the graph for all its distance oracles; the sweep refuses graphs of more
than ``SWEEP_LIMIT`` vertices before it allocates any ball.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import compress
from typing import Iterator

from .errors import SizeLimitError
from .sequences import direction_products, pfib
# Re-exported: perfbench/tracer.py times it as graph.total_edges_closed.
from .sequences import total_edges_closed  # noqa: F401
from .strings import PString, bits_to01, pvalid_bits

# Two rows of |V| balls of |V| bits: about |V|^2 / 4 bytes, 64 MB at this |V|.
SWEEP_LIMIT = 1 << 14


class PCubeGraph:
    """Packed vertices and per-direction edge bitsets; treat as immutable once built.

    Two graphs are equal when their five fields are; a graph is unhashable.
    """

    def __init__(
        self,
        p: int,
        n: int,
        bits: list[int],
        index: dict[int, int],
        lows: list[dict[int, int]],
    ) -> None:
        self.p = p
        self.n = n
        self.bits = bits  # packed strings; a vertex id is a position here
        self.index = index  # packed bits -> vertex id
        # lows[i] maps each id offset hi - lo of the direction-i edges to the
        # bitset of their lower-endpoint ids; slot 0 is empty, directions are 1-based
        self.lows = lows

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.n, self.bits, self.index, self.lows) == (
            other.p, other.n, other.bits, other.index, other.lows
        )

    @property
    def vertex_count(self) -> int:
        return len(self.bits)

    @property
    def edge_count(self) -> int:
        return sum(lows.bit_count() for _, lows, _ in edge_bitsets(self))

    @cached_property
    def vertices(self) -> list[PString]:
        """The strings as ``PString`` objects, in id order.

        Only the benchmark tracer's cube-census counters read them.
        """
        return [PString(self.n, bits) for bits in self.bits]

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """The neighbour ids of each vertex, ascending."""
        ids = list(range(len(self.bits)))  # one int object per id, for all its edges
        adjacency: list[list[int]] = [[] for _ in ids]
        for _, lows, offset in edge_bitsets(self):
            for lo in bitset_ids(lows):
                adjacency[lo].append(ids[lo + offset])
                adjacency[lo + offset].append(ids[lo])
        for neighbours in adjacency:
            neighbours.sort()
        return adjacency

    @cached_property
    def distance_sums(self) -> tuple[tuple[int, ...], int]:
        """Per vertex v, the sum over radii r of the vertices outside ball_r(v).

        Each ball is a bitset of vertex ids, grown one radius per round by
        ``ball[v] |= ball[w]`` over the neighbours w until no ball grows.  A
        vertex at distance d lies outside d balls, so in a connected graph
        the sums are the distance sums.  Also returns the ordered pairs left
        apart, 0 exactly when the graph is connected.  Swept once per graph
        object: a copy built from changed fields sweeps its own edges.
        """
        order = self.vertex_count
        check_sweep_limit(order)
        adjacency = self.adjacency
        balls = [1 << v for v in range(order)]
        sums = [0] * order
        outside = [order - 1] * order
        while any(outside):
            sums = [s + o for s, o in zip(sums, outside)]
            grown = []
            for ball, neighbours in zip(balls, adjacency):
                for w in neighbours:
                    ball |= balls[w]
                grown.append(ball)
            balls = grown
            last, outside = outside, [order - ball.bit_count() for ball in balls]
            if outside == last:
                break
        return tuple(sums), sum(outside)


def build(p: int, n: int, cap: int | None = None) -> PCubeGraph:
    """Materialize the graph for (p, n); refuses n beyond cap, if given."""
    if cap is not None and n > cap:
        raise SizeLimitError(f"n = {n} exceeds the graph cap {cap}")
    bits = pvalid_bits(p, n)
    index = {b: v for v, b in enumerate(bits)}
    zeros = b"0" * len(bits)
    lows: list[dict[int, int]] = [{}]
    for i in range(1, n + 1):
        mask = 1 << (n - i)
        digits: dict[int, bytearray] = {}  # per offset, id v at digit -1 - v
        for hi, b in enumerate(bits):
            if b & mask:  # each edge is found once, from its 1-endpoint
                lo = index.get(b ^ mask)
                if lo is not None:
                    lows_digits = digits.get(hi - lo)
                    if lows_digits is None:
                        lows_digits = digits[hi - lo] = bytearray(zeros)
                    lows_digits[-1 - lo] = 49  # ord("1")
        lows.append({offset: int(d, 2) for offset, d in digits.items()})
    return PCubeGraph(p, n, bits, index, lows)


def direction_edge_count(g: PCubeGraph, i: int) -> int:
    """Number of edges of g whose endpoints differ at coordinate i."""
    if not 1 <= i <= g.n:
        raise ValueError(f"direction {i} outside [1, {g.n}]")
    return sum(lows.bit_count() for lows in g.lows[i].values())


def bitset_ids(bits: int) -> tuple[int, ...]:
    """The ids in a bitset, ascending, without copying the int once per id."""
    digits = bin(bits)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
    return tuple(compress(range(len(digits)), digits))


def edge_bitsets(g: PCubeGraph) -> list[tuple[int, int, int]]:
    """(direction, bitset of lower-endpoint ids, id offset) per direction and offset.

    Only the pairs that have edges are listed, in direction order.
    """
    return [
        (i, lows, offset) for i, per in enumerate(g.lows) for offset, lows in per.items()
    ]


def direction_shifts(g: PCubeGraph) -> list[tuple[int, int, int]]:
    """``edge_bitsets``, one entry per direction with edges.

    Refuses with ValueError a direction whose edges disagree on the offset.
    """
    for i, per in enumerate(g.lows):
        if len(per) > 1:
            raise ValueError(f"direction {i} edges have id offsets {sorted(per)}")
    return edge_bitsets(g)


def direction_edge_count_closed(p: int, n: int, i: int) -> int:
    """Closed form F^p_i * F^p_{n-i+1} for the direction-i edge count."""
    if not 1 <= i <= n:
        raise ValueError(f"direction {i} outside [1, {n}]")
    return pfib(p, i) * pfib(p, n - i + 1)


def direction_edge_counts_closed(p: int, n: int) -> list[int]:
    """The closed forms F^p_i * F^p_{n-i+1} for directions i = 1..n, in order.

    They come from ``direction_products``, by products of a rising and a
    falling window of F or by sums over a window of (p+1)^2 cross products,
    whichever it picks; no table of F is kept.
    """
    return list(direction_products(p, n))


def check_sweep_limit(order: int) -> None:
    """Refuse with SizeLimitError a sweep over more than SWEEP_LIMIT vertices."""
    if order > SWEEP_LIMIT:
        raise SizeLimitError(f"|V| = {order} > {SWEEP_LIMIT}")


def bfs_distances(g: PCubeGraph, source: int) -> list[int]:
    """Shortest-path distances from a vertex id, -1 if unreached, by a frontier bitset."""
    dist = [-1] * g.vertex_count
    seen = frontier = 1 << source
    d = 0
    while frontier:
        for v in bitset_ids(frontier):
            dist[v] = d
        reached = 0
        for _, lows, offset in edge_bitsets(g):
            reached |= (frontier & lows) << offset | (frontier >> offset) & lows
        frontier = reached & ~seen
        seen |= frontier
        d += 1
    return dist


def to_dot(g: PCubeGraph) -> Iterator[str]:
    """DOT text, line by line, with bit-string vertex labels, in a fixed order."""
    labels = [f'"{bits_to01(g.n, b) or "λ"}"' for b in g.bits]  # each made once
    yield f"graph pcube_p{g.p}_n{g.n} {{\n"
    for label in labels:
        yield f"  {label};\n"
    for lo, highs in _higher_neighbours(g):
        for hi in highs:
            yield f"  {labels[lo]} -- {labels[hi]};\n"
    yield "}\n"


def graph_json(g: PCubeGraph) -> dict:
    """Adjacency-list document for the JSON writer, which quotes every number."""
    bits, n = g.bits, g.n
    return {
        "p": g.p,
        "n": g.n,
        "vertices": (bits_to01(n, b) for b in bits),
        "adjacency": g.adjacency,
        "edges": (
            {"lo": lo, "hi": hi, "direction": n + 1 - (bits[lo] ^ bits[hi]).bit_length()}
            for lo, highs in _higher_neighbours(g)
            for hi in highs
        ),
    }


def _higher_neighbours(g: PCubeGraph) -> Iterator[tuple[int, list[int]]]:
    """Per vertex id lo, its neighbours above lo, ascending: every edge once,
    sorted by (lo, hi).  Ids follow string order, so lo is the lower-weight end."""
    for lo, neighbours in enumerate(g.adjacency):
        yield lo, neighbours[bisect_right(neighbours, lo):]
