"""The induced hypercubes of a graph, found by one walk over supports.

An induced k-cube is identified by its top vertex together with the k
support coordinates lowered from it.  The walk keeps, for each support S,
the bitset of vertex ids that top an induced cube on S, and grows S only by
a coordinate i below its smallest one: a top of S ∪ {i} is a top of S that
is the upper endpoint of a direction-i edge whose lower endpoint also tops
S.  Every cube is thus two present smaller cubes joined by real edges.  The
walk reads each direction's lower-endpoint bitset and id offset, as the
build recorded them, through ``direction_shifts``, refusing a direction
whose edges disagree rather than assume the offsets the closed forms imply.
The census counts Σ_v 2^weight(v) supports, known from the weight census
before any graph exists, and refuses a length where that exceeds
``CENSUS_LIMIT``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import SizeLimitError
from .graph import PCubeGraph, bitset_ids, direction_shifts
from .strings import PString, weight_census

# Most supports the census counts: 3^n at p = 0, so it admits n = 13 and
# refuses n = 14 there.
CENSUS_LIMIT = 1 << 21


class InducedCube(NamedTuple):
    """One induced hypercube, characterized by (top, support)."""

    top: PString
    bottom: PString
    support: tuple[int, ...]  # ascending, 1-based

    @property
    def k(self) -> int:
        return len(self.support)


def check_census_limit(p: int, n: int) -> None:
    """Refuse with SizeLimitError when length n has over CENSUS_LIMIT supports.

    The supports are Σ_a weight_census(p, n)[a] * 2^a, one per subset of
    each vertex's 1s.  Callers check the vertex limit first, which bounds
    the number of weights summed.
    """
    supports = sum(count << a for a, count in enumerate(weight_census(p, n)))
    if supports > CENSUS_LIMIT:
        raise SizeLimitError(
            f"p = {p}, n = {n}: {supports} cube supports exceed the census "
            f"limit {CENSUS_LIMIT}"
        )


def _induced_tops(g: PCubeGraph) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (support, tops) for every support that spans an induced cube.

    tops is the bitset of the vertex ids that top such a cube; supports are
    ascending and 1-based.  The walk is depth-first and keeps only the
    supports it has yet to grow.
    """
    shifts = direction_shifts(g)
    stack: list[tuple[tuple[int, ...], int]] = [((), (1 << g.vertex_count) - 1)]
    while stack:
        support, tops = stack.pop()
        yield support, tops
        smallest = support[0] if support else g.n + 1
        for i, lows, offset in shifts:
            if i >= smallest:
                break
            grown = tops & ((tops & lows) << offset)
            if grown:
                stack.append(((i, *support), grown))


def enumerate_cubes(g: PCubeGraph, k: int) -> list[InducedCube]:
    """Every induced k-cube of g, sorted by (top, support)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n = g.n
    found: list[InducedCube] = []
    for support, tops in _induced_tops(g):
        if len(support) != k:
            continue
        mask = sum(1 << (n - i) for i in support)
        for vid in bitset_ids(tops):
            top = g.bits[vid]
            found.append(InducedCube(PString(n, top), PString(n, top ^ mask), support))
    found.sort(key=lambda c: (c.top.bits, c.support))
    return found


def count_cubes_at_distance(g: PCubeGraph, k: int, d: int) -> int:
    """Number of induced k-cubes whose bottom vertex has weight d.

    The all-zero string is a vertex and graph distance equals Hamming
    distance here, so weight is distance to it.
    """
    return cube_census(g).get((k, d), 0)


def cube_census(g: PCubeGraph) -> dict[tuple[int, int], int]:
    """Counts of induced cubes keyed by (dimension, bottom weight).

    One walk over all supports; the bottom weight of a k-cube with top of
    weight w is w - k, read off one bitset of the ids of each weight.
    Refused beyond CENSUS_LIMIT supports.
    """
    check_census_limit(g.p, g.n)
    weights = [b.bit_count() for b in g.bits]
    digits = [bytearray(b"0" * len(weights)) for _ in range(max(weights) + 1)]
    for vid, w in enumerate(weights):  # id v at digit -1 - v
        digits[w][-1 - vid] = 49  # ord("1")
    by_weight = [int(d, 2) for d in digits]
    # rows[k][d] counts the k-cubes whose top weighs k + d, from heavier[k][d]
    heavier = [by_weight[k:] for k in range(g.n + 1)]
    rows = [[0] * len(classes) for classes in heavier]
    for support, tops in _induced_tops(g):
        k = len(support)
        row = rows[k]
        for d, of_weight in enumerate(heavier[k]):
            row[d] += (tops & of_weight).bit_count()
    return {(k, d): c for k, row in enumerate(rows) for d, c in enumerate(row) if c}
