"""Exhaustive enumeration of induced hypercubes, the counting oracle.

An induced k-cube is identified by its top vertex together with the k
support coordinates lowered from it.  Enumeration checks every one of the
2^k member strings against the vertex index; it deliberately does not
assume that lowering a 1 preserves validity, since that is part of what
the closed forms under test assert.  The census tries every support of
every top, sum over the vertices of 2^weight, and refuses a graph where
that sum exceeds ``CENSUS_LIMIT`` before it tries any.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import SizeLimitError
from .graph import PCubeGraph
from .strings import PString

# Most supports the census tries: 3^n at p = 0, so it admits n = 13 and
# refuses n = 14 there.
CENSUS_LIMIT = 1 << 21


@dataclass(frozen=True)
class InducedCube:
    """One induced hypercube, characterized by (top, support)."""

    top: PString
    bottom: PString
    support: tuple[int, ...]  # ascending, 1-based

    @property
    def k(self) -> int:
        return len(self.support)

    def members(self) -> list[PString]:
        """All 2^k vertices of the subcube, bottom first."""
        n = self.top.n
        masks = [1 << (n - i) for i in self.support]
        out = []
        for pick in range(1 << len(masks)):
            bits = self.bottom.bits
            for j, mask in enumerate(masks):
                if (pick >> j) & 1:
                    bits |= mask
            out.append(PString(n, bits))
        return out


def _all_members_present(g: PCubeGraph, bottom: int, mask: int) -> bool:
    # Walk every submask of the support, short-circuiting on a miss; the
    # vertex index doubles as the validity check.
    index = g.index
    sub = mask
    while True:
        if (bottom | sub) not in index:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & mask


def enumerate_cubes(g: PCubeGraph, k: int) -> list[InducedCube]:
    """Every induced k-cube of g, sorted by (top, support)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n = g.n
    found: list[InducedCube] = []
    for top in g.vertices:
        ones = top.ones()
        if len(ones) < k:
            continue
        for support in combinations(ones, k):
            mask = 0
            for i in support:
                mask |= 1 << (n - i)
            bottom = top.bits ^ mask
            if _all_members_present(g, bottom, mask):
                found.append(InducedCube(top, PString(n, bottom), support))
    found.sort(key=lambda c: (c.top.bits, c.support))
    return found


def count_cubes_at_distance(g: PCubeGraph, k: int, d: int) -> int:
    """Number of induced k-cubes whose bottom vertex has weight d.

    The all-zero string is a vertex and graph distance equals Hamming
    distance here, so weight is distance to it.
    """
    if d < 0:
        return 0
    return sum(1 for cube in enumerate_cubes(g, k) if cube.bottom.weight == d)


def cube_census(g: PCubeGraph) -> dict[tuple[int, int], int]:
    """Counts of induced cubes keyed by (dimension, bottom weight).

    One exhaustive pass over all tops and supports; the bottom weight of a
    k-cube with top of weight w is w - k.  Refused beyond CENSUS_LIMIT
    supports.
    """
    supports = sum(1 << top.weight for top in g.vertices)
    if supports > CENSUS_LIMIT:
        raise SizeLimitError(
            f"p = {g.p}, n = {g.n}: {supports} cube supports exceed the census "
            f"limit {CENSUS_LIMIT}"
        )
    census: dict[tuple[int, int], int] = {}
    n = g.n
    for top in g.vertices:
        ones = top.ones()
        w = len(ones)
        for k in range(w + 1):
            for support in combinations(ones, k):
                mask = 0
                for i in support:
                    mask |= 1 << (n - i)
                bottom = top.bits ^ mask
                if _all_members_present(g, bottom, mask):
                    key = (k, w - k)
                    census[key] = census.get(key, 0) + 1
    return census
