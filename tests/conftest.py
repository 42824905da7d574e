import dataclasses
import functools
from itertools import combinations

import pytest

from fibpcubes.cubes import cube_census
from fibpcubes.graph import build
from fibpcubes.sequences import binomial
from fibpcubes.strings import max_weight


@pytest.fixture(scope="session")
def built():
    """Memoized graph builder shared across the whole test session."""
    return functools.lru_cache(maxsize=None)(build)


@pytest.fixture(scope="session")
def census(built):
    """Memoized exhaustive (dimension, bottom-weight) cube censuses."""

    @functools.lru_cache(maxsize=None)
    def _census(p, n):
        return cube_census(built(p, n))

    return _census


@pytest.fixture(scope="session")
def drop_edge():
    """A copy of a graph with one edge removed; no closed form describes it."""

    def _drop(g, edge):
        lo, hi, _ = edge
        adjacency = [list(nbrs) for nbrs in g.adjacency]
        adjacency[lo].remove(hi)
        adjacency[hi].remove(lo)
        return dataclasses.replace(
            g,
            adjacency=adjacency,
            edges=[e for e in g.edges if e != edge],
            edges_by_direction=[
                [e for e in per if e != edge] for per in g.edges_by_direction
            ],
        )

    return _drop


@pytest.fixture(scope="session")
def reference_census():
    """Induced-cube counts by (dimension, bottom weight), found the slow way.

    Every support of every top is tried, and each of its 2^k member strings
    is looked up in the vertex index: no edge or vertex id is read.
    """

    def _all_members_present(index, bottom, mask):
        sub = mask
        while True:
            if (bottom | sub) not in index:
                return False
            if sub == 0:
                return True
            sub = (sub - 1) & mask

    def _census(g):
        census = {}
        for top in g.vertices:
            ones = top.ones()
            w = len(ones)
            for k in range(w + 1):
                for support in combinations(ones, k):
                    mask = sum(1 << (g.n - i) for i in support)
                    if _all_members_present(g.index, top.bits ^ mask, mask):
                        census[(k, w - k)] = census.get((k, w - k), 0) + 1
        return census

    return _census


@pytest.fixture(scope="session")
def swap_vertices():
    """A copy of a graph with the ids of two vertices exchanged everywhere.

    The copy is the same graph, but its ids no longer follow string order.
    """

    def _swap(g, a, b):
        new = list(range(g.vertex_count))
        new[a], new[b] = b, a  # an involution: old id <-> new id

        def relabel(edges):
            return sorted((new[lo], new[hi], i) for lo, hi, i in edges)

        vertices = [g.vertices[new[v]] for v in range(g.vertex_count)]
        return dataclasses.replace(
            g,
            vertices=vertices,
            index={u.bits: v for v, u in enumerate(vertices)},
            adjacency=[sorted(new[w] for w in g.adjacency[new[v]])
                       for v in range(g.vertex_count)],
            edges=relabel(g.edges),
            edges_by_direction=[relabel(per) for per in g.edges_by_direction],
        )

    return _swap


@pytest.fixture(scope="session")
def ring_expansion():
    """The sum over weights a of binom(n - a*p + p, a) * marker^a, in the ring.

    One ring product per weight for the power and one for each term: the
    reference that the packed expansion in ``polynomials`` is held to.
    """

    def _expand(p, n, marker):
        acc, power = type(marker).zero(), type(marker).one()
        for a in range(max_weight(p, n) + 1):
            acc = acc + binomial(n - a * p + p, a) * power
            power = power * marker
        return acc

    return _expand
