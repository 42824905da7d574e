import dataclasses
import functools
from itertools import combinations
from types import SimpleNamespace

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


@pytest.fixture(scope="session")
def sparse_bivar():
    """The bivariate ring on dicts (k, d) -> c of x^k q^d, term by term.

    Sums and products accumulate in a dict and drop the zeros; ``swap``
    exchanges each key's degrees: the reference that ``BivarPoly``'s row
    arithmetic is held to.
    """

    def live(acc):
        return {key: c for key, c in acc.items() if c}

    def add(f, g):
        acc = dict(f)
        for key, c in g.items():
            acc[key] = acc.get(key, 0) + c
        return live(acc)

    def neg(f):
        return live({key: -c for key, c in f.items()})

    def mul(f, g):
        acc = {}
        for (k1, d1), c1 in f.items():
            for (k2, d2), c2 in g.items():
                key = (k1 + k2, d1 + d2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return live(acc)

    def swap(f):
        return live({(d, k): c for (k, d), c in f.items()})

    return SimpleNamespace(add=add, neg=neg, mul=mul, swap=swap)
