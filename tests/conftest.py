import contextlib
import functools
import io
from itertools import combinations
from types import SimpleNamespace

import pytest

from fibpcubes import cli
from fibpcubes.cubes import cube_census
from fibpcubes.graph import PCubeGraph, bitset_ids, build, edge_bitsets
from fibpcubes.sequences import binomial
from fibpcubes.strings import PString, enumerate_pstrings, max_weight


def from01(text):
    """The PString spelled by a text of 0s and 1s, u_1 first."""
    return PString(len(text), int(text, 2) if text else 0)


def ones(u):
    """The coordinates where a PString carries a 1, ascending and 1-based."""
    return tuple(i for i in range(1, u.n + 1) if (u.bits >> (u.n - i)) & 1)


def graph_with(g, **changes):
    """A new PCubeGraph from the five fields of g, with the given ones changed."""
    fields = {"p": g.p, "n": g.n, "bits": g.bits, "index": g.index, "lows": g.lows}
    return PCubeGraph(**{**fields, **changes})


def written_json(doc):
    """The text the CLI's JSON writer prints for doc on stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_json(doc)
    return out.getvalue()


def as_dict(poly):
    """A BivarPoly's nonzero coefficients, keyed by (x-degree, q-degree)."""
    return {(k, d): c for k, d, c in poly.terms}


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
    """A copy of a graph with one edge (lo, hi, i) removed from its bitsets.

    No closed form describes the copy.
    """

    def _drop(g, edge):
        lo, hi, i = edge
        lows = [dict(per) for per in g.lows]
        offset = hi - lo
        assert lows[i].get(offset, 0) >> lo & 1, f"{edge} is not an edge"
        lows[i][offset] ^= 1 << lo
        if not lows[i][offset]:
            del lows[i][offset]
        return graph_with(g, lows=lows)

    return _drop


@pytest.fixture(scope="session")
def reference_graph():
    """A graph's vertices, edges and adjacency, found by a pairwise scan.

    Every two p-valid strings are compared; two at Hamming distance 1 make
    an edge (lo, hi, i), lo the one without the 1 at coordinate i.  No
    vertex index and no bitset is read.  Memoized: treat as read-only.
    """

    @functools.lru_cache(maxsize=None)
    def _graph(p, n):
        strings = enumerate_pstrings(p, n)
        edges = []
        for a, u in enumerate(strings):
            for b in range(a + 1, len(strings)):
                diff = u.bits ^ strings[b].bits
                if diff.bit_count() == 1:
                    lo, hi = (a, b) if strings[b].bits & diff else (b, a)
                    edges.append((lo, hi, n - diff.bit_length() + 1))
        adjacency = [[] for _ in strings]
        for lo, hi, _ in edges:
            adjacency[lo].append(hi)
            adjacency[hi].append(lo)
        return SimpleNamespace(
            vertices=strings,
            edges=sorted(edges),
            adjacency=[sorted(neighbours) for neighbours in adjacency],
            per_direction=[sum(i == d for *_, d in edges) for i in range(1, n + 1)],
        )

    return _graph


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
            top_ones = ones(top)
            w = len(top_ones)
            for k in range(w + 1):
                for support in combinations(top_ones, k):
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
        bits = [g.bits[new[v]] for v in range(g.vertex_count)]
        lows = [{} for _ in g.lows]
        for i, old_lows, old_offset in edge_bitsets(g):
            for lo in bitset_ids(old_lows):
                offset = new[lo + old_offset] - new[lo]
                lows[i][offset] = lows[i].get(offset, 0) | 1 << new[lo]
        index = {u: v for v, u in enumerate(bits)}
        return graph_with(g, bits=bits, index=index, lows=lows)

    return _swap


@pytest.fixture(scope="session")
def ring_expansion():
    """The sum over weights a of binom(n - a*p + p, a) * marker^a, in the ring.

    One ring product per weight for the power and one for each term: the
    reference that each kind's closed form in ``polynomials`` is held to,
    the list Horner of the cube polynomial and the weight-row pass of the
    distance polynomial alike.
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
