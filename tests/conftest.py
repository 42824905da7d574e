import dataclasses
import functools

import pytest

from fibpcubes.cubes import cube_census
from fibpcubes.graph import build


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
