import pytest

from fibpcubes import cubes
from fibpcubes.cubes import (
    InducedCube,
    count_cubes_at_distance,
    cube_census,
    enumerate_cubes,
)
from fibpcubes.errors import SizeLimitError
from fibpcubes.polynomials import (
    cube_count_closed,
    cube_poly_closed,
    dist_cube_count_closed,
)
from fibpcubes.sequences import kfold_convolution
from fibpcubes.strings import PString, is_pvalid, max_weight

from conftest import from01


def test_single_square(built):
    cubes = enumerate_cubes(built(1, 3), 2)
    assert len(cubes) == 1
    (cube,) = cubes
    assert cube.top == from01("101")
    assert cube.bottom == from01("000")
    assert cube.support == (1, 3)


def test_dimension_zero_is_vertices(built):
    g = built(1, 3)
    cubes = enumerate_cubes(g, 0)
    assert len(cubes) == 5
    assert all(c.top == c.bottom and c.support == () for c in cubes)
    assert [c.top for c in cubes] == g.vertices


def test_dimension_one_is_edges(built):
    g = built(2, 5)
    cubes = enumerate_cubes(g, 1)
    assert len(cubes) == 11 == g.edge_count


def test_square_in_longer_gap(built):
    cubes = enumerate_cubes(built(2, 4), 2)
    assert len(cubes) == 1
    assert cubes[0].top == from01("1001")


def test_above_max_weight_is_empty(built):
    for p, n in ((1, 4), (2, 6), (3, 5)):
        g = built(p, n)
        assert enumerate_cubes(g, max_weight(p, n) + 1) == []


def test_rejects_negative_dimension(built):
    with pytest.raises(ValueError):
        enumerate_cubes(built(1, 3), -1)


def test_members_and_invariants(built):
    for p, n in ((1, 6), (2, 7), (3, 7)):
        g = built(p, n)
        for k in range(max_weight(p, n) + 1):
            for cube in enumerate_cubes(g, k):
                mask = cube.top.bits ^ cube.bottom.bits
                members = [
                    PString(n, cube.bottom.bits | sub)
                    for sub in range(mask + 1)
                    if sub & mask == sub
                ]
                assert len(members) == 2**cube.k
                assert all(is_pvalid(m.bits, p) for m in members)
                assert mask.bit_count() == cube.k
                assert cube.support == tuple(
                    i
                    for i in range(1, n + 1)
                    if cube.top.bits >> (n - i) & 1 and not cube.bottom.bits >> (n - i) & 1
                )
                # the member set induces a k-dimensional hypercube
                ids = {g.index[m.bits] for m in members}
                internal = sum(
                    1
                    for v in ids
                    for w in g.adjacency[v]
                    if w in ids
                )
                assert internal == cube.k * 2**cube.k  # both endpoints counted


def test_counts_match_all_closed_forms(built, census):
    for p in range(1, 4):
        for n in range(10):
            table = census(p, n)
            for k in range(max_weight(p, n) + 2):
                oracle = sum(v for (kk, _), v in table.items() if kk == k)
                assert oracle == cube_count_closed(p, n, k)
                assert oracle == cube_poly_closed(p, n).coeff(k)
                m = n - k * p + p + 1
                if m >= 0:
                    assert oracle == kfold_convolution(p, k, m)


def test_census_agrees_with_enumeration(built, census):
    for p, n in ((1, 6), (2, 6)):
        table = census(p, n)
        g = built(p, n)
        for k in range(max_weight(p, n) + 1):
            by_enum = enumerate_cubes(g, k)
            assert sum(v for (kk, _), v in table.items() if kk == k) == len(by_enum)


def test_census_matches_reference(built, reference_census):
    for p in range(5):
        for n in range(11):
            g = built(p, n)
            assert cube_census(g) == reference_census(g)


def test_walk_refuses_ids_out_of_string_order(built, swap_vertices):
    # 000001 and 000010 swap ids: the edges at them leave their direction's
    # common id offset
    g = swap_vertices(built(1, 6), 1, 2)
    with pytest.raises(ValueError, match="edges have id offsets"):
        cube_census(g)


def test_distance_counts(built):
    g = built(1, 3)
    assert count_cubes_at_distance(g, 1, 1) == 2
    assert count_cubes_at_distance(g, 0, 2) == 1
    assert count_cubes_at_distance(g, 5, 0) == 0
    assert count_cubes_at_distance(g, 1, -1) == 0


def test_distance_counts_match_closed(built, census):
    for p in range(1, 4):
        for n in range(10):
            table = census(p, n)
            top = max_weight(p, n)
            for k in range(top + 2):
                for d in range(top + 2):
                    assert table.get((k, d), 0) == dist_cube_count_closed(p, n, k, d)


def test_enumeration_is_canonically_sorted(built):
    g = built(1, 6)
    for k in (1, 2, 3):
        cubes = enumerate_cubes(g, k)
        keys = [(c.top.bits, c.support) for c in cubes]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_induced_cube_value_type():
    cube = InducedCube(from01("101"), from01("000"), (1, 3))
    assert cube.k == 2
    assert {cube, InducedCube(PString(3, 5), PString(3, 0), (1, 3))} == {cube}


def test_census_limit_counts_supports(monkeypatch, built):
    # at p = 0 the census tries 3^n supports
    assert cubes.CENSUS_LIMIT >= 3**13
    monkeypatch.setattr(cubes, "CENSUS_LIMIT", 3**4)
    assert sum(cube_census(built(0, 4)).values()) == 3**4
    with pytest.raises(SizeLimitError, match="243 cube supports exceed the census"):
        cube_census(built(0, 5))
