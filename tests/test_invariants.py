from collections import Counter, defaultdict

import pytest

from fibpcubes.graph import build, direction_edge_count_closed, total_edges_closed
from fibpcubes.invariants import (
    ImbalanceRow,
    all_pairs_distances,
    imbalance_census,
    irregularity_closed,
    irregularity_oracle,
    left_pairs,
    lift_edge,
    mostar_closed,
    mostar_oracle,
    project_pair,
    right_pairs,
    wiener_closed,
    wiener_oracle,
)

from conftest import from01

GRID = [(p, n) for p in (1, 2, 3) for n in range(10)]


def pairwise_wiener(dist):
    return sum(map(sum, dist)) // 2


def without(edges, dropped):
    """An edge list with one of its edges (lo, hi, i) taken out."""
    assert dropped in edges
    return [e for e in edges if e != dropped]


def pairwise_mostar(edges, dist):
    total = 0
    for lo, hi, _ in edges:
        closer_lo = sum(row[lo] < row[hi] for row in dist)
        closer_hi = sum(row[hi] < row[lo] for row in dist)
        total += abs(closer_lo - closer_hi)
    return total


class TestPairwiseReference:
    """The ball-sweep oracles against their definitions on the BFS table."""

    def test_built_graphs(self, built, reference_graph):
        for p in range(4):
            for n in range(9):
                g = built(p, n)
                dist = all_pairs_distances(g)
                edges = reference_graph(p, n).edges
                assert wiener_oracle(g) == pairwise_wiener(dist), (p, n)
                assert mostar_oracle(g) == pairwise_mostar(edges, dist), (p, n)

    def test_graph_without_an_edge(self, built, drop_edge, reference_graph):
        # 000000-100000 lies on the square through 000001 and 100001, so the
        # graph stays connected but is no longer a partial cube.
        g = built(1, 6)
        dropped = (0, g.index[from01("100000").bits], 1)
        h = drop_edge(g, dropped)
        dist = all_pairs_distances(h)
        assert min(map(min, dist)) == 0
        assert wiener_oracle(h) == pairwise_wiener(dist) > wiener_closed(1, 6)
        edges = without(reference_graph(1, 6).edges, dropped)
        assert mostar_oracle(h) == pairwise_mostar(edges, dist)

    def test_copy_sweeps_its_own_edges(self, drop_edge):
        # the sums cached on g do not travel to the copy without an edge
        g = build(1, 6)
        wiener = wiener_oracle(g)
        assert "distance_sums" in vars(g)
        h = drop_edge(g, (0, g.index[from01("100000").bits], 1))
        assert "distance_sums" not in vars(h)
        assert wiener_oracle(h) == pairwise_wiener(all_pairs_distances(h)) > wiener
        assert wiener_oracle(g) == wiener

    def test_disconnected_graph(self, built, drop_edge, reference_graph):
        # the path 01-00-10 without 00-10 leaves 10 on its own
        g = built(1, 2)
        dropped = (0, g.index[from01("10").bits], 1)
        h = drop_edge(g, dropped)
        with pytest.raises(ValueError):
            wiener_oracle(h)
        edges = without(reference_graph(1, 2).edges, dropped)
        assert mostar_oracle(h) == pairwise_mostar(edges, all_pairs_distances(h)) == 0


class TestWiener:
    def test_spot_values(self, built):
        assert wiener_oracle(built(1, 3)) == 16 == wiener_closed(1, 3)
        assert wiener_oracle(built(2, 4)) == 26 == wiener_closed(2, 4)
        assert wiener_oracle(built(0, 2)) == 8 == wiener_closed(0, 2)

    def test_single_vertex(self, built):
        for p in range(3):
            assert wiener_oracle(built(p, 0)) == 0 == wiener_closed(p, 0)

    def test_closed_matches_oracle(self, built):
        for p, n in GRID:
            assert wiener_closed(p, n) == wiener_oracle(built(p, n))

    def test_hypercube_formula(self, built):
        for n in range(1, 9):
            assert wiener_closed(0, n) == n * 2 ** (2 * n - 2)
        for n in range(1, 6):
            assert wiener_oracle(built(0, n)) == n * 2 ** (2 * n - 2)


class TestMostar:
    def test_spot_values(self, built):
        assert mostar_oracle(built(1, 3)) == 7 == mostar_closed(1, 3)
        assert mostar_oracle(built(2, 4)) == 16 == mostar_closed(2, 4)
        assert mostar_closed(1, 1) == 0

    def test_closed_matches_oracle(self, built):
        for p, n in GRID:
            assert mostar_closed(p, n) == mostar_oracle(built(p, n))

    def test_hypercubes_are_distance_balanced(self, built):
        for n in range(9):
            assert mostar_closed(0, n) == 0
        for n in range(6):
            assert mostar_oracle(built(0, n)) == 0

    def test_gap_to_wiener(self):
        for p in range(4):
            for n in range(12):
                squares = sum(
                    direction_edge_count_closed(p, n, i) ** 2
                    for i in range(1, n + 1)
                )
                assert wiener_closed(p, n) - mostar_closed(p, n) == squares
                assert squares >= 0


class TestIrregularity:
    def test_spot_values(self, built):
        assert irregularity_oracle(built(1, 3)) == 4 == irregularity_closed(1, 3)
        assert irregularity_closed(1, 3) == 2 * total_edges_closed(1, 2)
        assert irregularity_oracle(built(2, 4)) == 10 == irregularity_closed(2, 4)

    def test_closed_matches_oracle(self, built):
        for p, n in GRID:
            if n >= p:
                assert irregularity_closed(p, n) == irregularity_oracle(built(p, n))

    def test_hypercubes_are_regular(self, built):
        for n in range(9):
            assert irregularity_closed(0, n) == 0
        for n in range(6):
            assert irregularity_oracle(built(0, n)) == 0

    def test_one_pass_closed_form_matches_edge_sums(self):
        # the theorem as stated: twice the edge counts of the p previous lengths
        for p in range(8):
            for n in range(p, 91):
                expected = 2 * sum(total_edges_closed(p, n - d) for d in range(1, p + 1))
                assert irregularity_closed(p, n) == expected, (p, n)

    def test_below_threshold_refuses(self, built):
        with pytest.raises(ValueError):
            irregularity_closed(3, 2)
        # the oracle still covers those cases: the path 01-00-10 has irr 2
        assert irregularity_oracle(built(3, 2)) == 2


def scanned_rows(g, edges):
    """The census found the direct way: every edge against every direction j.

    x is the edge's 1-endpoint and y its 0-endpoint; whether each has a
    j-neighbour is looked up in the vertex index, not in the edge lists.
    """
    pairs, unforced = defaultdict(list), Counter()
    for lo, hi, i in edges:
        x, y = g.bits[hi], g.bits[lo]
        for j in range(1, g.n + 1):
            mask = 1 << (g.n - j)
            x_ok, y_ok = x ^ mask in g.index, y ^ mask in g.index
            if j != i and y_ok and not x_ok:
                pairs[i, j].append(lo)
            if j != i and x_ok and not y_ok:
                unforced[i, j] += 1
    return [
        ImbalanceRow(i, j, tuple(sorted(pairs[i, j])), unforced[i, j])
        for i, j in sorted(set(pairs) | set(unforced))
    ]


class TestImbalanceCensus:
    def test_worked_example(self, built):
        # the edge 000-010 (ids 0 and 2, direction 2) has pairs at j = 3 and 1
        g = built(1, 3)
        census = imbalance_census(g)
        assert [(r.i, r.j) for r in census if 0 in r.pairs and r.i == 2] == [
            (2, 1),
            (2, 3),
        ]
        assert (2, 0) in right_pairs(census, 1)
        assert (2, 0) in left_pairs(census, 1)

    def test_records_consistent(self, built, reference_graph):
        for p, n in GRID:
            g = built(p, n)
            census = imbalance_census(g)
            assert census == scanned_rows(g, reference_graph(p, n).edges), (p, n)
            assert sum(len(r.pairs) for r in census) == irregularity_oracle(g)
            for r in census:
                assert r.i != r.j
                assert r.unforced == 0
                assert 1 <= abs(r.i - r.j) <= p
                assert r.pairs and list(r.pairs) == sorted(set(r.pairs))

    def test_imbalance_keeps_its_sign(self, built, drop_edge, reference_graph):
        # the square without 00-10: 00 and 10 lose their direction-1
        # neighbour while 01 and 11 keep theirs, so deg y - deg x is -1 on
        # the edges 00-01 and 10-11, two unforced edges at (2, 1)
        g = built(0, 2)
        dropped = (0, g.index[from01("10").bits], 1)
        h = drop_edge(g, dropped)
        assert imbalance_census(h) == [ImbalanceRow(2, 1, (), 2)]
        edges = without(reference_graph(0, 2).edges, dropped)
        gaps = sum(len(h.adjacency[lo]) - len(h.adjacency[hi]) for lo, hi, _ in edges)
        assert gaps == -2

    def test_one_sided_neighbour_rule(self, built, reference_graph):
        # a valid neighbour of the 1-endpoint forces one of the 0-endpoint
        # (no unforced edges), the two sides agree beyond offset p, and each
        # edge's signed degree gap is its number of pairs
        for p, n in GRID + [(1, 7), (2, 7), (3, 8)]:
            g, edges = built(p, n), reference_graph(p, n).edges
            rows = scanned_rows(g, edges)
            assert all(r.unforced == 0 and abs(r.i - r.j) <= p for r in rows)
            per_edge = Counter((r.i, y) for r in rows for y in r.pairs)
            for lo, hi, i in edges:
                gap = len(g.adjacency[lo]) - len(g.adjacency[hi])
                assert gap == per_edge[i, lo]

    def test_pair_set_sizes(self, built):
        for p, n in GRID:
            if n < p:
                continue
            census = imbalance_census(built(p, n))
            for d in range(1, p + 1):
                expected = total_edges_closed(p, n - d)
                assert sum(1 for _ in right_pairs(census, d)) == expected
                assert sum(1 for _ in left_pairs(census, d)) == expected

    def test_sides_and_offsets_partition_the_pairs(self, built):
        for p, n in GRID:
            census = imbalance_census(built(p, n))
            sides = Counter()
            for d in range(1, p + 1):
                sides.update(right_pairs(census, d))
                sides.update(left_pairs(census, d))
            assert sides == Counter((r.i, y) for r in census for y in r.pairs)


def right_pair_points(g, d):
    """(i, x) for each right pair at offset d, x the packed 1-endpoint."""
    census = imbalance_census(g)
    return [(i, g.vertices[y].bits | 1 << (g.n - i)) for i, y in right_pairs(census, d)]


class TestProjection:
    def test_worked_example(self, built):
        g = built(1, 3)
        assert (2, 0b010) in right_pair_points(g, 1)
        hi, lo = project_pair(g, 2, 3, 0b010)
        assert (hi, lo) == (0b01, 0b00)  # the edge 01-00 of the (1, 2) graph
        assert lift_edge(3, 1, hi, 2) == 0b010

    def test_bijection_round_trip(self, built, reference_graph):
        for p, n in GRID:
            if n < p:
                continue
            g = built(p, n)
            for d in range(1, p + 1):
                smaller = reference_graph(p, n - d)
                target = {
                    (smaller.vertices[hi].bits, dirn) for _, hi, dirn in smaller.edges
                }
                images = set()
                points = right_pair_points(g, d)
                for i, x in points:
                    hi, lo = project_pair(g, i, i + d, x)
                    assert lo == hi ^ 1 << (n - d - i)
                    assert (hi, i) in target
                    images.add((hi, i))
                    assert lift_edge(n, d, hi, i) == x
                assert len(images) == len(points)
                assert images == target

    def test_lift_produces_valid_pairs(self, built, reference_graph):
        for p, n, d in ((2, 6, 1), (2, 6, 2), (3, 7, 2)):
            g = built(p, n)
            points = set(right_pair_points(g, d))
            smaller = reference_graph(p, n - d)
            for _, hi_id, i in smaller.edges:
                x = lift_edge(n, d, smaller.vertices[hi_id].bits, i)
                assert (i, x) in points

    def test_rejects_invalid_pairs(self, built):
        g = built(1, 3)
        for i, j, x in (
            (1, 3, 0b100),  # the witnessing neighbour exists on both sides
            (2, 1, 0b010),  # left-sided
            (1, 2, 0b000),  # x does not carry the 1 at i
            (1, 3, 0b110),  # x is not a vertex
            (2, 4, 0b010),  # j beyond n
        ):
            with pytest.raises(ValueError):
                project_pair(g, i, j, x)

    def test_lift_validates_input(self):
        with pytest.raises(ValueError):
            lift_edge(3, 1, 0b01, 1)  # coordinate 1 is 0
        with pytest.raises(ValueError):
            lift_edge(3, 1, 0b101, 1)  # longer than n - d
        with pytest.raises(ValueError):
            lift_edge(3, 1, 0b01, 3)  # direction beyond n - d
