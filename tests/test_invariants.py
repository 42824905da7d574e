import pytest

from fibpcubes.graph import build, direction_edge_count_closed, total_edges_closed
from fibpcubes.invariants import (
    ImbalancedPair,
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
from fibpcubes.strings import PString

GRID = [(p, n) for p in (1, 2, 3) for n in range(10)]


def pairwise_wiener(dist):
    return sum(map(sum, dist)) // 2


def pairwise_mostar(g, dist):
    total = 0
    for lo, hi, _ in g.edges:
        closer_lo = sum(row[lo] < row[hi] for row in dist)
        closer_hi = sum(row[hi] < row[lo] for row in dist)
        total += abs(closer_lo - closer_hi)
    return total


class TestPairwiseReference:
    """The ball-sweep oracles against their definitions on the BFS table."""

    def test_built_graphs(self, built):
        for p in range(4):
            for n in range(9):
                g = built(p, n)
                dist = all_pairs_distances(g)
                assert wiener_oracle(g) == pairwise_wiener(dist), (p, n)
                assert mostar_oracle(g) == pairwise_mostar(g, dist), (p, n)

    def test_graph_without_an_edge(self, built, drop_edge):
        # 000000-100000 lies on the square through 000001 and 100001, so the
        # graph stays connected but is no longer a partial cube.
        g = built(1, 6)
        h = drop_edge(g, (0, g.index[PString.from01("100000").bits], 1))
        dist = all_pairs_distances(h)
        assert min(map(min, dist)) == 0
        assert wiener_oracle(h) == pairwise_wiener(dist) > wiener_closed(1, 6)
        assert mostar_oracle(h) == pairwise_mostar(h, dist)

    def test_copy_sweeps_its_own_edges(self, drop_edge):
        # the sums cached on g do not travel to the copy without an edge
        g = build(1, 6)
        wiener = wiener_oracle(g)
        assert "distance_sums" in vars(g)
        h = drop_edge(g, (0, g.index[PString.from01("100000").bits], 1))
        assert "distance_sums" not in vars(h)
        assert wiener_oracle(h) == pairwise_wiener(all_pairs_distances(h)) > wiener
        assert wiener_oracle(g) == wiener

    def test_disconnected_graph(self, built, drop_edge):
        # the path 01-00-10 without 00-10 leaves 10 on its own
        g = built(1, 2)
        h = drop_edge(g, (0, g.index[PString.from01("10").bits], 1))
        with pytest.raises(ValueError):
            wiener_oracle(h)
        assert mostar_oracle(h) == pairwise_mostar(h, all_pairs_distances(h)) == 0


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


class TestImbalanceCensus:
    def test_worked_example(self, built):
        g = built(1, 3)
        records = imbalance_census(g)
        record = next(r for r in records if r.x == PString.from01("010"))
        assert record.direction == 2
        assert record.imbalance == 2 == len(record.pairs)
        witnessed = {(pair.j, pair.side, pair.offset) for pair in record.pairs}
        assert witnessed == {(3, "right", 1), (1, "left", 1)}

    def test_records_consistent(self, built):
        for p, n in GRID:
            g = built(p, n)
            records = imbalance_census(g)
            assert sum(len(r.pairs) for r in records) == irregularity_oracle(g)
            for r in records:
                assert r.imbalance == len(r.pairs)
                assert r.x == r.y.flip(r.direction)
                assert r.x.bit(r.direction) == 1
                for pair in r.pairs:
                    assert 1 <= pair.offset <= p
                    assert pair.y.flip(pair.j).bits in g.index
                    assert pair.x.flip(pair.j).bits not in g.index

    def test_imbalance_keeps_its_sign(self, built, drop_edge):
        # the square without 00-10: 00 and 10 lose a neighbour each, so
        # deg y - deg x is -1 on 00-01 and 10-11
        g = built(0, 2)
        h = drop_edge(g, (0, g.index[PString.from01("10").bits], 1))
        records = [(r.y.to01(), r.imbalance) for r in imbalance_census(h)]
        assert records == [("00", -1), ("01", 0), ("10", -1)]

    def test_one_sided_neighbour_rule(self, built):
        # a valid neighbour of the 1-endpoint forces one of the 0-endpoint;
        # the direct scan is the reference for the census-derived conditions
        # that verify reads: the signed degree gap and the largest offset
        for p, n in ((1, 7), (2, 7), (3, 8)):
            g = built(p, n)
            for (lo, hi, i), r in zip(g.edges, imbalance_census(g), strict=True):
                x, y = g.vertices[hi], g.vertices[lo]
                for j in range(1, n + 1):
                    x_ok = x.flip(j).bits in g.index
                    y_ok = y.flip(j).bits in g.index
                    assert not (x_ok and not y_ok)
                    if abs(i - j) > p:
                        assert x_ok == y_ok
                gap = len(g.adjacency[lo]) - len(g.adjacency[hi])
                assert r.imbalance == gap == len(r.pairs)
                assert max((pair.offset for pair in r.pairs), default=0) <= p

    def test_pair_set_sizes(self, built):
        for p, n in GRID:
            if n < p:
                continue
            records = imbalance_census(built(p, n))
            for d in range(1, p + 1):
                expected = total_edges_closed(p, n - d)
                assert len(right_pairs(records, d)) == expected
                assert len(left_pairs(records, d)) == expected
                assert len(left_pairs(records, d)) == len(right_pairs(records, d))

    def test_sides_and_offsets_partition_the_pairs(self, built):
        for p, n in GRID:
            records = imbalance_census(built(p, n))
            total = sum(
                len(right_pairs(records, d)) + len(left_pairs(records, d))
                for d in range(1, p + 1)
            )
            assert total == sum(r.imbalance for r in records)


class TestProjection:
    def test_worked_example(self, built):
        g = built(1, 3)
        pair = next(
            pr
            for pr in right_pairs(imbalance_census(g), 1)
            if pr.x == PString.from01("010")
        )
        hi, lo = project_pair(g, pair)
        assert (hi.to01(), lo.to01()) == ("01", "00")
        assert lift_edge(3, 1, hi, pair.i) == pair

    def test_bijection_round_trip(self, built):
        for p, n in GRID:
            if n < p:
                continue
            g = built(p, n)
            records = imbalance_census(g)
            for d in range(1, p + 1):
                smaller = built(p, n - d)
                target = {
                    (smaller.vertices[hi], dirn) for _, hi, dirn in smaller.edges
                }
                images = set()
                for pair in right_pairs(records, d):
                    hi, lo = project_pair(g, pair)
                    assert lo == hi.flip(pair.i)
                    assert (hi, pair.i) in target
                    images.add((hi, pair.i))
                    assert lift_edge(n, d, hi, pair.i) == pair
                assert len(images) == len(right_pairs(records, d))
                assert images == target

    def test_lift_produces_valid_pairs(self, built):
        for p, n, d in ((2, 6, 1), (2, 6, 2), (3, 7, 2)):
            g = built(p, n)
            pair_set = set(right_pairs(imbalance_census(g), d))
            smaller = built(p, n - d)
            for _, hi_id, i in smaller.edges:
                pair = lift_edge(n, d, smaller.vertices[hi_id], i)
                assert pair in pair_set

    def test_rejects_invalid_pairs(self, built):
        g = built(1, 3)
        # a fabricated pair: the witnessing neighbour exists on both sides
        fake = ImbalancedPair(
            x=PString.from01("100"), y=PString.from01("000"), i=1, j=3
        )
        with pytest.raises(ValueError):
            project_pair(g, fake)
        left = ImbalancedPair(
            x=PString.from01("010"), y=PString.from01("000"), i=2, j=1
        )
        with pytest.raises(ValueError):
            project_pair(g, left)

    def test_lift_validates_input(self):
        with pytest.raises(ValueError):
            lift_edge(3, 1, PString.from01("01"), 1)  # coordinate 1 is 0
        with pytest.raises(ValueError):
            lift_edge(4, 1, PString.from01("01"), 2)  # wrong length
