import json
from types import SimpleNamespace

import pytest

from fibpcubes import cli, graph, verify
from fibpcubes.errors import SizeLimitError
from fibpcubes.graph import (
    bfs_distances,
    build,
    direction_edge_count,
    direction_edge_count_closed,
    direction_edge_counts_closed,
    graph_json,
    to_dot,
    total_edges_closed,
)
from fibpcubes.sequences import pfib, square_sum_closed
from fibpcubes.strings import bits_to01

from conftest import from01, graph_with, written_json


def edge_labels(g):
    """Each edge as its (lower, upper) end's 0/1 text, read off the adjacency lists."""
    text = [bits_to01(g.n, b) for b in g.bits]
    return {
        (text[lo], text[hi])
        for lo, neighbours in enumerate(g.adjacency)
        for hi in neighbours
        if hi > lo
    }


def bitset_edges(g):
    """Each edge as (lower id, upper id, direction), sorted, from the bitsets."""
    return sorted(
        (lo, lo + offset, i)
        for i, lows, offset in graph.edge_bitsets(g)
        for lo in graph.bitset_ids(lows)
    )


def test_small_graph_exactly(built):
    g = built(1, 3)
    assert g.vertex_count == 5 and g.edge_count == 5
    assert edge_labels(g) == {
        ("000", "001"),
        ("000", "010"),
        ("000", "100"),
        ("001", "101"),
        ("100", "101"),
    }


def test_examples(built):
    assert (built(2, 4).vertex_count, built(2, 4).edge_count) == (6, 6)
    assert (built(0, 3).vertex_count, built(0, 3).edge_count) == (8, 12)
    g0 = built(3, 0)
    assert g0.vertex_count == 1 and g0.edge_count == 0


@pytest.mark.parametrize("p", range(5))
def test_build_equals_pairwise_scan(reference_graph, p):
    for n in range(11):
        g, ref = build(p, n), reference_graph(p, n)
        assert g.vertices == ref.vertices
        assert g.bits == [v.bits for v in ref.vertices]
        assert bitset_edges(g) == ref.edges
        assert g.adjacency == ref.adjacency
        counts = [direction_edge_count(g, i) for i in range(1, n + 1)]
        assert counts == ref.per_direction
        assert (g.vertex_count, g.edge_count) == (len(ref.vertices), len(ref.edges))


def test_build_records_offsets_as_found(monkeypatch, built, swap_vertices):
    # With 000001 and 000010 enumerated the other way round, the lookups
    # still find every edge, and direction 1 keeps the three id offsets it
    # meets, which the walk then refuses.
    relabelled = swap_vertices(built(1, 6), 1, 2)
    enumerate_bits = graph.pvalid_bits

    def swapped(p, n):
        bits = enumerate_bits(p, n)
        bits[1], bits[2] = bits[2], bits[1]
        return bits

    monkeypatch.setattr(graph, "pvalid_bits", swapped)
    g = build(1, 6)
    assert (g.bits, g.lows) == (relabelled.bits, relabelled.lows)
    assert sorted(g.lows[1]) == [12, 13, 14]
    refusal = r"^direction 1 edges have id offsets \[12, 13, 14\]$"
    with pytest.raises(ValueError, match=refusal):
        graph.direction_shifts(g)


def test_graphs_are_equal_field_by_field(drop_edge, reference_graph):
    g, h = build(1, 4), build(1, 4)
    h.adjacency  # a cached view is no field
    assert g == h and g is not h
    lows = drop_edge(g, reference_graph(1, 4).edges[0]).lows
    changed = {"p": 2, "n": 5, "bits": g.bits[::-1], "index": {}, "lows": lows}
    for field, value in changed.items():
        assert graph_with(g, **{field: value}) != g, field
    assert g != SimpleNamespace(**vars(build(1, 4)))  # only a PCubeGraph equals one
    with pytest.raises(TypeError, match="unhashable"):
        hash(g)


def test_cube_suite_reads_no_view(monkeypatch):
    # The cube walk, the counts checks and the imbalance census read the
    # bitsets: no vertex object or adjacency list is made for
    # any graph they build, the projection's smaller graphs included.  With
    # no sweep allowed, the partial-cube check only leaves a note.
    graphs = []

    def capturing_build(p, n, **kwargs):
        graphs.append(build(p, n, **kwargs))
        return graphs[-1]

    monkeypatch.setattr(verify, "build", capturing_build)
    monkeypatch.setattr(graph, "SWEEP_LIMIT", 0)
    grid = [(p, n) for p in (1, 2) for n in range(13)]
    projected = [(p, n - d) for p, n in grid for d in range(1, min(p, n) + 1)]
    results = {
        suite: verify.run_suite(suite, [1, 2], range(13))
        for suite in ("cubes", "counts", "irregularity")
    }
    assert all(r.passed for rs in results.values() for r in rs)
    assert sorted((g.p, g.n) for g in graphs) == sorted(grid * 3 + projected)
    assert [r.detail.count("partial-cube not checked") for r in results["counts"]
            if r.name.startswith("counts/partial-cube")] == [13, 13]
    for g in graphs:
        assert not {"adjacency", "vertices"} & vars(g).keys(), (g.p, g.n)


def test_direction_counts(built):
    g = built(1, 3)
    assert [direction_edge_count(g, i) for i in (1, 2, 3)] == [2, 1, 2]
    assert direction_edge_count(built(2, 4), 4) == 2
    with pytest.raises(ValueError):
        direction_edge_count(g, 0)
    with pytest.raises(ValueError):
        direction_edge_count(g, 4)


def test_direction_closed_form(built):
    assert direction_edge_count_closed(1, 3, 1) == 2
    assert direction_edge_count_closed(2, 4, 2) == 1
    with pytest.raises(ValueError):
        direction_edge_count_closed(1, 3, 4)
    for p in range(4):
        for n in range(1, 12):
            for i in range(1, n + 1):
                assert direction_edge_count_closed(
                    p, n, i
                ) == direction_edge_count_closed(p, n, n + 1 - i)


@pytest.mark.parametrize("p", range(5))
def test_mirrored_row_is_the_full_row(p):
    # n = 0 and n = 1, then odd n with a middle entry and even n without.
    # Both windows run the whole row, which comes out a palindrome.
    for n in range(42):
        row = direction_edge_counts_closed(p, n)
        assert row == [direction_edge_count_closed(p, n, i) for i in range(1, n + 1)]
        assert row == row[::-1]
        assert total_edges_closed(p, n) == sum(row)
        assert square_sum_closed(p, n) == sum(c * c for c in row)


def test_direction_counts_match_closed(built):
    for p in range(4):
        for n in range(15):
            g = built(p, n)
            for i in range(1, n + 1):
                assert direction_edge_count(g, i) == direction_edge_count_closed(
                    p, n, i
                )
            assert sum(
                direction_edge_count(g, i) for i in range(1, n + 1)
            ) == g.edge_count


def test_total_edges(built):
    assert total_edges_closed(1, 3) == 5
    assert total_edges_closed(2, 4) == 6
    assert total_edges_closed(2, 5) == 11
    assert total_edges_closed(0, 0) == 0
    for n in range(1, 12):
        assert total_edges_closed(0, n) == n * 2 ** (n - 1)
    for p in range(4):
        for n in range(11):
            assert built(p, n).edge_count == total_edges_closed(p, n)


def test_edge_recursion():
    for p in range(5):
        for n in range(p + 1, 20):
            assert total_edges_closed(p, n) == (
                total_edges_closed(p, n - 1)
                + total_edges_closed(p, n - p - 1)
                + pfib(p, n)
            )


def test_bfs(built):
    g = built(1, 3)
    assert bfs_distances(g, 0) == [0, 1, 1, 1, 2]
    a = g.index[from01("010").bits]
    b = g.index[from01("101").bits]
    assert bfs_distances(g, a)[b] == 3
    for v in range(g.vertex_count):
        assert bfs_distances(g, v)[v] == 0


def test_distance_equals_hamming(built):
    for p in range(1, 4):
        for n in range(9):
            g = built(p, n)
            for source in range(g.vertex_count):
                dist = bfs_distances(g, source)
                u = g.vertices[source]
                for target in range(g.vertex_count):
                    assert dist[target] == (u.bits ^ g.vertices[target].bits).bit_count()


def test_connected_and_bipartite(built, reference_graph):
    for p in range(4):
        for n in range(10):
            g = built(p, n)
            assert all(d >= 0 for d in bfs_distances(g, 0))
            for lo, hi, i in reference_graph(p, n).edges:
                assert g.bits[hi].bit_count() == g.bits[lo].bit_count() + 1
                assert g.bits[hi] == g.bits[lo] | 1 << (n - i)
            assert sum(len(a) for a in g.adjacency) == 2 * g.edge_count


def test_cap(capsys):
    assert build(2, 25).vertex_count == pfib(2, 28)
    with pytest.raises(SizeLimitError):
        build(2, 5, cap=4)
    assert build(2, 5, cap=5).vertex_count == 9
    assert cli.main(["export", "--p", "2", "--n", "5", "--cap", "4"]) == 3
    assert capsys.readouterr().err == "error: n = 5 exceeds the graph cap 4\n"


def test_dot_export(built):
    lines = list(to_dot(built(1, 3)))
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
    dot = "".join(lines)
    assert dot.startswith("graph pcube_p1_n3 {")
    assert '"000" -- "001";' in dot
    assert dot.count("--") == 5
    assert "".join(to_dot(built(1, 3))) == dot  # deterministic
    assert '"λ"' in "".join(to_dot(built(2, 0)))


def test_json_export(built):
    doc = json.loads(written_json(graph_json(built(1, 3))))
    assert doc["vertices"] == ["000", "001", "010", "100", "101"]
    assert len(doc["edges"]) == 5
    assert all(isinstance(e["direction"], str) for e in doc["edges"])
    assert doc["adjacency"][0] == ["1", "2", "3"]
    # 4-cycle for the unconstrained square
    q2 = json.loads(written_json(graph_json(built(0, 2))))
    assert len(q2["vertices"]) == 4 and len(q2["edges"]) == 4


@pytest.mark.parametrize(
    "p, n", [(0, 0), (3, 0), (5, 3), (0, 6), (1, 9), (2, 10), (3, 8), (5, 11)]
)
def test_json_edges_are_the_edge_list(built, reference_graph, p, n):
    # Both formats read the edges off the adjacency lists: JSON lists the
    # pairwise scan's sorted edges, and DOT draws them in that order.
    g, ref = built(p, n), reference_graph(p, n)
    edges = [(e["lo"], e["hi"], e["direction"]) for e in graph_json(g)["edges"]]
    assert edges == ref.edges
    labels = [f'"{v.to01() or "λ"}"' for v in ref.vertices]
    dot_edges = [line for line in to_dot(g) if " -- " in line]
    assert dot_edges == [f"  {labels[lo]} -- {labels[hi]};\n" for lo, hi, _ in ref.edges]


def test_export_reads_no_vertex_object(monkeypatch, capsys):
    # Both formats label the vertices from the packed strings.
    def refuse(g):
        raise AssertionError("export made the PString view")

    monkeypatch.setattr(graph.PCubeGraph, "vertices", property(refuse))
    for fmt in ("dot", "json"):
        assert cli.main(["export", "--p", "1", "--n", "6", "--format", fmt]) == 0
        assert "000101" in capsys.readouterr().out
