"""Acceptance gate: every criterion at its stated grid, all equalities exact.

Each test prints one PASS/FAIL line (run pytest with -s or -rA to see them)
and asserts its runtime bound.  Nothing here reuses cached state from the
other test modules.  Criteria 2-6 and 8 run the verify suites, the same
checks the CLI runs, and assert the exact list of checks they report;
criterion 8 also compares every pair's BFS distance with its Hamming
distance.
"""

import time
from contextlib import contextmanager

from fibpcubes.graph import build, total_edges_closed
from fibpcubes.invariants import (
    all_pairs_distances,
    irregularity_closed,
    irregularity_oracle,
    mostar_closed,
    mostar_oracle,
    wiener_closed,
    wiener_oracle,
)
from fibpcubes.polynomials import (
    BivarPoly,
    Polynomial,
    cube_poly_closed,
    dist_cube_poly_closed,
)
from fibpcubes.sequences import pfib
from fibpcubes.strings import enumerate_pstrings
from fibpcubes.verify import (
    suite_counts,
    suite_cubes,
    suite_gf,
    suite_indices,
    suite_irregularity,
)


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[{label}] PASS ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"{label} exceeded its runtime budget"


def test_criterion_1_vertex_and_edge_counts():
    with criterion("1 vertex/edge counts, p in [0,4], n in [0,16]", 10.0):
        for p in range(5):
            for n in range(17):
                strings = enumerate_pstrings(p, n)
                assert len(strings) == pfib(p, n + p + 1), (p, n)
                g = build(p, n)
                assert g.vertex_count == pfib(p, n + p + 1), (p, n)
                assert g.edge_count == total_edges_closed(p, n), (p, n)


def assert_all_pass(results, suite, checks, ps):
    assert [r.name for r in results] == [
        f"{suite}/{check} p={p}" for p in ps for check in checks
    ]
    assert [r for r in results if not r.passed] == []


CUBE_CHECKS = ("counts", "distance-counts", "daisy-identities")


def test_criterion_2_cube_polynomial():
    with criterion("2 cube polynomial, p in [1,3], n in [0,12]", 120.0):
        results = suite_cubes(range(1, 4), range(13))
        assert_all_pass(results, "cubes", CUBE_CHECKS, range(1, 4))


def test_criterion_3_distance_cube_polynomial():
    with criterion("3 distance cube polynomial and daisy identities", 120.0):
        results = suite_cubes(range(1, 4), range(13))
        assert_all_pass(results, "cubes", CUBE_CHECKS, range(1, 4))


def test_criterion_4_generating_functions():
    with criterion("4 generating functions to order 20, p in [0,4]", 10.0):
        results = suite_gf(range(5), order=20)
        assert_all_pass(results, "gf", ("identities",), range(5))


def test_criterion_5_wiener_and_mostar():
    with criterion("5 Wiener/Mostar, p in [1,3], n in [1,12]", 60.0):
        assert wiener_closed(1, 3) == 16
        assert mostar_closed(1, 3) == 7
        results = suite_indices(range(1, 4), range(1, 13))
        checks = ("wiener", "mostar", "wiener-mostar-gap")
        assert_all_pass(results, "indices", checks, range(1, 4))


def test_criterion_6_irregularity_and_projection():
    with criterion("6 irregularity and pair projection, p in [1,3]", 60.0):
        assert irregularity_closed(1, 3) == 4
        assert irregularity_closed(2, 4) == 10
        checks = ("closed-form", "imbalance-records", "pair-set-sizes",
                  "projection-bijection", "neighbour-propositions")
        for p in range(1, 4):
            results = suite_irregularity([p], range(p, 13))
            assert_all_pass(results, "irregularity", checks, [p])


def test_criterion_7_hypercube_degeneration():
    with criterion("7 hypercube degeneration, p = 0, n in [0,10]", 30.0):
        two_plus_x = Polynomial.from_coeffs([2, 1])
        one_x_q = BivarPoly.from_dict({(0, 0): 1, (1, 0): 1, (0, 1): 1})
        for n in range(11):
            if n >= 1:
                assert total_edges_closed(0, n) == n * 2 ** (n - 1), n
                assert wiener_closed(0, n) == n * 2 ** (2 * n - 2), n
            assert cube_poly_closed(0, n) == two_plus_x**n, n
            assert dist_cube_poly_closed(0, n) == one_x_q**n, n
            assert mostar_closed(0, n) == 0, n
            assert irregularity_closed(0, n) == 0, n
        # oracle spot checks at materializable sizes
        for n in range(6):
            g = build(0, n)
            assert wiener_oracle(g) == wiener_closed(0, n), n
            assert mostar_oracle(g) == 0, n
            assert irregularity_oracle(g) == 0, n


def test_criterion_8_partial_cube_property():
    with criterion("8 graph distance equals Hamming distance", 60.0):
        results = suite_counts(range(1, 4), range(11))
        checks = ("order", "size", "directions", "weight-census",
                  "edge-recursion", "structure", "partial-cube")
        assert_all_pass(results, "counts", checks, range(1, 4))
        # pairwise route, beside the suite's Wiener-sum certificate
        for p in range(1, 4):
            for n in range(11):
                g = build(p, n)
                for u, row in zip(g.vertices, all_pairs_distances(g)):
                    hamming = [(u.bits ^ v.bits).bit_count() for v in g.vertices]
                    assert row == hamming, (p, n, u)
