"""Fault injection: every closed form, and every graph a check examines,
broken on purpose, makes that check fail."""

import decimal
import functools
import inspect

import pytest

from fibpcubes import cli, graph, invariants, sequences, verify
from fibpcubes.series import TruncatedSeries
from fibpcubes.verify import CheckResult

from conftest import graph_with


def plus_one(value):
    return value + 1


def bump_last_entry(values):
    # an empty list (no directions at n = 0) has nothing to break
    return values[:-1] + [values[-1] + 1] if values else values


def drop_last_text(texts):
    return iter(list(texts)[:-1])


def rotate_by_one(texts):
    # A row of the right entries, out of order: [2, 1, 2] becomes [1, 2, 2].
    texts = list(texts)
    return iter(texts[1:] + texts[:1])


def always_false(_):
    return False


def bump_last_coefficient(series):
    return TruncatedSeries(series.coeffs[:-1] + (series.coeffs[-1] + 1,))


def bump_last_term(terms):
    *head, last = terms
    return iter((*head, last + 1))


def bump_first_coefficient(series):
    # the last one would not do for the denominator: it meets F_0 = 0
    return TruncatedSeries((series.coeffs[0] + 1,) + series.coeffs[1:])


def test_check_result_detail_defaults_to_empty():
    result = CheckResult("counts/order p=1", True)
    assert result.detail == "" and result == CheckResult("counts/order p=1", True, "")


@pytest.mark.parametrize(
    "closed_form, bump, check",
    [
        ("total_edges_closed", plus_one, "counts/size"),
        ("direction_edge_count_closed", plus_one, "counts/directions"),
        ("direction_edge_counts_closed", bump_last_entry, "counts/directions"),
        ("count_by_weight", plus_one, "counts/weight-census"),
        ("weight_census", bump_last_entry, "counts/weight-census"),
        ("decimal_text", drop_last_text, "counts/directions"),
        ("decimal_text", drop_last_text, "counts/weight-census"),
        ("weight_poly", plus_one, "cubes/daisy-identities"),
        ("cube_poly_closed", plus_one, "cubes/counts"),
        ("dist_cube_poly_closed", plus_one, "cubes/daisy-identities"),
        ("kfold_convolution", plus_one, "cubes/counts"),
        ("cube_count_closed", plus_one, "cubes/counts"),
        ("dist_cube_count_closed", plus_one, "cubes/distance-counts"),
        ("wiener_closed", plus_one, "indices/wiener"),
        ("mostar_closed", plus_one, "indices/mostar"),
        ("irregularity_closed", plus_one, "irregularity/closed-form"),
        ("total_edges_closed", plus_one, "irregularity/pair-set-sizes"),
        ("gf_terms", bump_last_term, "gf/identities"),
        ("cube_poly_closed", plus_one, "gf/identities"),
        ("weight_poly", plus_one, "gf/identities"),
        ("dist_cube_poly_closed", plus_one, "gf/identities"),
        ("pfib", plus_one, "counts/order"),
        ("pfib_series", bump_last_coefficient, "gf/identities"),
        ("gap_denominator", bump_first_coefficient, "gf/identities"),
        ("substitute", plus_one, "cubes/daisy-identities"),
        ("verify_weight_gf_expansion", always_false, "gf/identities"),
        ("verify_cube_count_gf", always_false, "gf/identities"),
    ],
)
def test_broken_closed_form_fails_its_check(
    monkeypatch, capsys, closed_form, bump, check
):
    original = getattr(verify, closed_form)
    monkeypatch.setattr(
        verify, closed_form, lambda *args, **kwargs: bump(original(*args, **kwargs))
    )
    suite = check.split("/")[0]
    results = verify.run_suite(suite, [1], range(5), order=6)
    assert [r.passed for r in results if r.name == f"{check} p=1"] == [False]

    code = cli.main(["verify", suite, "--p", "1", "--n", "0..4", "--N", "6"])
    assert code == 1
    assert f"FAIL {check} p=1: " in capsys.readouterr().out


def test_gf_stops_at_its_first_mismatch(monkeypatch, capsys):
    # The cube closed form is wrong at n = 3 alone; the comparison stops
    # there, and no closed form past it is asked for.
    asked = []
    original = verify.cube_poly_closed

    def wrong_at_three(p, n):
        asked.append(n)
        closed = original(p, n)
        return closed + 1 if n == 3 else closed

    monkeypatch.setattr(verify, "cube_poly_closed", wrong_at_three)
    code = cli.main(["verify", "gf", "--p", "1", "--N", "6"])
    assert code == 1
    assert capsys.readouterr().out == (
        "FAIL gf/identities p=1: p=1 n=3: cube gf gives 5 + 5*x + x^2, "
        "closed form 6 + 5*x + x^2\n0/1 checks passed\n"
    )
    assert asked == [0, 1, 2, 3]


def mirror_off_by_one(row):
    # At odd n the middle entry is mirrored too, and the first one is lost.
    half = row[: (len(row) + 1) // 2]
    return half + half[::-1][: len(row) // 2]


@pytest.mark.parametrize(
    "check", ["counts/directions", "indices/wiener-mostar-gap"]
)
def test_misaligned_mirror_fails(monkeypatch, capsys, check):
    # The scalar closed forms do not read the row and stay right; the
    # per-direction check and the row's sum of squares catch the fault.
    original = verify.direction_edge_counts_closed
    for module in (graph, verify):
        monkeypatch.setattr(
            module,
            "direction_edge_counts_closed",
            lambda p, n: mirror_off_by_one(original(p, n)),
        )
    suite = check.split("/")[0]
    results = verify.run_suite(suite, [1], range(5))
    assert [r.passed for r in results if r.name == f"{check} p=1"] == [False]

    code = cli.main(["verify", suite, "--p", "1", "--n", "0..4"])
    assert code == 1
    assert f"FAIL {check} p=1: p=1 n=3" in capsys.readouterr().out


def test_text_row_out_of_order_is_no_palindrome(monkeypatch, capsys):
    # Every entry is a right count, but the printed row is no longer
    # symmetric; the weight row is left alone.
    original = verify.decimal_text

    def rotated(row, p, n):
        texts = original(row, p, n)
        return rotate_by_one(texts) if row is sequences.direction_products else texts

    monkeypatch.setattr(verify, "decimal_text", rotated)
    results = verify.run_suite("counts", [1], range(5))
    assert [r.name for r in results if not r.passed] == ["counts/directions p=1"]

    code = cli.main(["verify", "counts", "--p", "1", "--n", "0..4"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL counts/directions p=1: p=1 n=3: the row is not a palindrome\n" in out


def sums_route_mutant(old, new):
    """direction_row_sums with one step of its source changed, and nothing else."""
    source = inspect.getsource(sequences.direction_row_sums)
    assert source.count(old) == 1
    namespace = vars(sequences).copy()
    exec(source.replace(old, new), namespace)
    return namespace["direction_row_sums"]


@pytest.mark.parametrize(
    "old, new",
    [
        ("row[0] - row[1]", "row[0] + row[1]"),  # the falling difference
        ("rows[0], rows[-1]", "rows[-1], rows[-1]"),  # the rising sum
        ("row[0] // 2", "row[0] // 2 + 1"),  # the halving at p = 0
    ],
    ids=["falling", "rising", "halving"],
)
def test_broken_row_sums_fail_directions(monkeypatch, capsys, old, new):
    # On the CI grid the switch picks the products everywhere, so only the
    # counts suite's hold on both routes reads the sums.
    monkeypatch.setattr(verify, "direction_row_sums", sums_route_mutant(old, new))
    grid = ["--p", "0..4", "--n", "0..12"]
    for argv in (["verify", "counts", *grid], ["verify", "all", *grid, "--N", "20"]):
        assert cli.main(argv) == 1
        failed = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("FAIL ")
        ]
        assert failed
        assert all(line.startswith("FAIL counts/directions ") for line in failed)
        assert "the sums route differs from the list" in failed[0]


def test_rounding_decimal_context_fails_the_text_routes(monkeypatch, capsys):
    # Two digits and no traps (a bare Context copies the default ones): an
    # entry past 99 rounds without raising, and its text comes out as 9.2E+2
    # or NaN.  Only the text routes read the decimals.
    monkeypatch.setattr(
        sequences, "exact_context", lambda: decimal.Context(prec=2, traps=[])
    )
    checks = ("counts/directions", "counts/weight-census")
    results = verify.run_suite("counts", range(5), range(13))
    failed = {r.name for r in results if not r.passed}
    assert {f"{check} p=0" for check in checks} <= failed
    assert {name.split()[0] for name in failed} == set(checks)

    code = cli.main(["verify", "counts", "--p", "0..4", "--n", "0..12"])
    assert code == 1
    out = capsys.readouterr().out
    assert all(f"FAIL {check} p=0: " in out for check in checks)


# Per denominator: the grid's last n at p = 1 and 2, and the checks that
# fail.  The jump takes over from the stored terms at n = 2p + 2 for |E|
# and at (p+1)(p+2) for S, and irr reads |E| only up to n - 1.
JUMP_FAULTS = {
    "edge_denominator": ({1: 6, 2: 8}, ("counts/size", "irregularity/closed-form")),
    "pair_denominator": (
        {1: 8, 2: 14}, ("indices/wiener", "indices/mostar", "indices/wiener-mostar-gap")
    ),
}


@pytest.mark.parametrize(
    "denominator, p, k",
    [
        (name, p, k)
        for name in JUMP_FAULTS
        for p in (1, 2)
        for k in range(1, len(getattr(sequences, name)(p)))
    ],
)
def test_denominator_off_by_one_fails_its_checks(monkeypatch, capsys, denominator, p, k):
    # One coefficient of the |E| denominator Q^2, or of Q_S, one too large:
    # every term the jump computes past the stored ones comes out wrong.
    original = getattr(sequences, denominator)
    monkeypatch.setattr(
        sequences,
        denominator,
        lambda p: tuple(c + (i == k) for i, c in enumerate(original(p))),
    )
    # Wiener and Mostar share their parts through a cache of one (p, n): a
    # cache of this test's own keeps a faulty value from outliving it.
    fresh = functools.lru_cache(maxsize=1)(invariants._closed_parts.__wrapped__)
    monkeypatch.setattr(invariants, "_closed_parts", fresh)
    last, checks = JUMP_FAULTS[denominator]
    for suite in sorted({check.split("/")[0] for check in checks}):
        results = verify.run_suite(suite, [p], range(last[p] + 1))
        failed = {r.name for r in results if not r.passed}
        assert {f"{c} p={p}" for c in checks if c.startswith(suite)} <= failed

        code = cli.main(["verify", suite, "--p", str(p), "--n", f"0..{last[p]}"])
        assert code == 1
        out = capsys.readouterr().out
        for check in checks:
            if check.startswith(suite):
                assert f"FAIL {check} p={p}: " in out


@pytest.fixture
def without_first_edge(monkeypatch, drop_edge):
    """verify.build leaves out the edge from 0^n to 1 0^(n-1)."""
    build = verify.build

    def build_without_edge(p, m, **kwargs):
        g = build(p, m, **kwargs)
        return drop_edge(g, (0, g.index[1 << (m - 1)], 1))

    monkeypatch.setattr(verify, "build", build_without_edge)


# The edge lies on a square for n >= 3 and is a bridge at n = 2.  At n = 17,
# |V| = 4181 is above the old all-pairs limit.
@pytest.mark.parametrize("n", [6, 17, 2])
def test_dropped_edge_fails_partial_cube(capsys, without_first_edge, n):
    results = verify.run_suite("counts", [1], [n])
    partial_cube = [r for r in results if r.name == "counts/partial-cube p=1"]
    assert [r.passed for r in partial_cube] == [False]

    code = cli.main(["verify", "counts", "--p", "1", "--n", str(n)])
    assert code == 1
    assert "FAIL counts/partial-cube p=1: " in capsys.readouterr().out


def test_dropped_edge_fails_cube_counts(capsys, without_first_edge):
    # the census finds cubes through the edge lists, not the vertex index
    code = cli.main(["verify", "cubes", "--p", "1", "--n", "6"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL cubes/counts p=1: p=1 n=6 k=1: oracle=37 sum=38 " in out


def test_dropped_edge_fails_imbalance_checks(capsys, without_first_edge):
    # The census reads the edge lists, where 000000 and 100000 lose their
    # direction-1 neighbour while the 1-endpoints above them keep theirs.
    results = verify.run_suite("irregularity", [1], [6])
    failed = {r.name for r in results if not r.passed}
    assert {
        "irregularity/imbalance-records p=1",
        "irregularity/neighbour-propositions p=1",
    } <= failed

    code = cli.main(["verify", "irregularity", "--p", "1", "--n", "6"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL irregularity/imbalance-records p=1: p=1 n=6: |pairs|=38 irr=30\n" in out
    assert (
        "FAIL irregularity/neighbour-propositions p=1: p=1 n=6 i=3 j=1: "
        "unforced=2 pairs=0 offset=2\n"
    ) in out


def test_wider_gap_graph_fails_offset_rule(monkeypatch, capsys):
    # The p = 2 cube checked as p = 1 keeps Proposition 1 but has pairs at
    # offset 2, beyond p.
    build = verify.build
    monkeypatch.setattr(verify, "build", lambda p, m, **kwargs: build(p + 1, m, **kwargs))
    results = verify.run_suite("irregularity", [1], [6])
    assert "irregularity/neighbour-propositions p=1" in {
        r.name for r in results if not r.passed
    }
    code = cli.main(["verify", "irregularity", "--p", "1", "--n", "6"])
    assert code == 1
    assert (
        "FAIL irregularity/neighbour-propositions p=1: p=1 n=6 i=1 j=3: "
        "unforced=0 pairs=2 offset=2\n"
    ) in capsys.readouterr().out


def swap_endpoints(project):
    return lambda g, i, j, x: project(g, i, j, x)[::-1]


def lift_one_further(lift):
    # one zero too many after coordinate i: a pair witnessed at i + d + 1
    return lambda n, d, hi, i: lift(n + 1, d + 1, hi, i)


def lift_without_the_one(lift):
    # the 1 at coordinate i is cleared first, so the lift refuses the edge
    return lambda n, d, hi, i: lift(n, d, hi & ~(1 << (n - d - i)), i)


@pytest.mark.parametrize(
    "step, fault, detail",
    [
        (
            "project_pair",
            swap_endpoints,
            "p=2 n=4 d=1: projected edge is not in the smaller graph",
        ),
        ("lift_edge", lift_one_further, "p=2 n=4 d=1: lift does not round-trip the pair"),
        (
            "lift_edge",
            lift_without_the_one,
            "p=2 n=4 d=1: coordinate 1 of the edge is not 1",
        ),
    ],
)
def test_broken_projection_fails_bijection(monkeypatch, capsys, step, fault, detail):
    monkeypatch.setattr(verify, step, fault(getattr(verify, step)))
    results = verify.run_suite("irregularity", [2], [4])
    assert [r.name for r in results if not r.passed] == [
        "irregularity/projection-bijection p=2"
    ]
    code = cli.main(["verify", "irregularity", "--p", "2", "--n", "4"])
    assert code == 1
    out = capsys.readouterr().out
    assert f"FAIL irregularity/projection-bijection p=2: {detail}\n" in out
    assert out.count("FAIL") == 1


def test_projection_refusal_fails_a_check(monkeypatch, capsys, drop_edge):
    # At n = 5 the p = 1 graph checked as p = 2, less the edge 10000-10100:
    # project_pair refuses a pair at d = 2, and that refusal, not the failed
    # bijection at d = 1, is the check's first mismatch.
    build = verify.build

    def faulty_build(p, m, **kwargs):
        if m != 5:
            return build(p, m, **kwargs)
        g = graph_with(build(1, m, **kwargs), p=2)
        return drop_edge(g, (g.index[0b10000], g.index[0b10100], 3))

    monkeypatch.setattr(verify, "build", faulty_build)
    detail = "p=2 n=5 d=2: pair is not imbalanced: x + delta_j is a vertex"
    results = verify.run_suite("irregularity", [2], [5])
    assert CheckResult("irregularity/projection-bijection p=2", False, detail) in results
    code = cli.main(["verify", "irregularity", "--p", "2", "--n", "5"])
    assert code == 1
    assert f"FAIL irregularity/projection-bijection p=2: {detail}\n" in (
        capsys.readouterr().out
    )


def test_projection_reads_every_offset_of_a_direction(monkeypatch, swap_vertices):
    # The smaller graphs relabelled: the ids 1 and 2 of the (1, 5) graph
    # swapped give its direction-1 edges the id offsets 7, 8 and 9.  It is
    # the same graph, so every projected pair still finds its edge.
    build = verify.build
    smaller = []

    def relabelled_smaller(p, m, **kwargs):
        g = build(p, m, **kwargs)
        if m < 6:
            g = swap_vertices(g, 1, 2)
            smaller.append(g)
        return g

    monkeypatch.setattr(verify, "build", relabelled_smaller)
    results = verify.run_suite("irregularity", [1], [6])
    assert CheckResult("irregularity/projection-bijection p=1", True) in results
    assert [sorted(g.lows[1]) for g in smaller] == [[7, 8, 9]]


def test_mislabelled_edge_fails_structure(monkeypatch, capsys, drop_edge, reference_graph):
    # The edge 000000-000001 still raises the weight by 1, but claims
    # direction 5, where 000000 already has its edge to 000010.
    build = verify.build

    def build_with_wrong_direction(p, m, **kwargs):
        g = build(p, m, **kwargs)
        lo, hi, i = reference_graph(p, m).edges[0]
        h = drop_edge(g, (lo, hi, i))
        h.lows[5][hi - lo] = h.lows[5].get(hi - lo, 0) | 1 << lo
        return h

    assert verify._structure_mismatches(build_with_wrong_direction(1, 6)) == [
        "p=1 n=6: degree sum != 2|E|",
        "p=1 n=6: edge 0-1 does not set exactly bit 5",
    ]
    monkeypatch.setattr(verify, "build", build_with_wrong_direction)
    code = cli.main(["verify", "counts", "--p", "1", "--n", "6"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL counts/structure p=1: p=1 n=6: degree sum != 2|E|\n" in out


def test_isolated_vertex_fails_structure(monkeypatch, capsys, drop_edge):
    # 101010 loses its three edges, down at directions 1, 3 and 5: no
    # frontier from 000000 reaches it.
    build = verify.build

    def build_with_isolated_vertex(p, m, **kwargs):
        g = build(p, m, **kwargs)
        top = 0b101010
        for i in (1, 3, 5):
            g = drop_edge(g, (g.index[top ^ 1 << (m - i)], g.index[top], i))
        return g

    assert verify._structure_mismatches(build_with_isolated_vertex(1, 6)) == [
        "p=1 n=6: graph is disconnected"
    ]
    monkeypatch.setattr(verify, "build", build_with_isolated_vertex)
    code = cli.main(["verify", "counts", "--p", "1", "--n", "6"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL counts/structure p=1: p=1 n=6: graph is disconnected\n" in out


# Swapping two ids keeps the graph but breaks string order; relabelling the
# graph p = 2 makes its strings with 1s two apart invalid.
@pytest.mark.parametrize(
    "fault, detail",
    [
        (lambda g, swap: swap(g, 1, 2), "p=1 n=6: vertex ids do not follow string order"),
        (lambda g, swap: graph_with(g, p=2), "p=2 n=6: a vertex is not 2-valid"),
    ],
    ids=["swapped-ids", "invalid-vertex"],
)
def test_vertex_fault_fails_structure(monkeypatch, capsys, swap_vertices, fault, detail):
    build = verify.build
    monkeypatch.setattr(
        verify, "build", lambda p, m, **kwargs: fault(build(p, m, **kwargs), swap_vertices)
    )
    code = cli.main(["verify", "counts", "--p", "1", "--n", "6"])
    assert code == 1
    out = capsys.readouterr().out
    assert f"FAIL counts/structure p=1: {detail}\n" in out
    assert out.count("FAIL") == 1


def test_census_refusal_fails_a_check(monkeypatch, capsys, swap_vertices):
    # ids 1 and 2 swapped: direction 1 edges no longer share one id offset,
    # which both censuses refuse; the refusal fails a check, not the run
    build = verify.build
    monkeypatch.setattr(
        verify, "build", lambda p, m, **kwargs: swap_vertices(build(p, m, **kwargs), 1, 2)
    )
    refusal = "p=1 n=6: direction 1 edges have id offsets [12, 13, 14]\n"
    for suite, check in (("cubes", "counts"), ("irregularity", "imbalance-records")):
        code = cli.main(["verify", suite, "--p", "1", "--n", "6"])
        assert code == 1
        assert f"FAIL {suite}/{check} p=1: {refusal}" in capsys.readouterr().out
    code = cli.main(["verify", "all", "--p", "1", "--n", "6"])
    assert code == 1
    out = capsys.readouterr().out
    assert f"FAIL cubes/counts p=1: {refusal}" in out
    assert f"FAIL irregularity/imbalance-records p=1: {refusal}" in out
    assert "FAIL counts/structure p=1: " in out
