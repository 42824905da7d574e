"""Fault injection: every closed form, and every graph a check examines,
broken on purpose, makes that check fail."""

import dataclasses

import pytest

from fibpcubes import cli, verify
from fibpcubes.series import TruncatedSeries
from fibpcubes.verify import CheckResult


def plus_one(value):
    return value + 1


def bump_last_entry(values):
    # an empty list (no directions at n = 0) has nothing to break
    return values[:-1] + [values[-1] + 1] if values else values


def always_false(_):
    return False


def bump_last_coefficient(series):
    return TruncatedSeries(series.coeffs[:-1] + (series.coeffs[-1] + 1,))


def bump_first_coefficient(series):
    # the last one would not do for the denominator: it meets F_0 = 0
    return TruncatedSeries((series.coeffs[0] + 1,) + series.coeffs[1:])


@pytest.mark.parametrize(
    "closed_form, bump, check",
    [
        ("total_edges_closed", plus_one, "counts/size"),
        ("direction_edge_count_closed", plus_one, "counts/directions"),
        ("direction_edge_counts_closed", bump_last_entry, "counts/directions"),
        ("count_by_weight", plus_one, "counts/weight-census"),
        ("weight_census", bump_last_entry, "counts/weight-census"),
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
        ("rational_gf", bump_last_coefficient, "gf/identities"),
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
        g = dataclasses.replace(build(1, m, **kwargs), p=2)
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


def test_mislabelled_edge_fails_structure(monkeypatch, capsys):
    # the edge 000000-000001 still raises the weight by 1, but claims direction 5
    build = verify.build

    def build_with_wrong_direction(p, m, **kwargs):
        g = build(p, m, **kwargs)
        lo, hi, _ = g.edges[0]
        return dataclasses.replace(g, edges=[(lo, hi, 5), *g.edges[1:]])

    monkeypatch.setattr(verify, "build", build_with_wrong_direction)
    code = cli.main(["verify", "counts", "--p", "1", "--n", "6"])
    assert code == 1
    assert "FAIL counts/structure p=1: " in capsys.readouterr().out


# Swapping two ids keeps the graph but breaks string order; relabelling the
# graph p = 2 makes its strings with 1s two apart invalid.
@pytest.mark.parametrize(
    "fault, detail",
    [
        (lambda g, swap: swap(g, 1, 2), "p=1 n=6: vertex ids do not follow string order"),
        (lambda g, swap: dataclasses.replace(g, p=2), "p=2 n=6: a vertex is not 2-valid"),
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
