import functools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fibpcubes
from fibpcubes import cli, graph, verify
from fibpcubes.polynomials import (
    BivarPoly,
    Polynomial,
    cube_poly_closed,
    dist_cube_poly_closed,
)
from fibpcubes.verify import CheckResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sweeps(monkeypatch):
    """The (p, n) of every graph whose distance sweep runs."""
    calls = []
    sweep = graph.PCubeGraph.distance_sums.func

    def counted(g):
        calls.append((g.p, g.n))
        return sweep(g)

    prop = functools.cached_property(counted)
    prop.__set_name__(graph.PCubeGraph, "distance_sums")
    monkeypatch.setattr(graph.PCubeGraph, "distance_sums", prop)
    return calls


# The environment of a child process that imports this checkout's package.
SRC = str(Path(fibpcubes.__file__).parents[1])
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
))


def run_limited(*argv):
    """The CLI in a child process limited to 1.5 GB of address space and 30 s."""
    limit = 1_500_000 * 1024

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "fibpcubes", *argv], capture_output=True,
        text=True, env=CHILD_ENV, preexec_fn=cap_memory, timeout=30,
    )


class TestCount:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "2", "--n", "4")
        assert code == 0
        assert out == "p=2 n=4 vertices=6 edges=6 max_weight=2 weights=1,4,1\n"

    def test_hypercube_degeneration(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "0", "--n", "5")
        assert code == 0
        assert "vertices=32 edges=80" in out

    def test_point_graph(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "3", "--n", "0")
        assert code == 0
        assert "vertices=1 edges=0" in out

    def test_json_numbers_are_strings(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "2", "--n", "4",
                           "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["vertices"] == "6" and row["edges"] == "6"
        assert row["weight_census"] == ["1", "4", "1"]

    def test_range_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "1", "--n", "0..3",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,n,vertices,edges,max_weight,weights"
        assert len(lines) == 5

    def test_no_cap_on_closed_forms(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "1", "--n", "80")
        assert code == 0
        assert "vertices=" in out

    @pytest.mark.parametrize(
        "argv, out",
        [
            (("count", "--p", "2", "--n", "4"),
             "p=2 n=4 vertices=6 edges=6 max_weight=2 weights=1,4,1\n"),
            (("poly", "weight", "--p", "2", "--n", "4"), "1 + 4*x + x^2\n"),
        ],
        ids=["count", "poly-weight"],
    )
    def test_weights_come_from_the_one_pass_row(self, monkeypatch, capsys, argv, out):
        def per_weight(*args):
            raise AssertionError("count_by_weight called")

        # every module that imported it by name holds its own binding
        for name, module in list(sys.modules.items()):
            if name.startswith("fibpcubes") and hasattr(module, "count_by_weight"):
                monkeypatch.setattr(module, "count_by_weight", per_weight)
        assert run(capsys, *argv) == (0, out, "")


class TestPoly:
    def test_cube_text(self, capsys):
        code, out, _ = run(capsys, "poly", "cube", "--p", "1", "--n", "3")
        assert code == 0 and out == "5 + 5*x + x^2\n"

    def test_weight_text(self, capsys):
        code, out, _ = run(capsys, "poly", "weight", "--p", "2", "--n", "4")
        assert code == 0 and out == "1 + 4*x + x^2\n"

    def test_distance_includes_cross_term(self, capsys):
        code, out, _ = run(capsys, "poly", "distance", "--p", "1", "--n", "3")
        assert code == 0 and "2*x*q" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "poly", "cube", "--p", "1", "--n", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["p", "n", "kind", "coeffs"]
        parsed = Polynomial.from_coeffs(int(c) for c in doc["coeffs"])
        assert parsed == cube_poly_closed(1, 3)

    def test_distance_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "poly", "distance", "--p", "2", "--n", "4",
                           "--format", "json")
        doc = json.loads(out)
        assert list(doc) == ["p", "n", "kind", "terms"]
        parsed = BivarPoly.from_dict(
            {(int(r["k"]), int(r["d"])): int(r["value"]) for r in doc["terms"]}
        )
        assert parsed == dist_cube_poly_closed(2, 4)
        assert parsed.as_dict().get((1, 1), 0) == 2


class TestVerify:
    def test_all_small_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--p", "1..2", "--n", "0..5")
        assert code == 0
        assert "FAIL" not in out
        assert out.strip().endswith("checks passed")

    def test_gf_hypercube(self, capsys):
        code, out, _ = run(capsys, "verify", "gf", "--p", "0", "--n", "0..4",
                           "--N", "15")
        assert code == 0
        assert "PASS gf/identities p=0" in out

    def test_irregularity_note(self, capsys):
        code, out, _ = run(capsys, "verify", "irregularity", "--p", "2",
                           "--n", "0..1")
        assert code == 0
        assert "theorem not applicable (n < p), oracle-only" in out

    def test_partial_cube_skip_note(self, monkeypatch, capsys):
        monkeypatch.setattr(graph, "SWEEP_LIMIT", 8)
        code, out, _ = run(capsys, "verify", "counts", "--p", "1", "--n", "3..5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "PASS counts/order p=1"
        assert lines[6] == (
            "PASS counts/partial-cube p=1: "
            "p=1 n=5: partial-cube not checked, |V| = 13 > 8"
        )

    def test_oracle_skip_notes(self, monkeypatch, capsys):
        monkeypatch.setattr(graph, "SWEEP_LIMIT", 8)
        built = []
        build = verify.build

        def recording_build(p, n):
            built.append(n)
            return build(p, n)

        monkeypatch.setattr(verify, "build", recording_build)
        code, out, _ = run(capsys, "verify", "indices", "--p", "1", "--n", "3..6")
        assert code == 0
        assert built == [3, 4]  # no graph is built for the skipped oracles
        skipped = (
            "p=1 n=5: oracle not checked, |V| = 13 > 8; "
            "p=1 n=6: oracle not checked, |V| = 21 > 8"
        )
        assert out.splitlines() == [
            f"PASS indices/wiener p=1: {skipped}",
            f"PASS indices/mostar p=1: {skipped}",
            "PASS indices/wiener-mostar-gap p=1",
            "3/3 checks passed",
        ]

    @pytest.mark.parametrize(
        "suite, p, n, refused",
        [("cubes", "1", "24", "p = 1, n = 24: 22369621"),
         ("all", "0", "0..14", "p = 0, n = 14: 4782969")],
    )
    def test_census_refused_before_any_build(
        self, monkeypatch, capsys, suite, p, n, refused
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(verify, "build", no_build)
        code, out, err = run(capsys, "verify", suite, "--p", p, "--n", n)
        assert (code, out) == (3, "")
        assert err == (
            f"error: {refused} cube supports exceed the census limit 2097152\n"
        )

    def test_projection_needs_no_cap(self, capsys):
        # the projection builds n - 1 .. n - 4, all far below the vertex limit
        code, out, err = run(capsys, "verify", "irregularity", "--p", "4",
                             "--n", "26", "--cap", "30")
        assert code == 0, err
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "indices", "--p", "1", "--n", "0..3",
                           "--format", "json")
        assert code == 0
        results = json.loads(out)
        assert all(r["passed"] is True for r in results)

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        fake = [CheckResult("demo/identity p=1", False, "p=1 n=2: expected 3, got 4")]
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
        code, out, _ = run(capsys, "verify", "all", "--p", "1", "--n", "0..2")
        assert code == 1
        assert "FAIL demo/identity p=1: p=1 n=2: expected 3, got 4" in out

    def test_grid_beyond_cap_is_refused(self, capsys):
        code, _, err = run(capsys, "verify", "all", "--p", "1", "--n", "0..30")
        assert code == 3
        assert "cap" in err

    def test_gf_ignores_the_graph_cap(self, capsys):
        code, out, err = run(capsys, "verify", "gf", "--p", "0", "--n", "0..30",
                             "--N", "4")
        assert (code, err) == (0, "")
        assert "PASS gf/identities p=0\n" in out

    def test_gf_builds_no_graph(self, monkeypatch, capsys):
        def no_strings(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(graph, "enumerate_pstrings", no_strings)
        code, out, _ = run(capsys, "verify", "gf", "--p", "0..1", "--N", "8")
        assert code == 0
        assert out.splitlines()[-1] == "2/2 checks passed"

    def test_each_grid_point_is_built_once(self, monkeypatch, capsys):
        built = []
        build = verify.build

        def recording_build(p, n):
            built.append((p, n))
            return build(p, n)

        monkeypatch.setattr(verify, "build", recording_build)
        code, _, _ = run(capsys, "verify", "all", "--p", "1", "--n", "0..3")
        assert code == 0
        # every suite shares the point's graph; the projection adds (1, n - 1)
        assert built == [(1, 0), (1, 1), (1, 0), (1, 2), (1, 1), (1, 3), (1, 2)]

    def test_one_sweep_per_graph(self, sweeps, capsys):
        code, _, _ = run(capsys, "verify", "all", "--p", "1", "--n", "0..6")
        assert code == 0
        assert sweeps == [(1, n) for n in range(7)]


def test_closed_stdout_is_not_an_error():
    # About 730 KB of rows: more than a pipe buffer holds, so the writer is
    # still writing when the reader goes.
    with subprocess.Popen(
        [sys.executable, "-m", "fibpcubes", "count", "--p", "1", "--n", "0..300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    ) as child:
        assert child.stdout.readline().startswith(b"p=1 n=0 vertices=1 ")
        child.stdout.close()
        assert child.wait(timeout=30) == cli.EXIT_PIPE == 141
        assert child.stderr.read() == b""


class TestExport:
    def test_dot(self, capsys):
        code, out, _ = run(capsys, "export", "--p", "1", "--n", "3",
                           "--format", "dot")
        assert code == 0
        assert out.startswith("graph pcube_p1_n3 {")
        assert '"000" -- "001";' in out
        assert out.count("--") == 5

    def test_json_four_cycle(self, capsys):
        code, out, _ = run(capsys, "export", "--p", "0", "--n", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 4 and len(doc["edges"]) == 4

    def test_to_file(self, capsys, tmp_path):
        path = tmp_path / "graph.dot"
        code, out, _ = run(capsys, "export", "--p", "1", "--n", "3",
                           "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("graph pcube_p1_n3 {")

    @pytest.mark.parametrize("target", ["missing/graph.dot", "."],
                             ids=["missing-directory", "directory"])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, target):
        code, out, err = run(capsys, "export", "--p", "1", "--n", "3",
                             "--output", str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "export", "--p", "2", "--n", "24", "--cap", "20")
        assert code == 3 and "cap" in err
        code, _, err = run(capsys, "export", "--p", "2", "--n", "25")
        assert code == 3


BILLION = "1000000000"


class TestSizeLimits:
    @pytest.mark.parametrize(
        "argv, predicted",
        [
            (("export", "--p", "0", "--n", "24"), "|V| = F^0_25"),
            (("verify", "all", "--p", "0", "--n", "0..24"), "|V| = F^0_25"),
            (("export", "--p", BILLION, "--n", BILLION, "--cap", BILLION),
             "|V| = F^1000000000_2000000001"),
        ],
        ids=["export", "verify", "huge-p-and-n"],
    )
    def test_oversized_graph_refused_before_allocation(self, argv, predicted):
        done = run_limited(*argv)
        assert done.returncode == 3, done.stderr
        assert f"{predicted} exceeds the vertex limit 262144" in done.stderr

    @pytest.mark.parametrize(
        "p, n, supports", [("0", "14", 3**14), ("1", "24", 22369621)]
    )
    def test_oversized_cube_census_refused(self, p, n, supports):
        done = run_limited("verify", "cubes", "--p", p, "--n", n)
        assert done.returncode == 3, done.stderr
        assert done.stderr == (
            f"error: p = {p}, n = {n}: {supports} cube supports exceed the "
            "census limit 2097152\n"
        )

    def test_huge_p_small_n_answers_at_once(self):
        done = run_limited("export", "--p", BILLION, "--n", "3")
        assert done.returncode == 0, done.stderr
        assert done.stdout.count(";") == 4 + 3


class TestIndices:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "indices", "--p", "1", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == "5" and doc["edges"] == "5"
        assert doc["wiener"] == {"closed": "16", "oracle": "16"}
        assert doc["mostar"] == {"closed": "7", "oracle": "7"}
        assert doc["irregularity"]["closed"] == "4"
        assert doc["edge_counts_by_direction"]["closed"] == ["2", "1", "2"]
        assert doc["edge_counts_by_direction"]["oracle"] == ["2", "1", "2"]

    def test_beyond_cap_keeps_closed_values(self, capsys):
        code, out, _ = run(capsys, "indices", "--p", "1", "--n", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["wiener"]["oracle"] is None
        assert int(doc["wiener"]["closed"]) > 0

    def test_below_threshold_note(self, capsys):
        code, out, _ = run(capsys, "indices", "--p", "3", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["irregularity"]["closed"] is None
        assert doc["irregularity"]["note"] == (
            "theorem not applicable (n < p), oracle-only"
        )
        assert doc["irregularity"]["oracle"] == "0"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "indices", "--p", "1", "--n", "3",
                           "--format", "text")
        assert code == 0
        assert "wiener: closed=16 oracle=16" in out

    def test_one_sweep_serves_both_distance_oracles(self, sweeps, capsys):
        code, out, _ = run(capsys, "indices", "--p", "1", "--n", "6")
        assert code == 0
        assert sweeps == [(1, 6)]
        doc = json.loads(out)
        assert doc["wiener"]["oracle"] == doc["wiener"]["closed"]
        assert doc["mostar"]["oracle"] == doc["mostar"]["closed"]

    def test_beyond_sweep_limit_nulls_distance_oracles(self, monkeypatch, capsys):
        monkeypatch.setattr(graph, "SWEEP_LIMIT", 8)
        code, out, _ = run(capsys, "indices", "--p", "1", "--n", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["wiener"]["oracle"] is None and doc["mostar"]["oracle"] is None
        assert doc["irregularity"]["oracle"] == doc["irregularity"]["closed"]

    def test_answer_beyond_int_str_digit_limit(self, capsys):
        code, out, err = run(capsys, "indices", "--p", "0", "--n", "7200",
                             "--cap", "0")
        assert code == 0, err
        assert len(json.loads(out)["wiener"]["closed"]) > 4300


class TestUsageAndDeterminism:
    def test_negative_parameter(self, capsys):
        code, _, _ = run(capsys, "count", "--p", "-1", "--n", "3")
        assert code == 2

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "count", "--p", "1", "--n", "5..2")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "poly", "cube", "--p", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--p", "0..2", "--n", "0..6", "--format", "json"),
            ("poly", "distance", "--p", "2", "--n", "5", "--format", "json"),
            ("indices", "--p", "2", "--n", "6"),
            ("export", "--p", "1", "--n", "4", "--format", "dot"),
            ("verify", "indices", "--p", "1..2", "--n", "0..4"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0
