import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fibpcubes
from fibpcubes import cli, graph, sequences, strings, verify
from fibpcubes.polynomials import (
    BivarPoly,
    Polynomial,
    RingElement,
    cube_poly_closed,
    dist_cube_poly_closed,
)
from fibpcubes.verify import CheckResult

from conftest import as_dict, written_json


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


def run_limited(*argv, limit_kb=1_500_000, code=None, stdout=subprocess.PIPE):
    """The CLI, or the given code, in a child limited to limit_kb of address
    space and 30 s; its stdout captured unless another target is given."""
    limit = limit_kb * 1024

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    args = ["-c", code] if code is not None else ["-m", "fibpcubes", *argv]
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
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

    @pytest.mark.parametrize(
        "kind, p, n, text",
        [
            ("cube", 1, 3, "5 + 5*x + x^2\n"),
            ("weight", 2, 4, "1 + 4*x + x^2\n"),
            ("distance", 1, 3, "1 + 3*q + 3*x + q^2 + 2*x*q + x^2\n"),
        ],
    )
    def test_text_is_written_term_by_term(self, monkeypatch, capsys, kind, p, n, text):
        def whole_text(self):
            raise AssertionError("the whole text was made at once")

        monkeypatch.setattr(RingElement, "render", whole_text)
        assert run(capsys, "poly", kind, "--p", str(p), "--n", str(n)) == (0, text, "")

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
        assert as_dict(parsed).get((1, 1), 0) == 2


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
        monkeypatch.setattr(verify, "run_suite", lambda *a, **k: fake)
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

        monkeypatch.setattr(graph, "pvalid_bits", no_strings)
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


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (("count", "--p", "1", "--n", "0..300"), b"p=1 n=0 vertices=1 "),
        (("indices", "--p", "2", "--n", "3000", "--cap", "0"), b"{\n"),
    ],
    ids=["count", "indices"],
)
def test_closed_stdout_is_not_an_error(argv, first_line):
    # About 730 KB of rows, or 1.5 MB of streamed JSON: more than a pipe
    # buffer holds, so the writer is still writing when the reader goes.
    with subprocess.Popen(
        [sys.executable, "-m", "fibpcubes", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    ) as child:
        assert child.stdout.readline().startswith(first_line)
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

    # Length and sha256 of each export of one graph: the labels and edges
    # that export reads off the packed strings and the adjacency lists must
    # keep every byte.
    @pytest.mark.parametrize(
        "fmt, length, digest",
        [
            ("dot", 3067,
             "795ca4822fb28446f4e3c5bc3384013479da8758fd1fc30eb2df55fda9585a94"),
            ("json", 8940,
             "1170f0db8b831dfc6d0e62653a08cafcc47d5427c7dce37f8cceb06691b298a7"),
        ],
    )
    def test_bytes_are_pinned(self, capsys, fmt, length, digest):
        code, out, _ = run(capsys, "export", "--p", "2", "--n", "9", "--format", fmt)
        assert code == 0
        data = out.encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (length, digest)

    def test_refused_export_creates_no_file(self, capsys, tmp_path):
        path = tmp_path / "g.dot"
        code, out, err = run(capsys, "export", "--p", "2", "--n", "25",
                             "--output", str(path))
        assert code == 3 and out == "" and err.startswith("error: ")
        assert not path.exists()

    @pytest.mark.parametrize("fmt, bound", [("json", 3), ("dot", 1.5)])
    def test_export_streams(self, fmt, bound):
        # The graph and its adjacency lists are held anyway; the text,
        # written as it is made, adds little on top of them.  A built
        # payload is several times their size.
        argv = ["export", "--p", "1", "--n", "14", "--format", fmt]
        traced_peak(argv)  # imports what the export needs

        def held():
            graph.build(1, 14).adjacency

        ratio = traced_peak(argv) / traced_call(held)
        assert ratio < bound, ratio

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "export", "--p", "2", "--n", "24", "--cap", "20")
        assert code == 3 and "cap" in err
        code, _, err = run(capsys, "export", "--p", "2", "--n", "25")
        assert code == 3


BILLION = "1000000000"
TRILLION = "1000000000000"


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

    def test_counts_suite_at_huge_p(self):
        # Neither F nor the p-validity check steps through the p + 1 seed ones.
        done = run_limited("verify", "counts", "--p", TRILLION, "--n", "0..5",
                           "--cap", "5")
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("7/7 checks passed\n")

    @pytest.mark.parametrize("suite", ["gf", "all"])
    @pytest.mark.parametrize("p", [TRILLION, "100000000000000000000"])
    def test_series_at_huge_p_refused(self, suite, p):
        # The gap denominator and the numerator hold p + 2 ring elements.
        done = run_limited("verify", suite, "--p", p, "--n", "0..5", "--cap", "5",
                           "--N", "5")
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == f"error: p = {p} exceeds the series limit 65536\n"

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

    def test_out_of_memory_is_one_error_line(self):
        # No budget refuses this yet: the distance polynomial has 4.5 million
        # big-int terms, all made before its first byte.
        done = run_limited("poly", "distance", "--p", "0", "--n", "3000",
                           limit_kb=150_000)
        assert done.returncode == 3
        assert done.stdout == ""
        assert done.stderr == "error: out of memory\n"

    def test_long_row_streams_under_a_small_limit(self):
        # The weight row of n = 40000 takes about 66 MB when it is held.
        # Each entry is made, written and dropped in turn, so the command
        # needs little more than the interpreter.
        done = run_limited("count", "--p", "1", "--n", "40000", limit_kb=40_000,
                           stdout=subprocess.DEVNULL)
        assert (done.returncode, done.stderr) == (0, "")

    def test_scalar_closed_forms_need_no_table(self):
        # At n = 10^5 the table of every F_i alone needs 460 MB at p = 1; the
        # jump holds a few n-bit numbers.  The edge recursion ties the values.
        code = textwrap.dedent("""
            from fibpcubes import (
                irregularity_closed, mostar_closed, total_edges_closed, wiener_closed,
            )
            from fibpcubes.sequences import pfib_terms, square_sum_closed
            n = 10**5
            for p in (1, 2):
                edges = [total_edges_closed(p, m) for m in range(n - p - 1, n + 1)]
                assert edges[-1] == edges[-2] + edges[0] + pfib_terms(p, n)[0]
                wiener, mostar = wiener_closed(p, n), mostar_closed(p, n)
                assert wiener - mostar == square_sum_closed(p, n) > 0
                assert irregularity_closed(p, n) == 2 * sum(edges[1:-1])
                print(p, edges[-1].bit_length(), wiener.bit_length())
        """)
        done = run_limited(code=code, limit_kb=100_000)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1 69440 138864\n2 55161 110308\n"

    def test_huge_p_small_n_answers_at_once(self):
        done = run_limited("export", "--p", BILLION, "--n", "3")
        assert done.returncode == 0, done.stderr
        assert done.stdout.count(";") == 4 + 3

    @pytest.mark.parametrize(
        "p, n",
        [("1000000", "3"), ("5000", "20000"), ("100000", "200000"), (TRILLION, "3")],
    )
    def test_large_p_count_answers_at_once(self, p, n):
        # The jump's orders are p + 1 and 2p + 2, about p^2 products; where p
        # is large beside n the windows step about n times instead, past a
        # seed of p + 1 ones that they skip.
        done = run_limited("count", "--p", p, "--n", n, "--format", "json")
        assert done.returncode == 0, done.stderr
        (point,) = json.loads(done.stdout)
        census = [int(c) for c in point["weight_census"]]
        assert int(point["vertices"]) == sum(census)
        assert int(point["edges"]) == sum(w * c for w, c in enumerate(census))

    @pytest.mark.parametrize(
        "p, n", [("300", "5"), ("40", "10"), ("100", "20000"), (TRILLION, "3")]
    )
    def test_large_p_indices_answer_at_once(self, p, n):
        # S alone has order (p+1)(p+2): at p = 300 the jump would store
        # 90902 terms, and the windows sum the row's squares instead.
        done = run_limited("indices", "--p", p, "--n", n, "--cap", "0")
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        row = [int(c) for c in doc["edge_counts_by_direction"]["closed"]]
        assert int(doc["edges"]) == sum(row)
        wiener, mostar = int(doc["wiener"]["closed"]), int(doc["mostar"]["closed"])
        squares = sum(c * c for c in row)
        assert wiener - mostar == squares
        assert wiener == int(doc["vertices"]) * sum(row) - squares


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

    @pytest.mark.parametrize("n, cap", [(3, "24"), (2000, "0")])
    def test_text_format_builds_no_row(self, monkeypatch, capsys, n, cap):
        # The text lines print only the scalars, so no per-direction row,
        # closed or counted, is made for them.
        def row(*args):
            raise AssertionError("a per-direction row was built")

        monkeypatch.setattr(sequences, "decimal_text", row)
        monkeypatch.setattr(graph, "direction_edge_counts_closed", row)
        monkeypatch.setattr(graph, "direction_edge_count", row)
        argv = ("indices", "--p", "1", "--n", str(n), "--cap", cap)
        code, out, err = run(capsys, *argv, "--format", "text")
        assert (code, err) == (0, "")
        monkeypatch.undo()
        doc = json.loads(run(capsys, *argv)[1])
        assert out.splitlines()[1] == (
            f"wiener: closed={doc['wiener']['closed']} "
            f"oracle={doc['wiener']['oracle']}"
        )

    def test_one_sweep_serves_both_distance_oracles(self, sweeps, capsys):
        code, out, _ = run(capsys, "indices", "--p", "1", "--n", "6")
        assert code == 0
        assert sweeps == [(1, 6)]
        doc = json.loads(out)
        assert doc["wiener"]["oracle"] == doc["wiener"]["closed"]
        assert doc["mostar"]["oracle"] == doc["mostar"]["closed"]

    def test_one_direction_row_serves_every_closed_value(self, monkeypatch, capsys):
        # The row is built once, as decimal text, for the list.  The Wiener
        # and Mostar closed forms take their sum of squares from the jump,
        # which agrees with the listed row's.
        built_for = []
        row = sequences.decimal_text
        monkeypatch.setattr(
            sequences,
            "decimal_text",
            lambda make, p, n: built_for.append((make, p, n)) or row(make, p, n),
        )
        code, out, _ = run(capsys, "indices", "--p", "2", "--n", "37", "--cap", "0")
        assert code == 0
        assert built_for == [(sequences.direction_products, 2, 37)]
        doc = json.loads(out)
        squares = sum(int(c) ** 2 for c in doc["edge_counts_by_direction"]["closed"])
        assert int(doc["wiener"]["closed"]) - int(doc["mostar"]["closed"]) == squares

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


class Discard(io.TextIOBase):
    """A text stdout that counts the characters written and keeps none."""

    def __init__(self):
        super().__init__()
        self.chars = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


def traced_peak(argv):
    """The tracemalloc peak of one in-process run, its stdout discarded.

    The collector is paused, so that where a collection falls does not
    decide a comparison.
    """
    def command():
        with contextlib.redirect_stdout(Discard()):
            assert cli.main(list(argv)) == 0

    return traced_call(command)


def traced_call(call):
    """The tracemalloc peak of ``call()``, with the collector paused."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


class Walked:
    """A row of number text and ints that is no list: the writer walks it."""

    def __init__(self, texts):
        self.texts = texts

    def __iter__(self):
        return iter(self.texts)

    def __repr__(self):
        return f"Walked({self.texts!r})"


NUMBER_TEXT = st.integers().map(str) | st.text(alphabet="01")
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.text()
JSON_ROWS = st.lists(NUMBER_TEXT | st.integers(), max_size=4).map(Walked)
JSON_DOCS = st.recursive(
    st.lists(JSON_SCALARS) | st.dictionaries(st.text(), JSON_SCALARS) | JSON_ROWS,
    lambda inner: st.lists(inner | JSON_SCALARS, max_size=4)
    | st.dictionaries(st.text(), inner | JSON_SCALARS, max_size=4),
    max_leaves=12,
)


def reference(doc):
    """``doc`` as json.dumps must see it to print what the writer prints:
    each int but a bool a str, each iterable but a dict or str a list."""
    if doc is None or isinstance(doc, (bool, str)):
        return doc
    if isinstance(doc, int):
        return str(doc)
    if isinstance(doc, dict):
        return {key: reference(value) for key, value in doc.items()}
    return [reference(entry) for entry in doc]


class TestStreamedOutput:
    @given(JSON_DOCS)
    def test_json_writer_is_json_dump(self, doc):
        # Empty containers, nesting, strings that need escapes, quoted ints
        # and walked rows.
        assert written_json(doc) == json.dumps(reference(doc), indent=2) + "\n"

    def test_json_writer_writes_each_entry_before_making_the_next(self):
        out = io.StringIO()
        entries = [1, "-20", 300]
        written = []  # the text out held when each entry past the first was asked for

        def row():
            for k, entry in enumerate(entries):
                if k:
                    written.append(out.getvalue())
                yield entry

        cli._write_json({"row": row(), "rows": [iter(())]}, out)
        assert [text.endswith(f'"{entry}"') for text, entry in
                zip(written, entries)] == [True, True]
        assert out.getvalue() == json.dumps(
            {"row": ["1", "-20", "300"], "rows": [[]]}, indent=2
        ) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("indices", "--p", "2", "--n", "37", "--cap", "0"),
            ("indices", "--p", "1", "--n", "6"),
            ("count", "--p", "0..2", "--n", "0..9", "--format", "json"),
        ],
        ids=["indices-closed", "indices-oracle", "count"],
    )
    def test_json_is_the_one_shot_encoding(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        if argv[0] == "indices":
            doc = cli._indices_doc(cli.build_parser().parse_args(argv))
            assert out == json.dumps(reference(doc), indent=2) + "\n"

    @pytest.mark.parametrize(
        "form, out",
        [
            ("text",
             "p=1 n=3 vertices=5 edges=5 max_weight=2 weights=1,3,1\n"
             "p=1 n=4 vertices=8 edges=10 max_weight=2 weights=1,4,3\n"
             "p=1 n=5 vertices=13 edges=20 max_weight=3 weights=1,5,6,1\n"
             "p=2 n=3 vertices=4 edges=3 max_weight=1 weights=1,3\n"
             "p=2 n=4 vertices=6 edges=6 max_weight=2 weights=1,4,1\n"
             "p=2 n=5 vertices=9 edges=11 max_weight=2 weights=1,5,3\n"),
            ("csv",
             "p,n,vertices,edges,max_weight,weights\n"
             "1,3,5,5,2,1 3 1\n1,4,8,10,2,1 4 3\n1,5,13,20,3,1 5 6 1\n"
             "2,3,4,3,1,1 3\n2,4,6,6,2,1 4 1\n2,5,9,11,2,1 5 3\n"),
        ],
    )
    def test_count_rows_on_a_small_grid(self, capsys, form, out):
        argv = ("count", "--p", "1..2", "--n", "3..5", "--format", form)
        assert run(capsys, *argv) == (0, out, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("indices", "--p", "2", "--n", "3000", "--cap", "0"),
            ("count", "--p", "1", "--n", "3000"),
            ("count", "--p", "1", "--n", "3000", "--format", "json"),
            ("count", "--p", "1", "--n", "3000", "--format", "csv"),
        ],
        ids=["indices", "count-text", "count-json", "count-csv"],
    )
    def test_peak_memory_is_near_the_output_size(self, monkeypatch, argv):
        # Holding the answer once and streaming it stays well below the
        # chunks, the joined text and its encoding all alive at once.
        sink = Discard()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert cli.main(list(argv)) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * sink.chars

    def test_json_count_peaks_as_text_does(self, monkeypatch):
        # Each weight becomes a decimal string only when the encoder reaches
        # it, so JSON holds no more at once than text, which writes as it goes.
        monkeypatch.setattr(sys, "stdout", Discard())
        argv = ["count", "--p", "1", "--n", "3000", "--format"]
        assert cli.main(argv + ["text"]) == 0  # fills what both runs cache
        peaks = {form: traced_peak(argv + [form]) for form in ("text", "json")}
        assert peaks["json"] < 1.25 * peaks["text"], peaks

    @pytest.mark.parametrize(
        "argv, row, p, n",
        [
            (("count", "--p", "1", "--n", "12000"), strings.weight_row, 1, 12000),
            (("indices", "--p", "2", "--n", "8000", "--cap", "0"),
             sequences.direction_products, 2, 8000),
        ],
        ids=["count", "indices"],
    )
    def test_rows_stream_in_constant_memory(self, argv, row, p, n):
        # Beyond what the same command takes at n = 0, the peak is a small
        # multiple of the longest entry's text; a held row is thousands.
        empty = argv[:4] + ("0",) + argv[5:]
        traced_peak(argv)  # fills the caches and imports what both need
        over = traced_peak(argv) - traced_peak(empty)
        longest = max(map(len, sequences.decimal_text(row, p, n)))
        assert over < 32 * longest, (over, longest)

    def test_refusal_writes_nothing(self, capsys):
        code, out, err = run(capsys, "indices", "--p", "0", "--n", "24")
        assert code == cli.EXIT_CAP == 3
        assert out == "" and err.startswith("error: ")


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

    def test_repeated_call_leaves_no_cyclic_garbage(self, capsys):
        # argparse builds its parser out of reference cycles: once a process.
        argv = ("count", "--p", "1", "--n", "3")
        run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            run(capsys, *argv)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dispatch_follows_a_rebound_command(self, monkeypatch, capsys):
        # The parser outlives the call; the command is looked up at each one.
        run(capsys, "count", "--p", "0", "--n", "0")
        monkeypatch.setattr(cli, "cmd_count", lambda args: 7)
        assert run(capsys, "count", "--p", "0", "--n", "0") == (7, "", "")

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
