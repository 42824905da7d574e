#!/usr/bin/env python3
"""Benchmark of the fibpcubes CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With --trace 0 each op runs as
`python -m fibpcubes ...` in a fresh child process, one at a time from this
process (a closed loop with one client), and every output is checked.  The
ops are repeated in passes for --seconds seconds (two passes at least);
timings are medians over passes.  With --trace 1 the same ops run in this
process through fibpcubes.cli.main: after a warm-up pass, two passes in
which every layer's public functions are wrapped in spans alternate with
two untraced passes, then a tracemalloc pass runs mostar_oracle on the
largest graph it saw.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  attempted and failed count distinct ops;
an op fails when any of its runs exits non-zero, fails its output check,
or prints other bytes than its first run.  Per-run records and the spans
go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean

import ops as workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PER_PASS = 4  # fresh `count --p 0 --n 0` calls before each pass
MIN_PASSES = 2
TRACED_PASSES = 2
DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass
class Run:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: bytes
    err: str


@dataclass
class OpRecord:
    op: workloads.Op
    runs: list[Run] = field(default_factory=list)
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    def add(self, run: Run) -> None:
        """Judge one run: exit code, output check on the first, bytes on repeats."""
        self.runs.append(run)
        if run.code != 0:
            self.problems.append(f"exit {run.code}: {run.err.strip()[-300:]}")
            return
        digest = hashlib.sha256(run.out).hexdigest()
        if not self.digest:
            self.digest = digest
            self.problems.extend(check_output(self.op, run.out))
        elif digest != self.digest:
            self.problems.append("stdout differs from the first run")


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int/str digit limit for this process's own parsing only."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    if getter is None:
        yield
        return
    saved = getter()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def check_output(op: workloads.Op, out: bytes) -> list[str]:
    with unlimited_int_digits():
        try:
            return op.check(out.decode("utf-8"))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unparseable output: {exc!r}"]


class Launcher:
    """Starts each CLI call through launch.py, one at a time; a context manager."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        # A session of its own, so that one signal ends it and its children.
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.proc.stdin.close()
        try:
            if exc_type is None:
                self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: tuple[str, ...], timeout: float) -> Run:
        """One CLI call in a fresh interpreter; usage is read from os.wait4."""
        out_path, err_path = OUT / "op.stdout", OUT / "op.stderr"
        request = {
            "argv": [sys.executable, "-m", "fibpcubes", *argv],
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended early")
        reply = json.loads(line)
        return Run(
            reply["wall"], reply["cpu"], reply["rss_mb"], reply["code"],
            out_path.read_bytes(), err_path.read_text(encoding="utf-8", errors="replace"),
        )


def run_in_process(cli, sequences, argv: tuple[str, ...]) -> Run:
    """One call of cli.main with cold sequence tables, as in a fresh process."""
    sequences._tables.clear()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # report the op as failed, keep the run going
            code, err = -1, io.StringIO(repr(exc))
    wall = time.perf_counter() - start
    return Run(wall, 0.0, 0.0, code, out.getvalue().encode("utf-8"), err.getvalue())


def peak_rss_mb(records: list[OpRecord], index: int) -> float:
    """Largest child peak RSS of one pass; a group of ops counts as its mean."""
    groups: dict[str, list[float]] = {}
    for record in records:
        groups.setdefault(record.op.group, []).append(record.runs[index].rss_mb)
    return max(statistics.fmean(values) for values in groups.values())


def end_to_end(ops: list[workloads.Op], seconds: float) -> tuple[dict, list[OpRecord], list[str]]:
    deadline = time.perf_counter() + DEADLINE_S
    setup = OpRecord(workloads.setup_op())
    records = [OpRecord(op) for op in ops]
    passes = 0
    with Launcher() as launcher:

        def call(record: OpRecord) -> None:
            record.add(launcher.run(record.op.argv, deadline - time.perf_counter()))

        call(setup)  # warm-up: the first call in a checkout writes bytecode caches
        start = time.perf_counter()
        last = 0.0
        while passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            # Set-up probes sit between passes, so they see the same machine.
            for _ in range(SETUP_PER_PASS):
                call(setup)
            for record in records:
                call(record)
            passes += 1
            last = time.perf_counter() - began
            if time.perf_counter() + last > deadline:
                break
    problems = [f"setup: {problem}" for problem in setup.problems]
    if passes < MIN_PASSES:
        problems.append(f"only {passes} pass fitted in {DEADLINE_S:.0f} s")
    per_pass = [[r.runs[i] for r in records] for i in range(passes)]
    metrics = {
        "wall_s": statistics.median(sum(run.wall for run in p) for p in per_pass),
        "cpu_s": statistics.median(sum(run.cpu for run in p) for p in per_pass),
        "peak_rss_mb": statistics.median(peak_rss_mb(records, i) for i in range(passes)),
        "setup_s": statistics.median(run.wall for run in setup.runs[1:]),
    }
    return metrics, records, problems


def traced(ops: list[workloads.Op]) -> tuple[dict, list[OpRecord], list[str], list[Tracer]]:
    sys.path.insert(0, str(SRC))
    from fibpcubes import cli, graph, invariants, sequences

    records = [OpRecord(op) for op in ops]

    def untraced_pass() -> float:
        wall = 0.0
        for record in records:
            run = run_in_process(cli, sequences, record.op.argv)
            record.add(run)
            wall += run.wall
        return wall

    # A warm-up pass first: later passes reuse the allocator's arenas and
    # the specialized bytecode.  Then traced and untraced passes alternate,
    # so a drift in machine speed reaches both sides of the overhead alike.
    untraced_pass()
    untraced_walls = []
    tracers = []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        tracer.install()
        try:
            for index, record in enumerate(records):
                tracer.op = index
                run = run_in_process(cli, sequences, record.op.argv)
                record.add(run)
                tracer.counts["cli.output_bytes"] += len(run.out)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        untraced_walls.append(untraced_pass())

    problems = []
    first = tracers[0].counts
    for tracer in tracers[1:]:
        if tracer.counts != first:
            diff = sorted(k for k in first.keys() | tracer.counts.keys()
                          if first[k] != tracer.counts[k])
            problems.append(f"work counts differ between traced passes: {diff}")

    peak_mb = 0.0
    if tracers[0].mostar_graphs:
        _, p, n = max(tracers[0].mostar_graphs)
        g = graph.build(p, n, cap=n)
        tracemalloc.start()
        try:
            invariants.mostar_oracle(g)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    selfs = [tracer.self_times() for tracer in tracers]
    metrics: dict[str, float] = {
        name: statistics.median(s[name] for s in selfs) for name in selfs[0]
    }
    metrics.update({name: first[name] for name in PER_LAYER if name not in metrics})
    tried = first["cubes.supports_tried"]
    metrics["cubes.hit_ratio"] = first["cubes.found"] / tried if tried else 0.0
    metrics["invariants.mostar_oracle.peak_mb"] = peak_mb
    metrics["trace.wall_s"] = statistics.median(tracer.wall() for tracer in tracers)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_walls)
    return metrics, records, problems, tracers


def write_spans(path: Path, workload: str, tracers: list[Tracer]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write("pass\top\tname\tstart\tend\tparent\tworkload\n")
        for number, tracer in enumerate(tracers):
            for name, start, end, parent, op in tracer.spans():
                handle.write(f"{number}\t{op}\t{name}\t{start!r}\t{end!r}\t{parent}\t{workload}\n")


# Layer groups whose share of the traced wall time each workload is built on.
SHARE_GROUPS = {
    "distance oracles": ("invariants.wiener_oracle.s", "invariants.mostar_oracle.s", "graph.bfs.s"),
    "cube census + series": ("cubes.census.s", "cubes.enumerate.s", "series.rational_gf.s",
                             "series.gf_checks.s"),
    "closed forms + cli": ("strings.weight_census.s", "polynomials.closed.s", "invariants.closed.s",
                           "graph.closed.s", "sequences.s", "cli.self_s"),
}


def print_layer_shares(metrics: dict) -> None:
    wall = metrics["trace.wall_s"]
    shares = sorted(
        ((metrics[name], name) for name, unit in PER_LAYER.items()
         if unit == "s" and not name.startswith("trace.")),
        reverse=True,
    )
    accounted = sum(value for value, _ in shares)
    print(f"traced wall {wall:.3f} s = sum of layer self times {accounted:.3f} s; "
          f"tracing overhead {metrics['trace.overhead_s']:.3f} s")
    for value, name in shares:
        if value > 0.005 * wall:
            print(f"  {name:32} {value:9.3f} s  {100 * value / wall:5.1f}%")
    for group, names in SHARE_GROUPS.items():
        print(f"  share of {group}: {100 * sum(metrics[n] for n in names) / wall:.1f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fibpcubes" / "__init__.py").is_file():
        print(f"error: no fibpcubes sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {tag}: {len(ops)} ops")

    if args.trace:
        metrics, records, problems, tracers = traced(ops)
        units = PER_LAYER
        write_spans(OUT / f"spans-{tag}.tsv", args.workload, tracers)
    else:
        metrics, records, problems = end_to_end(ops, args.seconds)
        units = END_TO_END

    failed = [r for r in records if r.problems]
    for r in records:
        walls = [run.wall for run in r.runs]
        status = "FAIL " + "; ".join(r.problems) if r.problems else "ok"
        print(f"  {r.op.label}: {len(walls)} runs, median {statistics.median(walls):.3f} s, {status}")
    for problem in problems:
        print(f"  problem: {problem}")
    if args.trace:
        print_layer_shares(metrics)
    else:
        print(f"{args.workload} seed={args.seed}: " + " ".join(
            f"{name}={metrics[name]:.4f} {unit}" for name, unit in END_TO_END.items()
        ) + f" ops_failed_frac={len(failed)}/{len(records)}")

    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, problems=problems,
                  ops=[{"argv": r.op.label, "walls": [run.wall for run in r.runs],
                        "cpus": [run.cpu for run in r.runs],
                        "rss_mb": [run.rss_mb for run in r.runs],
                        "problems": r.problems} for r in records])
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
