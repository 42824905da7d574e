#!/usr/bin/env python3
"""Self-test of the benchmark; exits non-zero when an assertion fails.

    python3 perfbench/selftest.py

Runs the tiny smoke workload untraced and traced and checks that:
- every metric BENCHMARK.json names is emitted, with its unit;
- the smoke op with a deliberately wrong expectation counts as failed,
  which proves the output checks can fail;
- the benchmark refuses to run, without printing a result, in a directory
  that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_OPS = 7  # one of them carries the wrong expectation


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_smoke(trace: int, declared: list[dict]) -> None:
    proc = run(ROOT, "--workload", "smoke", "--seed", "0", "--seconds", "1",
               "--trace", str(trace))
    expect(proc.returncode == 0, f"trace {trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"result keys {sorted(result)}")
    units = {m["name"]: m["unit"] for m in declared}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(emitted == units, f"trace {trace} metrics {emitted} != declared {units}")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
           "a metric value is not a number")
    expect(result["attempted"] == SMOKE_OPS and result["failed"] == 1,
           f"expected 1/{SMOKE_OPS} failed, got {result['failed']}/{result['attempted']}")
    expect(result["correct"] is False, "a failed op must make the run incorrect")
    if trace == 0:
        expect(f"ops_failed_frac=1/{SMOKE_OPS}" in proc.stdout, "ops_failed_frac not printed")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "oracle_grid", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
        expect(proc.returncode != 0, "run succeeded without the program's sources")
        expect('"correct"' not in proc.stdout, "a result was printed without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_smoke(0, declared["end_to_end"])
    check_smoke(1, declared["per_layer"])
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
