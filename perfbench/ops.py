"""Workloads, their CLI ops, and the checks that judge each op's output.

A check derives every expected value here, from the defining recurrences
F(m) = F(m-1) + F(m-p-1) and |E(m)| = |E(m-1)| + |E(m-p-1)| + F(m), and
never imports the program under test.  It returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

# Checks each verify suite reports per value of p; `all` adds the seven
# checks of the counts suite.
CHECKS_PER_P = {"cubes": 3, "gf": 1, "indices": 3, "irregularity": 5}
COUNTS_CHECKS_PER_P = 7

JITTER = 0.05  # closed_large_n draws each op's n from +-5% of its nominal n


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    group: str = ""  # ops drawn around one nominal size share a group

    def __post_init__(self) -> None:
        if not self.group:
            object.__setattr__(self, "group", self.label)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def pfib_upto(p: int, m: int) -> list[int]:
    """F(0..m): F(0) = 0, F(1..p+1) = 1, then F(k) = F(k-1) + F(k-p-1)."""
    values = [0] + [1] * (p + 1)
    while len(values) <= m:
        values.append(values[-1] + values[-p - 1])
    return values[: m + 1]


def edges_upto(p: int, m: int, fib: list[int]) -> list[int]:
    """|E(0..m)|: |E(k)| = k for k <= p, then the edge recurrence."""
    edges = list(range(min(m, p) + 1))
    for k in range(p + 1, m + 1):
        edges.append(edges[k - 1] + edges[k - p - 1] + fib[k])
    return edges


def _span(lo_hi: tuple[int, int]) -> str:
    lo, hi = lo_hi
    return str(lo) if lo == hi else f"{lo}..{hi}"


def verify_op(
    suite: str,
    p: tuple[int, int],
    n: Optional[tuple[int, int]] = None,
    order: Optional[int] = None,
    expected_checks: Optional[int] = None,
) -> Op:
    """A verify op; every line must PASS and the count must be exact."""
    argv = ("verify", suite, "--p", _span(p))
    if n is not None:
        argv += ("--n", _span(n))
    if order is not None:
        argv += ("--N", str(order))
    if expected_checks is None:
        per_p = (
            sum(CHECKS_PER_P.values()) + COUNTS_CHECKS_PER_P
            if suite == "all"
            else CHECKS_PER_P[suite]
        )
        expected_checks = per_p * (p[1] - p[0] + 1)
    checks = expected_checks

    def check(out: str) -> list[str]:
        lines = out.splitlines()
        problems = [f"not PASS: {line}" for line in lines[:-1] if not line.startswith("PASS ")]
        if len(lines) - 1 != checks:
            problems.append(f"{len(lines) - 1} check lines, expected {checks}")
        if not lines or lines[-1] != f"{checks}/{checks} checks passed":
            problems.append(f"summary line {lines[-1] if lines else ''!r}")
        return problems

    return Op(argv, check)


def count_op(p: int, n: int) -> Op:
    """Vertices and edges from the recurrences; the census sums to |V|."""

    def check(out: str) -> list[str]:
        fib = pfib_upto(p, n + p + 1)
        fields = dict(item.split("=", 1) for item in out.split())
        top = (n + p) // (p + 1)
        expected = {
            "p": p,
            "n": n,
            "vertices": fib[n + p + 1],
            "edges": edges_upto(p, n, fib)[n],
            "max_weight": top,
        }
        problems = [
            f"{key} differs from the recurrence"
            for key, value in expected.items()
            if fields.get(key) != str(value)
        ]
        weights = [int(w) for w in fields["weights"].split(",")]
        if len(weights) != top + 1:
            problems.append(f"{len(weights)} weight classes, expected {top + 1}")
        if sum(weights) != fib[n + p + 1]:
            problems.append("weight census does not sum to the vertex count")
        return problems

    return Op(("count", "--p", str(p), "--n", str(n)), check)


def indices_op(p: int, n: int, cap: int = 0) -> Op:
    """Sum of direction counts = |E| and W - Mo = sum of their squares."""

    def check(out: str) -> list[str]:
        doc = json.loads(out)
        fib = pfib_upto(p, n + p + 1)
        edges = edges_upto(p, n, fib)
        problems = []
        if int(doc["vertices"]) != fib[n + p + 1]:
            problems.append("vertices differ from the recurrence")
        if int(doc["edges"]) != edges[n]:
            problems.append("edges differ from the recurrence")
        dirs = [int(c) for c in doc["edge_counts_by_direction"]["closed"]]
        if len(dirs) != n or sum(dirs) != edges[n]:
            problems.append("per-direction edge counts do not sum to |E|")
        wiener = int(doc["wiener"]["closed"])
        mostar = int(doc["mostar"]["closed"])
        if wiener - mostar != sum(c * c for c in dirs):
            problems.append("W - Mo differs from the sum of squared |E_i|")
        irr = doc["irregularity"]["closed"]
        if n >= p and int(irr) != 2 * sum(edges[n - d] for d in range(1, p + 1)):
            problems.append("irregularity differs from 2 * sum of |E(n-d)|")
        if n <= cap:
            for key in ("wiener", "mostar", "irregularity", "edge_counts_by_direction"):
                if doc[key]["closed"] is not None and doc[key]["oracle"] != doc[key]["closed"]:
                    problems.append(f"{key}: oracle differs from closed form")
        return problems

    return Op(("indices", "--p", str(p), "--n", str(n), "--cap", str(cap)), check)


def parse_poly(text: str) -> dict[int, int]:
    """Coefficients of an ascending render such as ``5 + 5*x + x^2``."""
    coeffs: dict[int, int] = {}
    for term in text.strip().split(" + "):
        if "x" not in term:
            coeffs[0] = int(term)
            continue
        c, _, mono = term.rpartition("*")
        if mono == "x":
            k = 1
        elif mono.startswith("x^"):
            k = int(mono[2:])
        else:
            raise ValueError(f"unexpected term {term!r}")
        coeffs[k] = int(c) if c else 1
    return coeffs


def poly_cube_op(p: int, n: int) -> Op:
    """C(0) = |V|, [x]C = |E|, C(-1) = 1; at p = 0, C = (x + 2)^n."""

    def check(out: str) -> list[str]:
        coeffs = parse_poly(out)
        fib = pfib_upto(p, n + p + 1)
        problems = []
        if coeffs.get(0) != fib[n + p + 1]:
            problems.append("C(0) differs from |V|")
        if coeffs.get(1, 0) != edges_upto(p, n, fib)[n]:
            problems.append("[x]C differs from |E|")
        if max(coeffs) != (n + p) // (p + 1):
            problems.append("degree differs from the largest weight")
        if sum(c if k % 2 == 0 else -c for k, c in coeffs.items()) != 1:
            problems.append("C(-1) != 1")
        if p == 0 and any(
            coeffs.get(k, 0) != math.comb(n, k) << (n - k) for k in range(n + 1)
        ):
            problems.append("C differs from (x + 2)^n")
        return problems

    return Op(("poly", "cube", "--p", str(p), "--n", str(n)), check)


def setup_op() -> Op:
    """The cheapest CLI call; its wall time is the set-up cost."""
    return count_op(0, 0)


# closed_large_n: (op maker, p, nominal n).
CLOSED_LARGE_N = ((count_op, 1, 8000), (indices_op, 2, 8000), (poly_cube_op, 0, 800))


def _closed_large_n(seed: int) -> list[Op]:
    # Each op runs as an antithetic pair n(1 - d), n(1 + d), so the inputs
    # change with the seed while the workload's total work hardly does.
    rng = random.Random(seed)
    ops = []
    for make, p, nominal in CLOSED_LARGE_N:
        delta = rng.uniform(0.0, JITTER)
        for sign in (-1, 1):
            op = make(p, round(nominal * (1 + sign * delta)))
            ops.append(replace(op, group=f"{op.argv[0]} p={p} n~{nominal}"))
    return ops


def _smoke(seed: int) -> list[Op]:
    return [
        verify_op("all", (0, 1), (0, 5)),
        verify_op("gf", (0, 1), order=6),
        count_op(1, 30),
        indices_op(1, 6, cap=6),
        poly_cube_op(0, 7),
        poly_cube_op(2, 12),
        # Deliberately wrong expectation: the suite reports one check.
        verify_op("gf", (0, 0), order=4, expected_checks=2),
    ]


# Workloads the benchmark file lists, then two that it runs only on
# request: the self-test's smoke run and the digit-limit defect probe.
WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "oracle_grid": lambda seed: [verify_op("all", (0, 4), (0, 10))],
    "census_series": lambda seed: [
        verify_op("cubes", (1, 2), (0, 18)),
        verify_op("gf", (0, 4), order=60),
    ],
    "closed_large_n": _closed_large_n,
    "smoke": _smoke,
    "digit_limit_probe": lambda seed: [indices_op(0, 7200)],
}
