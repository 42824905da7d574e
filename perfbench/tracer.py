"""Span tracer for the fibpcubes layers, installed around their public functions.

The package's modules import their callees by name (``from .cubes import
cube_census``), so a wrapper is rebound in every fibpcubes module that
holds the original, not only in the module that defines it.  Leaf helpers
called once per vertex pair or per term (``hamming``, ``is_pvalid``, the
PString and Polynomial methods) stay unwrapped; their time is part of the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterator

# Module -> public function -> the layer metric its self time adds to.
LAYERS: dict[str, dict[str, str]] = {
    "cli": dict.fromkeys(
        ("main", "cmd_count", "cmd_poly", "cmd_verify", "cmd_export", "cmd_indices"),
        "cli.self_s",
    ),
    "verify": dict.fromkeys(
        ("run_suite", "suite_counts", "suite_cubes", "suite_gf", "suite_indices",
         "suite_irregularity"),
        "verify.self_s",
    ),
    "invariants": {
        "wiener_oracle": "invariants.wiener_oracle.s",
        "mostar_oracle": "invariants.mostar_oracle.s",
        "all_pairs_distances": "invariants.mostar_oracle.s",
        "wiener_closed": "invariants.closed.s",
        "mostar_closed": "invariants.closed.s",
        "irregularity_closed": "invariants.closed.s",
        "imbalance_census": "invariants.imbalance.s",
        "irregularity_oracle": "invariants.imbalance.s",
        "right_pairs": "invariants.imbalance.s",
        "left_pairs": "invariants.imbalance.s",
        "project_pair": "invariants.imbalance.s",
        "lift_edge": "invariants.imbalance.s",
    },
    "graph": {
        "bfs_distances": "graph.bfs.s",
        "build": "graph.build.s",
        "direction_edge_count": "graph.build.s",
        "total_edges_closed": "graph.closed.s",
        "direction_edge_count_closed": "graph.closed.s",
    },
    "cubes": {
        "cube_census": "cubes.census.s",
        "enumerate_cubes": "cubes.enumerate.s",
        "count_cubes_at_distance": "cubes.enumerate.s",
    },
    "series": {
        "rational_gf": "series.rational_gf.s",
        "pfib_series": "series.gf_checks.s",
        "gap_denominator": "series.gf_checks.s",
        "verify_weight_gf_expansion": "series.gf_checks.s",
        "verify_cube_count_gf": "series.gf_checks.s",
    },
    "polynomials": dict.fromkeys(
        ("cube_poly_closed", "cube_count_closed", "weight_poly",
         "dist_cube_poly_closed", "dist_cube_count_closed", "substitute"),
        "polynomials.closed.s",
    ),
    "sequences": dict.fromkeys(("pfib", "binomial", "kfold_convolution"), "sequences.s"),
    "strings": {
        "count_by_weight": "strings.weight_census.s",
        "max_weight": "strings.weight_census.s",
        "enumerate_pstrings": "strings.enumerate.s",
    },
}

# Closed forms whose returned ints add to closed.result_bits.
CLOSED_FORMS = frozenset({
    "graph.total_edges_closed", "graph.direction_edge_count_closed",
    "invariants.wiener_closed", "invariants.mostar_closed",
    "invariants.irregularity_closed", "polynomials.cube_poly_closed",
    "polynomials.cube_count_closed", "polynomials.weight_poly",
    "polynomials.dist_cube_poly_closed", "polynomials.dist_cube_count_closed",
    "strings.count_by_weight",
})

# Per-layer metrics and units, in report order.
PER_LAYER: dict[str, str] = {
    "invariants.wiener_oracle.s": "s",
    "invariants.mostar_oracle.s": "s",
    "graph.bfs.s": "s",
    "graph.bfs.sources": "count",
    "invariants.pairs": "count",
    "invariants.mostar_oracle.peak_mb": "MB",
    "cubes.census.s": "s",
    "cubes.enumerate.s": "s",
    "cubes.supports_tried": "count",
    "cubes.found": "count",
    "cubes.hit_ratio": "ratio",
    "series.rational_gf.s": "s",
    "series.gf_checks.s": "s",
    "series.terms": "count",
    "strings.weight_census.s": "s",
    "strings.weight_census.calls": "count",
    "polynomials.closed.s": "s",
    "invariants.closed.s": "s",
    "graph.closed.s": "s",
    "sequences.s": "s",
    "closed.result_bits": "bits",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "invariants.imbalance.s": "s",
    "invariants.imbalance.pairs": "count",
    "graph.build.s": "s",
    "graph.vertices": "count",
    "graph.edges": "count",
    "strings.enumerate.s": "s",
    "strings.enumerated": "count",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.failed": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
SELF_TIME_METRICS = sorted({m for funcs in LAYERS.values() for m in funcs.values()})


def _bits(value: Any) -> int:
    if isinstance(value, int):
        return abs(value).bit_length()
    if hasattr(value, "coeffs"):  # Polynomial
        return sum(abs(c).bit_length() for c in value.coeffs)
    return sum(abs(c).bit_length() for *_, c in value.terms)  # BivarPoly


def _series_terms(counts: Counter, args: tuple, result: Any) -> None:
    counts["series.terms"] += len(result.coeffs)


def _oracle_pairs(counts: Counter, args: tuple, result: Any) -> None:
    counts["invariants.pairs"] += args[0].vertex_count ** 2


# Work counters, read from a function's arguments and result.
COUNTERS: dict[str, Callable[[Counter, tuple, Any], None]] = {
    "graph.bfs_distances": lambda c, a, r: c.update(("graph.bfs.sources",)),
    "graph.build": lambda c, a, r: c.update(
        {"graph.vertices": r.vertex_count, "graph.edges": r.edge_count}
    ),
    "strings.enumerate_pstrings": lambda c, a, r: c.update({"strings.enumerated": len(r)}),
    "strings.count_by_weight": lambda c, a, r: c.update(("strings.weight_census.calls",)),
    "invariants.wiener_oracle": _oracle_pairs,
    "invariants.mostar_oracle": _oracle_pairs,
    "invariants.imbalance_census": lambda c, a, r: c.update(
        {"invariants.imbalance.pairs": sum(len(rec.pairs) for rec in r)}
    ),
    "cubes.cube_census": lambda c, a, r: c.update({
        "cubes.supports_tried": sum(1 << v.weight for v in a[0].vertices),
        "cubes.found": sum(r.values()),
    }),
    "cubes.enumerate_cubes": lambda c, a, r: c.update({
        "cubes.supports_tried": sum(math.comb(v.weight, a[1]) for v in a[0].vertices),
        "cubes.found": len(r),
    }),
    "series.rational_gf": _series_terms,
    "series.pfib_series": _series_terms,
    "series.gap_denominator": _series_terms,
    "verify.run_suite": lambda c, a, r: c.update({
        "verify.checks": len(r),
        "verify.failed": sum(not res.passed for res in r),
    }),
}


class Tracer:
    """Spans and work counts of one traced pass; spans stay in memory.

    Span fields live in flat arrays, so recording a span allocates no
    object that the cyclic garbage collector would have to scan.
    """

    def __init__(self) -> None:
        self.names: list[str] = []  # function name of each name id
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")  # span index, or -1 for a root span
        self.ops = array("l")  # index of the op the span belongs to
        self.counts: Counter = Counter()
        self.mostar_graphs: list[tuple[int, int, int]] = []  # (|V|, p, n)
        self.op = 0
        self._stack = [-1]
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops, stack, counts = self.parents, self.ops, self._stack, self.counts
        counter = COUNTERS.get(name)
        closed = name in CLOSED_FORMS
        mostar = name == "invariants.mostar_oracle"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            if closed:
                counts["closed.result_bits"] += _bits(result)
            if mostar:
                g = args[0]
                self.mostar_graphs.append((g.vertex_count, g.p, g.n))
            return result

        return traced

    def install(self) -> None:
        """Rebind a wrapper for each layer function in every fibpcubes module."""
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(f"fibpcubes.{module_name}")
            for fname in functions:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{fname}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "fibpcubes" and not module_name.startswith("fibpcubes."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def spans(self) -> Iterator[tuple[str, float, float, int, int]]:
        """(function, start, end, parent span index, op index) per span."""
        names = self.names
        for name_id, start, end, parent, op in zip(
            self.name_ids, self.starts, self.ends, self.parents, self.ops
        ):
            yield names[name_id], start, end, parent, op

    def wall(self) -> float:
        """Summed duration of the root spans, the calls to cli.main."""
        return sum(end - start for _, start, end, parent, _ in self.spans() if parent < 0)

    def self_times(self) -> dict[str, float]:
        """Each layer's span time minus the part its child spans cover."""
        layer_of = {
            f"{module}.{fname}": metric
            for module, functions in LAYERS.items()
            for fname, metric in functions.items()
        }
        covered = [0.0] * len(self.starts)
        for _, start, end, parent, _ in self.spans():
            if parent >= 0:
                covered[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for (name, start, end, _, _), child in zip(self.spans(), covered):
            totals[layer_of[name]] += end - start - child
        return totals
