"""The benchmark tracer's view of the library, checked without running it.

``perfbench/tracer.py`` wraps library functions by name, and counts work
from the arguments and results it sees: the imbalanced pairs of the census
rows, the bits of the closed forms' results, the coefficients of a series,
the supports and cubes of a cube census, and the checks that passed.  A
renamed function or field, a changed row or a polynomial read the wrong way
would otherwise surface only in the benchmark self-test.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from fibpcubes import series, verify
from fibpcubes.cubes import cube_census
from fibpcubes.invariants import imbalance_census, irregularity_oracle
from fibpcubes.polynomials import (
    MARKERS,
    BivarPoly,
    cube_poly_closed,
    dist_cube_poly_closed,
)
from fibpcubes.strings import weight_census
from fibpcubes.verify import CheckResult

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_name_resolves(tracer):
    for module_name, functions in tracer.LAYERS.items():
        module = importlib.import_module(f"fibpcubes.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


@pytest.mark.parametrize("p, n", [(0, 5), (1, 8), (2, 9), (3, 10)])
def test_traced_pair_count_is_the_irregularity(built, tracer, p, n):
    g = built(p, n)
    counts = Counter()
    tracer.COUNTERS["invariants.imbalance_census"](counts, (g,), imbalance_census(g))
    assert counts["invariants.imbalance.pairs"] == irregularity_oracle(g)


@pytest.mark.parametrize("p, n", [(0, 0), (0, 12), (1, 20), (3, 30)])
def test_result_bits_of_the_distance_polynomial(tracer, p, n):
    # The tracer takes anything with ``coeffs`` for a univariate polynomial.
    assert not hasattr(BivarPoly, "coeffs")
    poly = dist_cube_poly_closed(p, n)
    assert not hasattr(poly, "coeffs")
    bits = sum(abs(c).bit_length() for *_, c in poly.terms)
    assert tracer._bits(poly) == bits > 0


@pytest.mark.parametrize("p, n", [(0, 0), (0, 12), (1, 20), (3, 30)])
def test_result_bits_of_the_cube_polynomial(tracer, p, n):
    poly = cube_poly_closed(p, n)
    assert tracer._bits(poly) == sum(abs(c).bit_length() for c in poly.coeffs) > 0


@pytest.mark.parametrize("kind", list(MARKERS))
@pytest.mark.parametrize("p, order", [(0, 0), (1, 7), (3, 12)])
def test_traced_series_terms_are_the_coefficients(tracer, p, order, kind):
    calls = [
        ("rational_gf", (p, kind, order), order + 1),
        ("pfib_series", (p, order), order + 1),
        ("gap_denominator", (MARKERS[kind], p), p + 2),
    ]
    for name, args, terms in calls:
        counts = Counter()
        tracer.COUNTERS[f"series.{name}"](counts, args, getattr(series, name)(*args))
        assert counts == {"series.terms": terms}, name


@pytest.mark.parametrize("p, n", [(0, 0), (0, 6), (1, 9), (2, 12)])
def test_traced_census_counts_supports_and_cubes(built, tracer, p, n):
    g = built(p, n)
    counts = Counter()
    tracer.COUNTERS["cubes.cube_census"](counts, (g,), cube_census(g))
    supports = sum(count << a for a, count in enumerate(weight_census(p, n)))
    cubes = cube_poly_closed(p, n)(1)  # C(1) counts every induced cube
    assert counts == {"cubes.supports_tried": supports, "cubes.found": cubes}


def test_traced_checks_read_passed(tracer):
    results = verify.run_suite("counts", [1], range(5))
    failed = [CheckResult("demo/identity p=1", False, "p=1 n=2: expected 3, got 4")]
    for checked, fails in ((results, 0), (results + failed, 1)):
        counts = Counter()
        tracer.COUNTERS["verify.run_suite"](counts, ("counts", [1], range(5)), checked)
        assert counts == {"verify.checks": len(checked), "verify.failed": fails}
