"""The benchmark tracer's view of the library, checked without running it.

``perfbench/tracer.py`` wraps library functions by name, counts the
imbalanced pairs from the census rows it sees returned and the bits of the
closed forms' results; a renamed function, a changed row or a polynomial
read the wrong way would otherwise surface only in the benchmark self-test.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from fibpcubes.invariants import imbalance_census, irregularity_oracle
from fibpcubes.polynomials import BivarPoly, dist_cube_poly_closed

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
