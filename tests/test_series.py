import gc
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibpcubes.errors import SizeLimitError
from fibpcubes.polynomials import (
    MARKERS,
    BivarPoly,
    Polynomial,
    cube_count_closed,
    cube_poly_closed,
    dist_cube_poly_closed,
    weight_poly,
)
from fibpcubes.sequences import pfib
from fibpcubes.series import (
    SERIES_LIMIT,
    expand,
    gap_denominator,
    gf_terms,
    pfib_series,
    rational_gf,
    verify_cube_count_gf,
    verify_weight_gf_expansion,
)
from fibpcubes.verify import run_suite


def series(num, den, order):
    return list(expand(num, den, order))


unit_dens = st.lists(st.integers(-9, 9), max_size=6).map(lambda v: [1] + v)


class TestArithmetic:
    def test_numerator_pads_and_truncates(self):
        assert series([1, 2], [1], 4) == [1, 2, 0, 0, 0]
        assert series([1, 2, 3, 4], [1], 1) == [1, 2]

    @given(st.lists(st.integers(-9, 9), max_size=7), unit_dens, st.integers(0, 12))
    def test_denominator_times_expansion_is_numerator(self, num, den, order):
        a = series(num, den, order)
        assert len(a) == order + 1
        for n in range(order + 1):
            product = sum(d * a[n - i] for i, d in enumerate(den[: n + 1]))
            assert product == (num[n] if n < len(num) else 0)


class TestInverse:
    def test_geometric(self):
        assert series([1], [1, -1], 3) == [1, 1, 1, 1]

    def test_two_term_recurrence(self):
        assert series([1], [1, -1, -1], 6) == [1, 1, 2, 3, 5, 8, 13]

    def test_requires_unit_constant(self):
        for den in ([2, 1], [0, 1], [Polynomial.from_coeffs([1, 1])]):
            with pytest.raises(ValueError):
                next(expand([1], den, 3))

    @given(unit_dens)
    def test_involution(self, den):
        padded = den + [0] * (6 - len(den) + 1)
        assert series([1], series([1], den, 6), 6) == padded


class TestSequenceSeries:
    def test_defining_identity(self):
        # sum F_n t^n = t / (1 - t - t^{p+1})
        for p in range(5):
            den = gap_denominator(1, p).coeffs
            assert series([0, 1], den, 30) == list(pfib_series(p, 30).coeffs)

    def test_coefficients(self):
        s = pfib_series(2, 10)
        assert list(s.coeffs[:7]) == [pfib(2, i) for i in range(7)]


class TestRationalGF:
    def test_cube_coefficient(self):
        assert rational_gf(1, "cube", 3).coeffs[3] == cube_poly_closed(1, 3)

    def test_weight_coefficient(self):
        assert rational_gf(2, "weight", 4).coeffs[4] == weight_poly(2, 4)

    def test_constant_term_is_one(self):
        for kind, ring_one in (
            ("cube", Polynomial.one()),
            ("weight", Polynomial.one()),
        ):
            for p in range(4):
                assert next(gf_terms(p, kind, 6)) == ring_one
        assert next(gf_terms(2, "distance", 6)) == BivarPoly.one()

    def test_ring_is_the_coefficient_type(self):
        for p in range(4):
            for kind, marker in MARKERS.items():
                types = {type(c) for c in rational_gf(p, kind, 12).coeffs}
                assert types == {type(marker)}
            for marker in (1, *MARKERS.values()):
                den = gap_denominator(marker, p).coeffs
                assert len(den) == p + 2
                assert {type(c) for c in den} == {type(marker)}
            assert {type(c) for c in pfib_series(p, 12).coeffs} == {int}

    def test_matches_closed_polynomials(self):
        closed = {
            "cube": cube_poly_closed,
            "weight": weight_poly,
            "distance": dist_cube_poly_closed,
        }
        for p in range(4):
            for kind, poly in closed.items():
                terms = list(gf_terms(p, kind, 12))
                assert terms == [poly(p, n) for n in range(13)]
                assert rational_gf(p, kind, 12).coeffs == tuple(terms)

    def test_unknown_kind(self):
        # refused when the stream is asked for, before its first term
        for make in (gf_terms, rational_gf):
            with pytest.raises(ValueError):
                make(1, "nope", 5)
            with pytest.raises(ValueError):
                make(-1, "cube", 5)


class TestIdentityChecks:
    def test_weight_gf_expansion(self):
        for p in range(5):
            assert verify_weight_gf_expansion(p, 25)

    def test_weight_gf_expansion_degenerate_case(self):
        # p = 0 collapses to the geometric series in (1 + y) t
        assert verify_weight_gf_expansion(0, 10)
        one_plus_y = Polynomial.from_coeffs([1, 1])
        assert list(gf_terms(0, "weight", 8)) == [one_plus_y**n for n in range(9)]

    def test_cube_count_gf(self):
        assert verify_cube_count_gf(1, 1, 12)
        assert verify_cube_count_gf(2, 1, 12)
        assert verify_cube_count_gf(1, 0, 12)
        for p in range(4):
            for k in range(4):
                assert verify_cube_count_gf(p, k, 12)

    def test_cube_count_gf_known_coefficient(self):
        # the dimension-1 series t / Q^2, Q = 1 - t - t^2, counts edges:
        # 5 of them at (p, n) = (1, 3), so [t^2] 1/Q^2 = 5
        q = Polynomial.from_coeffs(gap_denominator(1, 1).coeffs)
        assert series([1], (q**2).coeffs, 12)[3 - 1] == 5

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            verify_cube_count_gf(1, -1, 5)

    def test_rejects_negative_p(self):
        with pytest.raises(ValueError):
            gap_denominator(1, -1)
        for k in range(3):
            with pytest.raises(ValueError):
                verify_cube_count_gf(-1, k, 5)
        with pytest.raises(ValueError):
            verify_weight_gf_expansion(-1, 5)

    def test_refuses_p_beyond_the_series_limit(self):
        # before the p + 2 denominator terms are made
        p = SERIES_LIMIT + 1
        for check in (
            lambda: gap_denominator(1, p),
            lambda: gf_terms(p, "distance", 5),
            lambda: verify_weight_gf_expansion(p, 5),
            lambda: verify_cube_count_gf(p, 2, 5),
            lambda: run_suite("gf", [p], range(1), order=5),
        ):
            with pytest.raises(SizeLimitError, match=f"p = {p} exceeds"):
                check()


def traced_peak(check, *args):
    gc.collect()
    tracemalloc.start()
    try:
        assert check(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def held_bytes(make):
    """The traced size of what make() returns, while it is held."""
    tracemalloc.start()
    try:
        value = make()  # noqa: F841 (held while measured)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "check, args, largest",
    [  # each with its t^n coefficient
        (verify_weight_gf_expansion, (0,), lambda n: weight_poly(0, n)),
        (verify_cube_count_gf, (0, 3), lambda n: cube_count_closed(0, n, 3)),
    ],
    ids=["weight-split", "cube-count"],
)
def test_checks_hold_a_window_not_the_series(check, args, largest):
    # From order N/2 to N a stored series gains N/2 coefficients, most of
    # them over half the size of the t^N one: over N/4 such sizes.  The
    # bound is half that; a window of O(p) terms grows by a few of them.
    order = 256
    grown = traced_peak(check, *args, order) - traced_peak(check, *args, order // 2)
    assert grown < order // 8 * held_bytes(lambda: largest(order)), grown


def test_gf_suite_streams_its_series():
    # Stored, the distance series at p = 0 holds about N^3/6 big ints, and
    # the suite's peak grows about 7 times from order 48 to 96 (9.5 times
    # from 128 to 256).  Each coefficient is dropped once it is checked, so
    # only the closed forms at one n and a window of terms are held: about
    # 3 times (4 times from 128 to 256, where the test would take 26 s).
    def suite(order):
        return all(r.passed for r in run_suite("gf", [0], range(1), order=order))

    assert traced_peak(suite, 96) < 5 * traced_peak(suite, 48)
