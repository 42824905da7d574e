import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibpcubes.polynomials import (
    MARKERS,
    BivarPoly,
    Polynomial,
    cube_poly_closed,
    dist_cube_poly_closed,
    weight_poly,
)
from fibpcubes.sequences import pfib
from fibpcubes.series import (
    TruncatedSeries,
    gap_denominator,
    pfib_series,
    rational_gf,
    verify_cube_count_gf,
    verify_weight_gf_expansion,
)

int_series = st.lists(st.integers(-9, 9), max_size=7).map(
    lambda v: TruncatedSeries.from_coeffs(int, v, 6)
)
unit_series = st.lists(st.integers(-9, 9), max_size=6).map(
    lambda v: TruncatedSeries.from_coeffs(int, [1] + v, 6)
)


def ints(values, order):
    return TruncatedSeries.from_coeffs(int, values, order)


class TestArithmetic:
    def test_from_coeffs_pads_and_truncates(self):
        s = ints([1, 2], 4)
        assert s.coeffs == (1, 2, 0, 0, 0)
        assert ints([1, 2, 3, 4], 1).coeffs == (1, 2)
        assert s.order == 4

    def test_add_mul(self):
        a = ints([1, 1], 2)
        b = ints([1, -1], 2)
        assert a * b == ints([1, 0, -1], 2)

    def test_mul_truncates(self):
        a = ints([0, 1], 2)
        assert (a * a * a) == ints([], 2)  # t^3 falls off the order

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ints([1], 3) * ints([1], 4)
        with pytest.raises(ValueError):
            ints([1], 4) * ints([1], 3)

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ints([1], 3) * TruncatedSeries.from_coeffs(
                Polynomial, [Polynomial.one()], 3
            )

    def test_coeff_bounds(self):
        with pytest.raises(ValueError):
            ints([1], 3).coeff(4)

    @given(int_series, int_series)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(int_series, int_series, int_series)
    def test_mul_associates_and_distributes(self, a, b, c):
        assert (a * b) * c == a * (b * c)


class TestInverse:
    def test_geometric(self):
        assert ints([1, -1], 3).inverse() == ints([1, 1, 1, 1], 3)

    def test_two_term_recurrence(self):
        inv = ints([1, -1, -1], 6).inverse()
        assert inv.coeffs == (1, 1, 2, 3, 5, 8, 13)

    def test_requires_unit_constant(self):
        with pytest.raises(ValueError):
            ints([2, 1], 3).inverse()
        with pytest.raises(ValueError):
            ints([0, 1], 3).inverse()

    @given(unit_series)
    def test_involution(self, a):
        assert a.inverse().inverse() == a
        assert a * a.inverse() == TruncatedSeries.one(int, a.order)


class TestSequenceSeries:
    def test_defining_identity(self):
        t = ints([0, 1], 30)
        for p in range(5):
            assert pfib_series(p, 30) * gap_denominator(1, p, 30) == t

    def test_coefficients(self):
        s = pfib_series(2, 10)
        assert [s.coeff(i) for i in range(7)] == [pfib(2, i) for i in range(7)]


class TestRationalGF:
    def test_cube_coefficient(self):
        assert rational_gf(1, "cube", 3).coeff(3) == cube_poly_closed(1, 3)

    def test_weight_coefficient(self):
        assert rational_gf(2, "weight", 4).coeff(4) == weight_poly(2, 4)

    def test_constant_term_is_one(self):
        for kind, ring_one in (
            ("cube", Polynomial.one()),
            ("weight", Polynomial.one()),
        ):
            for p in range(4):
                assert rational_gf(p, kind, 6).coeff(0) == ring_one
        assert rational_gf(2, "distance", 6).coeff(0) == BivarPoly.one()

    def test_ring_is_the_coefficient_type(self):
        for p in range(4):
            for kind, marker in MARKERS.items():
                types = {type(c) for c in rational_gf(p, kind, 12).coeffs}
                assert types == {type(marker)}
            assert {type(c) for c in gap_denominator(1, p, 12).coeffs} == {int}
            assert {type(c) for c in pfib_series(p, 12).coeffs} == {int}

    def test_matches_closed_polynomials(self):
        for p in range(4):
            cube_gf = rational_gf(p, "cube", 12)
            weight_gf = rational_gf(p, "weight", 12)
            distance_gf = rational_gf(p, "distance", 12)
            for n in range(13):
                assert cube_gf.coeff(n) == cube_poly_closed(p, n)
                assert weight_gf.coeff(n) == weight_poly(p, n)
                assert distance_gf.coeff(n) == dist_cube_poly_closed(p, n)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rational_gf(1, "nope", 5)
        with pytest.raises(ValueError):
            rational_gf(-1, "cube", 5)


class TestIdentityChecks:
    def test_weight_gf_expansion(self):
        for p in range(5):
            assert verify_weight_gf_expansion(p, 25)

    def test_weight_gf_expansion_degenerate_case(self):
        # p = 0 collapses to the geometric series in (1 + y) t
        assert verify_weight_gf_expansion(0, 10)
        marked = rational_gf(0, "weight", 8)
        one_plus_y = Polynomial.from_coeffs([1, 1])
        for n in range(9):
            assert marked.coeff(n) == one_plus_y**n

    def test_cube_count_gf(self):
        assert verify_cube_count_gf(1, 1, 12)
        assert verify_cube_count_gf(2, 1, 12)
        assert verify_cube_count_gf(1, 0, 12)
        for p in range(4):
            for k in range(4):
                assert verify_cube_count_gf(p, k, 12)

    def test_cube_count_gf_known_coefficient(self):
        # the dimension-1 series t R^2, R = 1/(1 - t - t^2), counts edges:
        # 5 of them at (p, n) = (1, 3), so [t^2] R^2 = 5
        squared = gap_denominator(1, 1, 12).inverse() ** 2
        assert squared.coeff(3 - 1) == 5

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            verify_cube_count_gf(1, -1, 5)
