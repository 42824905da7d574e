import json
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibpcubes import polynomials
from fibpcubes.polynomials import (
    CLOSED_POLY,
    MARKERS,
    NEG_INF,
    BivarPoly,
    Polynomial,
    cube_count_closed,
    cube_poly_closed,
    dist_cube_count_closed,
    dist_cube_poly_closed,
    substitute,
    weight_poly,
)
from fibpcubes.sequences import binomial, pfib_terms, total_edges_closed
from fibpcubes.strings import max_weight, weight_census

from conftest import as_dict, written_json

coeff_lists = st.lists(st.integers(-50, 50), max_size=6)
polys = coeff_lists.map(Polynomial.from_coeffs)
# (k, d) -> coefficient, zeros included
bivar_dicts = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), max_size=12
)
# wider, with coefficients far beyond one machine word
big_bivar_dicts = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(-(2**70), 2**70),
    max_size=12,
)

XQ = BivarPoly.from_dict({(1, 0): 1, (0, 1): 1})
XQ_MINUS_1 = BivarPoly.from_dict({(1, 0): 1, (0, 1): 1, (0, 0): -1})


def sorted_render(f):
    """The text as the formatter before the term writer made it: every term
    sorted by total degree, then by x-degree, one string per term, and one
    join at the end."""

    def power(var, k):
        return "" if k == 0 else var if k == 1 else f"{var}^{k}"

    if isinstance(f, Polynomial):
        terms = [(k, 0, c) for k, c in enumerate(f.coeffs)]
    else:
        terms = sorted(f.terms, key=lambda t: (t[0] + t[1], t[0]))
    pieces = []
    for k, d, c in terms:
        if c == 0:
            continue
        mono = "*".join(part for part in (power("x", k), power("q", d)) if part)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


def at_q(f, value):
    """f(x, value) as a polynomial in x, read off the terms of f."""
    acc = {}
    for k, d, c in f.terms:
        acc[k] = acc.get(k, 0) + c * value**d
    size = max(acc, default=-1) + 1
    return Polynomial.from_coeffs(acc.get(k, 0) for k in range(size))


class TestPolynomial:
    def test_canonical_form(self):
        assert Polynomial.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial.from_coeffs([0, 0]).coeffs == ()
        with pytest.raises(ValueError, match="trailing zero coefficient"):
            Polynomial((1, 0))

    def test_value_semantics(self):
        f = Polynomial((1, 2))
        assert f == Polynomial.from_coeffs([1, 2, 0])
        assert hash(f) == hash(Polynomial((1, 2)))
        assert f != Polynomial((1, 3)) and f != Polynomial((1, 2, 1))
        # only a Polynomial equals a Polynomial
        assert f != (1, 2) and Polynomial.const(3) != 3
        assert Polynomial.const(3) != BivarPoly.const(3)
        assert len({f, Polynomial((1, 2)), Polynomial((2, 1))}) == 2

    def test_degree_sentinel(self):
        assert Polynomial.zero().degree() == NEG_INF
        assert Polynomial.const(7).degree() == 0
        assert Polynomial.x().degree() == 1

    def test_arithmetic(self):
        x = Polynomial.x()
        assert (1 + x) * (1 - x) == Polynomial.from_coeffs([1, 0, -1])
        assert (1 + x) ** 2 == Polynomial.from_coeffs([1, 2, 1])
        assert 2 * x - x == x
        assert x - x == Polynomial.zero()
        assert (x**3).coeff(3) == 1 and (x**3).coeff(2) == 0

    def test_evaluation(self):
        f = Polynomial.from_coeffs([5, 5, 1])
        assert f(0) == 5 and f(1) == 11 and f(-1) == 1

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            Polynomial.x() ** -1

    def test_render(self):
        assert Polynomial.from_coeffs([5, 5, 1]).render() == "5 + 5*x + x^2"
        assert Polynomial.zero().render() == "0"
        assert Polynomial.from_coeffs([1, -2]).render() == "1 - 2*x"
        assert Polynomial.from_coeffs([0, 1]).render() == "x"
        assert Polynomial.from_coeffs([-1, 0, 3]).render() == "-1 + 3*x^2"

    def test_json_round_trip(self):
        f = Polynomial.from_coeffs([5, 5, 1])
        doc = json.loads(written_json(f.to_json()))
        assert doc == {"coeffs": ["5", "5", "1"]}
        assert Polynomial.from_coeffs(int(c) for c in doc["coeffs"]) == f

    @given(polys, polys, polys)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)

    @given(polys, st.integers(-5, 5))
    def test_shift_round_trip(self, f, c):
        assert substitute(substitute(f, c), -c) == f
        assert substitute(f, 0) == f

    @given(polys, st.integers(-4, 4), st.integers(-4, 4))
    def test_shift_agrees_with_evaluation(self, f, c, v):
        assert substitute(f, c)(v) == f(v + c)


class TestBivarPoly:
    def test_value_semantics(self):
        f = BivarPoly(((1, 0, 3), (0, 2)))  # 1 + 3*x^2 + 2*x*q
        assert f == BivarPoly.from_dict({(0, 0): 1, (2, 0): 3, (1, 1): 2, (3, 1): 0})
        assert hash(f) == hash(BivarPoly(((1, 0, 3), (0, 2))))
        assert f != BivarPoly(((1, 0, 3), (0, 3))) and f != BivarPoly(((1, 0, 3),))
        # only a BivarPoly equals a BivarPoly
        assert f != ((1, 0, 3), (0, 2)) and BivarPoly.const(1) != Polynomial.const(1)
        assert len({f, f.swap().swap(), f.swap()}) == 2

    def test_construction(self):
        assert BivarPoly.from_dict({(1, 0): 0}).terms == ()

    @given(
        bivar_dicts, bivar_dicts, st.integers(-3, 3), st.integers(0, 3),
        st.integers(0, 3), st.integers(0, 9),
    )
    def test_every_result_is_canonical(self, fd, gd, c, e, p, n):
        f, g = BivarPoly.from_dict(fd), BivarPoly.from_dict(gd)
        assert BivarPoly.from_dict(dict(reversed(fd.items()))) == f
        results = [
            f, f + g, f - g, f + c, c + f, f - c, c - f, f * g, -f, f.swap(), f**e,
            substitute(weight_poly(p, n), XQ), dist_cube_poly_closed(p, n),
        ]
        for h in results:
            keys = [(k, d) for k, d, _ in h.terms]
            assert keys == sorted(set(keys))
            assert all(coefficient for _, _, coefficient in h.terms)
            # no row ends in 0, and the last row is not empty
            assert all(type(row) is tuple and row[-1] for row in h.rows if row)
            assert not h.rows or h.rows[-1]
            assert h.rows == BivarPoly.from_dict(as_dict(h)).rows

    @given(bivar_dicts, bivar_dicts, bivar_dicts)
    def test_ring_axioms(self, fd, gd, hd):
        f, g, h = map(BivarPoly.from_dict, (fd, gd, hd))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f + (-f) == BivarPoly.zero()
        assert f * BivarPoly.one() == f

    @given(big_bivar_dicts, big_bivar_dicts)
    def test_matches_sparse_reference(self, sparse_bivar, fd, gd):
        f, g = BivarPoly.from_dict(fd), BivarPoly.from_dict(gd)
        assert as_dict(f) == sparse_bivar.add(fd, {})
        assert as_dict(f + g) == sparse_bivar.add(fd, gd)
        assert as_dict(-f) == sparse_bivar.neg(fd)
        assert as_dict(f - g) == sparse_bivar.add(fd, sparse_bivar.neg(gd))
        assert as_dict(f * g) == sparse_bivar.mul(fd, gd)
        assert as_dict(f.swap()) == sparse_bivar.swap(fd)
        assert hash(f.swap().swap()) == hash(f)

    def test_arithmetic(self):
        x = BivarPoly.from_dict({(1, 0): 1})
        q = MARKERS["distance"] - x
        assert (x + q) ** 2 == BivarPoly.from_dict(
            {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        )
        assert (x - q) * (x + q) == BivarPoly.from_dict({(2, 0): 1, (0, 2): -1})
        assert 3 * x - x == 2 * x
        assert sum(c * 2**k * 3**d for k, d, c in (x + q).terms) == 5

    def test_swap_and_subst(self):
        f = BivarPoly.from_dict({(2, 1): 4, (0, 3): 1})
        assert f.swap() == BivarPoly.from_dict({(1, 2): 4, (3, 0): 1})
        assert at_q(f, 1) == Polynomial.from_coeffs([1, 0, 4])
        assert at_q(f, 0) == Polynomial.zero()

    def test_render(self):
        f = BivarPoly.from_dict({(0, 0): 1, (1, 1): 2, (0, 1): 3})
        assert f.render() == "1 + 3*q + 2*x*q"

    def test_json_round_trip(self):
        f = dist_cube_poly_closed(1, 3)
        rows = json.loads(written_json(f.to_json()))["terms"]
        assert {"k": "1", "d": "1", "value": "2"} in rows
        parsed = {(int(r["k"]), int(r["d"])): int(r["value"]) for r in rows}
        assert BivarPoly.from_dict(parsed) == f


ONE_OF_EACH_KIND = [Polynomial.from_coeffs([1, 2]), XQ]
KIND_IDS = ["Polynomial", "BivarPoly"]


class TestTermWriter:
    @given(polys)
    def test_polynomial_matches_sorted_reference(self, f):
        assert f.render() == sorted_render(f)

    @given(st.one_of(bivar_dicts, big_bivar_dicts))
    def test_bivar_matches_sorted_reference(self, fd):
        f = BivarPoly.from_dict(fd)
        assert f.render() == sorted_render(f)

    @pytest.mark.parametrize(
        "data, text",
        [
            ({(0, 2): -1, (3, 0): 1, (1, 4): -2}, "-q^2 + x^3 - 2*x*q^4"),
            ({(5, 0): -1, (0, 5): 1, (2, 3): -7}, "q^5 - 7*x^2*q^3 - x^5"),
            ({(0, 0): -4, (4, 4): 1, (0, 6): -1}, "-4 - q^6 + x^4*q^4"),
            ({(1, 0): 1}, "x"),
            ({(0, 1): -1}, "-q"),
        ],
        ids=["gaps", "one-diagonal", "constant", "x", "minus-q"],
    )
    def test_sparse_bivar_with_gaps(self, data, text):
        f = BivarPoly.from_dict(data)
        assert f.render() == sorted_render(f) == text

    @pytest.mark.parametrize("kind", [Polynomial, BivarPoly], ids=KIND_IDS)
    def test_zero_of_each_kind(self, kind):
        assert list(kind.zero().pieces()) == ["0"]
        assert kind.zero().render() == sorted_render(kind.zero()) == "0"

    @pytest.mark.parametrize("kind", list(MARKERS))
    @pytest.mark.parametrize("p, n", [(0, 0), (1, 3), (2, 17), (0, 40), (4, 60)])
    def test_closed_kinds(self, kind, p, n):
        f = getattr(polynomials, CLOSED_POLY[kind])(p, n)
        assert f.render() == sorted_render(f)
        # one piece per term (the closed kinds have no zero coefficient)
        terms = f.coeffs if isinstance(f, Polynomial) else f.terms
        assert len(list(f.pieces())) == len(terms)


class TestRingRule:
    @pytest.mark.parametrize("f", ONE_OF_EACH_KIND, ids=KIND_IDS)
    def test_int_on_either_side(self, f):
        kind = type(f)
        three = kind.const(3)
        assert f + 3 == 3 + f == f + three
        assert (f - 3) + three == f
        assert (3 - f) + f == three
        assert f - f == kind.zero()
        assert f * 3 == 3 * f == f + f + f
        assert f * 0 == 0 * f == kind.zero()

    @pytest.mark.parametrize("f", ONE_OF_EACH_KIND, ids=KIND_IDS)
    def test_powers(self, f):
        assert f**0 == type(f).one()
        assert f**3 == f * f * f
        with pytest.raises(ValueError):
            f**-1

    @pytest.mark.parametrize(
        "f, other", zip(ONE_OF_EACH_KIND, ONE_OF_EACH_KIND[::-1]), ids=KIND_IDS
    )
    def test_kinds_do_not_mix(self, f, other):
        for operand in (other, 1.5):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(f, operand)
                with pytest.raises(TypeError):
                    op(operand, f)


class TestClosedForms:
    def test_cube_poly_examples(self):
        assert cube_poly_closed(1, 3) == Polynomial.from_coeffs([5, 5, 1])
        for p in range(4):
            assert cube_poly_closed(p, 0) == Polynomial.one()
        two_plus_x = Polynomial.from_coeffs([2, 1])
        for n in range(9):
            assert cube_poly_closed(0, n) == two_plus_x**n

    def test_cube_poly_matches_double_sum(self):
        for p in range(4):
            for n in range(13):
                poly = cube_poly_closed(p, n)
                for k in range(max_weight(p, n) + 2):
                    assert poly.coeff(k) == cube_count_closed(p, n, k)
                assert poly.degree() == max_weight(p, n)

    def test_weight_poly_examples(self):
        assert weight_poly(2, 4) == Polynomial.from_coeffs([1, 4, 1])
        assert weight_poly(1, 2) == Polynomial.from_coeffs([1, 2])
        assert weight_poly(3, 0) == Polynomial.one()

    def test_weight_poly_coefficients(self):
        for p in range(4):
            for n in range(12):
                poly = weight_poly(p, n)
                for a in range(max_weight(p, n) + 1):
                    assert poly.coeff(a) == binomial(n - a * p + p, a)

    def test_dist_poly_examples(self):
        d = dist_cube_poly_closed(1, 3)
        assert as_dict(d).get((1, 1), 0) == 2
        base = BivarPoly.from_dict({(1, 0): 1, (0, 1): 1})
        assert dist_cube_poly_closed(2, 4) == 1 + 4 * base + base**2
        one_x_q = BivarPoly.from_dict({(0, 0): 1, (1, 0): 1, (0, 1): 1})
        for n in range(7):
            assert dist_cube_poly_closed(0, n) == one_x_q**n

    def test_dist_poly_coefficients(self):
        for p in range(4):
            for n in range(11):
                d = dist_cube_poly_closed(p, n)
                top = max_weight(p, n)
                terms = as_dict(d)
                for k in range(top + 2):
                    for dd in range(top + 2):
                        assert terms.get((k, dd), 0) == dist_cube_count_closed(p, n, k, dd)
                # setting q = 0 keeps only bottom-at-origin cubes
                at_zero = at_q(d, 0)
                for k in range(top + 1):
                    assert at_zero.coeff(k) == binomial(n - k * p + p, k)

    def test_markers(self):
        assert list(MARKERS) == ["cube", "weight", "distance"]
        assert MARKERS["cube"] == Polynomial.from_coeffs([1, 1])
        assert MARKERS["weight"] == Polynomial.x()
        assert MARKERS["distance"] == XQ

    def test_substitute_dispatch(self):
        w13 = weight_poly(1, 3)
        assert substitute(w13, 1) == cube_poly_closed(1, 3)
        assert substitute(w13, 0) == w13
        assert substitute(weight_poly(2, 4), XQ) == dist_cube_poly_closed(2, 4)

    def test_daisy_identities(self):
        for p in range(4):
            for n in range(11):
                c = cube_poly_closed(p, n)
                w = weight_poly(p, n)
                d = dist_cube_poly_closed(p, n)
                assert substitute(w, XQ) == d
                assert substitute(w, 1) == c
                assert substitute(c, XQ_MINUS_1) == d
                assert d.swap() == d
                # q = 1 collapses distance back onto dimension counting
                assert at_q(d, 1) == c


class TestPackedExpansion:
    """Each closed kind against the ring expansion, and the cube and distance
    polynomials at large n."""

    # n from 0 up, so every p > 0 meets n < p as well
    @pytest.mark.parametrize("kind", list(MARKERS))
    def test_matches_ring_expansion(self, ring_expansion, kind):
        closed = getattr(polynomials, CLOSED_POLY[kind])
        marker = MARKERS[kind]
        for p in range(5):
            for n in range(41):
                assert closed(p, n) == ring_expansion(p, n, marker), (p, n)

    @pytest.mark.parametrize("p, n", [(0, 300), (1, 600), (4, 1000)])
    def test_matches_ring_expansion_at_large_n(self, ring_expansion, p, n):
        assert cube_poly_closed(p, n) == ring_expansion(p, n, MARKERS["cube"])

    @pytest.mark.parametrize("p, n", [(0, 1200), (1, 2000), (3, 4000)])
    def test_cube_identities_at_large_n(self, p, n):
        c = cube_poly_closed(p, n)
        assert c(-1) == 1
        assert c(0) == pfib_terms(p, n + p + 1)[0]  # |V|
        assert c.coeff(1) == total_edges_closed(p, n)  # |E|
        # every vertex is the top of 2^(its weight) cubes
        assert c(1) == sum(w << a for a, w in enumerate(weight_census(p, n)))
        assert c.degree() == max_weight(p, n)

    @pytest.mark.parametrize("p, n", [(0, 400), (1, 600)])
    def test_distance_rows_at_large_n(self, p, n):
        d = dist_cube_poly_closed(p, n)
        top = max_weight(p, n)
        assert [len(row) for row in d.rows] == [top + 1 - k for k in range(top + 1)]
        assert at_q(d, 0) == weight_poly(p, n)
        assert at_q(d, 1) == cube_poly_closed(p, n)
        assert d.swap() == d
