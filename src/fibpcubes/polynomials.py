"""Exact integer polynomials and the closed-form counting polynomials.

Univariate polynomials are dense coefficient tuples, and bivariate ones
rows of such tuples, one per power of q; no tuple ends in a zero, and one
helper adds two of them for either kind.  Both kinds share one ring rule:
an int enters as a constant, and zero, one, subtraction, the reflected
operators and powers are derived from each kind's const, +, unary - and
*.  Degrees stay tiny while coefficients grow huge, so everything is exact
int arithmetic.  The closed cube polynomial is expanded by Horner's rule
on its coefficient list, and the distance polynomial is read off the
weight row with one Pascal row per weight.  Both kinds write their text
through one term writer, term by term in output order, so the text of a
large polynomial need never exist whole.
"""

from __future__ import annotations

import operator
from itertools import zip_longest
from typing import Iterable, Iterator, Mapping, Union

from .sequences import binomial
from .strings import max_weight, weight_census

NEG_INF = float("-inf")


def _trimmed(values: Iterable[int]) -> tuple[int, ...]:
    """The coefficients as a tuple without trailing zeros."""
    values = tuple(values)
    end = len(values)
    while end and not values[end - 1]:
        end -= 1
    return values[:end]


def _add_coeffs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The sum of two coefficient tuples that have no trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    total = tuple(map(operator.add, a, b))
    if len(a) > len(b):  # a's last coefficient survives, and it is not 0
        return total + a[len(b) :]
    return _trimmed(total)


class RingElement:
    """What both polynomial kinds share: how an int enters, and what follows.

    A kind supplies ``const``, ``__add__``, ``__neg__`` and ``__mul__``; its
    binary operators lift their other operand with ``_lift`` and return
    NotImplemented for anything that is neither the kind nor an int.  It
    also supplies ``_ordered_terms``, its (k, d, c) in the order of its text.
    """

    __slots__ = ()

    @classmethod
    def zero(cls) -> "RingElement":
        return cls.const(0)

    @classmethod
    def one(cls) -> "RingElement":
        return cls.const(1)

    @classmethod
    def _lift(cls, value: object) -> "RingElement | None":
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls.const(value)
        return None

    def __radd__(self, other: object) -> "RingElement":
        return self.__add__(other)  # addition commutes

    def __rmul__(self, other: object) -> "RingElement":
        return self.__mul__(other)  # so does multiplication

    def __sub__(self, other: object) -> "RingElement":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "RingElement":
        lhs = self._lift(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __pow__(self, exponent: int) -> "RingElement":
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        out = self.one()
        for _ in range(exponent):  # plain iterated product, no binomial shortcut
            out = out * self
        return out

    def pieces(self) -> Iterator[str]:
        """The canonical text in pieces, each made only when it is asked for."""
        return _term_pieces(self._ordered_terms())

    def render(self) -> str:
        """Canonical text, e.g. ``5 + 5*x + x^2`` or ``1 + 3*q + 2*x*q``."""
        return "".join(self.pieces())


class Polynomial(RingElement):
    """Dense integer polynomial; coeffs[k] multiplies x^k, no trailing zeros.

    A value: == and hash read the coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()) -> None:
        if coeffs and coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use from_coeffs")
        self.coeffs = coeffs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs!r})"

    @staticmethod
    def from_coeffs(values: Iterable[int]) -> "Polynomial":
        return Polynomial(_trimmed(values))

    @staticmethod
    def const(c: int) -> "Polynomial":
        return Polynomial((c,)) if c else Polynomial()

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    def degree(self) -> "int | float":
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: object) -> "Polynomial":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return Polynomial(_add_coeffs(self.coeffs, rhs.coeffs))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: object) -> "Polynomial":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        if not self.coeffs or not rhs.coeffs:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(rhs.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(rhs.coeffs):
                    out[i + j] += a * b
        return Polynomial.from_coeffs(out)

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def _ordered_terms(self) -> Iterator[tuple[int, int, int]]:
        """(k, 0, c) in ascending degree k, zeros included."""
        return ((k, 0, c) for k, c in enumerate(self.coeffs))

    def to_json(self) -> dict:
        """Ascending coefficients, for the JSON writer, which quotes each."""
        return {"coeffs": self.coeffs}


def _power_text(var: str, k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return var
    return f"{var}^{k}"


def _term_pieces(terms: Iterable[tuple[int, int, int]]) -> Iterator[str]:
    """The text of the sum of c * x^k * q^d over (k, d, c), in the given order.

    One piece per nonzero term: the first bare or with a leading -, the
    rest behind " + " or " - ".  No term at all reads "0".
    """
    signs = ("", "-")  # (" + ", " - ") once a term is written
    for k, d, c in terms:
        if not c:
            continue
        mono = "*".join(filter(None, (_power_text("x", k), _power_text("q", d))))
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        yield signs[c < 0] + body
        signs = (" + ", " - ")
    if not signs[0]:
        yield "0"


class BivarPoly(RingElement):
    """Dense integer polynomial in x and q; rows[d][k] multiplies x^k q^d.

    Canonical: no row ends in 0 and the last row is not empty, as
    ``from_dict`` and every operator leave them, so == and hash, which read
    the rows, are exact.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...] = ()) -> None:
        self.rows = rows

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"BivarPoly({self.rows!r})"

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "BivarPoly":
        out = [_trimmed(row) for row in rows]
        while out and not out[-1]:
            out.pop()
        return BivarPoly(tuple(out))

    @staticmethod
    def from_dict(data: Mapping[tuple[int, int], int]) -> "BivarPoly":
        width = max((k for k, _ in data), default=-1) + 1
        height = max((d for _, d in data), default=-1) + 1
        return BivarPoly.from_rows(
            [data.get((k, d), 0) for k in range(width)] for d in range(height)
        )

    @property
    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """The nonzero (xdeg, qdeg, coeff) triples, sorted by (xdeg, qdeg)."""
        return tuple(self._sorted_terms())

    def _sorted_terms(self) -> Iterator[tuple[int, int, int]]:
        columns = zip_longest(*self.rows, fillvalue=0)  # columns[k][d]
        return (
            (k, d, c)
            for k, column in enumerate(columns)
            for d, c in enumerate(column)
            if c
        )

    @staticmethod
    def const(c: int) -> "BivarPoly":
        return BivarPoly(((c,),)) if c else BivarPoly()

    def __add__(self, other: object) -> "BivarPoly":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        a, b = self.rows, rhs.rows
        if len(a) < len(b):
            a, b = b, a
        rows = list(map(_add_coeffs, a, b)) + list(a[len(b) :])
        while rows and not rows[-1]:
            rows.pop()
        return BivarPoly(tuple(rows))

    def __neg__(self) -> "BivarPoly":
        return BivarPoly(tuple(tuple(map(operator.neg, row)) for row in self.rows))

    def __mul__(self, other: object) -> "BivarPoly":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        small, big = self.rows, rhs.rows
        if sum(map(len, small)) > sum(map(len, big)):  # the fewer terms drive
            small, big = big, small
        if not small:
            return BivarPoly()
        out: list[tuple[int, ...]] = [()] * (len(small) + len(big) - 1)
        for d, row in enumerate(small):
            for k, c in enumerate(row):
                if not c:
                    continue
                pad = (0,) * k
                for e, brow in enumerate(big):
                    if brow:
                        scaled = brow if c == 1 else tuple(map(c.__mul__, brow))
                        out[d + e] = _add_coeffs(out[d + e], pad + scaled)
        # The last row is the product of the two last rows: Z[x] has no zero
        # divisors, so it is not empty.
        return BivarPoly(tuple(out))

    def swap(self) -> "BivarPoly":
        """Exchange the roles of x and q."""
        return BivarPoly.from_rows(zip_longest(*self.rows, fillvalue=0))

    def _ordered_terms(self) -> Iterator[tuple[int, int, int]]:
        """(k, d, c) by total degree k + d, then k ascending, zeros included:
        one anti-diagonal of the rows after another."""
        rows = self.rows
        end = max((d + len(row) for d, row in enumerate(rows)), default=0)
        for s in range(end):
            for d in range(min(s, len(rows) - 1), -1, -1):
                k, row = s - d, rows[d]
                if k < len(row):
                    yield k, d, row[k]

    def to_json(self) -> dict:
        """The nonzero terms as {k, d, value} rows, for the JSON writer;
        each row is made as the writer reaches it."""
        terms = self._sorted_terms()
        return {"terms": ({"k": k, "d": d, "value": c} for k, d, c in terms)}


# The marker on each 1 of a p-valid string, by kind, in report order.  The
# weight enumerator W marks a 1 by x; a 1 of a cube's top is either lowered
# into the cube's support or kept, so the cube polynomial is C = W(1 + x),
# and marking the kept 1s by q, the bottom's distance from the origin, gives
# the distance refinement D = W(x + q).
MARKERS: dict[str, Union[Polynomial, BivarPoly]] = {
    "cube": Polynomial((1, 1)),
    "weight": Polynomial.x(),
    "distance": BivarPoly.from_dict({(1, 0): 1, (0, 1): 1}),
}
# The closed form of each kind, by name: a caller looks the name up in its
# own namespace, so a closed form rebound there is the one it calls.
CLOSED_POLY = {
    "cube": "cube_poly_closed",
    "weight": "weight_poly",
    "distance": "dist_cube_poly_closed",
}


def substitute(
    f: Polynomial, shift: Union[int, BivarPoly]
) -> Union[Polynomial, BivarPoly]:
    """Compose f with x -> x + c for an int shift, or x -> g for a bivariate g.

    Horner's rule in the image's ring, exact for either kind of image.
    """
    image = shift if isinstance(shift, BivarPoly) else Polynomial((shift, 1))
    acc = type(image).zero()
    for coefficient in reversed(f.coeffs):
        acc = acc * image + coefficient
    return acc


def cube_poly_closed(p: int, n: int) -> Polynomial:
    """Induced-cube counting polynomial, x marking the dimension.

    C = sum over weights a of binom(n - a*p + p, a) * (1 + x)^a, by Horner's
    rule acc -> acc * (1 + x) + binom_a from the top weight down to 0, on
    the list of coefficients: the product by 1 + x adds each coefficient
    to its upper neighbour, so one step is [binom_a + acc_0, acc_1 + acc_0,
    ..., acc_top].

    The expansion stays an iterated multiplication by 1 + x, never a
    binomial expansion of its powers, so the binomial double sum in
    cube_count_closed remains an independent route to the same numbers.
    """
    *lower, top = weight_census(p, n)  # binom(n - a*p + p, a), a = 0 .. top
    acc = [top]
    for b in reversed(lower):
        acc = [b + acc[0], *map(operator.add, acc[1:], acc), acc[-1]]
    return Polynomial(tuple(acc))  # ends in the top weight's count, not 0


def cube_count_closed(p: int, n: int, k: int) -> int:
    """Number of induced k-cubes, via the binomial double sum."""
    if k < 0:
        return 0
    return sum(
        binomial(n - i * p + p, i) * binomial(i, k)
        for i in range(k, max_weight(p, n) + 1)
    )


def weight_poly(p: int, n: int) -> Polynomial:
    """Vertex counts by Hamming weight as a polynomial in x."""
    return Polynomial.from_coeffs(weight_census(p, n))


def dist_cube_poly_closed(p: int, n: int) -> BivarPoly:
    """Bivariate cube counts, x marking dimension and q bottom distance.

    D = sum over weights s of W_s * (x + q)^s, with W = weight_census(p, n),
    so x^k q^d has coefficient W_{k+d} * binom(k + d, k): one pass over the
    weight row, with the Pascal row binom(s, .) updated by adding
    neighbours, so no binomial is computed entry by entry.  Row d of the
    result holds the top + 1 - d coefficients from s = d up.
    """
    census = weight_census(p, n)
    rows: list[list[int]] = [[] for _ in census]
    pascal = [1]  # binom(s, k) for k = 0 .. s
    for s, w in enumerate(census):
        for row, c in zip(rows[s::-1], pascal):  # rows[s - k] gets x^k
            row.append(w * c)
        pascal = [1, *map(operator.add, pascal, pascal[1:]), 1]
    return BivarPoly.from_rows(rows)


def dist_cube_count_closed(p: int, n: int, k: int, d: int) -> int:
    """Number of induced k-cubes with bottom at distance d of the origin."""
    if k < 0 or d < 0:
        return 0
    return binomial(n - (k + d) * p + p, k + d) * binomial(k + d, k)
