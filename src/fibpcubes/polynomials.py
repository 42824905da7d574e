"""Exact integer polynomials and the closed-form counting polynomials.

Univariate polynomials are dense coefficient tuples; bivariate ones are
sparse term tuples, canonical because they come only from ``from_dict`` or
from an operator built on it.  Both share one ring rule: an int enters as
a constant, and zero, one, subtraction, the reflected operators and powers
are derived from each kind's const, +, unary - and *.  Degrees stay tiny
while coefficients grow huge, so everything is exact int arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .sequences import binomial
from .strings import max_weight, weight_census

NEG_INF = float("-inf")


class RingElement:
    """What both polynomial kinds share: how an int enters, and what follows.

    A kind supplies ``const``, ``__add__``, ``__neg__`` and ``__mul__``; its
    binary operators lift their other operand with ``_lift`` and return
    NotImplemented for anything that is neither the kind nor an int.
    """

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


@dataclass(frozen=True)
class Polynomial(RingElement):
    """Dense integer polynomial; coeffs[k] multiplies x^k, no trailing zeros."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use from_coeffs")

    @staticmethod
    def from_coeffs(values: Iterable[int]) -> "Polynomial":
        coeffs = list(values)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return Polynomial(tuple(coeffs))

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
        a, b = self.coeffs, rhs.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Polynomial.from_coeffs(out)

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

    def render(self, var: str = "x") -> str:
        """Canonical ascending-degree text, e.g. ``5 + 5*x + x^2``."""
        return _format_terms(
            [(c, _power_text(var, k)) for k, c in enumerate(self.coeffs)]
        )

    def to_json(self) -> dict:
        """Ascending coefficients, serialized as decimal strings."""
        return {"coeffs": [str(c) for c in self.coeffs]}


def _power_text(var: str, k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return var
    return f"{var}^{k}"


def _format_terms(terms: list[tuple[int, str]]) -> str:
    pieces: list[str] = []
    for c, mono in terms:
        if c == 0:
            continue
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


@dataclass(frozen=True)
class BivarPoly(RingElement):
    """Sparse integer polynomial in x and q; terms are (xdeg, qdeg, coeff).

    Terms come only from ``from_dict``, sorted by (xdeg, qdeg) with no zero,
    or from an operator built on it (``const`` and ``-`` keep that form).
    """

    terms: tuple[tuple[int, int, int], ...] = ()

    @staticmethod
    def from_dict(data: Mapping[tuple[int, int], int]) -> "BivarPoly":
        items = tuple(sorted((k, d, c) for (k, d), c in data.items() if c))
        return BivarPoly(items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(k, d): c for k, d, c in self.terms}

    @staticmethod
    def const(c: int) -> "BivarPoly":
        return BivarPoly(((0, 0, c),)) if c else BivarPoly()

    def __add__(self, other: object) -> "BivarPoly":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        acc = self.as_dict()
        for k, d, c in rhs.terms:
            acc[k, d] = acc.get((k, d), 0) + c
        return BivarPoly.from_dict(acc)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly(tuple((k, d, -c) for k, d, c in self.terms))

    def __mul__(self, other: object) -> "BivarPoly":
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        acc: dict[tuple[int, int], int] = {}
        for k1, d1, c1 in self.terms:
            for k2, d2, c2 in rhs.terms:
                key = (k1 + k2, d1 + d2)
                acc[key] = acc.get(key, 0) + c1 * c2
        return BivarPoly.from_dict(acc)

    def swap(self) -> "BivarPoly":
        """Exchange the roles of x and q."""
        return BivarPoly.from_dict({(d, k): c for k, d, c in self.terms})

    def render(self) -> str:
        """Canonical text ordered by total degree, e.g. ``1 + 3*q + 3*x``."""
        ordered = sorted(self.terms, key=lambda t: (t[0] + t[1], t[0]))
        terms = []
        for k, d, c in ordered:
            mono = "*".join(
                part
                for part in (_power_text("x", k), _power_text("q", d))
                if part
            )
            terms.append((c, mono))
        return _format_terms(terms)

    def to_json(self) -> dict:
        """Terms as {k, d, value} rows, every number a decimal string."""
        return {
            "terms": [
                {"k": str(k), "d": str(d), "value": str(c)} for k, d, c in self.terms
            ]
        }


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


def _marked_expansion(
    p: int, n: int, marker: Union[Polynomial, BivarPoly]
) -> Union[Polynomial, BivarPoly]:
    """The sum over weights a of binom(n - a*p + p, a) * marker^a.

    Expansion is by iterated multiplication on purpose: the binomial double
    sums in cube_count_closed and dist_cube_count_closed are an independent
    route to the same numbers.
    """
    acc, power = type(marker).zero(), type(marker).one()
    for a in range(max_weight(p, n) + 1):
        acc = acc + binomial(n - a * p + p, a) * power
        power = power * marker
    return acc


def cube_poly_closed(p: int, n: int) -> Polynomial:
    """Induced-cube counting polynomial, x marking the dimension."""
    return _marked_expansion(p, n, MARKERS["cube"])


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
    """Bivariate cube counts, x marking dimension and q bottom distance."""
    return _marked_expansion(p, n, MARKERS["distance"])


def dist_cube_count_closed(p: int, n: int, k: int, d: int) -> int:
    """Number of induced k-cubes with bottom at distance d of the origin."""
    if k < 0 or d < 0:
        return 0
    return binomial(n - (k + d) * p + p, k + d) * binomial(k + d, k)
