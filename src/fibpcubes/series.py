"""Truncated formal power series in t over an exact coefficient ring.

A series' ring is its coefficients' type: ints, Polynomials or BivarPolys,
whose zero is the type called with no argument and whose one is that zero
plus 1.  One engine therefore serves every generating function checked
here.  Arithmetic is exact and never consults orders beyond the truncation.
Every check here sets a series against a closed form or another series;
none builds a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .polynomials import MARKERS, Polynomial, cube_count_closed
from .sequences import pfib

DEFAULT_ORDER = 20


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in t with exactly order+1 stored coefficients."""

    coeffs: tuple[Any, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_coeffs(ring: type, values: Sequence[Any], order: int) -> "TruncatedSeries":
        vals = list(values)[: order + 1]
        vals.extend([ring()] * (order + 1 - len(vals)))
        return TruncatedSeries(tuple(vals))

    @staticmethod
    def one(ring: type, order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs(ring, [ring() + 1], order)

    def coeff(self, k: int) -> Any:
        if not 0 <= k <= self.order:
            raise ValueError(f"order {k} outside the truncation [0, {self.order}]")
        return self.coeffs[k]

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if type(self.coeffs[0]) is not type(other.coeffs[0]):
            raise ValueError("series over different coefficient rings")
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        zero = type(self.coeffs[0])()
        out = [zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b != zero:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(tuple(out))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative, got {exponent}")
        out = TruncatedSeries.one(type(self.coeffs[0]), self.order)
        for _ in range(exponent):
            out = out * self
        return out

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse via the standard recurrence.

        Requires the constant coefficient to be the ring unit.
        """
        zero = type(self.coeffs[0])()
        one = zero + 1
        if self.coeffs[0] != one:
            raise ValueError("series inverse needs constant coefficient one")
        # inv[m] = -sum_i c_i inv[m - i]: negate the few c_i, not every inv[m]
        terms = [(i, -c) for i, c in enumerate(self.coeffs) if i and c != zero]
        inv: list[Any] = [one]
        for m in range(1, self.order + 1):
            acc = zero
            for i, c in terms:
                if i > m:
                    break
                acc = acc + c * inv[m - i]
            inv.append(acc)
        return TruncatedSeries(tuple(inv))


def pfib_series(p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The series whose t^n coefficient is F^p_n."""
    return TruncatedSeries.from_coeffs(
        int, [pfib(p, i) for i in range(order + 1)], order
    )


def gap_denominator(marker: Any, p: int, order: int) -> TruncatedSeries:
    """The series 1 - t - marker * t^{p+1}, truncated at order.

    Its ring is the marker's type.
    """
    vals = [type(marker)()] * (order + 1)
    vals[0] = vals[0] + 1
    if order >= 1:
        vals[1] = vals[1] - 1
    if p + 1 <= order:
        vals[p + 1] = vals[p + 1] - marker
    return TruncatedSeries(tuple(vals))


def _marked_rational(marker: Any, p: int, order: int) -> TruncatedSeries:
    # (1 + marker*t + ... + marker*t^p) / (1 - t - marker*t^{p+1})
    ring = type(marker)
    numerator = TruncatedSeries.from_coeffs(ring, [ring() + 1] + [marker] * p, order)
    return numerator * gap_denominator(marker, p, order).inverse()


def rational_gf(p: int, kind: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The rational generating function of one MARKERS kind, truncated at order.

    The t^n coefficient is the cube polynomial, the weight enumerator, or
    the bivariate distance refinement of the (p, n) graph, depending on
    the kind's marker on each 1.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    try:
        marker = MARKERS[kind]
    except KeyError:
        raise ValueError(f"unknown generating function kind {kind!r}") from None
    return _marked_rational(marker, p, order)


def verify_weight_gf_expansion(p: int, order: int = DEFAULT_ORDER) -> bool:
    """Cross-check the marked rational series against its reciprocal.

    With y the weight marker, S = (1 + y*t + ... + y*t^p)/(1 - t - y*t^{p+1})
    must satisfy t^p * S = 1/(1 - t - y*t^{p+1}) - (1 + t + ... + t^{p-1}).
    Both sides are computed independently, coefficient by coefficient.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    y = MARKERS["weight"]
    marked = _marked_rational(y, p, order)
    reciprocal = gap_denominator(y, p, order + p).inverse()
    for m in range(p):
        if reciprocal.coeff(m) != Polynomial.one():
            return False
    for m in range(order + 1):
        if marked.coeff(m) != reciprocal.coeff(m + p):
            return False
    return True


def verify_cube_count_gf(p: int, k: int, order: int = DEFAULT_ORDER) -> bool:
    """Coefficient check of the fixed-k cube-count generating function.

    The series is t^e R^(k+1), R = 1/(1 - t - t^{p+1}), e = kp - p + k: its
    t^n coefficient is [t^(n-e)] R^(k+1), or 0 for n < e, and must equal the
    closed-form count for every n <= order.  As e >= -p, R runs to order + p.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    exponent = k * p - p + k
    powered = gap_denominator(1, p, order + p).inverse() ** (k + 1)
    return all(
        (powered.coeff(n - exponent) if n >= exponent else 0)
        == cube_count_closed(p, n, k)
        for n in range(order + 1)
    )
