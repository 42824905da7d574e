"""Rational generating functions in t, expanded by their one recurrence.

Every series checked here is num/den for two short tuples of coefficients
in t, with den[0] the ring's one, so its coefficients obey the linear
recurrence a_n = num_n - sum_{i>=1} den_i * a_{n-i}.  `expand` runs it and
holds only the last deg(den) terms, and every check reads its streams term
by term, so it holds O(p) ring elements; p beyond ``SERIES_LIMIT`` is
refused first.  A series' ring is its coefficients' type: ints, Polynomials
or BivarPolys, whose zero is the type called with no argument and whose one
is that zero plus 1.  Arithmetic is exact.  No check here builds a graph.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice, repeat
from typing import Any, Iterator, NamedTuple, Sequence

from .errors import SizeLimitError
from .polynomials import MARKERS, Polynomial, cube_count_closed
from .sequences import pfib_prefix

DEFAULT_ORDER = 20

# Largest p: the gf suite takes about 1 s and 30 MB there, linear in p.
SERIES_LIMIT = 1 << 16


class TruncatedSeries(NamedTuple):
    """Power series in t: its coefficients of t^0 .. t^order, stored."""

    coeffs: tuple[Any, ...]


def expand(num: Sequence[Any], den: Sequence[Any], order: int) -> Iterator[Any]:
    """Yield the t^0 .. t^order coefficients of num/den, in their ring.

    The ring is den's; den[0] must be its one.  Only the last deg(den)
    coefficients are held.
    """
    zero = type(den[0])()
    if den[0] != zero + 1:
        raise ValueError("a series denominator needs constant coefficient one")
    # a_n = num_n - sum_i den_i a_{n-i}: negate the few den_i, not every a_n
    taps = [(i, -c) for i, c in enumerate(den) if i and c != zero]
    recent: deque = deque(maxlen=len(den) - 1)  # recent[i - 1] is a_{n-i}
    for n in range(order + 1):
        acc = num[n] if n < len(num) else zero
        for i, c in taps:
            if i > n:
                break
            acc = acc + c * recent[i - 1]
        recent.appendleft(acc)
        yield acc


def pfib_series(p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The series whose t^n coefficient is F^p_n."""
    return TruncatedSeries(tuple(pfib_prefix(p, order)))


def check_series_limit(p: int) -> None:
    """Refuse with SizeLimitError a p beyond SERIES_LIMIT."""
    if p > SERIES_LIMIT:
        raise SizeLimitError(f"p = {p} exceeds the series limit {SERIES_LIMIT}")


def gap_denominator(marker: Any, p: int) -> TruncatedSeries:
    """The p + 2 coefficients of 1 - t - marker * t^{p+1}.

    Their ring is the marker's type.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    check_series_limit(p)
    zero = type(marker)()
    vals = [zero + 1, zero - 1] + [zero] * p
    vals[p + 1] = vals[p + 1] - marker
    return TruncatedSeries(tuple(vals))


def gf_terms(p: int, kind: str, order: int = DEFAULT_ORDER) -> Iterator[Any]:
    """Yield the t^0 .. t^order coefficients of one MARKERS kind's series.

    With m the kind's marker on each 1, the series is (1 + m*t + ... +
    m*t^p) / (1 - t - m*t^{p+1}), and its t^n coefficient is the (p, n)
    graph's cube polynomial, weight enumerator, or distance refinement.
    """
    try:
        marker = MARKERS[kind]
    except KeyError:
        raise ValueError(f"unknown generating function kind {kind!r}") from None
    den = gap_denominator(marker, p).coeffs
    return expand([den[0]] + [marker] * p, den, order)


def rational_gf(p: int, kind: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The series of `gf_terms`, stored whole."""
    return TruncatedSeries(tuple(gf_terms(p, kind, order)))


def verify_weight_gf_expansion(p: int, order: int = DEFAULT_ORDER) -> bool:
    """Cross-check the marked rational series against its reciprocal.

    With y the weight marker, S = (1 + y*t + ... + y*t^p)/(1 - t - y*t^{p+1})
    must satisfy t^p * S = 1/(1 - t - y*t^{p+1}) - (1 + t + ... + t^{p-1}).
    Both sides are expanded independently and compared term by term.
    """
    y = MARKERS["weight"]
    one = Polynomial.one()
    reciprocal = expand([one], gap_denominator(y, p).coeffs, order + p)
    if any(c != one for c in islice(reciprocal, p)):
        return False
    return all(a == b for a, b in zip(gf_terms(p, "weight", order), reciprocal))


def verify_cube_count_gf(p: int, k: int, order: int = DEFAULT_ORDER) -> bool:
    """Coefficient check of the fixed-k cube-count generating function.

    The series is t^e / Q^(k+1), Q = 1 - t - t^{p+1}, e = kp - p + k: its
    t^n coefficient is [t^(n-e)] 1/Q^(k+1), or 0 for n < e, and must equal
    the closed-form count for every n <= order.  As e >= -p, the expansion
    runs to order + p at most.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    powered = Polynomial.from_coeffs(gap_denominator(1, p).coeffs) ** (k + 1)
    exponent = k * p - p + k
    terms = expand([1], powered.coeffs, order - exponent)
    shifted = chain(repeat(0, max(exponent, 0)), islice(terms, max(-exponent, 0), None))
    return all(
        c == cube_count_closed(p, n, k) for n, c in zip(range(order + 1), shifted)
    )
