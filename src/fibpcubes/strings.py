"""Gap-constrained binary strings and their enumeration.

A string is p-valid when every two of its 1s are separated by at least p
zeros.  Strings are packed into ints with coordinate 1 (the leftmost
character) at the most significant of the n bits, so on equal lengths
numeric order coincides with lexicographic order.

The counts by weight come per weight from one binomial each
(``count_by_weight``), or as a whole row in one pass (``weight_row``,
entry by entry, and ``weight_census``, its list).

Enumeration is where a graph's vertices are allocated, so the vertex limit
lives here: ``check_vertex_limit`` refuses a length whose string count,
known in closed form before any string is made, exceeds ``MAX_VERTICES``.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Iterator

from .errors import SizeLimitError
from .sequences import binomial

# Largest vertex count enumerated: the (0, 18) graph at this size takes about
# 330 MB to build.
MAX_VERTICES = 1 << 18


@total_ordering
class PString:
    """A fixed-length binary string; bits packs u_1 ... u_n MSB-first.

    A value: == and hash read (n, bits), and strings order by (n, bits).
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        if n < 0:
            raise ValueError(f"length must be non-negative, got {n}")
        if not 0 <= bits < (1 << n):
            raise ValueError(f"bits 0x{bits:x} out of range for length {n}")
        self.n = n
        self.bits = bits

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.bits) == (other.n, other.bits)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.bits) < (other.n, other.bits)

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def to01(self) -> str:
        return bits_to01(self.n, self.bits)

    def __repr__(self) -> str:
        return f"PString({self.to01()!r})"

    @property
    def weight(self) -> int:
        return self.bits.bit_count()


def bits_to01(n: int, bits: int) -> str:
    """The packed string of length n as 0/1 text, u_1 first; "" at n = 0."""
    return format(bits, f"0{n}b") if n else ""


def _check_params(p: int, n: int) -> None:
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")


def is_pvalid(bits: int, p: int) -> bool:
    """True when every two 1s of a packed string are separated by at least p zeros.

    A shift by the bit length clears every bit, so no more shifts are tried.
    """
    if bits < 0:
        raise ValueError(f"packed bits must be non-negative, got {bits}")
    _check_params(p, 0)
    return all(not (bits & (bits >> d)) for d in range(1, min(p, bits.bit_length()) + 1))


def pvalid_bits(p: int, n: int) -> list[int]:
    """All p-valid strings of length n, packed, in lexicographic order.

    The list has pfib(p, n+p+1) entries.  Refused beyond MAX_VERTICES.
    """
    check_vertex_limit(p, n)
    # Lexicographic by construction: a leading 0 keeps the packed value,
    # a leading 1 forces at least p zeros (or the rest of the string).
    levels: list[list[int]] = [[0]]
    for m in range(1, n + 1):
        block = list(levels[m - 1])
        if m >= p + 1:
            top = 1 << (m - 1)
            block.extend(top | rest for rest in levels[m - p - 1])
        else:
            block.append(1 << (m - 1))
        levels.append(block)
    return levels[n]


def check_vertex_limit(p: int, n: int) -> None:
    """Refuse with SizeLimitError when length n has over MAX_VERTICES strings.

    Sums the weight census and stops once the sum passes the limit, so the
    cost stays small for any p and n; F up to n+p+1 is never stepped through.
    """
    total = 0
    for w in range(max_weight(p, n) + 1):
        total += count_by_weight(p, n, w)
        if total > MAX_VERTICES:
            raise SizeLimitError(
                f"p = {p}, n = {n}: |V| = F^{p}_{n + p + 1} exceeds the vertex "
                f"limit {MAX_VERTICES}"
            )


def enumerate_pstrings(p: int, n: int) -> list[PString]:
    """All p-valid strings of length n in lexicographic order.

    The list has pfib(p, n+p+1) entries; n = 0 yields the empty string and
    p = 0 yields every binary string.  Refused beyond MAX_VERTICES entries.
    """
    return [PString(n, bits) for bits in pvalid_bits(p, n)]


def max_weight(p: int, n: int) -> int:
    """Largest Hamming weight a p-valid string of length n can have."""
    _check_params(p, n)
    return (n + p) // (p + 1)


def count_by_weight(p: int, n: int, w: int) -> int:
    """Number of p-valid strings of length n with Hamming weight w.

    Equals binomial(n - w*p + p, w); the binomial convention makes it 0
    beyond the maximum weight.
    """
    _check_params(p, n)
    if w < 0:
        return 0
    return binomial(n - w * p + p, w)


def weight_census(p: int, n: int) -> list[int]:
    """The counts by weight, w = 0 .. max_weight(p, n), built in one pass."""
    return list(weight_row(p, n))


def weight_row(p: int, n: int, one=1) -> Iterator:
    """The counts by weight, w = 0 .. max_weight(p, n), each as it is made.

    With m = n - w*p + p, each entry follows from the one before by the
    exact ratio binom(m - p, w + 1) / binom(m, w), which is
    prod_{j=0..p} (m - w - j) / ((w + 1) * prod_{j<p} (m - j)).  The two
    products share the factors m - p + 1 .. m - w, and cancelling them
    leaves min(w, p) + 1 factors over min(w, p).  The product is formed
    before the floor division, which is therefore exact.  The row starts
    from ``one``: ints by default, exact decimals for ``decimal_text``.
    """
    entry = one
    yield entry
    for w in range(max_weight(p, n)):
        m, k = n - w * p + p, min(w, p)
        above = math.perm(m - max(w, p), k + 1)  # m - w - p .. m - max(w, p)
        below = math.perm(m, k) * (w + 1)  # m - k + 1 .. m, and w + 1
        entry = entry * above // below
        yield entry
