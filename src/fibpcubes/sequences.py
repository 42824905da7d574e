"""Fibonacci p-number sequences, binomial coefficients, and convolutions.

Everything downstream counts with these values, and the counts overflow
64 bits quickly, so all arithmetic stays on Python ints.
"""

from __future__ import annotations

import math
from typing import Sequence


class PFibTable:
    """Growable table of F_0, F_1, ... for a fixed gap parameter p.

    Seeded with F_0 = 0 and F_i = 1 for i in [1, p+1]; later entries follow
    F_n = F_{n-1} + F_{n-p-1}.  For p >= 1 the seed at p+1 agrees with the
    recursion (F_{p+1} = F_p + F_0); for p = 0 the recursion alone would
    collapse to all zeros, and the explicit seed yields F_n = 2^(n-1).
    The table is append-only: values never change once returned.
    """

    __slots__ = ("p", "_values")

    def __init__(self, p: int) -> None:
        if p < 0:
            raise ValueError(f"p must be non-negative, got {p}")
        self.p = p
        self._values = [0] + [1] * (p + 1)

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"index must be non-negative, got {n}")
        values = self._values
        step = self.p + 1
        known = len(values)
        try:
            while len(values) <= n:
                values.append(values[-1] + values[-step])
        except MemoryError:
            # The cached table gives back what this call grew.  One entry at
            # a time: deleting a slice would allocate a buffer for it.
            while len(values) > known:
                values.pop()
            raise
        return values[n]

    def prefix(self, n: int) -> list[int]:
        """The values F_0 .. F_n as a fresh list."""
        self.value(n)
        return self._values[: n + 1]


_tables: dict[int, PFibTable] = {}


def pfib_table(p: int) -> PFibTable:
    table = _tables.get(p)
    if table is None:
        table = _tables.setdefault(p, PFibTable(p))
    return table


def pfib(p: int, n: int) -> int:
    """The Fibonacci p-number F^p_n; p = 1 gives the classical sequence."""
    return pfib_table(p).value(n)


def binomial(n: int, k: int) -> int:
    """C(n, k), taken to be 0 whenever k < 0, n < 0, or k > n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def convolve_prefix(a: Sequence[int], b: Sequence[int], upto: int) -> list[int]:
    """First upto+1 coefficients of the convolution of two prefixes."""
    out = [0] * (upto + 1)
    for i, ai in enumerate(a[: upto + 1]):
        if ai:
            for j, bj in enumerate(b[: upto + 1 - i]):
                out[i + j] += ai * bj
    return out


def kfold_convolution(p: int, k: int, m: int) -> int:
    """Sum of F^p_{i_0} ... F^p_{i_k} over (k+1)-tuples with i_0+...+i_k = m.

    Computed by convolving the sequence prefix with itself k times rather
    than enumerating tuples; k = 0 reduces to pfib(p, m).
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    base = pfib_table(p).prefix(m)
    acc = base
    for _ in range(k):
        acc = convolve_prefix(acc, base, m)
    return acc[m]
