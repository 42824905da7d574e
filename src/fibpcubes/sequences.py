"""Fibonacci p-number sequences, binomial coefficients, and convolutions.

Everything downstream counts with these values, and the counts overflow
64 bits quickly, so all arithmetic stays on Python ints.

F_n = F_{n-1} + F_{n-p-1} runs in one generator, ``pfib_from``, which
skips the seed in O(1) and holds at most p + 1 values past it.

The scalars come two ways, the jump and the windows.  The jump,
``recurrent_terms``, reaches the n-th term of a linearly recurrent
sequence in O(log n) squarings of d ints, where d is the order of its
recurrence.  It serves |V| = F(n+p+1), the edge count
|E(n)| = sum F_i F_{n-i+1}, and S(n) = sum (F_i F_{n-i+1})^2, so the
scalar closed forms hold O(n) bits, not the Theta(n^2) of every F_i up
to n.  The jump stores only each sequence's first terms, taken from
``pfib_prefix``.

The orders are p + 1, 2p + 2 and (p+1)(p+2), and the jump costs about d^2
products, so where p is large beside n the same terms come by stepping up
from the seed through windows of at most p + 1 values instead
(``_jump_pays``).

The row F_i F_{n-i+1} of per-direction edge counts also comes two ways:
one product per entry of the rising and the falling window, or 2p + 2
additions per entry to a window of (p+1)^2 cross products; ``_sums_pay``
picks one, and the counts suite checks both.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cache
from itertools import chain, islice
from operator import add, mul
from typing import Callable, Iterator, Sequence


# No table of F is kept; perfbench/run.py clears this before each in-process run.
_tables: dict = {}


def pfib_from(p: int, n: int, one=1) -> Iterator:
    """F^p_n, F^p_{n+1}, ... without end.

    The seed F_0 = 0, F_1 .. F_{p+1} = one is skipped in O(1).  Past it
    F_k = F_{k-1} + F_{k-p-1}, where F_{k-p-1} is a seed ``one`` up to
    k = 2p + 2 and then the value made p + 1 steps before, so no call costs
    O(p) before its first value, and at most min(p + 1, steps taken) values
    are held.  At p = 0 the recursion alone would collapse to all zeros; the
    explicit seed F_1 = 1 gives F_n = 2^(n-1).  The values are sums of
    seeds ``one``: ints by default, exact decimals for ``decimal_text``.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    seed = (one if k else one - one for k in range(n, p + 2))  # F_n .. F_{p+1}
    return chain(seed, islice(_past_seed(p, one), max(n - p - 2, 0), None))


def _past_seed(p: int, one) -> Iterator:
    """F_{p+2}, F_{p+3}, ... from the seed ``one``."""
    made: deque = deque()  # F_{k-p-1} .. F_{k-1} once k > 2p + 2
    last = one
    for _ in range(p + 1):
        last = last + one
        made.append(last)
        yield last
    while True:
        last = last + made.popleft()
        made.append(last)
        yield last


def pfib(p: int, n: int) -> int:
    """The Fibonacci p-number F^p_n; p = 1 gives the classical sequence."""
    return next(pfib_from(p, n))


def pfib_prefix(p: int, n: int) -> list[int]:
    """F_0 .. F_n as a fresh list."""
    return list(islice(pfib_from(p, 0), n + 1))


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
    than enumerating tuples; k = 0 is pfib(p, m).
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if k == 0:
        return pfib(p, m)
    base = pfib_prefix(p, m)
    acc = base
    for _ in range(k):
        acc = convolve_prefix(acc, base, m)
    return acc[m]


def recurrent_terms(
    denominator: Sequence[int], initial: Sequence[int], n: int, count: int = 1
) -> list[int]:
    """The terms a_n .. a_{n+count-1} of a linearly recurrent sequence.

    The sequence starts with the stored ``initial`` terms and goes on by
    the recurrence of its integer denominator Q = 1 + q_1 t + ... + q_d t^d:
    a_k = -(q_1 a_{k-1} + ... + q_d a_{k-d}) for every k >= len(initial).
    A stored term is returned as it is.  Past them, with s = len(initial) - d,
    a_{s+m} = sum_j r_j a_{s+j} for the remainder r = x^m mod chi, chi =
    x^d + q_1 x^{d-1} + ... + q_d (Fiduccia, SIAM J. Comput. 14, 1985),
    found by square-and-multiply on lists of d ints; the remainders grow
    only with the largest root.  The later terms reuse r: a_{s+m+k} =
    sum_j r_j a_{s+j+k}.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    out = list(initial[n : n + count])
    rest = count - len(out)
    if rest <= 0:
        return out
    d = len(denominator) - 1
    lead = len(initial) - d
    taps = [(k, -q) for k, q in enumerate(denominator) if k and q]
    window = list(initial[lead:])  # a_s .. a_{s+d-1}, then as many as the reuse reads
    while len(window) < d + rest - 1:
        window.append(sum(c * window[-k] for k, c in taps))
    r = _power_mod(n + len(out) - lead, taps, d)
    out.extend(sum(a * b for a, b in zip(r, window[k:])) for k in range(rest))
    return out


def _power_mod(m: int, taps: list[tuple[int, int]], d: int) -> list[int]:
    """x^m mod x^d - sum c x^(d-k) over taps (k, c), as its d coefficients."""
    r = [1] + [0] * (d - 1)
    for bit in bin(m)[2:]:
        r = _reduce(_square(r), taps, d)
        if bit == "1":
            r = _reduce([0] + r, taps, d)
    return r


def _square(r: Sequence[int]) -> list[int]:
    """The coefficients of the square, one product per unordered pair."""
    out = [0] * (2 * len(r) - 1)
    for i, a in enumerate(r):
        if a:
            out[2 * i] += a * a
            twice = a + a
            for j in range(i + 1, len(r)):
                if r[j]:
                    out[i + j] += twice * r[j]
    return out


def _reduce(poly: list[int], taps: list[tuple[int, int]], d: int) -> list[int]:
    """poly below degree d, folding each top term by x^d = sum c x^(d-k)."""
    for top in range(len(poly) - 1, d - 1, -1):
        high = poly.pop()
        if high:
            for k, c in taps:
                poly[top - k] += c * high
    return poly


@cache
def _squared(denominator: tuple[int, ...]) -> tuple[int, ...]:
    """The square of a denominator, kept for each denominator asked for."""
    return tuple(_square(denominator))


def pfib_denominator(p: int) -> tuple[int, ...]:
    """Q = 1 - t - t^(p+1), the denominator of sum F_n t^n; 1 - 2t at p = 0."""
    q = [1] + [0] * (p + 1)
    q[1] -= 1
    q[p + 1] -= 1
    return tuple(q)


def edge_denominator(p: int) -> tuple[int, ...]:
    """Q^2: sum |E(n)| t^n = t / Q^2, since |E(n)| is [t^(n+1)] of (t / Q)^2."""
    return _squared(pfib_denominator(p))


def _power_sums(denominator: Sequence[int], count: int) -> list[int]:
    """The power sums s_1 .. s_count of Q's reciprocal roots, at those indices.

    Newton's identities: k q_k = -(s_1 q_{k-1} + ... + s_k q_0), q_k = 0 past d.
    Index 0 holds 0 and is not read.
    """
    d = len(denominator) - 1
    s = [0] * (count + 1)
    for k in range(1, count + 1):
        s[k] = -(k * denominator[k] if k <= d else 0) - sum(
            denominator[j] * s[k - j] for j in range(1, min(k, d + 1))
        )
    return s


@cache
def pair_denominator(p: int) -> tuple[int, ...]:
    """Q_S = prod_{j <= k} (1 - l_j l_k t) over the roots l of x^(p+1) - x^p - 1.

    F_i = sum_j c_j l_j^i, so F_i^2 is a sum of (l_j l_k)^i and
    sum F_i^2 t^i has denominator Q_S, of degree (p+1)(p+2)/2.  In
    integers: the products l_j l_k have the power sums (s_m^2 + s_2m) / 2,
    where s are the power sums of the l, and Newton's identities turn them
    into Q_S; every division is exact.
    """
    degree = (p + 1) * (p + 2) // 2
    s = _power_sums(pfib_denominator(p), 2 * degree)
    pairs = [(s[m] * s[m] + s[2 * m]) // 2 for m in range(degree + 1)]
    q = [1]
    for k in range(1, degree + 1):
        q.append(-sum(pairs[i] * q[k - i] for i in range(1, k + 1)) // k)
    return tuple(q)


@cache
def _direction_power_sums(p: int, power: int, count: int) -> tuple[int, ...]:
    # The first terms for m < count: sum over i of (F_i F_{m-i+1})^power.
    fib = pfib_prefix(p, count)
    return tuple(
        sum((fib[i] * fib[m - i + 1]) ** power for i in range(1, m + 1))
        for m in range(count)
    )


# Below this many products either route answers within milliseconds.
JUMP_BUDGET = 1 << 16


def _jump_pays(order: int, n: int) -> bool:
    """Whether the jump, not the windows, serves term n of a recurrence of this order.

    The jump's stored terms, its denominator and each of its squarings cost
    about order^2 products; stepping up through windows costs about n steps.
    """
    return order * order * max(n.bit_length(), 1) <= max(n, JUMP_BUDGET)


def _sums_pay(p: int, n: int) -> bool:
    """Whether the sums, not the products, make the direction row at (p, n).

    Measured, the sums overtake the products near n = 2000, 4500, 12300 and
    19500 at p = 1, 3, 8 and 12 on decimals, and near 3000, 6000, 19800 and
    38000 on ints, which ``square_sum_closed`` reads from p = 7 up.  At p = 0
    every entry is 2^(n-1), and the products route makes it as cheaply.
    """
    return 0 < p and 250 * (p + 1) ** 2 <= n


def pfib_terms(p: int, n: int, count: int = 1) -> list[int]:
    """F_n .. F_{n+count-1}; the jump stores F_0 .. F_p (F_0, F_1 at p = 0)."""
    if _jump_pays(p + 1, n):
        return recurrent_terms(pfib_denominator(p), pfib_prefix(p, max(p, 1)), n, count)
    return list(islice(pfib_from(p, n), count))


def edge_terms(p: int, n: int, count: int = 1) -> list[int]:
    """|E(n)| .. |E(n+count-1)|; the jump stores the first 2p + 2."""
    if _jump_pays(2 * p + 2, n):
        q = edge_denominator(p)
        return recurrent_terms(q, _direction_power_sums(p, 1, 2 * p + 2), n, count)
    return list(islice(edges_rising(p), n, n + count))


def total_edges_closed(p: int, n: int) -> int:
    """Closed form for the size of the graph: sum of F^p_i F^p_{n-i+1}."""
    return edge_terms(p, n)[0]


def square_sum_closed(p: int, n: int) -> int:
    """S(n) = sum of (F_i F_{n-i+1})^2.

    By the jump, S is the self-convolution of F_i^2, shifted by one, over
    the denominator Q_S^2, and its first (p+1)(p+2) terms are stored.  By
    the windows, it is the sum of squares of the row.
    """
    if _jump_pays((p + 1) * (p + 2), n):
        q = _squared(pair_denominator(p))
        return recurrent_terms(q, _direction_power_sums(p, 2, len(q) - 1), n)[0]
    return sum(count * count for count in direction_products(p, n))


def pfib_falling(p: int, n: int, one=1) -> Iterator:
    """F_n, F_{n-1}, ..., F_1, each from a window of the p + 1 values above it.

    The top window F_{n-p} .. F_n comes from the jump, as ints times ``one``,
    and each step down is F_{k-p-1} = F_k - F_{k-1}.  At p = 0 that step
    would read F_{k-1} = F_k - F_{k-1}; there F_k = 2^(k-1), and each step
    halves.
    """
    if n < 1:
        return
    if p == 0:
        top = one * pfib_terms(0, n)[0]
        for _ in range(n):
            yield top
            top = top // 2
        return
    low = max(n - p, 0)
    window = deque(one * f for f in pfib_terms(p, low, n - low + 1))  # F_{k-p} .. F_k
    for k in range(n, 0, -1):
        top = window.pop()
        yield top
        if k > p + 1:
            window.appendleft(top - window[-1])


def edges_rising(p: int) -> Iterator[int]:
    """|E(0)|, |E(1)|, ... without end: |E(k)| = k up to k = p, then
    |E(k)| = |E(k-1)| + |E(k-p-1)| + F_k, from a window of p + 1 counts."""
    yield from range(p + 1)
    window = deque(range(p + 1), maxlen=p + 1)  # |E(k-p-1)| .. |E(k-1)|
    for fib in pfib_from(p, p + 1):
        window.append(window[-1] + window[0] + fib)
        yield window[-1]


def direction_products(p: int, n: int, one=1) -> Iterator:
    """F_i F_{n-i+1} for i = 1 .. n, the row of per-direction edge counts.

    Two routes make the same row: ``direction_row_products``, one product
    per entry, and ``direction_row_sums``, 2p + 2 additions per entry.  A
    product of D-digit numbers costs more than the additions once the
    entries are long beside p, so the sums serve where ``_sums_pay``.
    """
    route = direction_row_sums if _sums_pay(p, n) else direction_row_products
    return route(p, n, one)


def direction_row_products(p: int, n: int, one=1) -> Iterator:
    """The row as F_i times F_{n-i+1}, from a rising and a falling window
    that each run the whole row."""
    return map(mul, islice(pfib_from(p, 1, one), n), pfib_falling(p, n, one))


def direction_row_sums(p: int, n: int, one=1) -> Iterator:
    """The row from a window of the (p+1)^2 cross products F_{i-p+a} F_{k+p-b},
    a, b = 0 .. p, with k = n + 1 - i, by additions alone.

    Entries 1 .. p + 1 are F_n .. F_{n-p}, since F_1 .. F_{p+1} are the seed
    ones; they come from the jump as ``pfib_falling``'s top window does, and
    every row of the first window is that window.  Each step down in k appends
    F_{k-1} = F_{k+p} - F_{k+p-1} to every row, and each step up in i appends
    the row of F_{i+1} = F_i + F_{i-p}; at p = 0 the step down halves instead.
    """
    if n < 1:
        return
    low = max(n - p, 1)
    top = [one * f for f in reversed(pfib_terms(p, low, n - low + 1))]  # F_n .. F_low
    yield from top
    if n <= p + 1:
        return
    rows = deque((deque(top, p + 1) for _ in range(p + 1)), p + 1)
    for _ in range(n - p - 1):
        for row in rows:
            row.append(row[0] // 2 if p == 0 else row[0] - row[1])
        rows.append(deque(map(add, rows[0], rows[-1]), p + 1))
        yield rows[-1][-1]


def decimal_text(row: Callable[..., Iterator], p: int, n: int) -> Iterator[str]:
    """The text of each entry of ``row(p, n, one)`` from one = 1, as it is made.

    Python's int -> str is quadratic in the digits; a ``decimal.Decimal``
    holds base-10 words, and its str() is linear (Brent and Zimmermann,
    Modern Computer Arithmetic, 1.7).  The row's recurrence runs on them
    under ``exact_context``, where any step that would round raises instead.
    The decimal context is a context variable, so each step runs in a
    context of its own that holds ``exact_context``; the caller's stays as
    it was while this generator waits.  The text serves only for printing:
    every check compares the int rows.
    """
    from contextvars import copy_context
    from decimal import Decimal, setcontext

    steps = copy_context()
    steps.run(setcontext, exact_context())
    entries = steps.run(row, p, n, Decimal(1))
    while True:
        entry = steps.run(next, entries, None)
        if entry is None:
            return
        yield str(entry)


def exact_context():
    """A decimal context with the largest precision and exponents, which
    traps every condition that would make a result inexact."""
    import decimal

    return decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[
            decimal.Inexact,
            decimal.Rounded,
            decimal.InvalidOperation,
            decimal.Overflow,
            decimal.DivisionByZero,
        ],
    )
