import decimal
from itertools import islice, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibpcubes import invariants, sequences
from fibpcubes.invariants import irregularity_closed
from fibpcubes.sequences import (
    _jump_pays,
    _sums_pay,
    binomial,
    convolve_prefix,
    decimal_text,
    direction_products,
    direction_row_products,
    direction_row_sums,
    edge_denominator,
    edge_terms,
    edges_rising,
    kfold_convolution,
    pair_denominator,
    pfib,
    pfib_falling,
    pfib_from,
    pfib_terms,
    recurrent_terms,
    square_sum_closed,
    total_edges_closed,
)
from fibpcubes.strings import weight_census, weight_row


def classical_fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def plain_prefix(p, m):
    """F_0 .. F_m by the recurrence, from the seed F_0 = 0, F_1 .. F_{p+1} = 1."""
    values = [0] + [1] * (p + 1)
    while len(values) <= m:
        values.append(values[-1] + values[-p - 1])
    return values[: m + 1]


def tuple_sum_oracle(p, k, m):
    """Direct enumeration of (k+1)-tuples summing to m."""
    total = 0
    for head in product(range(m + 1), repeat=k):
        rest = m - sum(head)
        if rest < 0:
            continue
        prod = pfib(p, rest)
        for i in head:
            prod *= pfib(p, i)
        total += prod
    return total


def test_known_values():
    assert pfib(1, 7) == 13
    assert pfib(2, 5) == 3
    assert pfib(0, 6) == 32
    assert pfib(3, 0) == 0


def test_matches_classical_sequence():
    for n in range(31):
        assert pfib(1, n) == classical_fibonacci(n)


def test_linear_window():
    # F^p_n = n - p throughout [p+1, 2p+2]
    for p in range(1, 7):
        for n in range(p + 1, 2 * p + 3):
            assert pfib(p, n) == n - p


def test_p_zero_is_powers_of_two():
    assert pfib(0, 0) == 0
    for n in range(1, 20):
        assert pfib(0, n) == 2 ** (n - 1)


def test_recursion_and_monotone():
    for p in range(5):
        values = [pfib(p, n) for n in range(40)]
        assert values[0] == 0
        for i in range(1, p + 1):
            assert values[i] == 1
        for n in range(p + 1, 40):
            if p >= 1:
                assert values[n] == values[n - 1] + values[n - p - 1]
        assert all(a <= b for a, b in zip(values[1:], values[2:]))


@pytest.mark.parametrize("p", range(7))
def test_each_start_steps_on_from_the_recurrence(p):
    fib = plain_prefix(p, 120)
    for n in range(81):
        assert list(islice(pfib_from(p, n), 40)) == fib[n : n + 40]
        assert pfib(p, n) == fib[n]


def test_seed_is_skipped_at_huge_p():
    # F_k = k - p on [p + 1, 2p + 2]; no step walks the p + 1 seed ones.
    huge = 10**12
    assert pfib(huge, huge + 4) == 4
    assert list(islice(pfib_from(huge, huge), 4)) == [1, 1, 2, 3]
    assert list(islice(pfib_from(10**20, 0), 3)) == [0, 1, 1]


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        pfib(-1, 3)
    with pytest.raises(ValueError):
        pfib(2, -1)
    with pytest.raises(ValueError):
        kfold_convolution(1, -1, 3)
    with pytest.raises(ValueError):
        kfold_convolution(1, 1, -3)
    with pytest.raises(ValueError):
        total_edges_closed(1, -1)


def test_binomial_convention():
    assert binomial(4, 2) == 6
    assert binomial(2, 3) == 0
    assert binomial(0, 0) == 1
    assert binomial(-1, 0) == 0
    assert binomial(5, -1) == 0


@given(st.integers(0, 40), st.integers(-5, 45))
def test_binomial_matches_pascal(n, k):
    if 0 < k <= n:
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_convolve_prefix_plain():
    assert convolve_prefix([1, 1], [1, 1], 2) == [1, 2, 1]
    assert convolve_prefix([0, 1, 2], [3], 2) == [0, 3, 6]


def test_kfold_examples():
    assert kfold_convolution(1, 1, 4) == 5
    assert kfold_convolution(2, 1, 5) == 6


def test_kfold_zero_is_sequence_value():
    for p in range(4):
        for m in range(12):
            assert kfold_convolution(p, 0, m) == pfib(p, m)


def test_kfold_matches_tuple_enumeration():
    for p in range(4):
        for k in range(4):
            for m in range(13):
                assert kfold_convolution(p, k, m) == tuple_sum_oracle(p, k, m)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10))
def test_kfold_matches_tuple_enumeration_random(p, k, m):
    assert kfold_convolution(p, k, m) == tuple_sum_oracle(p, k, m)


def table_sums(p, last, power):
    """sum_i (F_i F_{m-i+1})^power for m = 0 .. last, from the recurrence."""
    fib = plain_prefix(p, last + 1)
    return [
        sum((fib[i] * fib[m - i + 1]) ** power for i in range(1, m + 1))
        for m in range(last + 1)
    ]


def recurrence_holds(denominator, terms, start):
    """sum_j q_j a_{k-j} = 0 for every k from start to the last term."""
    return all(
        sum(q * terms[k - j] for j, q in enumerate(denominator)) == 0
        for k in range(start, len(terms))
    )


def test_jump_returns_stored_terms_then_recurs():
    # a_k = a_{k-1} + 2 a_{k-2} from 0, 1: the Jacobsthal numbers.
    q, initial = (1, -1, -2), (0, 1)
    jacobsthal = [(2**k - (-1) ** k) // 3 for k in range(70)]
    for n in range(60):
        assert recurrent_terms(q, initial, n) == [jacobsthal[n]]
        assert recurrent_terms(q, initial, n, 10) == jacobsthal[n : n + 10]
    assert recurrent_terms(q, initial, 5, 0) == []
    # A longer start: the recurrence a_k = 2 a_{k-1} holds only from k = 2.
    assert recurrent_terms((1, -2), (0, 1), 0, 6) == [0, 1, 2, 4, 8, 16]


@pytest.fixture(params=["jump", "windows"])
def route(request, monkeypatch):
    """Every scalar sequence by the one route, whatever its cost."""
    monkeypatch.setattr(
        sequences, "_jump_pays", lambda order, n: request.param == "jump"
    )
    invariants._closed_parts.cache_clear()
    yield request.param
    invariants._closed_parts.cache_clear()


@pytest.mark.parametrize("p", range(7))
def test_each_route_matches_the_table(p, route):
    last = 300
    fib = plain_prefix(p, last + p + 1)
    edges = table_sums(p, last, 1)
    squares = table_sums(p, last, 2)
    assert pfib_terms(p, 0, last + p + 2) == fib
    assert edge_terms(p, 0, last + 1) == edges
    for n in range(last + 1):
        assert pfib_terms(p, n + p + 1) == [fib[n + p + 1]]
        assert total_edges_closed(p, n) == edges[n]
        assert square_sum_closed(p, n) == squares[n]
        if n >= p:
            assert irregularity_closed(p, n) == 2 * sum(edges[n - p : n])


def test_jump_serves_small_p_and_windows_large_p():
    # Every scalar of the grids p 0..6, n 0..300 goes through the jump, so
    # the denominators' fault rows reach it.
    assert all(
        _jump_pays(order, n)
        for p in range(7)
        for order in (p + 1, 2 * p + 2, (p + 1) * (p + 2))
        for n in range(301)
    )
    # Where p is large beside n the jump's ~order^2 products lose to n steps.
    assert not _jump_pays(10**6 + 1, 10**6 + 4)
    assert not _jump_pays(301 * 302, 5)
    assert not _jump_pays(101 * 102, 20000)
    assert _jump_pays(3 * 4, 8000) and _jump_pays(7 * 8, 10**5)


def test_row_sums_serve_long_entries_at_small_p():
    # On ints the sums serve where p > 0 and 250 (p+1)^2 <= n, on decimals
    # where 43 (p+1)(p+23) <= n; each bound comes from the crossovers that
    # _sums_pay names.  At p = 0 they never serve.
    assert not _sums_pay(1, 999) and _sums_pay(1, 1000)
    assert not _sums_pay(2, 2249) and _sums_pay(2, 2250)
    assert not _sums_pay(8, 20000) and _sums_pay(5, 20000)
    assert not _sums_pay(100, 20000) and _sums_pay(100, 250 * 101**2)
    assert not _sums_pay(0, 10**9) and not _sums_pay(10**12, 3)
    assert not _sums_pay(1, 2063, True) and _sums_pay(1, 2064, True)
    assert not _sums_pay(3, 4471, True) and _sums_pay(3, 4472, True)
    assert not _sums_pay(8, 11996, True) and _sums_pay(8, 11997, True)
    assert not _sums_pay(12, 19564, True) and _sums_pay(12, 19565, True)
    # Where closed_large_n runs the row, both types take the sums.
    assert _sums_pay(2, 7600) and _sums_pay(2, 7600, True)
    assert not _sums_pay(100, 20000, True) and not _sums_pay(0, 10**9, True)


def test_row_route_reads_the_entry_type(monkeypatch):
    # At (8, 20000) the printed row, on decimals, comes by the sums; the
    # int row there stays on the products.
    for name in ("direction_row_products", "direction_row_sums"):
        monkeypatch.setattr(sequences, name, lambda p, n, one, name=name: name)
    assert direction_products(8, 20000, decimal.Decimal(1)) == "direction_row_sums"
    assert direction_products(8, 20000) == "direction_row_products"


@pytest.mark.parametrize("p", range(7))
def test_square_sum_denominator_is_certified(p):
    # Q_S has degree (p+1)(p+2)/2, and Q_S^2 annihilates S on twice its
    # order in terms past the (p+1)(p+2) stored ones.
    q_s = pair_denominator(p)
    degree = (p + 1) * (p + 2) // 2
    assert len(q_s) == degree + 1 and q_s[0] == 1 and q_s[-1] != 0
    order = 2 * degree
    q = [
        sum(q_s[j] * q_s[k - j] for j in range(max(0, k - degree), min(k, degree) + 1))
        for k in range(order + 1)
    ]
    assert recurrence_holds(q, table_sums(p, 3 * order - 1, 2), order)
    # Q_S alone annihilates F_i^2, after F_0 = 0 at p = 0.
    squares = [f * f for f in plain_prefix(p, 3 * degree + 1)]
    assert recurrence_holds(q_s, squares, degree + 1)
    assert recurrence_holds(edge_denominator(p), table_sums(p, 6 * p + 6, 1), 2 * p + 2)


def test_square_sum_denominator_of_the_classical_squares():
    # sum F_i^2 t^i = t (1 - t) / ((1 + t)(1 - 3t + t^2)).
    assert pair_denominator(1) == (1, -2, -2, 1)
    assert pair_denominator(0) == (1, -4)


@pytest.mark.parametrize("p", range(5))
def test_windows_run_both_ways(p, route):
    fib = plain_prefix(p, 60)
    assert list(islice(pfib_from(p, 1), 60)) == fib[1:]
    for n in range(61):
        assert list(pfib_falling(p, n)) == fib[n:0:-1]
        plain = [fib[i] * fib[n - i + 1] for i in range(1, n + 1)]
        for row in (direction_row_products, direction_row_sums):
            assert list(row(p, n)) == plain, row
    assert list(islice(edges_rising(p), 61)) == table_sums(p, 60, 1)


def test_windows_start_lazily_at_huge_p():
    # Neither window holds p + 1 values before it reads past the seed.
    huge = 10**12
    assert list(islice(pfib_from(huge, 1), 3)) == [1, 1, 1]
    assert list(islice(edges_rising(huge), 4)) == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "row, p, n",
    [
        (weight_row, 1, 8000),
        (direction_products, 2, 8000),  # the switch picks the sums here
        (direction_products, 0, 4000),  # the falling window halves
        (direction_products, 100, 20000),  # the products, and no jump
    ],
    ids=["weights", "directions", "halving", "windows"],
)
def test_decimal_row_prints_the_int_row(row, p, n):
    assert list(decimal_text(row, p, n)) == [str(c) for c in row(p, n)]


def test_decimal_row_raises_where_a_step_would_round(monkeypatch):
    narrow = sequences.exact_context()
    narrow.prec = 2
    monkeypatch.setattr(sequences, "exact_context", lambda: narrow)
    with pytest.raises(decimal.Inexact):
        list(decimal_text(weight_row, 1, 30))


def test_decimal_text_keeps_the_callers_context():
    # Each step runs in the exact context, and a row that waits between its
    # entries leaves the caller's context as it found it.
    with decimal.localcontext(decimal.Context(prec=2, traps=[])) as caller:
        texts = decimal_text(weight_row, 1, 60)
        first = [next(texts), next(texts)]
        assert decimal.getcontext() is caller
        assert first + list(texts) == [str(c) for c in weight_census(1, 60)]
        assert decimal.getcontext() is caller
