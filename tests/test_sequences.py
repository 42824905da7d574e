from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibpcubes.sequences import (
    PFibTable,
    binomial,
    convolve_prefix,
    kfold_convolution,
    pfib,
)


def classical_fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


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


def test_table_is_append_only():
    table = PFibTable(2)
    first = table.prefix(6)
    table.value(20)
    assert table.prefix(6) == first
    assert table.prefix(6) is not table._values


class RunsOut(int):
    """An int whose sums succeed `left` more times, then raise MemoryError."""

    def __new__(cls, value, left):
        self = super().__new__(cls, value)
        self.left = left
        return self

    def __add__(self, other):
        if not self.left:
            raise MemoryError
        return RunsOut(int(self) + other, self.left - 1)


def test_table_out_of_memory_gives_back_what_it_grew():
    # The cache would otherwise stay filled to the limit that was hit, and
    # the process could not even exit cleanly.
    table = PFibTable(1)
    first = table.prefix(10)
    table._values[-1] = RunsOut(first[-1], 5)
    with pytest.raises(MemoryError):
        table.value(100)
    assert table._values == first
    table._values[-1] = first[-1]
    assert table.value(30) == classical_fibonacci(30)


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        PFibTable(-1)
    with pytest.raises(ValueError):
        pfib(2, -1)
    with pytest.raises(ValueError):
        kfold_convolution(1, -1, 3)
    with pytest.raises(ValueError):
        kfold_convolution(1, 1, -3)


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
