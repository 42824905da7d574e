from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibpcubes.errors import SizeLimitError
from fibpcubes.sequences import pfib
from fibpcubes.strings import (
    PString,
    count_by_weight,
    enumerate_pstrings,
    is_pvalid,
    max_weight,
    weight_census,
)

from conftest import from01, ones


def naive_valid(text, p):
    ones = [i for i, ch in enumerate(text) if ch == "1"]
    return all(j - i >= p + 1 for i, j in zip(ones, ones[1:]))


def brute_enumeration(p, n):
    return [
        "".join(bits)
        for bits in product("01", repeat=n)
        if naive_valid("".join(bits), p)
    ]


class TestPString:
    def test_round_trip(self):
        for text in ("", "0", "1", "1001", "0110"):
            assert from01(text).to01() == text

    def test_weight_and_ones(self):
        u = from01("10010")
        assert u.weight == 2
        assert ones(u) == (1, 4)
        assert ones(from01("")) == ()

    def test_bit_is_one_indexed_from_left(self):
        # u_1 is packed at the most significant of the n bits
        u = from01("100")
        assert [(u.bits >> (u.n - i)) & 1 for i in (1, 2, 3)] == [1, 0, 0]

    def test_ordering_is_lexicographic(self):
        texts = ["0011", "1100", "0000", "0101"]
        strings = sorted(from01(t) for t in texts)
        assert [s.to01() for s in strings] == sorted(texts)
        # length first, then bits; every comparison, and only between PStrings
        assert from01("1") < from01("00") and from01("00") > from01("1")
        assert from01("01") <= from01("01") < from01("10") >= from01("10")
        with pytest.raises(TypeError):
            from01("01") < (2, 2)

    def test_value_semantics(self):
        u = PString(4, 0b0101)
        assert u == from01("0101") and hash(u) == hash(from01("0101"))
        assert u != PString(4, 0b0110) and u != PString(5, 0b0101)
        assert u != (4, 0b0101)  # only a PString equals a PString
        assert len({u, from01("0101"), from01("00101")}) == 2
        assert repr(u) == "PString('0101')" and repr(from01("")) == "PString('')"

    def test_validation(self):
        with pytest.raises(ValueError, match="length must be non-negative, got -1"):
            PString(-1, 0)
        with pytest.raises(ValueError, match="bits 0x4 out of range for length 2"):
            PString(2, 4)
        with pytest.raises(ValueError, match="out of range"):
            PString(2, -1)


class TestValidity:
    def test_examples(self):
        assert is_pvalid(from01("1001").bits, 2)
        assert not is_pvalid(from01("1010").bits, 2)
        assert is_pvalid(from01("0000").bits, 5)

    def test_huge_p_tries_at_most_n_shifts(self):
        # A shift by n or more clears every bit; p = 10^12 shifts would hang.
        assert is_pvalid(0b100, 10**12)
        assert not is_pvalid(0b101, 10**12)

    def test_p_zero_accepts_everything(self):
        for bits in range(16):
            assert is_pvalid(bits, 0)

    @given(st.integers(0, 3), st.binary(min_size=0, max_size=2))
    def test_matches_naive_gap_check(self, p, raw):
        text = "".join(format(b, "08b") for b in raw)
        assert is_pvalid(from01(text).bits, p) == naive_valid(text, p)


class TestEnumeration:
    def test_exact_small_case(self):
        got = [u.to01() for u in enumerate_pstrings(2, 4)]
        assert got == ["0000", "0001", "0010", "0100", "1000", "1001"]

    def test_unit_cases(self):
        assert len(enumerate_pstrings(1, 3)) == 5
        empty = enumerate_pstrings(3, 0)
        assert empty == [PString(0, 0)]

    def test_p_zero_gives_all_strings(self):
        for n in range(6):
            got = enumerate_pstrings(0, n)
            assert [u.bits for u in got] == list(range(2**n))

    def test_counts_match_sequence(self):
        for p in range(5):
            for n in range(13):
                assert len(enumerate_pstrings(p, n)) == pfib(p, n + p + 1)

    def test_matches_brute_force_filter(self):
        for p in range(4):
            for n in range(9):
                assert [u.to01() for u in enumerate_pstrings(p, n)] == (
                    brute_enumeration(p, n)
                )

    def test_sorted_and_valid(self):
        for p in (1, 3):
            strings = enumerate_pstrings(p, 10)
            assert strings == sorted(strings)
            assert all(is_pvalid(u.bits, p) for u in strings)

    def test_cap(self, monkeypatch):
        with pytest.raises(SizeLimitError, match="F\\^1_33"):
            enumerate_pstrings(1, 31)
        monkeypatch.setattr("fibpcubes.strings.MAX_VERTICES", 13)
        assert len(enumerate_pstrings(1, 5)) == 13
        with pytest.raises(SizeLimitError):
            enumerate_pstrings(1, 6)


class TestWeights:
    def test_examples(self):
        assert count_by_weight(1, 4, 2) == 3
        assert count_by_weight(2, 4, 2) == 1
        for p, n in ((1, 5), (3, 2), (0, 4)):
            assert count_by_weight(p, n, 0) == 1

    def test_census_matches_enumeration(self):
        for p in range(1, 4):
            for n in range(15):
                strings = enumerate_pstrings(p, n)
                top = max_weight(p, n)
                for w in range(top + 2):
                    expected = sum(1 for u in strings if u.weight == w)
                    assert count_by_weight(p, n, w) == expected

    def test_census_partitions_vertex_set(self):
        for p in range(5):
            for n in range(14):
                total = sum(
                    count_by_weight(p, n, w) for w in range(max_weight(p, n) + 1)
                )
                assert total == pfib(p, n + p + 1)

    def test_row_matches_each_weight(self):
        # n = 0 and n < p included
        for p in range(7):
            for n in range(81):
                assert weight_census(p, n) == [
                    count_by_weight(p, n, w) for w in range(max_weight(p, n) + 1)
                ], (p, n)

    def test_row_at_huge_p_cancels_the_gap(self):
        # uncancelled, the first ratio would multiply a billion factors
        assert weight_census(10**9, 3) == [1, 3]

    def test_max_weight(self):
        assert max_weight(2, 4) == 2
        assert max_weight(1, 5) == 3
        for p in range(1, 5):
            assert max_weight(p, 0) == 0

    def test_max_weight_is_attained(self):
        for p in range(1, 4):
            for n in range(12):
                best = max(u.weight for u in enumerate_pstrings(p, n))
                assert best == max_weight(p, n)
