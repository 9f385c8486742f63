from math import comb

import pytest

from invseq.combinat import (
    catalan,
    multiplicity_m,
    multiplicity_w,
    words_R1R2,
    words_R1R3,
)


class TestCatalan:
    def test_values(self):
        assert [catalan(b) for b in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestSupport:
    def test_empty_word(self):
        assert words_R1R2(0, 0) == 1
        assert words_R1R3(0, 0) == 1

    def test_outside_support(self):
        assert words_R1R2(3, 4) == 0  # not enough letters to be surjective
        assert words_R1R3(5, 2) == 0  # each letter at most twice
        assert multiplicity_m(3, 5) == 0
        assert multiplicity_w(7, 2) == 0
        assert multiplicity_w(2, 3) == 0  # b > ell, where math.comb would raise


class TestIdentities:
    def test_multiplicity_m_is_partial_sum(self):
        for ell in range(13):
            for b in range(ell + 1):
                assert multiplicity_m(ell, b) == sum(
                    words_R1R2(k, b) for k in range(b, ell + 1)
                ), (ell, b)

    def test_multiplicity_w_is_adjacent_sum(self):
        for ell in range(13):
            for b in range(ell + 1):
                assert multiplicity_w(ell, b) == words_R1R3(ell - 1, b) + words_R1R3(
                    ell, b
                ), (ell, b)

    def test_closed_forms(self):
        for ell in range(13):
            for b in range(ell + 1):
                assert multiplicity_m(ell, b) == comb(ell, b) * catalan(b)
