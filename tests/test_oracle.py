import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseq.analysis import classify_triples
from invseq.core import InversionSequence, PatternSet, avoids_all, length3_patterns
from invseq.oracle import (
    DEFAULT_BOUND,
    OracleBoundError,
    WordConstraint,
    count_avoiders,
    count_words,
    enumerate_avoiders,
    oracle_bound,
)
from conftest import all_inversion_sequences

ALL_PATTERNS = sorted(str(p) for p in length3_patterns())


def brute_count(n, patterns):
    return sum(
        avoids_all(InversionSequence(s), patterns)
        for s in all_inversion_sequences(n)
    )


class TestCountAvoiders:
    @pytest.mark.parametrize(
        "specs",
        [
            ("001",),
            ("000", "010", "110", "120"),
            ("100", "102", "201"),
            ("010", "101", "110", "120", "201", "210"),
            ("012",),
            ("00",),
            ("011", "201"),
            ("0",),
            ("",),
            ("01",),
            ("10",),
            ("10", "012"),
            ("01", "210"),
        ],
    )
    def test_matches_unpruned_filter(self, specs):
        ps = PatternSet.of(*specs)
        for n in range(7):
            assert count_avoiders(n, ps) == brute_count(n, ps)

    def test_avoiding_001_gives_powers_of_two(self):
        ps = PatternSet.of("001")
        assert [count_avoiders(n, ps) for n in range(1, 9)] == [
            2 ** (n - 1) for n in range(1, 9)
        ]

    def test_empty_pattern_set_counts_everything(self):
        import math

        ps = PatternSet.of()
        assert [count_avoiders(n, ps) for n in range(7)] == [
            math.factorial(n) for n in range(7)
        ]

    def test_sweep_matches_enumeration_in_every_cell(self):
        for ps in classify_triples(0).pattern_classes:
            for n in range(8):
                assert count_avoiders(n, ps) == len(enumerate_avoiders(n, ps)), (str(ps), n)

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            count_avoiders(-1, PatternSet.of("001"))

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.sampled_from(ALL_PATTERNS), min_size=1, max_size=4))
    def test_random_pattern_sets(self, specs):
        ps = PatternSet.of(*sorted(specs))
        for n in range(6):
            assert count_avoiders(n, ps) == brute_count(n, ps)


SHORT_PATTERNS = ALL_PATTERNS + ["00", "01", "10", "0", ""]


@functools.cache
def cached_brute_count(n, patterns):
    return brute_count(n, patterns)


class TestResumedSweep:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.sets(st.sampled_from(SHORT_PATTERNS), min_size=1, max_size=3),
            min_size=2,
            max_size=3,
        ),
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 2), st.none() | st.integers(0, 2)),
            max_size=8,
        ),
    )
    def test_any_call_order_matches_brute_force(self, sets, calls):
        # the fixed tail reads a smaller n back, alternates sets, and passes
        # a bound below a later n and one above the default
        calls = [(n, which, None if extra is None else n + extra) for n, which, extra in calls]
        tail = [(3, 0, 3), (5, 0, None), (2, 0, None), (2, 1, None)]
        tail += [(4, 0, DEFAULT_BOUND + 2), (6, 0, None), (1, 0, None)]
        sets = [PatternSet.of(*sorted(s)) for s in sets]
        for n, which, bound in calls + tail:
            ps = sets[which % len(sets)]
            assert count_avoiders(n, ps, bound) == cached_brute_count(n, ps), (n, str(ps))

    @staticmethod
    def _known(n_max):
        # I_n(000) is the up/down number E_{n+1} (Corteel, Martinez, Savage
        # and Weselcouch 2016), here by Seidel's boustrophedon
        row, up_down = [1], [1]
        for _ in range(n_max + 1):
            row = list(itertools.accumulate(reversed(row), initial=0))
            up_down.append(row[-1])
        return {"001": [1] + [2 ** (n - 1) for n in range(1, n_max + 1)], "000": up_down[1:]}

    def test_resumes_past_the_default_bound(self):
        n_max = DEFAULT_BOUND + 3
        for pattern, counts in self._known(n_max).items():
            ps = PatternSet.of(pattern)
            got = [count_avoiders(n, ps, bound=n_max) for n in range(n_max + 1)]
            assert got == counts, pattern

    def test_restarts_past_the_width(self):
        # a sweep compiled at the default bound, then asked for more: its
        # states are cut to that width, so it restarts at a wider one
        n_max = DEFAULT_BOUND + 3
        for pattern, counts in self._known(n_max).items():
            ps = PatternSet.of(pattern)
            count_avoiders(0, PatternSet.of())  # no sweep of ps to resume
            got = [count_avoiders(n, ps) for n in range(DEFAULT_BOUND + 1)]
            got += [count_avoiders(n, ps, bound=n_max) for n in range(DEFAULT_BOUND + 1, n_max + 1)]
            assert got == counts, pattern


class TestBound:
    def test_default_bound_guards(self):
        with pytest.raises(OracleBoundError):
            count_avoiders(DEFAULT_BOUND + 1, PatternSet.of("00"))

    def test_override_wins(self):
        # avoiding 00 forces all-distinct values, hence a unique sequence
        n = DEFAULT_BOUND + 1
        assert count_avoiders(n, PatternSet.of("00"), bound=n) == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("INVSEQ_ORACLE_BOUND", "3")
        assert oracle_bound() == 3
        with pytest.raises(OracleBoundError):
            count_avoiders(4, PatternSet.of("001"))
        assert oracle_bound(8) == 8

    def test_bound_error_does_not_name_the_variable(self):
        with pytest.raises(OracleBoundError) as exc:
            count_avoiders(3, PatternSet.of("001"), 2)
        assert str(exc.value) == "n=3 exceeds exhaustive-search bound 2"

    def test_negative_bound_names_the_parameter(self):
        with pytest.raises(ValueError) as exc:
            count_avoiders(3, PatternSet.of("001"), -1)
        assert str(exc.value) == "bound must be nonnegative, not -1"


class TestEnumerate:
    def test_lexicographic_and_consistent(self):
        ps = PatternSet.of("000", "010", "110", "120")
        for n in range(7):
            seqs = enumerate_avoiders(n, ps)
            assert len(seqs) == count_avoiders(n, ps)
            vals = [s.values for s in seqs]
            assert vals == sorted(vals)
            assert all(avoids_all(s, ps) for s in seqs)

    def test_one_letter_pattern_leaves_the_empty_sequence(self):
        one, empty = PatternSet.of("0"), PatternSet.of("")
        assert enumerate_avoiders(0, one) == [InversionSequence(())]
        assert enumerate_avoiders(1, one) == enumerate_avoiders(0, empty) == []


def brute_words(constraint):
    from invseq.core import word_contains

    k, b = constraint.length, constraint.max_letter
    total = 0
    for w in itertools.product(range(1, b + 1), repeat=k):
        if constraint.surjective and set(w) != set(range(1, b + 1)):
            continue
        if not any(word_contains(w, p) for p in constraint.forbidden):
            total += 1
    return total


def assert_words_match_brute_force(forbidden, surjective, max_k, max_b):
    for k in range(max_k + 1):
        for b in range(1, max_b + 1):
            if surjective and b > k:
                continue
            c = WordConstraint.of(k, b, forbidden, surjective)
            assert count_words(c) == brute_words(c), (k, b, forbidden, surjective)


class TestCountWords:
    @pytest.mark.parametrize("surjective", [False, True])
    @pytest.mark.parametrize(
        "forbidden",
        [
            (),
            ("212", "112", "213"),
            ("111", "212", "112", "213"),
            ("1",),
            ("21",),
            ("12", "111"),
            ("21", "112"),
        ],
    )
    def test_matches_brute_force(self, forbidden, surjective):
        assert_words_match_brute_force(forbidden, surjective, 6, 5)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.text("123", min_size=1, max_size=3), min_size=1, max_size=3),
        st.booleans(),
    )
    def test_random_sets_match_brute_force(self, forbidden, surjective):
        assert_words_match_brute_force(forbidden, surjective, 6, 4)

    @pytest.mark.parametrize("forbidden", [("212", "112", "213"), ("111", "212", "112", "213")])
    def test_surjective_words_on_k_letters_count_213_avoiding_permutations(self, forbidden):
        """With b = k every letter occurs once, so such a word is a permutation:
        only 213 can occur, and 213-avoiders are counted by Catalan(k)."""
        for k in range(1, 11):
            c = WordConstraint.of(k, k, forbidden, surjective=True)
            assert count_words(c) == math.comb(2 * k, k) // (k + 1), k

    def test_forbidden_words_normalised(self):
        a = WordConstraint.of(5, 3, ["212"])
        b = WordConstraint.of(5, 3, ["101"])
        assert a.forbidden == b.forbidden
        assert count_words(a) == count_words(b)

    def test_single_letter_pattern_forbids_all(self):
        assert count_words(WordConstraint.of(4, 2, ["1"])) == 0

    def test_negative_length_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WordConstraint.of(-1, 2)

    def test_surjective_needs_enough_length(self):
        with pytest.raises(ValueError):
            WordConstraint.of(2, 3, (), surjective=True)

    def test_empty_alphabet_is_refused(self):
        with pytest.raises(ValueError, match="alphabet must be nonempty"):
            WordConstraint.of(1, 0)
