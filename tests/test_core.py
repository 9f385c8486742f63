import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseq.core import (
    InversionSequence,
    Pattern,
    PatternSet,
    Relation,
    RelationTriple,
    all_triples,
    avoids_all,
    avoids_triple,
    contains_pattern,
    length3_patterns,
    reduce_word,
    triple_to_pattern_set,
    word_contains,
)
from conftest import all_inversion_sequences


class TestRelation:
    def test_holds_semantics(self):
        cases = {
            "<": lambda a, b: a < b,
            ">": lambda a, b: a > b,
            "<=": lambda a, b: a <= b,
            ">=": lambda a, b: a >= b,
            "=": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            "-": lambda a, b: True,
        }
        for sym, ref in cases.items():
            rel = Relation.from_symbol(sym)
            for a, b in itertools.product(range(-2, 3), repeat=2):
                assert rel.holds(a, b) == ref(a, b), (sym, a, b)

    def test_unicode_symbols(self):
        assert Relation.from_symbol("≤") is Relation.from_symbol("<=")
        assert Relation.from_symbol("≥") is Relation.from_symbol(">=")
        assert Relation.from_symbol("≠") is Relation.from_symbol("!=")

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            Relation.from_symbol("<>")


class TestRelationTriple:
    def test_parse_round_trip(self):
        for text in ["(-,<,>)", ">,<=,!=", "(>=,=,-)"]:
            t = RelationTriple.parse(text)
            assert RelationTriple.parse(str(t)) == t

    def test_all_triples(self):
        ts = list(all_triples())
        assert len(ts) == 343
        assert len(set(ts)) == 343


class TestPattern:
    def test_thirteen_length3_patterns(self):
        pats = {str(p) for p in length3_patterns()}
        assert pats == {
            "000", "001", "010", "011", "012", "021", "100",
            "101", "102", "110", "120", "201", "210",
        }

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Pattern.parse("031")
        with pytest.raises(ValueError):
            Pattern.parse("12")
        with pytest.raises(ValueError, match="nonnegative"):
            Pattern((-1, 0))

    @pytest.mark.parametrize("text", ["0a1", "-1", "0,1", "0²"])
    def test_rejects_non_digits_naming_the_pattern(self, text):
        with pytest.raises(ValueError, match="must be digits") as exc:
            Pattern.parse(text)
        assert repr(text) in str(exc.value)

    def test_reduce_word(self):
        assert reduce_word([5, 2, 5]).digits == (1, 0, 1)
        assert reduce_word([3, 7]).digits == (0, 1)
        assert reduce_word([4, 4, 4]).digits == (0, 0, 0)
        assert reduce_word([]).digits == ()

    def test_word_contains(self):
        assert word_contains([0, 1, 0, 2], Pattern.parse("001"))
        assert word_contains([0, 1, 0, 2], Pattern.parse("102"))
        assert not word_contains([0, 1, 2, 3], Pattern.parse("100"))
        assert word_contains([2, 2], Pattern.parse("00"))

    @given(st.lists(st.integers(0, 5), min_size=3, max_size=8))
    def test_word_contains_own_prefix_reduction(self, w):
        assert word_contains(w, reduce_word(w[:3]))

    @given(st.lists(st.integers(0, 4), min_size=0, max_size=8))
    def test_reduction_idempotent(self, w):
        r = reduce_word(w)
        assert reduce_word(r.digits).digits == r.digits


class TestTripleAvoidance:
    def test_triple_matches_pattern_set_exhaustively(self):
        seqs = [
            InversionSequence(s)
            for n in range(5)
            for s in all_inversion_sequences(n)
        ]
        for t in all_triples():
            ps = triple_to_pattern_set(t)
            for s in seqs:
                assert avoids_triple(s, t) == avoids_all(s, ps), (t, s)

    @settings(max_examples=200)
    @given(st.data())
    def test_triple_matches_pattern_set_random(self, data):
        n = data.draw(st.integers(5, 7))
        vals = tuple(data.draw(st.integers(0, i)) for i in range(n))
        seq = InversionSequence(vals)
        t = data.draw(st.sampled_from(list(all_triples())))
        assert avoids_triple(seq, t) == avoids_all(seq, triple_to_pattern_set(t))

    def test_pattern_set_is_the_filter_of_its_definition(self):
        # the literal filter of the docstring, for every triple
        for t in all_triples():
            pats = frozenset(
                p
                for p in length3_patterns()
                if t.rho1.holds(p.digits[0], p.digits[1])
                and t.rho2.holds(p.digits[1], p.digits[2])
                and t.rho3.holds(p.digits[0], p.digits[2])
            )
            assert triple_to_pattern_set(t) == PatternSet(pats), t

    def test_pattern_set_membership_is_containment(self):
        # a pattern is induced by a triple iff its digits satisfy the relations
        t = RelationTriple.parse(">,<=,!=")
        assert {str(p) for p in triple_to_pattern_set(t)} == {"100", "102", "201"}

    def test_contains_pattern(self):
        s = InversionSequence((0, 1, 0, 2))
        assert contains_pattern(s, Pattern.parse("010"))
        assert not contains_pattern(s, Pattern.parse("110"))
