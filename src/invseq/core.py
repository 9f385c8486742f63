"""Inversion sequences, patterns, and triples of binary relations.

An inversion sequence of length n is an integer sequence (a_1, ..., a_n)
with 0 <= a_i < i (1-based).  Avoidance comes in two flavours: classical
word patterns (containment of a subsequence with the same relative order,
equalities included) and triples of binary relations forbidding any
i < j < k with a_i rho1 a_j, a_j rho2 a_k, a_i rho3 a_k.  The two
formalisms are linked by :func:`triple_to_pattern_set`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Sequence


class Relation(enum.Enum):
    """A binary relation on integers; ANY holds for every pair."""

    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "="
    NE = "!="
    ANY = "-"

    def holds(self, a: int, b: int) -> bool:
        return _RELATION_TESTS[self](a, b)

    @classmethod
    def from_symbol(cls, s: str) -> "Relation":
        s = s.strip()
        s = _UNICODE_SYMBOLS.get(s, s)
        for rel in cls:
            if rel.value == s:
                return rel
        raise ValueError(f"unknown relation symbol: {s!r}")

    def __str__(self) -> str:
        return self.value


_RELATION_TESTS = {
    Relation.LT: lambda a, b: a < b,
    Relation.GT: lambda a, b: a > b,
    Relation.LE: lambda a, b: a <= b,
    Relation.GE: lambda a, b: a >= b,
    Relation.EQ: lambda a, b: a == b,
    Relation.NE: lambda a, b: a != b,
    Relation.ANY: lambda a, b: True,
}

_UNICODE_SYMBOLS = {"≤": "<=", "≥": ">=", "≠": "!=", "−": "-"}


@dataclass(frozen=True, order=True)
class RelationTriple:
    rho1: Relation
    rho2: Relation
    rho3: Relation

    @classmethod
    def parse(cls, text: str) -> "RelationTriple":
        """Parse e.g. ">,<=,!=" or "(-, >=, >)"."""
        parts = text.strip().strip("()").split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three relations, got {text!r}")
        return cls(*(Relation.from_symbol(p) for p in parts))

    def __str__(self) -> str:
        return f"({self.rho1},{self.rho2},{self.rho3})"


def all_triples() -> Iterator[RelationTriple]:
    """All 7^3 = 343 triples of binary relations."""
    for r1, r2, r3 in product(Relation, repeat=3):
        yield RelationTriple(r1, r2, r3)


@dataclass(frozen=True, order=True)
class Pattern:
    """A reduced word: contains every digit from 0 to max(digits)."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.digits:
            if min(self.digits) < 0:
                raise ValueError("pattern digits must be nonnegative")
            need = set(range(max(self.digits) + 1))
            if set(self.digits) != need:
                raise ValueError(
                    f"{self.digits} is not reduced: missing digits {sorted(need - set(self.digits))}"
                )

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        text = text.strip()
        if not set(text) <= set("0123456789"):
            raise ValueError(f"bad pattern {text!r}: its letters must be digits 0-9")
        return cls(tuple(map(int, text)))

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "".join(str(d) for d in self.digits)


@dataclass(frozen=True)
class PatternSet:
    patterns: frozenset[Pattern]

    @classmethod
    def of(cls, *specs: str) -> "PatternSet":
        return cls(frozenset(map(Pattern.parse, specs)))

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.patterns)

    def __str__(self) -> str:
        return "(" + ", ".join(sorted(str(p) for p in self.patterns)) + ")"


@dataclass(frozen=True, order=True)
class InversionSequence:
    values: tuple[int, ...]


def reduce_word(word: Sequence[int]) -> Pattern:
    """Relabel entries to 0,1,2,... preserving relative order and equalities."""
    ranks = {v: r for r, v in enumerate(sorted(set(word)))}
    return Pattern(tuple(ranks[v] for v in word))


def _order_isomorphic(sub: Sequence[int], pattern: Sequence[int]) -> bool:
    k = len(pattern)
    for i in range(k):
        for j in range(i + 1, k):
            if (sub[i] < sub[j]) != (pattern[i] < pattern[j]):
                return False
            if (sub[i] == sub[j]) != (pattern[i] == pattern[j]):
                return False
    return True


def word_contains(word: Sequence[int], pattern: Pattern) -> bool:
    """True iff some (not necessarily consecutive) subsequence reduces to pattern.

    Deliberately a direct search: this is the trusted oracle predicate.
    """
    k = len(pattern)
    if k == 0:
        return True
    if k > len(word):
        return False
    digits = pattern.digits
    for idx in combinations(range(len(word)), k):
        if _order_isomorphic([word[i] for i in idx], digits):
            return True
    return False


def contains_pattern(seq: InversionSequence, pattern: Pattern) -> bool:
    return word_contains(seq.values, pattern)


def avoids_all(seq: InversionSequence, patterns: PatternSet) -> bool:
    return not any(contains_pattern(seq, p) for p in patterns)


def avoids_triple(seq: InversionSequence, triple: RelationTriple) -> bool:
    a = seq.values
    for i, j, k in combinations(range(len(a)), 3):
        if (
            triple.rho1.holds(a[i], a[j])
            and triple.rho2.holds(a[j], a[k])
            and triple.rho3.holds(a[i], a[k])
        ):
            return False
    return True


@functools.cache
def length3_patterns() -> tuple[Pattern, ...]:
    """All reduced words of length 3 over {0,1,2} (there are 13), built once."""
    out = []
    for w in product(range(3), repeat=3):
        if set(w) == set(range(max(w) + 1)):
            out.append(Pattern(w))
    return tuple(sorted(out))


@functools.cache
def _where(i: int, j: int, rel: Relation) -> frozenset[Pattern]:
    """The length-3 patterns whose digits i and j stand in the relation."""
    return frozenset(p for p in length3_patterns() if rel.holds(p.digits[i], p.digits[j]))


def triple_to_pattern_set(triple: RelationTriple) -> PatternSet:
    """The length-3 patterns whose occurrence realises the triple.

    sigma is included iff sigma_1 rho1 sigma_2, sigma_2 rho2 sigma_3 and
    sigma_1 rho3 sigma_3; avoiding the triple is then the same as avoiding
    this set.
    """
    pats = _where(0, 1, triple.rho1) & _where(1, 2, triple.rho2) & _where(0, 2, triple.rho3)
    return PatternSet(pats)
