"""Brute-force enumeration: the ground truth every other module is checked against.

Counting is exhaustive depth-first search with prefix pruning: a prefix is
abandoned as soon as it contains a forbidden pattern, which can never
disappear by extending on the right.  The pattern bookkeeping uses value
bitmasks so that checking a candidate extension is a handful of integer
operations, but the semantics are exactly "some subsequence reduces to a
forbidden pattern".  A separate no-pruning path (filter all n! sequences
with :func:`invseq.core.avoids_all`) exists in the test-suite as a
cross-check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import (
    InversionSequence,
    Pattern,
    PatternSet,
    reduce_word,
)

DEFAULT_BOUND = 10
BOUND_ENV_VAR = "INVSEQ_ORACLE_BOUND"


class OracleBoundError(ValueError):
    """Raised when a request exceeds the exhaustive-search guard."""


def oracle_bound(override: int | None = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(BOUND_ENV_VAR, str(DEFAULT_BOUND))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BOUND_ENV_VAR} must be an integer, not {raw!r}") from None


def _sign(a: int, b: int) -> int:
    return (a > b) - (a < b)


def _compile_patterns(patterns: Iterable[Pattern]) -> tuple[list, list, bool]:
    """Split patterns into length-3 relation triples, length-2 relations,
    and a flag for a length<=1 pattern (which forbids everything)."""
    triples = []
    pairs = []
    kill_all = False
    for p in patterns:
        d = p.digits
        if len(d) == 3:
            triples.append((_sign(d[0], d[1]), _sign(d[1], d[2]), _sign(d[0], d[2])))
        elif len(d) == 2:
            pairs.append(_sign(d[0], d[1]))
        elif len(d) <= 1:
            kill_all = True
        else:
            raise ValueError(f"patterns longer than 3 are not supported: {p}")
    return triples, pairs, kill_all


class _Masks:
    """Per-run bitmask tables over the value alphabet [0, size)."""

    def __init__(self, size: int):
        full = (1 << size) - 1
        self.lt = [(1 << y) - 1 for y in range(size)]  # {v : v < y}
        self.gt = [full & ~((1 << (y + 1)) - 1) for y in range(size)]  # {v : v > y}
        self.eq = [1 << y for y in range(size)]

    def rel(self, sign: int, y: int) -> int:
        # {v : y (sign) v}: sign=-1 means y < v, +1 means y > v, 0 means y = v
        if sign < 0:
            return self.gt[y]
        if sign > 0:
            return self.lt[y]
        return self.eq[y]

    def rel_rev(self, sign: int, y: int) -> int:
        # {x : x (sign) y}
        if sign < 0:
            return self.lt[y]
        if sign > 0:
            return self.gt[y]
        return self.eq[y]


def _new_forbidden(masks: _Masks, triples: list, valset: int, w: int, forb: int) -> int:
    """Update the forbidden-value mask after appending value w.

    New pattern occurrences with w as middle element have some earlier x
    with x rel12 w; the union of the induced constraints on a future third
    value is computable from min/max of the matching x's because each
    relation defines a monotone family of masks.
    """
    for r12, r23, r13 in triples:
        xs = valset & masks.rel_rev(r12, w)
        if not xs:
            continue
        if r13 < 0:  # x < v for some matching x: v > min(xs)
            u = masks.gt[(xs & -xs).bit_length() - 1]
        elif r13 > 0:  # x > v: v < max(xs)
            u = masks.lt[xs.bit_length() - 1]
        else:
            u = xs
        forb |= masks.rel(r23, w) & u
    return forb


def _blocked_now(masks: _Masks, pairs: list, valset: int, w: int) -> bool:
    return any(valset & masks.rel_rev(r, w) for r in pairs)


def count_avoiders(n: int, patterns: PatternSet, bound: int | None = None) -> int:
    """|I_n(S)|, by pruned exhaustive search."""
    limit = oracle_bound(bound)
    if n > limit:
        raise OracleBoundError(f"n={n} exceeds exhaustive-search bound {limit}")
    triples, pairs, kill_all = _compile_patterns(patterns)
    if kill_all:
        return 0
    if n == 0:
        return 1
    masks = _Masks(n)

    def rec(pos: int, valset: int, forb: int) -> int:
        if pos == n:
            return 1
        total = 0
        allowed = ~forb & ((1 << (pos + 1)) - 1)
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            w = bit.bit_length() - 1
            if pairs and _blocked_now(masks, pairs, valset, w):
                continue
            total += rec(
                pos + 1,
                valset | bit,
                _new_forbidden(masks, triples, valset, w, forb),
            )
        return total

    return rec(0, 0, 0)


def enumerate_avoiders(
    n: int, patterns: PatternSet, bound: int | None = None
) -> list[InversionSequence]:
    """The avoiders themselves, in lexicographic order."""
    limit = oracle_bound(bound)
    if n > limit:
        raise OracleBoundError(f"n={n} exceeds exhaustive-search bound {limit}")
    triples, pairs, kill_all = _compile_patterns(patterns)
    if kill_all:
        return []
    if n == 0:
        return [InversionSequence(())]
    masks = _Masks(n)
    out: list[InversionSequence] = []
    prefix: list[int] = []

    def rec(pos: int, valset: int, forb: int) -> None:
        if pos == n:
            out.append(InversionSequence(tuple(prefix)))
            return
        for w in range(pos + 1):
            if forb >> w & 1:
                continue
            if pairs and _blocked_now(masks, pairs, valset, w):
                continue
            prefix.append(w)
            rec(
                pos + 1,
                valset | (1 << w),
                _new_forbidden(masks, triples, valset, w, forb),
            )
            prefix.pop()

    rec(0, 0, 0)
    return out


@dataclass(frozen=True)
class WordConstraint:
    """Words of length k on the alphabet {1..b} avoiding classical patterns.

    Forbidden words are given as plain digit tuples (e.g. (2,1,2)); only
    their reduction matters for containment, so they are normalised here.
    """

    length: int
    max_letter: int
    forbidden: frozenset[Pattern] = field(default_factory=frozenset)
    surjective: bool = False

    def __post_init__(self) -> None:
        if self.max_letter < 1:
            raise ValueError("alphabet must be nonempty")
        if self.surjective and self.max_letter > self.length:
            raise ValueError("surjective words need b <= k")

    @classmethod
    def of(
        cls,
        length: int,
        max_letter: int,
        forbidden: Iterable[Sequence[int] | str] = (),
        surjective: bool = False,
    ) -> "WordConstraint":
        pats = frozenset(
            reduce_word([int(c) for c in w] if isinstance(w, str) else list(w))
            for w in forbidden
        )
        return cls(length, max_letter, pats, surjective)


def count_words(constraint: WordConstraint, bound: int | None = None) -> int:
    """Count words satisfying the constraint, by pruned exhaustive search."""
    limit = oracle_bound(bound)
    k, b = constraint.length, constraint.max_letter
    if k > limit or b > limit:
        raise OracleBoundError(f"k={k}, b={b} exceeds exhaustive-search bound {limit}")
    triples, pairs, kill_all = _compile_patterns(constraint.forbidden)
    if kill_all:
        return 0
    if k == 0:
        return 0 if constraint.surjective and b > 0 else 1
    masks = _Masks(b + 1)
    alphabet_full = ((1 << (b + 1)) - 1) & ~1  # letters 1..b
    surjective = constraint.surjective

    def rec(pos: int, valset: int, forb: int) -> int:
        if surjective:
            missing = bin(alphabet_full & ~valset).count("1")
            if missing > k - pos:
                return 0
        if pos == k:
            return 1
        total = 0
        allowed = alphabet_full & ~forb
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            w = bit.bit_length() - 1
            if pairs and _blocked_now(masks, pairs, valset, w):
                continue
            total += rec(
                pos + 1,
                valset | bit,
                _new_forbidden(masks, triples, valset, w, forb),
            )
        return total

    return rec(0, 0, 0)
