"""Brute-force enumeration: the ground truth every other module is checked against.

A prefix is abandoned as soon as it contains a forbidden pattern, which can
never disappear by extending on the right.  The pattern bookkeeping uses
value bitmasks: the state of a prefix is the set of values it uses and the
set of values that would complete a forbidden pattern, so checking a
candidate extension is a handful of integer operations, but the semantics
are exactly "some subsequence reduces to a forbidden pattern".

What a prefix may become depends on its state alone, so counting sweeps
forward one position at a time over a map from state to the number of
prefixes in it (the "label = state" view of a generating tree).
Enumeration needs the sequences themselves and stays a depth-first search;
the test-suite checks the two against each other, and both against a
no-pruning filter of all n! sequences with :func:`invseq.core.avoids_all`.
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


def _compile_patterns(patterns: Iterable[Pattern], length: int) -> tuple[list, list, bool]:
    """Split patterns into length-3 relation triples, length-2 relations, and a flag
    for a length<=1 pattern no longer than ``length`` (it occurs in every such word)."""
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
            kill_all |= len(d) <= length
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


def _require_size(what: str, size: int, bound: int | None) -> None:
    """Refuse a negative size, and one beyond the exhaustive-search bound."""
    if size < 0:
        raise ValueError(f"{what} must be nonnegative")
    limit = oracle_bound(bound)
    if size > limit:
        raise OracleBoundError(
            f"{what} exceeds exhaustive-search bound {limit} ({BOUND_ENV_VAR} raises the bound)"
        )


def _sweep(
    length: int, masks: _Masks, triples: list, pairs: list, alphabet: int | None, cover: int
) -> int:
    """Count the words of the given length in which no pattern occurs.

    One level maps each state (valset, forb) of the prefixes of one length
    to the number of prefixes in that state; which letters may extend a
    prefix, and to which state, depends on its state alone.  The letters
    at position pos are the bits of ``alphabet``, or 0..pos when it is
    None (inversion sequences).  Every letter of ``cover`` must occur: a
    state missing more of them than there are positions left is dropped,
    and the last level keeps only the states that hold them all.
    """
    level = {(0, 0): 1}
    for pos in range(length):
        letters = (1 << (pos + 1)) - 1 if alphabet is None else alphabet
        nxt: dict[tuple[int, int], int] = {}
        for (valset, forb), mult in level.items():
            if cover and (cover & ~valset).bit_count() > length - pos:
                continue
            allowed = letters & ~forb
            while allowed:
                bit = allowed & -allowed
                allowed ^= bit
                w = bit.bit_length() - 1
                if pairs and _blocked_now(masks, pairs, valset, w):
                    continue
                state = (valset | bit, _new_forbidden(masks, triples, valset, w, forb))
                nxt[state] = nxt.get(state, 0) + mult
        level = nxt
    return sum(mult for (valset, _), mult in level.items() if not cover & ~valset)


def count_avoiders(n: int, patterns: PatternSet, bound: int | None = None) -> int:
    """|I_n(S)|, by a level sweep over the states of the avoiding prefixes."""
    _require_size(f"n={n}", n, bound)
    triples, pairs, kill_all = _compile_patterns(patterns, n)
    if kill_all:
        return 0
    return _sweep(n, _Masks(n), triples, pairs, None, 0)


def enumerate_avoiders(
    n: int, patterns: PatternSet, bound: int | None = None
) -> list[InversionSequence]:
    """The avoiders themselves, in lexicographic order."""
    _require_size(f"n={n}", n, bound)
    triples, pairs, kill_all = _compile_patterns(patterns, n)
    if kill_all:
        return []
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
        if self.length < 0:
            raise ValueError("word length must be nonnegative")
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
    """Count words satisfying the constraint, by a level sweep over prefix states."""
    k, b = constraint.length, constraint.max_letter
    _require_size(f"k={k}, b={b}", max(k, b), bound)
    triples, pairs, kill_all = _compile_patterns(constraint.forbidden, k)
    if kill_all:
        return 0
    alphabet = ((1 << (b + 1)) - 1) & ~1  # letters 1..b
    cover = alphabet if constraint.surjective else 0
    return _sweep(k, _Masks(b + 1), triples, pairs, alphabet, cover)
