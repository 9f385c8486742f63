"""Brute-force enumeration: the ground truth every other module is checked against.

A prefix is abandoned as soon as it contains a forbidden pattern, which can
never disappear by extending on the right.  The pattern bookkeeping uses
value bitmasks: the state of a prefix is the set of values it uses and the
set ``forb`` of values that would complete a forbidden pattern.  The
patterns are compiled into per-letter masks, and every pattern, whatever
its length, acts through ``forb`` alone, so checking a candidate
extension is one bit test, but the semantics are exactly "some
subsequence reduces to a forbidden pattern".  Appending w only ever adds
to ``forb`` the gain of w, a mask of ``valset`` and w alone, so a sweep
computes each gain once and keeps it beside its level.

What a prefix may become depends on its state alone, so counting sweeps
forward one position at a time over a map from state to the number of
prefixes in it (the "label = state" view of a generating tree); the last
position is tallied from the level before it, never built.  A state is one
int, ``valset << width | forb``, cut to the letters [0, width) that the
sweep offers.  A word that must use every letter keeps only the prefixes
that still can: one missing as many letters as it has positions left
extends only by them.  One sweep per pattern set serves every n: the last
set's sweep is kept and resumed, and n past its width, whose cut bits are
lost, restarts it at least twice as wide.
Enumeration needs the sequences themselves and stays a depth-first
search; the tests check the two against each other, and both against a
no-pruning filter of all n! sequences.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable

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
    name, raw = "bound", override
    if override is None:
        name, raw = BOUND_ENV_VAR, os.environ.get(BOUND_ENV_VAR, str(DEFAULT_BOUND))
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, not {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, not {value}")
    return value


def _stand(a: int, b: int, w: int) -> int:
    """The values x that stand to w as the digit a stands to b.  The mask of
    the values above w has no top; ``_compile`` cuts it to the alphabet."""
    if a < b:
        return (1 << w) - 1
    if a > b:
        return -(2 << w)
    return 1 << w


def _compile(patterns: Iterable[Pattern], size: int) -> tuple[int | None, Callable | None]:
    """Compile patterns for the letters [0, size) into the forbidden-value
    mask of the empty prefix and the gain ``gain(valset, w)``: the values
    that appending w to a prefix using the values ``valset`` newly
    forbids, to be OR-ed into its mask.  The start is None when the empty
    pattern, which occurs in every word, is forbidden.  Every mask is cut
    to the letters [0, size), the only ones a sweep compiled so offers.

    A pattern abc gains occurrences with the new letter w as its middle
    when some earlier x stands to w as a to b; they forbid every future v
    that stands to w as c to b and to some such x as c to a.  Each of
    those x-relations is a monotone family of masks, so the least (a < c)
    or the greatest (a > c) matching x decides.  A pattern ab forbids at
    once every v that stands to w as b to a, and a one-letter pattern
    forbids every letter from the start.
    """
    start, low = 0, (1 << size) - 1
    after = [0] * size
    middle: list[list[tuple[int, int, int]]] = [[] for _ in range(size)]
    for p in patterns:
        d = p.digits
        if len(d) == 3:
            a, b, c = d
            for w in range(size):
                left, right = _stand(a, b, w), _stand(c, b, w) & low
                middle[w].append((left, right, (c > a) - (c < a)))
        elif len(d) == 2:
            for w in range(size):
                after[w] |= _stand(d[1], d[0], w) & low
        elif len(d) == 1:
            start = low
        elif not d:
            return None, None
        else:
            raise ValueError(f"patterns longer than 3 are not supported: {p}")

    def gain(valset: int, w: int) -> int:
        mask = after[w]
        for left, right, up in middle[w]:
            xs = valset & left
            if not xs:
                continue
            if up > 0:  # v above the least matching x
                mask |= right & -((xs & -xs) << 1)
            elif up < 0:  # v below the greatest matching x
                mask |= right & ((1 << (xs.bit_length() - 1)) - 1)
            else:
                mask |= right & xs
        return mask

    return start, gain


def _require_size(what: str, size: int, bound: int | None = None) -> None:
    """Refuse a negative size, and one beyond the exhaustive-search bound;
    the message names the environment variable when it set the bound."""
    if size < 0:
        raise ValueError(f"{what} must be nonnegative")
    limit = oracle_bound(bound)
    if size > limit:
        hint = f" ({BOUND_ENV_VAR} raises the bound)" if bound is None else ""
        raise OracleBoundError(f"{what} exceeds exhaustive-search bound {limit}{hint}")


def _step(
    level: dict, letters: int, width: int, gain: Callable, memo: dict, cover: int = 0, left: int = 0
) -> dict:
    """The next level: each state of ``level`` extended by each of ``letters``
    that its ``forb`` allows.

    A level maps each state of the prefixes of one length to the number of
    prefixes in it.  A state is one int, ``key = valset << width | forb``:
    the values used and the values that would complete a pattern, both
    below the compile size ``width``, so ``letters & ~key`` may extend it.
    Every pattern acts through ``forb`` alone, so which letters may extend
    a prefix, and to which state, depends on its state alone.  Appending w
    ORs in ``memo[valset][1 << w]``: its bit and ``gain(valset, w)``,
    shifted into place, for one pattern set.  Every letter of ``cover``
    must occur: a state missing exactly ``left`` of them, the positions
    still to fill, extends only by those.  The first level misses at most
    its ``left`` (surjective words need b <= k), so by induction no state
    ever misses more.
    """
    nxt: dict[int, int] = {}
    for key, mult in level.items():
        allowed = letters & ~key
        valset = key >> width
        if cover and (missing := cover & ~valset).bit_count() == left:
            allowed &= missing
        row = memo.setdefault(valset, {})
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            delta = row.get(bit)
            if delta is None:
                delta = row[bit] = bit << width | gain(valset, bit.bit_length() - 1)
            state = key | delta
            nxt[state] = nxt.get(state, 0) + mult
    return nxt


def _tally(level: dict, letters: int, width: int = 0, cover: int = 0) -> int:
    """The number of words one letter longer than the prefixes of ``level``,
    without building their level: a state (one int, as in ``_step``) adds its
    allowed letters, or only its one missing letter of ``cover`` (``_step``
    leaves no state of the last level missing two)."""
    if not cover:
        return sum(mult * (letters & ~key).bit_count() for key, mult in level.items())
    return sum(
        mult * (letters & ~key & (cover & ~(key >> width) or letters)).bit_count()
        for key, mult in level.items()
    )


# The last pattern set's sweep (patterns, width, gain, its memo, level,
# I_0..I_k); the level holds the prefixes of length max(k - 1, 0).
_SWEEP: list = [None] * 6


def count_avoiders(n: int, patterns: PatternSet, bound: int | None = None) -> int:
    """|I_n(S)|, by a level sweep over the states of the avoiding prefixes.

    The last pattern set's sweep is kept, with the gains it has computed:
    a call steps its level on to length n - 1 and tallies I_n, and reads
    a smaller n from the counts.  Its states are cut to its width, at least
    the default bound; n past it restarts the sweep at width max(n, twice
    the old), so n = 0, 1, 2, ... restarts seldom.
    """
    _require_size(f"n={n}", n, bound)
    same, width, gain, memo, level, counts = _SWEEP
    if same != patterns or n > width:
        width = max(n, DEFAULT_BOUND if same != patterns else 2 * width)
        start, gain = _compile(patterns, width)
        level, memo = {} if start is None else {start: 1}, {}
        counts = [int(start is not None)]
    _SWEEP[:] = [None] * 6  # drop an old level now; a sweep cut short is not resumed
    for k in range(len(counts), n + 1):
        if k > 1:
            level = _step(level, (1 << (k - 1)) - 1, width, gain, memo)
        counts.append(_tally(level, (1 << k) - 1))
    _SWEEP[:] = patterns, width, gain, memo, level, counts
    return counts[n]


def enumerate_avoiders(n: int, patterns: PatternSet) -> list[InversionSequence]:
    """The avoiders themselves, in lexicographic order."""
    _require_size(f"n={n}", n)
    start, gain = _compile(patterns, n)
    out: list[InversionSequence] = []
    prefix: list[int] = []

    def rec(pos: int, valset: int, forb: int) -> None:
        if pos == n:
            out.append(InversionSequence(tuple(prefix)))
            return
        for w in range(pos + 1):
            if forb >> w & 1:
                continue
            prefix.append(w)
            rec(pos + 1, valset | (1 << w), forb | gain(valset, w))
            prefix.pop()

    if start is not None:
        rec(0, 0, start)
    return out


@dataclass(frozen=True)
class WordConstraint:
    """Words of length k on the alphabet {1..b} avoiding classical patterns.

    Forbidden words are given as digit strings (e.g. "212"); only their
    reduction matters for containment, so they are normalised here.
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
        forbidden: Iterable[str] = (),
        surjective: bool = False,
    ) -> "WordConstraint":
        pats = frozenset(reduce_word([int(c) for c in w]) for w in forbidden)
        return cls(length, max_letter, pats, surjective)


def count_words(constraint: WordConstraint) -> int:
    """Count words satisfying the constraint, by a level sweep over prefix states."""
    k, b = constraint.length, constraint.max_letter
    _require_size(f"k={k}, b={b}", max(k, b))
    alphabet = ((1 << (b + 1)) - 1) & ~1  # letters 1..b
    cover = alphabet if constraint.surjective else 0
    start, gain = _compile(constraint.forbidden, b + 1)
    if k == 0:
        return int(start is not None and not cover)
    level, memo = {} if start is None else {start: 1}, {}
    for pos in range(k - 1):
        level = _step(level, alphabet, b + 1, gain, memo, cover, k - pos)
    return _tally(level, alphabet, b + 1, cover)
