"""Generating-tree counters for the 14 avoidance classes.

A class is its triple of relations; ``ClassId.patterns`` derives its
pattern set from the triple, once per class.  Each class has a succession
rule: a root label, an expansion map sending a label at depth n to a
multiset of labels at depth n+1, and a predicate selecting which labels
correspond to counted objects (some trees carry phantom labels that must
be excluded).  Counting is dynamic programming on the label census per
depth, which is polynomial-time in contrast to the exponential oracle.

Every rule carries two implementations: ``expand``, a direct transcription
of the succession rule used as the reference semantics, and one census
stepper ``step_state`` using prefix/suffix-sum aggregation so that
computing a few hundred terms stays cheap.  The stepper runs on a compact
state of the rule's own, which need not encode the whole label census: it
only has to be closed under the step and give the term, ``counted_total``.
Each layout family states its state's layout once, in ``_layout``; from it
``project`` reads the fast state off a reference census, and the starting
state is the projection of the root.
The steppers of 663A, 1420 and the 1176 family keep one list per tag; 733
and 1833A keep the row sums and the s = 0 column of their (p, s) grid.
These take O(levels) big-integer additions per step.  The seven grid rules
take O(levels^2) and store only the labels they can reach.  A left-grown
grid is the triangle p + s <= depth, stored column-major, and its step is
whole-column list operations from a few shared helpers: a "stay" moves
every label one row down (shift down: column s plus column s + 1; fall: a
running sum across the columns), then the jumps add either along
anti-diagonals or as Catalan-weighted columns.  830 and 2106 keep ragged
rows, row h holding k = 0..h, and build each new row from prefix sums and
the row before it.  ``label_census`` runs the reference expansion through
``step_census``.  The test-suite checks that every fast state is the
projection of the reference census, and that both agree with the
brute-force oracle.

Label conventions: right-grown rules track statistics of the sequence end
(``a``/``b``/``c``/``d``/``e`` progression for the 1176 family,
maximum/premaximum ``s``/``t`` for 830, maximum/valid-descents ``p``/``q``
for 2106); labels that depend on the length carry it redundantly and
``expand`` checks it against the tree depth.  Left-grown rules track the
leading runs of zeros (p, s) or the prefix plus remaining commitments
(p, c).
"""

from __future__ import annotations

import enum
from functools import cache
from itertools import accumulate, islice, repeat, zip_longest
from operator import add, mul
from typing import Iterator, NamedTuple

from .combinat import multiplicity_m, multiplicity_w
from .core import PatternSet, RelationTriple, triple_to_pattern_set


class ClassId(enum.Enum):
    """The 14 previously-uncounted triple-of-relations classes.

    The value is the index used in the Martinez-Savage tables; it equals
    I_7 of the class, the first term distinguishing all classes.
    """

    C214 = "214"
    C247 = "247"
    C663A = "663A"
    C733 = "733"
    C759 = "759"
    C830 = "830"
    C1016 = "1016"
    C1176 = "1176"
    C1253 = "1253"
    C1420 = "1420"
    C1509 = "1509"
    C1833A = "1833A"
    C1953A = "1953A"
    C2106 = "2106"

    @property
    def triple(self) -> RelationTriple:
        return RelationTriple.parse(_CLASS_TRIPLES[self])

    @property
    def patterns(self) -> PatternSet:
        return _patterns_of(self)

    @property
    def i7(self) -> int:
        return int(self.value.rstrip("AB"))

    @classmethod
    def parse(cls, text: str) -> "ClassId":
        text = text.strip().upper()
        for c in cls:
            if c.value == text:
                return c
        raise ValueError(f"unknown class: {text!r}")


_CLASS_TRIPLES = {
    ClassId.C214: "-,>=,>=",
    ClassId.C247: "<=,-,>=",
    ClassId.C663A: "-,!=,>=",
    ClassId.C733: "!=,!=,>=",
    ClassId.C759: "<=,!=,>=",
    ClassId.C830: "!=,>,>=",
    ClassId.C1016: ">,-,!=",
    ClassId.C1176: ">,<=,!=",
    ClassId.C1253: ">,!=,!=",
    ClassId.C1420: "-,-,>",
    ClassId.C1509: "-,>=,>",
    ClassId.C1833A: "-,!=,>",
    ClassId.C1953A: "-,>,>",
    ClassId.C2106: ">,<=,>=",
}


@cache
def _patterns_of(cid: ClassId) -> PatternSet:
    """A class is its triple: the pattern set is derived, once per class."""
    return triple_to_pattern_set(cid.triple)


# Pattern sets of the Wilf-equivalent partner classes (no succession rule
# here; enumerable through the oracle).
WILF_PARTNER_PATTERNS = {
    ClassId.C663A: ("010", "100", "101", "120", "201", "210"),  # 663B
    ClassId.C1833A: ("100", "120", "201", "210"),  # 1833B
    ClassId.C1953A: ("100", "120", "210"),  # 1953B
}


class Label(NamedTuple):
    tag: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        inner = ",".join(str(p) for p in self.params)
        return f"({inner}){'_' + self.tag if self.tag else ''}"


class RuleError(RuntimeError):
    """An expansion produced an invalid label: a rule-transcription bug."""


class SuccessionRule:
    """Base: a root, ``expand`` and ``counted``, and ``step_census``, the
    reference step on ``{Label: count}`` censuses.  Every rule adds
    ``step_state`` and ``counted_total`` on its own compact state, and its
    family the layout of that state, ``_layout(take, depth)``: the state at
    depth, built by asking ``take(label)`` for every cell's count.
    """

    class_id: ClassId

    def root(self) -> Label:
        raise NotImplementedError

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        raise NotImplementedError

    def counted(self, label: Label) -> bool:
        raise NotImplementedError

    def step_census(self, census: dict[Label, int], depth: int) -> dict[Label, int]:
        new: dict[Label, int] = {}
        for label, cnt in census.items():
            for child, mult in self.expand(label, depth):
                if mult < 1:
                    raise RuleError(f"{self.class_id}: bad multiplicity for {child}")
                new[child] = new.get(child, 0) + cnt * mult
        return new

    def project(self, census: dict[Label, int], depth: int):
        """The fast state at depth holding the counts of a census; a label
        outside the layout is a RuleError."""
        left = dict(census)
        state = self._layout(lambda label: left.pop(label, 0), depth)
        if left:
            outside = ", ".join(map(str, left))
            raise RuleError(f"{self.class_id.value}: outside the depth-{depth} layout: {outside}")
        return state

    def initial_state(self):
        return self.project({self.root(): 1}, 0)


def _require_depth(label: Label, depth: int) -> None:
    if label.params[0] != depth:
        raise RuleError(f"label {label} at depth {depth}: stored length disagrees")


# ---------------------------------------------------------------------------
# Right-grown rules
# ---------------------------------------------------------------------------


class _Rule1176Family(SuccessionRule):
    """Classes 1176, 1253 and 1016 share the a/b skeleton.

    Tag a: non-decreasing, ending on h (label carries the length).
    Tags b, c, d track how much of a 101 pattern (max, premax, max) has
    occurred; tag e covers the strictly-descending (or single-value) tail.
    b and c label phantom objects and are never counted.
    """

    def root(self) -> Label:
        return Label("a", (0, 0))

    def counted(self, label: Label) -> bool:
        return label.tag in ("a", "d", "e")

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        tag = label.tag
        if tag == "a":
            _require_depth(label, depth)
            n, h = label.params
            for i in range(h, n + 1):
                yield Label("a", (n + 1, i)), 1
            for i in range(h, n):
                yield Label("b", (i,)), n - i
            for i in range(h):
                yield Label("e", (i,)), 1
        elif tag == "b":
            yield Label("b", label.params), 1
            yield Label("c", label.params), 1
        elif tag == "c":
            if self.class_id is ClassId.C1253:
                yield Label("c", label.params), 1
            yield Label("d", label.params), 1
        elif tag == "d":
            if self.class_id is ClassId.C1253:
                yield Label("d", label.params), 2
            else:
                yield Label("d", label.params), 1
            if self.class_id is ClassId.C1176:
                (k,) = label.params
                for i in range(k):
                    yield Label("e", (i,)), 1
        elif tag == "e":
            (ell,) = label.params
            if self.class_id is ClassId.C1176:
                for i in range(ell):
                    yield Label("e", (i,)), 1
            elif self.class_id is ClassId.C1253:
                yield Label("e", (ell,)), 1
            # 1016: e-labels are leaves
        else:
            raise RuleError(f"unknown tag {tag!r}")

    # fast path: five coefficient lists indexed by the label parameter, each
    # of length depth + 1; a step appends one index.  The a and b lists step
    # alike in all three classes, the c, d and e lists in each subclass.

    def _layout(self, take, depth: int):
        levels = range(depth + 1)
        a = [take(Label("a", (depth, h))) for h in levels]
        return (a, *([take(Label(tag, (k,))) for k in levels] for tag in "bcde"))

    @staticmethod
    def _step_ab(a, b, depth: int):
        pref_a = list(accumulate(a))  # sum_{h <= k} a[h]
        new_b = [bk + (depth - k) * pk for k, (bk, pk) in enumerate(zip(b, pref_a))]
        return pref_a + [0], new_b + [0]

    def counted_total(self, state, depth: int) -> int:
        a, b, c, d, e = state
        return sum(a) + sum(d) + sum(e)


def _strict_suffix_sums(xs: list[int]) -> list[int]:
    """[sum(xs[i + 1:]) for i in range(len(xs))]."""
    suffix = list(accumulate(reversed(xs), initial=0))  # sums of the last i entries
    return suffix[-2::-1]


class Rule1176(_Rule1176Family):
    class_id = ClassId.C1176

    def step_state(self, state, depth: int):
        a, b, c, d, e = state
        new_a, new_b = self._step_ab(a, b, depth)
        new_d = [ck + dk for ck, dk in zip(c, d)] + [0]
        new_e = _strict_suffix_sums([x + y + z for x, y, z in zip(a, d, e)]) + [0]
        return (new_a, new_b, b + [0], new_d, new_e)


class Rule1253(_Rule1176Family):
    class_id = ClassId.C1253

    def step_state(self, state, depth: int):
        a, b, c, d, e = state
        new_a, new_b = self._step_ab(a, b, depth)
        new_c = [bk + ck for bk, ck in zip(b, c)] + [0]
        new_d = [ck + 2 * dk for ck, dk in zip(c, d)] + [0]
        new_e = [*map(add, _strict_suffix_sums(a), e), 0]
        return (new_a, new_b, new_c, new_d, new_e)


class Rule1016(_Rule1176Family):
    class_id = ClassId.C1016

    def step_state(self, state, depth: int):
        a, b, c, d, e = state
        new_a, new_b = self._step_ab(a, b, depth)
        new_d = [ck + dk for ck, dk in zip(c, d)] + [0]
        return (new_a, new_b, b + [0], new_d, _strict_suffix_sums(a) + [0])


class _TwoGridRule(SuccessionRule):
    """Right-grown rules labelled (length, h, k) under one of two tags, all
    counted, with k <= h; the fast state is one grid per tag, whose row h
    holds k = 0..h, for h = 0..depth."""

    tags: str  # the two tag letters; the root carries the first

    def root(self) -> Label:
        return Label(self.tags[0], (0, 0, 0))

    def counted(self, label: Label) -> bool:
        return True

    def _layout(self, take, depth: int):
        return tuple(
            [[take(Label(tag, (depth, h, k))) for k in range(h + 1)] for h in range(depth + 1)]
            for tag in self.tags
        )

    def counted_total(self, state, depth: int) -> int:
        return sum(sum(row) for grid in state for row in grid)


class Rule830(_TwoGridRule):
    """Tracks (length, maximum h, premaximum k); tag s ends on the maximum,
    tag t on the premaximum.  All-zero sequences take k = 0."""

    class_id = ClassId.C830
    tags = "st"

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        _require_depth(label, depth)
        n, h, k = label.params
        yield Label("s", (n + 1, h, k)), 1
        for i in range(h + 1, n + 1):
            yield Label("s", (n + 1, i, h)), 1
        if label.tag == "s":
            if h > 0:
                for i in range(k + 1, h):
                    yield Label("t", (n + 1, h, i)), 1
        elif label.tag == "t":
            for i in range(k, h):
                yield Label("t", (n + 1, h, i)), 1
        else:
            raise RuleError(f"unknown tag {label.tag!r}")

    def step_state(self, state, depth: int):
        # s-children keep (h, k) from both tags.  t-children keep maximum h
        # and take premaximum i < h: from s-rows every k < i, from t-rows
        # every k <= i, that is the mass below i plus t[h][i].
        s, t = state
        new_s, new_t, u = [], [], []
        for h, (row_s, row_t) in enumerate(zip(s, t)):
            mass = list(map(add, row_s, row_t))
            below = list(accumulate(mass, initial=0))
            u.append(below.pop())
            new_s.append(mass)
            new_t.append([*islice(map(add, below, row_t), h), 0])
        new_s.append([0] * (depth + 2))
        new_t.append([0] * (depth + 2))
        # a new maximum i takes the whole mass u[h] of every maximum h < i
        for i in range(1, depth + 1):
            row = new_s[i]
            row[:i] = map(add, row, islice(u, i))
        return (new_s, new_t)


class Rule2106(_TwoGridRule):
    """Tracks (length, maximum h, number k of still-valid descent values);
    tag p ends on the maximum, tag q strictly below it."""

    class_id = ClassId.C2106
    tags = "pq"

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        _require_depth(label, depth)
        n, h, k = label.params
        if label.tag == "p":
            for i in range(h, n + 1):
                yield Label("p", (n + 1, i, k + i - h)), 1
        elif label.tag == "q":
            for i in range(h + 1, n + 1):
                yield Label("p", (n + 1, i, k + i - h - 1)), 1
        else:
            raise RuleError(f"unknown tag {label.tag!r}")
        for i in range(k):
            yield Label("q", (n + 1, h, i)), 1

    def step_state(self, state, depth: int):
        # p-labels have k <= h and q-labels k < h.  p-children run along
        # diagonals of constant h - k, fed by the p-labels on the diagonal
        # and the q-labels one below it:
        # new_p[h] = (new_p[h - 1] shifted right by one) + p[h] + q[h - 1]
        p, q = state
        row, new_p = [], []
        for row_p, row_q in zip(p, [[], *q]):
            row = list(map(add, map(add, [0, *row], row_p), [*row_q, 0]))
            new_p.append(row)
        new_p.append([0] * (depth + 2))
        # q-children: per maximum h, the mass with a larger k
        new_q = [_strict_suffix_sums(list(map(add, *rows))) for rows in zip(p, q)]
        new_q.append([0] * (depth + 2))
        return (new_p, new_q)


# ---------------------------------------------------------------------------
# Left-grown rules: labels (p, s) track the runs of zeros (or commitments);
# their grids are triangles p + s <= depth, stored column-major as cols[s][p]
# ---------------------------------------------------------------------------


def _triangle(take, depth: int) -> list[list[int]]:
    """The labels (p, s) with p + s <= depth, column-major: cols[s][p]."""
    return [[take(Label("", (p, s))) for p in range(depth + 1 - s)] for s in range(depth + 1)]


def _suffix_sums(xs: list[int]) -> list[int]:
    """[sum(xs[i:]) for i in range(len(xs))]."""
    return list(accumulate(reversed(xs)))[::-1]


def _pair_sums(xs: list[int]) -> list[int]:
    """[xs[i] + xs[i + 1] for i in range(len(xs))], xs zero past its end."""
    return list(map(add, xs, xs[1:] + [0]))


def _shift_down(cols: list[list[int]]) -> list[list[int]]:
    """(p, s) -> (p + 1, s), and also (p + 1, s - 1) when s > 0."""
    return [*([0, *map(add, c, nxt), c[-1]] for c, nxt in zip(cols, [*cols[1:], []])), [0]]


def _fall(cols: list[list[int]]) -> list[list[int]]:
    """(p, s) -> (p + 1, s') for every s' <= s; the new column 0 is zero
    followed by the row sums."""
    new, acc = [[0]], []
    for col in reversed(cols):
        acc = [*map(add, col, acc), col[-1]]  # sum over the columns s' >= s
        new.append([0, *acc])
    return new[::-1]


def _add_antidiagonals(cols: list[list[int]], v: list[int]) -> list[list[int]]:
    """cols[k][p] += v[p + k] for every p >= 1, v zero past its end."""
    for k, col in enumerate(cols[: len(v) - 1]):
        col[1 : len(v) - k] = map(add, islice(col, 1, None), islice(v, k + 1, None))
    return cols


def _add_catalan_columns(cols: list[list[int]], col: list[int], next_col) -> list[list[int]]:
    """cols[b][p] += C_b * col_b[p] for every p >= 1, where C_b is the b-th
    Catalan number, col_0 = col and col_{b+1} = next_col(col_b[1:])."""
    b, cb = 0, 1
    while len(col) > 1:
        jumps = map(mul, islice(col, 1, None), repeat(cb))
        cols[b][1 : len(col)] = map(add, islice(cols[b], 1, None), jumps)
        cb = cb * 2 * (2 * b + 1) // (b + 2)
        b += 1
        col = next_col(col[1:])
    return cols


class _LeftGrownRule(SuccessionRule):
    """Common fast-path plumbing for the left-grown rules that keep their
    whole grid of integer-pair labels (p, s).

    Every label has p + s <= depth, so the fast state is that triangle,
    column-major: state[s][p] for p = 0..depth - s.  ``counted_rows`` and
    ``counted_cols`` bound the counted labels as slice ends, p <
    counted_rows and s < counted_cols (None: no bound); ``counted`` is the
    reference.
    """

    counted_rows: int | None = None
    counted_cols: int | None = None

    def root(self) -> Label:
        return Label("", (0, 0))

    def _layout(self, take, depth: int):
        return _triangle(take, depth)

    def counted_total(self, state, depth: int) -> int:
        return sum(sum(islice(col, self.counted_rows)) for col in state[: self.counted_cols])


class _ResetRule(SuccessionRule):
    """733 and 1833A: labels (p, s), the lengths of the two runs of zeros.

    A label (p, s) stays as (p + 1, s), and also as (p + 1, 0) when s > 0;
    the counted labels, and only they, jump to every (p', k) with p' >= 1
    and p' + k <= p.  The step reads the (p, s) grid only through its row
    sums r[p] and its s = 0 column z[p], and yields both again, so the fast
    state is the pair (r, z); ``counted_vector`` picks the one that sums
    the counted labels.
    """

    counted_vector: int  # 0: r, every label counted; 1: z, those with s = 0

    def root(self) -> Label:
        return Label("", (0, 0))

    def _layout(self, take, depth: int):
        cols = _triangle(take, depth)
        return (list(map(sum, zip_longest(*cols, fillvalue=0))), cols[0])

    def step_state(self, state, depth: int):
        # The stays move row p to row p + 1 with sum 2 r[p] - z[p] and s = 0
        # entry r[p].  With v the suffix sums of the counted vector, the
        # jumps add v[p + k] to each (p, k), p >= 1: v[p] at s = 0 and
        # sum_{j >= p} v[j] to the row.
        r, z = state
        v = _suffix_sums(state[self.counted_vector])
        row_jumps = _strict_suffix_sums(v)
        new_r = [0] + [2 * x - y + w for x, y, w in zip(r, z, row_jumps)]
        new_z = [0, *map(add, r, v[1:] + [0])]
        return (new_r, new_z)

    def counted_total(self, state, depth: int) -> int:
        return sum(state[self.counted_vector])


class Rule1833A(_ResetRule):
    """(p, s) = lengths of the two runs of zeros; every label is counted."""

    class_id = ClassId.C1833A
    counted_vector = 0

    def counted(self, label: Label) -> bool:
        return True

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, s = label.params
        yield Label("", (p + 1, s)), 1
        if s > 0:
            yield Label("", (p + 1, 0)), 1
        for ell in range(p):
            for k in range(ell + 1):
                yield Label("", (p - ell, k)), 1


class Rule733(_ResetRule):
    """As 1833A, but zeros in the prefix may only move when the suffix run
    is exhausted (s = 0); counted labels have s = 0."""

    class_id = ClassId.C733
    counted_vector = 1

    def counted(self, label: Label) -> bool:
        return label.params[1] == 0

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, s = label.params
        yield Label("", (p + 1, s)), 1
        if s > 0:
            yield Label("", (p + 1, 0)), 1
        if s == 0:
            for ell in range(p):
                for k in range(ell + 1):
                    yield Label("", (p - ell, k)), 1


class Rule214(_LeftGrownRule):
    class_id = ClassId.C214
    counted_rows, counted_cols = 3, 1

    def counted(self, label: Label) -> bool:
        p, s = label.params
        return s == 0 and p <= 2

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, s = label.params
        yield Label("", (p + 1, s)), 1
        if s > 0:
            yield Label("", (p + 1, s - 1)), 1
        if s == 0:
            for ell in range(p):
                yield Label("", (p - ell, ell)), 1
            for ell in range(p - 1):
                yield Label("", (p - ell - 1, ell)), 1

    def step_state(self, state, depth: int):
        # (p, 0) jumps to the (p', k) with p' >= 1 and p' + k in {p - 1, p}
        return _add_antidiagonals(_shift_down(state), _pair_sums(state[0]))


class Rule1509(_LeftGrownRule):
    class_id = ClassId.C1509
    counted_cols = 2

    def counted(self, label: Label) -> bool:
        return label.params[1] <= 1

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, s = label.params
        yield Label("", (p + 1, s)), 1
        if s > 0:
            yield Label("", (p + 1, s - 1)), 1
        if s <= 1:
            for i in range(p):
                yield Label("", (p - i, 0)), 1
            for ell in range(1, p):
                for k in range(ell):
                    yield Label("", (p - ell, ell - k)), 1

    def step_state(self, state, depth: int):
        # (p, s <= 1) jumps to every (p', k) with p' >= 1 and p' + k <= p
        jumps = _suffix_sums(list(map(sum, zip_longest(*state[:2], fillvalue=0))))
        return _add_antidiagonals(_shift_down(state), jumps)


class Rule1953A(_LeftGrownRule):
    class_id = ClassId.C1953A

    def counted(self, label: Label) -> bool:
        return True

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, s = label.params
        for i in range(s + 1):
            yield Label("", (p + 1, s - i)), 1
        for ell in range(1, p + 1):
            for k in range(ell):
                yield Label("", (p + 1 - ell, k)), 1

    def step_state(self, state, depth: int):
        # as 1833A: every label jumps to each (p', k) with p' + k <= p, so
        # by the suffix sums of the row sums, which the fall puts in column 0
        grown = _fall(state)
        return _add_antidiagonals(grown, _suffix_sums(grown[0][1:]))


class Rule759(_LeftGrownRule):
    """(p, c) = leading zeros and remaining commitments; the jump out of a
    committed-free label carries multiplicity m_{l,b} = binom(l, b) * C_b,
    the number of admissible commitment words."""

    class_id = ClassId.C759
    counted_cols = 1

    def counted(self, label: Label) -> bool:
        return label.params[1] == 0

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, c = label.params
        yield Label("", (p + 1, c)), 1
        if c > 0:
            yield Label("", (p + 1, c - 1)), 1
        if c == 0 and p >= 1:
            for ell in range(p):
                for b in range(ell + 1):
                    yield Label("", (p - ell, b)), multiplicity_m(ell, b)

    def step_state(self, state, depth: int):
        # (p, 0) jumps to (p - l, b) with weight binom(l, b) * C_b; summed
        # over l, column b takes the b-times iterated strict suffix sums
        return _add_catalan_columns(_shift_down(state), _suffix_sums(state[0]), _suffix_sums)


class Rule247(_LeftGrownRule):
    """As 759 with at most one repeat per commitment letter; jump
    multiplicity w_{l,b} = binom(b+1, l-b) * C_b.  Counted labels are the
    genuine avoiders: c = 0 and p <= 2."""

    class_id = ClassId.C247
    counted_rows, counted_cols = 3, 1

    def counted(self, label: Label) -> bool:
        p, c = label.params
        return c == 0 and p <= 2

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, c = label.params
        yield Label("", (p + 1, c)), 1
        if c > 0:
            yield Label("", (p + 1, c - 1)), 1
        if c == 0 and p >= 1:
            for ell in range(p):
                for b in range(ell + 1):
                    w = multiplicity_w(ell, b)
                    if w:
                        yield Label("", (p - ell, b)), w

    def step_state(self, state, depth: int):
        # (p, 0) jumps to (p - l, b) with weight binom(b + 1, l - b) * C_b;
        # summed over l, column b takes b + 1 shifted pairwise sums
        return _add_catalan_columns(_shift_down(state), _pair_sums(state[0]), _pair_sums)


class _SingleRunRule(SuccessionRule):
    """Classes 663A and 1420: labels (p)_a / (p)_b with p the zero prefix.

    The fast state is two lists a[p], b[p] of length depth + 1.  A label
    sends mass to a whole range of p, so one suffix sum per step suffices.
    """

    def root(self) -> Label:
        return Label("a", (0,))

    def _layout(self, take, depth: int):
        return tuple([take(Label(tag, (p,))) for p in range(depth + 1)] for tag in "ab")


class Rule663A(_SingleRunRule):
    class_id = ClassId.C663A

    def counted(self, label: Label) -> bool:
        return label.tag == "a"

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        (p,) = label.params
        if label.tag == "a":
            for k in range(1, p + 2):
                yield Label("a", (k,)), 1
            for ell in range(1, p):
                yield Label("b", (ell,)), 1
        elif label.tag == "b":
            yield Label("a", (p + 1,)), 1
            yield Label("b", (p + 1,)), 1
        else:
            raise RuleError(f"unknown tag {label.tag!r}")

    def step_state(self, state, depth: int):
        # new_a[k] = sum_{p >= k-1} a[p] + b[k-1]
        # new_b[l] = sum_{p > l} a[p] + b[l-1]
        a, b = state
        suf = _suffix_sums(a)
        return ([0, *map(add, suf, b)], [0, *map(add, suf[2:] + [0, 0], b)])

    def counted_total(self, state, depth: int) -> int:
        return sum(state[0])


class Rule1420(_SingleRunRule):
    class_id = ClassId.C1420

    def counted(self, label: Label) -> bool:
        return True

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        (p,) = label.params
        if label.tag == "a":
            for j in range(1, p + 2):
                yield Label("a", (j,)), 1
            for j in range(1, p):
                yield Label("b", (j,)), 1
        elif label.tag == "b":
            for j in range(1, p + 2):
                yield Label("a", (j,)), 1
            yield Label("b", (p + 1,)), 1
            for j in range(1, p):
                yield Label("b", (j,)), 1
        else:
            raise RuleError(f"unknown tag {label.tag!r}")

    def step_state(self, state, depth: int):
        # as 663A, but b-labels also feed the whole a-range:
        # new_a[k] = sum_{p >= k-1} (a + b)[p]
        # new_b[l] = sum_{p > l} (a + b)[p] + b[l-1]
        a, b = state
        suf = _suffix_sums(list(map(add, a, b)))
        return ([0, *suf], [0, *map(add, suf[2:] + [0, 0], b)])

    def counted_total(self, state, depth: int) -> int:
        return sum(state[0]) + sum(state[1])


_RULES: dict[ClassId, SuccessionRule] = {
    r.class_id: r
    for r in (
        Rule214(),
        Rule247(),
        Rule663A(),
        Rule733(),
        Rule759(),
        Rule830(),
        Rule1016(),
        Rule1176(),
        Rule1253(),
        Rule1420(),
        Rule1509(),
        Rule1833A(),
        Rule1953A(),
        Rule2106(),
    )
}


def rule_for(class_id: ClassId) -> SuccessionRule:
    return _RULES[class_id]


# Resumable per-class memo of (state, counts): counting a class to depth n
# once makes all prefixes free, and extending steps on from the stored
# state, which is at depth len(counts) - 1.
_MEMO: dict[ClassId, tuple[object, list[int]]] = {}


def count_class(class_id: ClassId, n_max: int) -> list[int]:
    """I_0 .. I_{n_max} for the class, by label-census dynamic programming."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rule = _RULES[class_id]
    if class_id not in _MEMO:
        state = rule.initial_state()
        _MEMO[class_id] = (state, [rule.counted_total(state, 0)])
    state, counts = _MEMO[class_id]
    for depth in range(len(counts) - 1, n_max):
        state = rule.step_state(state, depth)
        counts.append(rule.counted_total(state, depth + 1))
        _MEMO[class_id] = (state, counts)
    return counts[: n_max + 1]


def label_census(class_id: ClassId, n: int) -> dict[Label, int]:
    """The full census at depth n, phantom labels included, by the reference
    expansion; its cost grows with the number of labels, so keep n small."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rule = _RULES[class_id]
    census = {rule.root(): 1}
    for depth in range(n):
        census = rule.step_census(census, depth)
    return census
