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
only has to be closed under the step and give the term.  A step at depth
yields the next state together with the term of the depth it leaves;
``counted_total`` sums the counted labels of a state, and 830, 2106 and
1953A, which count every label, read the term off the row masses their
step forms instead of summing their whole grid.
Each layout family states its state's layout once, in ``_layout``; from it
``project`` reads the fast state off the reference censuses, and the
starting state is the projection of the root.  Each reference move is stated
once: a family states the moves its classes share (the stays of
``_LeftGrownRule``, the a-moves of ``_SingleRunRule``, the depth and tag
check of ``_TwoGridRule``, the a/b moves of the 1176 family), every
left-grown jump lands in ``_below(p)``, and each class states only what is
its own.
The steppers of 663A, 1420 and the 1176 family keep one list per tag; 733
and 1833A keep the row sums and the s = 0 column of their (p, s) grid.
These take O(levels) big-integer additions per step.  The seven grid rules
take O(levels^2), in whole-column list operations: 1953A on the triangle
p + s <= depth, 214, 1509, 759 and 247 on the part of it that can still
reach their counted columns (about half; see ``_LeftGrownRule``), and 830
and 2106 on ragged rows, row h holding k = 0..h.  ``label_census`` runs the
reference expansion through ``step_census``.  The test-suite checks that
every fast state is the projection of the reference censuses, and that
both agree with the brute-force oracle.

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
from collections import Counter
from functools import cache
from itertools import accumulate, islice, repeat, zip_longest
from operator import add, mul
from typing import Iterator, NamedTuple

from .combinat import catalan, multiplicity_m, multiplicity_w
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
    """Base: ``root`` and ``counted`` (the label (0, 0) and every label,
    unless the rule overrides them), ``expand``, and ``step_census``, the
    reference step on ``{Label: count}`` censuses.  Every rule adds
    ``counted_total`` on its own compact state, and its family the layout of
    that state, ``_layout(take, depth)``: the state at depth, built by asking
    ``take(label, at)`` for every cell's count at depth ``at`` (by default,
    depth).

    ``step_state(state, depth)`` yields the pair (the state at depth + 1,
    the counted total of ``state`` at depth).  By default it sums the
    counted labels with ``counted_total`` and steps with the rule's
    ``_next_state``; the left-grown rules, 830, 2106 and 1953A override it,
    the last three reading the total off the row masses their step forms.
    """

    class_id: ClassId

    def root(self) -> Label:
        return Label("", (0, 0))  # the (p, s) rules keep it

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        raise NotImplementedError

    def counted(self, label: Label) -> bool:
        return True  # rules whose tree carries phantom labels override this

    def step_census(self, census: dict[Label, int], depth: int) -> dict[Label, int]:
        new: dict[Label, int] = {}
        for label, cnt in census.items():
            for child, mult in self.expand(label, depth):
                if mult < 1:
                    raise RuleError(f"{self.class_id}: bad multiplicity for {child}")
                new[child] = new.get(child, 0) + cnt * mult
        return new

    def project(self, censuses: list[dict[Label, int]]):
        """The fast state at depth = len(censuses) - 1 off the reference
        censuses of depths 0..depth; a label at the depth where the layout
        holds it, ``_held_at``, but without a cell there, or one that cannot
        occur in its census at all (``_fits``), is a RuleError."""
        depth, read = len(censuses) - 1, set()

        def take(label: Label, at: int = depth) -> int:
            read.add((at, label))
            return censuses[at].get(label, 0)

        state = self._layout(take, depth)
        labels = {(at, l) for at, census in enumerate(censuses) for l in census} - read
        if outside := ", ".join(
            str(l) for at, l in labels if self._held_at(l, depth) == at or not self._fits(l, at)
        ):
            raise RuleError(f"{self.class_id.value}: outside the depth-{depth} layout: {outside}")
        return state

    def _held_at(self, label: Label, depth: int) -> int:
        return depth

    def _fits(self, label: Label, at: int) -> bool:
        return True

    def initial_state(self):
        return self.project([{self.root(): 1}])

    def step_state(self, state, depth: int):
        return self._next_state(state, depth), self.counted_total(state, depth)


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
    b and c label phantom objects and are never counted.  The a and b moves
    are shared; each class states its own c, d and e moves in
    ``_moves(tag, k)``, the children of the label (k)_tag.
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
        elif tag in ("c", "d", "e"):
            yield from self._moves(tag, *label.params)
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

    def _moves(self, tag: str, k: int) -> Iterator[tuple[Label, int]]:
        if tag in ("c", "d"):
            yield Label("d", (k,)), 1
        if tag in ("d", "e"):
            for i in range(k):
                yield Label("e", (i,)), 1

    def _next_state(self, state, depth: int):
        a, b, c, d, e = state
        new_a, new_b = self._step_ab(a, b, depth)
        new_d = [ck + dk for ck, dk in zip(c, d)] + [0]
        new_e = _strict_suffix_sums([x + y + z for x, y, z in zip(a, d, e)]) + [0]
        return (new_a, new_b, b + [0], new_d, new_e)


class Rule1253(_Rule1176Family):
    class_id = ClassId.C1253

    def _moves(self, tag: str, k: int) -> Iterator[tuple[Label, int]]:
        if tag == "c":
            yield Label("c", (k,)), 1
            yield Label("d", (k,)), 1
        elif tag == "d":
            yield Label("d", (k,)), 2
        else:
            yield Label("e", (k,)), 1

    def _next_state(self, state, depth: int):
        a, b, c, d, e = state
        new_a, new_b = self._step_ab(a, b, depth)
        new_c = [bk + ck for bk, ck in zip(b, c)] + [0]
        new_d = [ck + 2 * dk for ck, dk in zip(c, d)] + [0]
        new_e = [*map(add, _strict_suffix_sums(a), e), 0]
        return (new_a, new_b, new_c, new_d, new_e)


class Rule1016(_Rule1176Family):
    class_id = ClassId.C1016

    def _moves(self, tag: str, k: int) -> Iterator[tuple[Label, int]]:
        if tag != "e":  # e-labels are leaves
            yield Label("d", (k,)), 1

    def _next_state(self, state, depth: int):
        a, b, c, d, e = state
        new_a, new_b = self._step_ab(a, b, depth)
        new_d = [ck + dk for ck, dk in zip(c, d)] + [0]
        return (new_a, new_b, b + [0], new_d, _strict_suffix_sums(a) + [0])


class _TwoGridRule(SuccessionRule):
    """Right-grown rules labelled (length, h, k) under one of two tags, all
    counted, with k <= h.  ``expand`` checks the length and the tag, and
    each class states the children of a label in ``_moves(tag, n, h, k)``.
    The fast state is one grid per tag, whose row h holds k = 0..h, for
    h = 0..depth."""

    tags: str  # the two tag letters; the root carries the first

    def root(self) -> Label:
        return Label(self.tags[0], (0, 0, 0))

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        _require_depth(label, depth)
        if label.tag not in self.tags:
            raise RuleError(f"unknown tag {label.tag!r}")
        return self._moves(label.tag, *label.params)

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

    def _moves(self, tag: str, n: int, h: int, k: int) -> Iterator[tuple[Label, int]]:
        yield Label("s", (n + 1, h, k)), 1
        for i in range(h + 1, n + 1):
            yield Label("s", (n + 1, i, h)), 1
        for i in range(k + 1 if tag == "s" else k, h):  # a new premaximum i
            yield Label("t", (n + 1, h, i)), 1

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
        return (new_s, new_t), sum(u)


class Rule2106(_TwoGridRule):
    """Tracks (length, maximum h, number k of still-valid descent values);
    tag p ends on the maximum, tag q strictly below it."""

    class_id = ClassId.C2106
    tags = "pq"

    def _moves(self, tag: str, n: int, h: int, k: int) -> Iterator[tuple[Label, int]]:
        first = h if tag == "p" else h + 1  # the least new maximum
        for i in range(first, n + 1):
            yield Label("p", (n + 1, i, k + i - first)), 1
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
        # q-children: per maximum h, the mass with a larger k; the full
        # suffix sum is the mass of row h
        new_q, total = [], 0
        for rows in zip(p, q):
            suffix = list(accumulate(reversed(list(map(add, *rows))), initial=0))
            total += suffix[-1]
            new_q.append(suffix[-2::-1])
        new_q.append([0] * (depth + 2))
        return (new_p, new_q), total


# ---------------------------------------------------------------------------
# Left-grown rules: labels (p, s) track the runs of zeros (or commitments);
# their grids are triangles p + s <= depth, stored column-major as cols[s][p]
# ---------------------------------------------------------------------------


def _triangle(take, depth: int) -> list[list[int]]:
    """The labels (p, s) with p + s <= depth, column-major: cols[s][p]."""
    return [[take(Label("", (p, s))) for p in range(depth + 1 - s)] for s in range(depth + 1)]


def _below(p: int) -> Iterator[Label]:
    """The labels (p', k) with p' >= 1 and p' + k <= p: where a jump from
    row p may land."""
    return (Label("", (q, k)) for q in range(1, p + 1) for k in range(p + 1 - q))


def _suffix_sums(xs: list[int]) -> list[int]:
    """[sum(xs[i:]) for i in range(len(xs))]."""
    return list(accumulate(reversed(xs)))[::-1]


def _pair_sums(xs: list[int]) -> list[int]:
    """[xs[i] + xs[i + 1] for i in range(len(xs))], xs zero past its end."""
    return list(map(add, xs, xs[1:] + [0]))


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


class _LeftGrownRule(SuccessionRule):
    """214, 1509, and 759 and 247 as ``_CommitmentRule``: left-grown labels
    (p, s) that stay as (p + 1, s), and also as (p + 1, s - 1) when s > 0,
    and, when s < ``counted_cols``, add the class's ``_jumps(p, s)`` to rows
    at most p.  The counted labels have s < counted_cols, p < counted_rows.
    Column s reaches a counted column lag(s) = max(0, s - counted_cols + 1)
    steps later, so the fast state at depth d holds it at its own depth
    d - lag(s), cols[s][p] for p = 0..d - lag(s) - s, with pending[s][p - 1]
    the jump mass it takes into row p at its next step.  The step advances
    the columns from the top down, each by its stays, those of the column
    above at its own depth and its pending jumps; then each pending vector
    moves up a column as ``next_col`` of it less its first entry, and the
    ``_jump_source`` of the new counted columns enters below them.
    """

    counted_rows: int | None = None
    counted_cols: int
    next_col = staticmethod(lambda v: v)  # 214 and 1509: a jump vector only shifts,
    _weight = staticmethod(lambda s: 1)  # and column s takes it as it is

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, s = label.params
        yield Label("", (p + 1, s)), 1
        if s > 0:
            yield Label("", (p + 1, s - 1)), 1
        yield from self._jumps(p, s)

    def _lag(self, s: int) -> int:
        return max(0, s - self.counted_cols + 1)

    def _held_at(self, label: Label, depth: int) -> int:
        return depth - self._lag(label.params[1])

    def _fits(self, label: Label, at: int) -> bool:
        return sum(label.params) <= at  # the triangle p + s <= at

    def _layout(self, take, depth: int):
        cols, pending = [], []
        for s in range(depth + 1):
            if (at := depth - self._lag(s)) < s:
                break
            jumps = Counter()  # the children of expand in rows at most the parent's
            for p, c in ((p, c) for c in range(self.counted_cols) for p in range(at + 1 - c)):
                for child, mult in self.expand(Label("", (p, c)), at):
                    if child.params[0] <= p:  # a jump: a stay raises the row
                        jumps[child] += take(Label("", (p, c)), at) * mult
            cols.append([take(Label("", (p, s)), at) for p in range(at - s + 1)])
            pending.append(
                [jumps[Label("", (p, s))] // self._weight(s) for p in range(1, at - s + 1)]
            )
        return cols, pending

    def counted_total(self, state, depth: int) -> int:
        return sum(sum(islice(col, self.counted_rows)) for col in state[0][: self.counted_cols])

    def step_state(self, state, depth: int):
        cols, pending = state
        if len(cols) + self._lag(len(cols)) <= depth + 1:  # a column enters at its own depth
            cols, pending = [*cols, []], [*pending, []]
        new_cols, above = [], []
        for s, col in reversed(list(enumerate(cols))):  # above, pending[s]: one shorter than col
            jumps = pending[s] if (w := self._weight(s)) == 1 else map(mul, pending[s], repeat(w))
            new_cols.append([0, *map(add, map(add, col, above), jumps), *col[-1:]])
            above = new_cols[-1] if s >= self.counted_cols else col
        new_cols.reverse()
        new_pending = [self._jump_source(new_cols)]
        for s in range(1, len(new_cols)):
            moving = new_pending[-1] if s < self.counted_cols else pending[s - 1]
            new_pending.append(self.next_col(moving[1:]))
        return (new_cols, new_pending), self.counted_total(state, depth)


class _ResetRule(SuccessionRule):
    """733 and 1833A: labels (p, s), the lengths of the two runs of zeros.

    A label (p, s) stays as (p + 1, s), and also as (p + 1, 0) when s > 0;
    the counted labels, and only they, jump to every label of ``_below(p)``.
    The two classes differ only in which labels count.
    The step reads the (p, s) grid only through its row sums r[p] and its
    s = 0 column z[p], and yields both again, so the fast state is the pair
    (r, z); ``counted_vector`` picks the one that sums the counted labels.
    """

    counted_vector: int  # 0: r, every label counted; 1: z, those with s = 0

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, s = label.params
        yield Label("", (p + 1, s)), 1
        if s > 0:
            yield Label("", (p + 1, 0)), 1
        if self.counted(label):
            yield from zip(_below(p), repeat(1))

    def _layout(self, take, depth: int):
        cols = _triangle(take, depth)
        return (list(map(sum, zip_longest(*cols, fillvalue=0))), cols[0])

    def _next_state(self, state, depth: int):
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
    """Every label is counted, so every label jumps."""

    class_id = ClassId.C1833A
    counted_vector = 0


class Rule733(_ResetRule):
    """As 1833A, but zeros in the prefix may only move when the suffix run
    is exhausted (s = 0); counted labels have s = 0."""

    class_id = ClassId.C733
    counted_vector = 1

    def counted(self, label: Label) -> bool:
        return label.params[1] == 0


class Rule214(_LeftGrownRule):
    class_id = ClassId.C214
    counted_rows, counted_cols = 3, 1

    def counted(self, label: Label) -> bool:
        p, s = label.params
        return s == 0 and p <= 2

    def _jumps(self, p: int, s: int) -> Iterator[tuple[Label, int]]:
        if s == 0:  # to the two outer anti-diagonals p' + k in {p - 1, p}
            yield from ((child, 1) for child in _below(p) if sum(child.params) >= p - 1)

    def _jump_source(self, cols: list[list[int]]) -> list[int]:
        return _pair_sums(cols[0])[1:]  # (p, 0) jumps to q + k in {p - 1, p}


class Rule1509(_LeftGrownRule):
    class_id = ClassId.C1509
    counted_cols = 2

    def counted(self, label: Label) -> bool:
        return label.params[1] <= 1

    def _jumps(self, p: int, s: int) -> Iterator[tuple[Label, int]]:
        if s <= 1:
            yield from zip(_below(p), repeat(1))

    def _jump_source(self, cols: list[list[int]]) -> list[int]:
        # (q, k) takes every (p, s <= 1) with p >= q + k
        return _suffix_sums(list(map(sum, zip_longest(*cols[:2], fillvalue=0))))[1:]


class Rule1953A(SuccessionRule):
    """Left-grown labels (p, s), all counted: the fast state is the triangle."""

    class_id = ClassId.C1953A

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        p, s = label.params
        for i in range(s + 1):  # the fall: to every (p + 1, s') with s' <= s
            yield Label("", (p + 1, i)), 1
        yield from zip(_below(p), repeat(1))

    def step_state(self, state, depth: int):
        # as 1833A: every label jumps to all of _below(p), so by the suffix
        # sums of the row sums, which the fall puts in column 0; the first
        # of them sums every label
        grown = _fall(state)
        jumps = _suffix_sums(grown[0][1:])
        return _add_antidiagonals(grown, jumps), jumps[0]

    def _layout(self, take, depth: int):
        return _triangle(take, depth)

    def counted_total(self, state, depth: int) -> int:
        return sum(map(sum, state))


class _CommitmentRule(_LeftGrownRule):
    """759 and 247: (p, c) = leading zeros and remaining commitments.

    A label with c = 0 jumps to each (p - l, b) of ``_below(p)`` with a
    nonzero ``multiplicity(l, b)``, the number of admissible commitment
    words.  Summed over l, column b takes C_b col_b, with col_0 =
    ``next_col`` of column 0 and col_{b+1} = next_col(col_b[1:]): its
    pending vector is col_b[1:], weighted by ``_weight(b)`` = C_b.
    """

    counted_cols = 1
    multiplicity: staticmethod
    _weight = staticmethod(cache(catalan))

    def _jumps(self, p: int, c: int) -> Iterator[tuple[Label, int]]:
        if c == 0:
            for child in _below(p):
                q, b = child.params
                if mult := self.multiplicity(p - q, b):
                    yield child, mult

    def _jump_source(self, cols: list[list[int]]) -> list[int]:
        return self.next_col(cols[0][1:])


class Rule759(_CommitmentRule):
    """Jump multiplicity m_{l,b} = binom(l, b) * C_b, whose columns are
    iterated suffix sums.  Counted labels have c = 0."""

    class_id = ClassId.C759
    multiplicity = staticmethod(multiplicity_m)
    next_col = staticmethod(_suffix_sums)

    def counted(self, label: Label) -> bool:
        return label.params[1] == 0


class Rule247(_CommitmentRule):
    """As 759 with at most one repeat per commitment letter; jump
    multiplicity w_{l,b} = binom(b+1, l-b) * C_b, whose columns are
    iterated pairwise sums.  Counted labels are the genuine avoiders: c = 0
    and p <= 2."""

    class_id = ClassId.C247
    counted_rows = 3
    multiplicity = staticmethod(multiplicity_w)
    next_col = staticmethod(_pair_sums)

    def counted(self, label: Label) -> bool:
        p, c = label.params
        return c == 0 and p <= 2


class _SingleRunRule(SuccessionRule):
    """Classes 663A and 1420: labels (p)_a / (p)_b with p the zero prefix.

    An a-label (p) makes a(k) for k = 1..p + 1 and b(l) for l = 1..p - 1 in
    both classes; each class states the moves of a b-label in ``_b_moves``.
    The fast state is two lists a[p], b[p] of length depth + 1.  A label
    sends mass to a whole range of p, so one suffix sum per step suffices.
    """

    def root(self) -> Label:
        return Label("a", (0,))

    def expand(self, label: Label, depth: int) -> Iterator[tuple[Label, int]]:
        (p,) = label.params
        if label.tag == "a":
            for k in range(1, p + 2):
                yield Label("a", (k,)), 1
            for ell in range(1, p):
                yield Label("b", (ell,)), 1
        elif label.tag == "b":
            yield from self._b_moves(p)
        else:
            raise RuleError(f"unknown tag {label.tag!r}")

    def _layout(self, take, depth: int):
        return tuple([take(Label(tag, (p,))) for p in range(depth + 1)] for tag in "ab")


class Rule663A(_SingleRunRule):
    class_id = ClassId.C663A

    def counted(self, label: Label) -> bool:
        return label.tag == "a"

    def _b_moves(self, p: int) -> Iterator[tuple[Label, int]]:
        yield Label("a", (p + 1,)), 1
        yield Label("b", (p + 1,)), 1

    def _next_state(self, state, depth: int):
        # new_a[k] = sum_{p >= k-1} a[p] + b[k-1]
        # new_b[l] = sum_{p > l} a[p] + b[l-1]
        a, b = state
        suf = _suffix_sums(a)
        return ([0, *map(add, suf, b)], [0, *map(add, suf[2:] + [0, 0], b)])

    def counted_total(self, state, depth: int) -> int:
        return sum(state[0])


class Rule1420(_SingleRunRule):
    class_id = ClassId.C1420

    def _b_moves(self, p: int) -> Iterator[tuple[Label, int]]:
        yield from self.expand(Label("a", (p,)), p)  # every move of an a-label
        yield Label("b", (p + 1,)), 1

    def _next_state(self, state, depth: int):
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
# state.  That state is one depth past the last count, at depth
# len(counts): each step yields the count of the depth it leaves.
_MEMO: dict[ClassId, tuple[object, list[int]]] = {}


def count_class(class_id: ClassId, n_max: int) -> list[int]:
    """I_0 .. I_{n_max} for the class, by label-census dynamic programming."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rule = _RULES[class_id]
    if class_id not in _MEMO:
        _MEMO[class_id] = (rule.initial_state(), [])
    state, counts = _MEMO[class_id]
    for depth in range(len(counts), n_max + 1):
        state, count = rule.step_state(state, depth)
        counts.append(count)
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
