import ast
import hashlib
import json
import re
from pathlib import Path

import pytest

from invseq.combinat import multiplicity_m
from invseq import gentree
from invseq.core import PatternSet
from invseq.gentree import (
    ClassId,
    Label,
    RuleError,
    WILF_PARTNER_PATTERNS,
    count_class,
    label_census,
    rule_for,
)
from invseq.oracle import count_avoiders
from invseq.series import MINIMAL_POLYNOMIAL_DEGREE, verify_minimal_polynomial
from conftest import CENSUS_REFS

ALL_CLASSES = list(ClassId)

# sha256 digests of count_class(cid, 310): "lagged" for 214, 247, 759 and
# 1509, "all_counted" for 830, 2106 and 1953A.
DEEP_REFS = Path(__file__).resolve().parent / "counts_310.json"

# 663A and 1420 have O(depth) labels, so their census is cheap to check deeper.
EQUIVALENCE_DEPTH = {ClassId.C663A: 60, ClassId.C1420: 60}


class TestClassId:
    def test_parse(self):
        assert ClassId.parse("1176") is ClassId.C1176
        assert ClassId.parse("663a") is ClassId.C663A
        with pytest.raises(ValueError):
            ClassId.parse("9999")

    def test_i7(self):
        assert ClassId.C663A.i7 == 663
        assert ClassId.C2106.i7 == 2106


@pytest.mark.parametrize("cid", ALL_CLASSES, ids=lambda c: c.value)
class TestPerClass:
    def test_fast_path_matches_generic_expansion(self, cid):
        rule = rule_for(cid)
        censuses = [{rule.root(): 1}]
        fast = rule.initial_state()
        for depth in range(EQUIVALENCE_DEPTH.get(cid, 25) + 1):
            assert fast == rule.project(censuses), (cid, depth)
            census = censuses[-1]
            expected = sum(c for l, c in census.items() if rule.counted(l))
            total = rule.counted_total(fast)
            fast, count = rule.step_state(fast, depth)
            assert count == total == expected, (cid, depth)
            censuses.append(rule.step_census(census, depth))

    def test_matches_oracle(self, cid):
        counts = count_class(cid, 8)
        for n in range(9):
            assert counts[n] == count_avoiders(n, cid.patterns), (cid, n)

    def test_i7_column(self, cid):
        rule = rule_for(cid)
        assert sum(c for l, c in label_census(cid, 7).items() if rule.counted(l)) == cid.i7

    def test_monotone_and_deterministic(self, cid):
        a = count_class(cid, 12)
        b = count_class(cid, 12)
        assert a == b
        assert all(x <= y for x, y in zip(a, a[1:]))


def test_resuming_one_term_at_a_time_equals_counting_cold(monkeypatch):
    """The memo's state is one depth past its last count; resuming from it
    term by term gives what one cold count gives."""
    for cid in ALL_CLASSES:
        monkeypatch.setattr(gentree, "_MEMO", {})
        assert count_class(cid, 0) == [1], cid
        resumed = [count_class(cid, n)[-1] for n in range(41)]
        monkeypatch.setattr(gentree, "_MEMO", {})
        assert resumed == count_class(cid, 40), cid


@pytest.mark.parametrize(
    "cid", sorted(MINIMAL_POLYNOMIAL_DEGREE, key=lambda c: c.i7), ids=lambda c: c.value
)
def test_minimal_polynomial_holds_to_310_terms(cid):
    assert verify_minimal_polynomial(cid, count_class(cid, 310))


def test_counts_match_recorded_digests_to_210_terms():
    digests = json.loads(CENSUS_REFS.read_text())["digests"]
    for cid in ALL_CLASSES:
        for depth in range(10, 211, 10):
            text = ",".join(map(str, count_class(cid, depth)))
            got = hashlib.sha256(text.encode()).hexdigest()
            assert got == digests[cid.value][str(depth)], (cid, depth)


def test_counts_match_recorded_digests_to_310_terms(monkeypatch):
    """The classes whose steppers lag their upper columns, counted from a
    fresh memo to 210 terms and then on to 310, give the digests recorded
    with the whole-triangle steppers."""
    digests = json.loads(DEEP_REFS.read_text())["lagged"]["digests"]
    monkeypatch.setattr(gentree, "_MEMO", {})
    for cid in map(ClassId.parse, digests):
        count_class(cid, 210)
        text = ",".join(map(str, count_class(cid, 310)))
        assert hashlib.sha256(text.encode()).hexdigest() == digests[cid.value], cid


def test_all_counted_classes_match_recorded_digests_to_310_terms():
    """830, 2106 and 1953A, counted through the shared memo, give the
    digests recorded while 830's and 2106's reference labels still stored
    the sequence length."""
    digests = json.loads(DEEP_REFS.read_text())["all_counted"]["digests"]
    for cid in map(ClassId.parse, digests):
        text = ",".join(map(str, count_class(cid, 310)))
        assert hashlib.sha256(text.encode()).hexdigest() == digests[cid.value], cid


class TestWilfPartners:
    def test_partner_counts_agree(self):
        for cid, partner in WILF_PARTNER_PATTERNS.items():
            ps = PatternSet.of(*partner)
            assert ps != cid.patterns
            counts = count_class(cid, 8)
            for n in range(9):
                assert counts[n] == count_avoiders(n, ps), (cid, n)


class TestPhantoms:
    @pytest.mark.parametrize(
        "cid", [ClassId.C1176, ClassId.C1253, ClassId.C1016], ids=lambda c: c.value
    )
    def test_census_exceeds_counts_somewhere(self, cid):
        counts = count_class(cid, 8)
        totals = [sum(label_census(cid, n).values()) for n in range(9)]
        assert all(t >= c for t, c in zip(totals, counts))
        assert any(t > c for t, c in zip(totals[3:], counts[3:]))


class TestRule759Multiplicities:
    def test_jump_total(self):
        rule = rule_for(ClassId.C759)
        for p in range(1, 8):
            label = Label("", (p, 0))
            jumps = [
                mult
                for child, mult in rule.expand(label, p)
                if child.params[0] != p + 1
            ]
            expected = sum(
                multiplicity_m(ell, b)
                for ell in range(p)
                for b in range(ell + 1)
            )
            assert sum(jumps) == expected, p


EVERY = (1, 1, 1)  # the label joins every census of depths 0..2


@pytest.mark.parametrize(
    "cid, label, mults",  # per layout family, a label its layout has no cell for
    [
        (ClassId.C1176, Label("a", (3,)), EVERY),  # a maximum past the depth
        (ClassId.C830, Label("t", (0, 1)), EVERY),  # a premaximum above the maximum
        (ClassId.C663A, Label("b", (3,)), EVERY),  # a run past the depth
        (ClassId.C759, Label("", (1, 2)), EVERY),  # a cell past the triangle
        (ClassId.C1509, Label("", (0, 2)), EVERY),  # in the triangle, past its lagged depth 1
        (ClassId.C733, Label("", (3, 0)), EVERY),  # a cell past the triangle
        # in the triangle of the depth-2 census of depths 0..3, where column 2 is
        # held, but with a tag 1509 has no cells for
        (ClassId.C1509, Label("b", (0, 2)), (0, 0, 1, 0)),
    ],
    ids=["1176", "830", "663A", "759", "1509", "733", "1509-held"],
)
def test_project_refuses_a_label_outside_the_layout(cid, label, mults):
    """The label joins the census of each depth d with multiplicity mults[d],
    so it is refused at the depth where the layout holds its column."""
    censuses = [
        {**label_census(cid, depth), label: m} if m else label_census(cid, depth)
        for depth, m in enumerate(mults)
    ]
    with pytest.raises(RuleError, match=re.escape(str(label))):
        rule_for(cid).project(censuses)


@pytest.mark.parametrize("cid", [ClassId.C759, ClassId.C1509], ids=["759", "1509"])
def test_project_refuses_a_label_past_its_census_triangle(cid):
    """(1, 2) cannot occur at depth 2, so it is refused in the depth-2
    census even though the lagged layout reads column 2 at an earlier
    depth there."""
    label = Label("", (1, 2))
    censuses = [label_census(cid, depth) for depth in range(3)]
    censuses[2] = {**censuses[2], label: 5}
    with pytest.raises(RuleError, match=re.escape(str(label))):
        rule_for(cid).project(censuses)


def test_no_rule_method_branches_on_its_class():
    """A family states its shared moves once and each class its own, so no
    method in gentree compares ``self.class_id``."""
    tree = ast.parse(Path(gentree.__file__).read_text())
    branches = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(ast.unparse(side) == "self.class_id" for side in [node.left, *node.comparators])
    ]
    assert branches == []


def test_no_rule_class_defines_counted_or_root():
    """Each family derives ``counted`` and ``root`` from its declared labels,
    so no concrete ``Rule*`` class defines either."""
    tree = ast.parse(Path(gentree.__file__).read_text())
    defined = [
        f"{node.name}.{item.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.startswith("Rule")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("counted", "root")
    ]
    assert defined == []


@pytest.mark.parametrize("tag", ["z", ""])
@pytest.mark.parametrize(
    "cid, params", [(ClassId.C1176, (0,)), (ClassId.C663A, (0,)), (ClassId.C830, (0, 0))],
    ids=["1176", "663A", "830"],
)
def test_expand_refuses_an_unknown_tag(cid, params, tag):
    """The empty tag too: it is no tag of a right-grown rule, though it is a
    substring of every tag string."""
    with pytest.raises(RuleError, match=f"{cid.value}: unknown tag {tag!r}"):
        list(rule_for(cid).expand(Label(tag, params), 1))


def test_step_census_refuses_a_multiplicity_below_one(monkeypatch):
    monkeypatch.setattr(gentree.Rule214, "expand", lambda self, label, depth: iter([(label, 0)]))
    rule = rule_for(ClassId.C214)
    with pytest.raises(RuleError, match="214: bad multiplicity for"):
        rule.step_census({rule.root(): 1}, 0)


class TestErrors:
    def test_negative_depth(self):
        with pytest.raises(ValueError):
            count_class(ClassId.C214, -1)
        with pytest.raises(ValueError):
            label_census(ClassId.C830, -2)
