"""Acceptance gate: nine criteria, one test (hence one pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
verdict lines.  Criteria 1 and 4-8 run the checks of ``invseq verify-all``
at its depths; tolerances are pinned in the constants below, and
everything else is exact integer or rational arithmetic.
"""

from invseq import cli
from invseq.analysis import GROWTH_REFERENCE, estimate_growth
from invseq.gentree import ClassId, count_class
from invseq.series import MINIMAL_POLYNOMIAL_DEGREE, MINIMAL_POLYNOMIALS, expand_closed_form
from conftest import PUBLISHED_PREFIXES

# -- pinned tolerances and reference values ---------------------------------

MU_TIGHT_TOL = 1e-3  # relative, >= 200 terms
MU_LOOSE_TOL = 1e-2  # relative, >= 300 terms
MU_TIGHT = {cid: (GROWTH_REFERENCE[cid].mu, 210) for cid in MINIMAL_POLYNOMIALS}
MU_LOOSE = {
    cid: (GROWTH_REFERENCE[cid].mu, 310)
    for cid in (ClassId.C214, ClassId.C830, ClassId.C1509, ClassId.C1953A)
}


def assert_all_agree(comparisons):
    """Every (where, expected, got) agrees, and there is at least one."""
    comparisons = list(comparisons)
    assert comparisons, "the check compared nothing"
    assert [c for c in comparisons if c[1] != c[2]] == []


def test_criterion_1_rules_match_oracle():
    assert_all_agree(cli.check_rules_vs_oracle())


def test_criterion_2_i7_column():
    for cid in ClassId:
        assert count_class(cid, 7)[7] == cid.i7, cid.value


def test_criterion_3_published_series_prefixes():
    for cid, prefix in PUBLISHED_PREFIXES.items():
        coeffs = expand_closed_form(cid, len(prefix))
        assert coeffs == prefix, cid.value


def test_criterion_4_three_way_series_agreement():
    assert_all_agree(cli.check_series_agreement())


def test_criterion_5_minimal_polynomials():
    degrees = {
        ClassId.C663A: 3, ClassId.C1420: 3, ClassId.C733: 4, ClassId.C1833A: 6,
        ClassId.C1176: 2, ClassId.C1253: 2, ClassId.C1016: 2,
    }
    assert MINIMAL_POLYNOMIAL_DEGREE == degrees
    assert_all_agree(cli.check_minimal_polynomials())


def test_criterion_6_kernel_roots():
    assert_all_agree(cli.check_kernel_roots())


def test_criterion_7_word_lemmas():
    assert_all_agree(cli.check_words())


def test_criterion_8_classification():
    assert_all_agree(cli.check_classification())


def test_criterion_9_growth_rates():
    for cid, (mu_ref, terms) in MU_TIGHT.items():
        est = estimate_growth(count_class(cid, terms))
        assert abs(est.mu - mu_ref) / mu_ref < MU_TIGHT_TOL, (cid.value, est.mu)
    for cid, (mu_ref, terms) in MU_LOOSE.items():
        est = estimate_growth(count_class(cid, terms))
        assert abs(est.mu - mu_ref) / mu_ref < MU_LOOSE_TOL, (cid.value, est.mu)
