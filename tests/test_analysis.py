import json
import math
from dataclasses import replace

import pytest

from invseq.analysis import (
    GROWTH_REFERENCE,
    PATTERN_IMPLICATIONS,
    check_root_constants,
    classify_triples,
    close_pattern_set,
    estimate_growth,
    fit_stretched,
)
from invseq.core import (
    InversionSequence,
    Pattern,
    PatternSet,
    RelationTriple,
    contains_pattern,
    triple_to_pattern_set,
)
from invseq.gentree import ClassId, WILF_PARTNER_PATTERNS, count_class
from invseq.oracle import count_avoiders
from invseq.series import MINIMAL_POLYNOMIALS
from conftest import CENSUS_REFS, all_inversion_sequences


class TestPatternImplications:
    def test_implications_hold_on_all_short_sequences(self):
        for left, alternatives in PATTERN_IMPLICATIONS:
            lp = Pattern.parse(left)
            alts = [Pattern.parse(a) for a in alternatives]
            for n in range(8):
                for vals in all_inversion_sequences(n):
                    s = InversionSequence(vals)
                    if contains_pattern(s, lp):
                        assert any(contains_pattern(s, a) for a in alts), (
                            left,
                            alternatives,
                            vals,
                        )

    def test_closure_is_idempotent_and_extensive(self):
        for specs in [("001",), ("000", "001"), ("110", "011"), ("012", "021")]:
            ps = PatternSet.of(*specs)
            closed = close_pattern_set(ps)
            assert set(map(str, ps)) <= set(map(str, closed))
            assert close_pattern_set(closed) == closed

    def test_closure_preserves_avoiders(self):
        for specs in [("001",), ("001", "110"), ("012", "021"), ("011",)]:
            ps = PatternSet.of(*specs)
            closed = close_pattern_set(ps)
            for n in range(7):
                assert count_avoiders(n, ps) == count_avoiders(n, closed), specs


@pytest.fixture(scope="module")
def classification():
    return classify_triples()


class TestClassification:
    def test_headline_numbers(self, classification):
        assert classification.n_triples == 343
        assert classification.n_pattern_classes == 98
        assert classification.n_wilf_classes == 63

    def test_partitions(self, classification):
        seen = set()
        for members in classification.pattern_classes.values():
            for t in members:
                assert t not in seen
                seen.add(t)
        assert len(seen) == 343

    def test_cells_are_closed_keys(self, classification):
        for ps, members in classification.pattern_classes.items():
            assert close_pattern_set(ps) == ps
            for t in members:
                assert close_pattern_set(triple_to_pattern_set(t)) == ps

    def test_counts_match_oracle_spot_check(self, classification):
        ps = classification.cell_of(ClassId.C1176.patterns)
        assert classification.counts[ps][7] == 1176

    def test_implemented_classes_land_in_distinct_cells(self, classification):
        cells = {classification.cell_of(cid.patterns) for cid in ClassId}
        assert len(cells) == len(list(ClassId))

    def test_wilf_pairs_share_cells(self, classification):
        def wilf_key(ps):
            cell = classification.cell_of(ps)
            return classification.counts[cell]

        for cid, partner in WILF_PARTNER_PATTERNS.items():
            ps = PatternSet.of(*partner)
            assert classification.cell_of(ps) != classification.cell_of(cid.patterns)
            assert wilf_key(ps) == wilf_key(cid.patterns)

        a = triple_to_pattern_set(RelationTriple.parse("(-,<,>)"))
        b = triple_to_pattern_set(RelationTriple.parse("(>,>,-)"))
        assert wilf_key(a) == wilf_key(b)

    def test_unknown_pattern_set(self, classification):
        with pytest.raises(KeyError):
            classification.cell_of(PatternSet.of("00"))

    def test_negative_depth_is_refused(self):
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            classify_triples(-1)


class TestGrowthReference:
    def test_root_constants(self):
        for cid in GROWTH_REFERENCE:
            mu = check_root_constants(cid)
            assert mu > 0

    def test_algebraic_classes_listed(self):
        assert set(MINIMAL_POLYNOMIALS) <= set(GROWTH_REFERENCE)

    @pytest.mark.parametrize("shift", [-1e-8, 1e-8])
    def test_moved_root_is_refused(self, shift, monkeypatch):
        for cid, info in GROWTH_REFERENCE.items():
            if info.mu_polynomial is None:
                continue
            monkeypatch.setitem(GROWTH_REFERENCE, cid, replace(info, mu=info.mu + shift))
            with pytest.raises(ArithmeticError, match=cid.value):
                check_root_constants(cid)


class TestEstimateGrowth:
    def test_geometric(self):
        counts = [2 ** n for n in range(60)]
        est = estimate_growth(counts)
        assert abs(est.mu - 2) < 1e-12
        assert abs(est.exponent) < 1e-9

    def test_catalan(self):
        c = [1]
        for n in range(200):
            c.append(c[-1] * 2 * (2 * n + 1) // (n + 2))
        est = estimate_growth(c)
        assert abs(est.mu - 4) < 1e-10
        assert abs(est.exponent + 1.5) < 1e-6

    def test_exact_on_a_linear_ratio(self):
        # r_n = 4 + 4/n is linear in 1/n, so both extrapolations are exact
        est = estimate_growth([1] + [n * 4 ** (n - 1) for n in range(1, 61)])
        assert est.mu == 4.0
        assert est.exponent == 1.0

    def test_needs_enough_terms(self):
        with pytest.raises(ValueError, match=r"needs terms up to n = 23, got 2$"):
            estimate_growth([1, 1, 2], points=10)

    @pytest.mark.parametrize("points", [0, 1])
    def test_needs_two_points(self, points):
        with pytest.raises(ValueError, match="at least 2"):
            estimate_growth([2 ** n for n in range(60)], points=points)

    def test_on_class_counts(self):
        counts = count_class(ClassId.C1420, 210)
        est = estimate_growth(counts)
        assert abs(est.mu - 27 / 5) < 1e-9
        assert abs(est.exponent + 1.5) < 1e-6


def test_growth_estimates_match_recorded_fits():
    """Every class's fit at the benchmark's depth matches the one recorded
    with the benchmark, to the benchmark's own tolerances."""
    refs = json.loads(CENSUS_REFS.read_text())
    tolerance = {"algebraic": 1e-12, "stretched": 1e-6}
    for cid in ClassId:
        want = refs["final_fit"][cid.value]
        counts = count_class(cid, refs["depth"])
        if want["model"] == "stretched":
            fit = fit_stretched(counts, GROWTH_REFERENCE[cid].mu)
            got = {"exponent": fit.exponent, "log_mu1": fit.log_mu1}
        else:
            est = estimate_growth(counts)
            got = {"mu": est.mu, "exponent": est.exponent}
        assert GROWTH_REFERENCE[cid].stretched == (want["model"] == "stretched"), cid
        for key, value in got.items():
            assert math.isclose(value, want[key], rel_tol=tolerance[want["model"]]), (cid, key)


class TestStretchedFit:
    def test_recovers_synthetic_parameters(self):
        base, sigma, g, log_mu1, log_c = 8.0, 0.375, 4.25, -13.0, 2.0
        counts = [
            max(1, round(math.exp(log_c + g * math.log(n) + log_mu1 * n ** sigma
                                  + n * math.log(base))))
            for n in range(1, 240)
        ]
        fit = fit_stretched([1] + counts, base)
        assert abs(fit.exponent - g) < 0.05
        assert abs(fit.log_mu1 - log_mu1) < 0.05

    def test_deterministic(self):
        counts = count_class(ClassId.C247, 120)
        a = fit_stretched(counts, 8.0)
        b = fit_stretched(counts, 8.0)
        assert a == b

    def test_leaves_a_degree_of_freedom(self):
        # three unknowns: terms to n = 52 give three points and a zero residual
        counts = count_class(ClassId.C247, 53)
        with pytest.raises(ValueError, match="needs terms up to n = 53, got 52"):
            fit_stretched(counts[:53], 8.0)
        assert fit_stretched(counts, 8.0).residual > 0
