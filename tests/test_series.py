from fractions import Fraction

import pytest

from invseq.cli import SERIES_ORDER
from invseq.gentree import ClassId, count_class
from invseq.series import (
    CATALYTIC_CLASSES,
    CLOSED_FORM_CLASSES,
    CUBIC_KERNELS,
    MINIMAL_POLYNOMIAL_DEGREE,
    MINIMAL_POLYNOMIALS,
    QSqrt5,
    QUARTIC_KERNELS,
    SQRT5,
    TruncatedSeries,
    _div_1mx,
    bounded_roots_733,
    expand_closed_form,
    hensel_quadratic_factors,
    horner,
    iterate_catalytic,
    kernel_root,
    verify_minimal_polynomial,
)
from conftest import PUBLISHED_PREFIXES


class TestQSqrt5:
    def test_field_axioms_on_samples(self):
        x = QSqrt5(Fraction(1, 2), Fraction(-3, 4))
        y = QSqrt5(2, 1)
        assert (x + y) - y == x
        assert (x * y) / y == x
        assert x * x.conjugate() == QSqrt5(
            Fraction(1, 4) - 5 * Fraction(9, 16)
        )
        assert 1 / y == y.inverse()

    def test_sqrt5_squares_to_five(self):
        assert SQRT5 * SQRT5 == QSqrt5(5)
        assert type((SQRT5 * SQRT5).a) is int

    def test_float(self):
        assert abs(float(SQRT5) - 5 ** 0.5) < 1e-12


def _all_ints(coeffs):
    return all(type(c) is int for c in coeffs)


class TestTruncatedSeries:
    def test_geometric_inverse(self):
        one_minus_z = TruncatedSeries.from_poly([1, -1], 8)
        inv = one_minus_z.inverse()
        assert inv.coeffs == [Fraction(1)] * 8

    def test_division_and_shift(self):
        z2 = TruncatedSeries.from_poly([0, 0, 3], 8)
        assert z2.shift(-2).coeffs[0] == 3
        assert z2.shift(-2).shift(2).coeffs == z2.coeffs[:8]

    def test_sqrt(self):
        sq = TruncatedSeries.from_poly([1, 2, 1], 10).sqrt()
        assert sq.coeffs[:3] == [Fraction(1), Fraction(1), Fraction(0)]

    def test_mul_truncates(self):
        a = TruncatedSeries.from_poly([1, 1], 4)
        b = a * a
        assert b.order == 4
        assert b.coeffs == [Fraction(c) for c in (1, 2, 1, 0)]

    def test_integer_series_divide_exactly(self):
        inv2 = TruncatedSeries([2, 1], 4).inverse().coeffs
        inv1 = TruncatedSeries([1, 1], 4).inverse().coeffs
        root = TruncatedSeries([1, 1], 4).sqrt(1).coeffs
        half = (TruncatedSeries([2, 4, 3], 3) / 2).coeffs
        assert inv2 == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16)]
        assert inv1 == [1, -1, 1, -1]
        assert root == [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]
        assert half == [1, 2, Fraction(3, 2)]
        # a float compares equal to its Fraction, so the types are checked too
        assert not any(isinstance(c, float) for c in inv2 + inv1 + root + half)
        assert _all_ints(inv1 + half[:2])


class TestIntegerCoefficients:
    """Integral series stay Python ints; a stray Fraction would only cost time."""

    @pytest.mark.parametrize("cid", CLOSED_FORM_CLASSES, ids=lambda c: c.value)
    def test_closed_form(self, cid):
        assert _all_ints(expand_closed_form(cid, SERIES_ORDER))

    @pytest.mark.parametrize("cid", CATALYTIC_CLASSES, ids=lambda c: c.value)
    def test_catalytic(self, cid):
        assert _all_ints(iterate_catalytic(cid, SERIES_ORDER))

    @pytest.mark.parametrize("cid", CUBIC_KERNELS, ids=lambda c: c.value)
    def test_kernel_root(self, cid):
        ks = [TruncatedSeries.from_poly(p, SERIES_ORDER) for p in CUBIC_KERNELS[cid]]
        assert _all_ints(kernel_root(ks, 1, SERIES_ORDER).coeffs)

    @pytest.mark.parametrize("cid", QUARTIC_KERNELS, ids=lambda c: c.value)
    def test_hensel_factors(self, cid):
        e1, e2 = hensel_quadratic_factors(*QUARTIC_KERNELS[cid], SERIES_ORDER)
        assert _all_ints(e1.coeffs) and _all_ints(e2.coeffs)


class TestClosedForms:
    @pytest.mark.parametrize("cid", CLOSED_FORM_CLASSES, ids=lambda c: c.value)
    def test_matches_counts_to_order_40(self, cid):
        coeffs = expand_closed_form(cid, 41)
        counts = count_class(cid, 40)
        assert [Fraction(c) for c in coeffs] == [Fraction(c) for c in counts]

    @pytest.mark.parametrize("cid", PUBLISHED_PREFIXES, ids=lambda c: c.value)
    def test_published_prefixes(self, cid):
        prefix = PUBLISHED_PREFIXES[cid]
        coeffs = expand_closed_form(cid, len(prefix))
        assert [int(c) for c in coeffs] == prefix

    def test_no_closed_form(self):
        with pytest.raises(Exception):
            expand_closed_form(ClassId.C830, 10)


class TestCatalytic:
    @pytest.mark.parametrize("cid", CATALYTIC_CLASSES, ids=lambda c: c.value)
    def test_matches_counts_to_order_40(self, cid):
        assert iterate_catalytic(cid, 41) == [
            Fraction(c) for c in count_class(cid, 40)
        ]

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            iterate_catalytic(ClassId.C759, 10)

    def test_returns_exactly_order_coefficients(self):
        for order in (0, 1, 2, 7):
            for cid in CATALYTIC_CLASSES:
                coeffs = iterate_catalytic(cid, order)
                assert len(coeffs) == order == len(expand_closed_form(cid, order))
        with pytest.raises(ValueError):
            iterate_catalytic(ClassId.C1176, -2)
        for cid in CLOSED_FORM_CLASSES:  # refused, never an empty series
            with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
                expand_closed_form(cid, -1)

    def test_division_by_one_minus_x_is_exact(self):
        assert _div_1mx([1, -1]) == [1]
        assert _div_1mx([3, -1, -2]) == [3, 2]  # (3 + 2x)(1 - x)
        for p in ([1], [1, 1]):  # p(1) != 0 leaves a remainder
            with pytest.raises(ArithmeticError):
                _div_1mx(p)


class TestMinimalPolynomials:
    @pytest.mark.parametrize("cid", sorted(MINIMAL_POLYNOMIALS, key=lambda c: c.value), ids=lambda c: c.value)
    def test_annihilates_counts(self, cid):
        assert verify_minimal_polynomial(cid, count_class(cid, 60))

    def test_degrees(self):
        expected = {
            ClassId.C663A: 3,
            ClassId.C1420: 3,
            ClassId.C733: 4,
            ClassId.C1833A: 6,
            ClassId.C1176: 2,
            ClassId.C1253: 2,
            ClassId.C1016: 2,
        }
        assert MINIMAL_POLYNOMIAL_DEGREE == expected
        for cid, poly in MINIMAL_POLYNOMIALS.items():
            assert len(poly) - 1 == expected[cid]

    def test_detects_wrong_series(self):
        bad = count_class(ClassId.C663A, 60)
        bad[30] += 1
        assert not verify_minimal_polynomial(ClassId.C663A, bad)


class TestKernelRoots:
    def test_1420_root_prefix(self):
        ks = [TruncatedSeries.from_poly(p, 51) for p in CUBIC_KERNELS[ClassId.C1420]]
        x = kernel_root(ks, 1, 51)
        assert [int(c) for c in x.coeffs[:5]] == [1, 2, 5, 17, 64]
        assert horner(ks, x).is_zero()

    def test_663A_root_satisfies_kernel(self):
        ks = [TruncatedSeries.from_poly(p, 51) for p in CUBIC_KERNELS[ClassId.C663A]]
        assert horner(ks, kernel_root(ks, 1, 51)).is_zero()


class TestQuarticFactorisation:
    @pytest.mark.parametrize("cid", sorted(QUARTIC_KERNELS, key=lambda c: c.value), ids=lambda c: c.value)
    def test_symmetric_functions_solve_quadratic(self, cid):
        order = 30
        e1, e2 = hensel_quadratic_factors(*QUARTIC_KERNELS[cid], order)
        # each bounded root x satisfies x^2 - e1 x + e2 = 0, and
        # hensel_quadratic_factors asserts internally that
        # (z^2 x^2 + a x + b)(x^2 - e1 x + e2) recovers the quartic; here we
        # check only that both roots start at 1.  The lifted roots themselves
        # are compared with e1, e2 in test_733_roots_in_sqrt5_extension.
        assert e1.coeffs[0] == 2
        assert e2.coeffs[0] == 1

    def test_733_roots_in_sqrt5_extension(self):
        order = 25
        x1, x3 = bounded_roots_733(order)
        e1, e2 = hensel_quadratic_factors(*QUARTIC_KERNELS[ClassId.C733], order)
        s = x1 + x3
        p = x1 * x3
        assert all(c.b == 0 for c in s.coeffs)
        assert all(c.b == 0 for c in p.coeffs)
        assert [c.a for c in s.coeffs] == e1.coeffs[: s.order]
        assert [c.a for c in p.coeffs] == e2.coeffs[: p.order]
        # golden-ratio structure of the leading coefficients
        assert x1.coeffs[1] == QSqrt5(Fraction(1, 2), Fraction(1, 2)) or x1.coeffs[
            1
        ] == QSqrt5(Fraction(1, 2), Fraction(-1, 2))
