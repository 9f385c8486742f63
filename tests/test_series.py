from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from invseq.cli import SERIES_ORDER
from invseq.gentree import ClassId, count_class
from invseq.series import (
    CATALYTIC_CLASSES,
    CLOSED_FORM_CLASSES,
    CUBIC_KERNELS,
    MINIMAL_POLYNOMIALS,
    QSqrt5,
    QUARTIC_KERNELS,
    TruncatedSeries,
    _div_1mx,
    bounded_roots_733,
    expand_closed_form,
    hensel_quadratic_factors,
    iterate_catalytic,
    kernel_root,
    verify_minimal_polynomial,
)


class TestQSqrt5:
    x = QSqrt5(Fraction(1, 2), Fraction(-3, 4))

    def test_add(self):
        assert self.x + QSqrt5(2, 1) == QSqrt5(Fraction(5, 2), Fraction(1, 4))
        assert 1 + self.x == self.x + 1 == QSqrt5(Fraction(3, 2), Fraction(-3, 4))
        assert Fraction(1, 2) + self.x == QSqrt5(1, Fraction(-3, 4))

    def test_mul(self):
        # (1/2 - 3/4 r)(2 + r) = 1 - 15/4 + (1/2 - 3/2) r, with r^2 = 5
        assert self.x * QSqrt5(2, 1) == QSqrt5(Fraction(-11, 4), -1)
        assert 2 * self.x == self.x * 2 == QSqrt5(1, Fraction(-3, 2))
        assert Fraction(2, 3) * self.x == QSqrt5(Fraction(1, 3), Fraction(-1, 2))

    def test_eq_and_truth(self):
        assert QSqrt5(3) == 3 and QSqrt5(Fraction(1, 2)) == Fraction(1, 2)
        assert QSqrt5(3, 1) != 3 and self.x != QSqrt5(Fraction(1, 2))
        assert not QSqrt5(0, 0) and QSqrt5(0, 1)

    def test_sqrt5_squares_to_five(self):
        sqrt5 = QSqrt5(0, 1)
        assert sqrt5 * sqrt5 == QSqrt5(5)
        assert type((sqrt5 * sqrt5).a) is int

    def test_equal_across_denominators(self):
        # (1/2) * 2 is held as 2/2, which equals 1/1
        assert QSqrt5(Fraction(1, 2)) * 2 == QSqrt5(1) == 1
        assert QSqrt5(Fraction(1, 2)) * 2 != QSqrt5(2)
        assert QSqrt5(Fraction(1, 2), 1) != QSqrt5(Fraction(1, 2), Fraction(1, 3))

    def test_sum_of_different_denominators(self):
        half, third = QSqrt5(Fraction(1, 2), 1), QSqrt5(Fraction(1, 3), Fraction(-1, 3))
        assert half + third == QSqrt5(Fraction(5, 6), Fraction(2, 3))

    def test_reads_are_reduced(self):
        # golden-ratio conjugates: (1 + r)/2 * (1 - r)/2 = (1 - 5)/4, held as -4/4
        p = QSqrt5(Fraction(1, 2), Fraction(1, 2)) * QSqrt5(Fraction(1, 2), Fraction(-1, 2))
        assert p.a == -1 and type(p.a) is int
        assert p.b == 0 and type(p.b) is int
        assert (self.x.a, self.x.b) == (Fraction(1, 2), Fraction(-3, 4))

    def test_repr_and_truth(self):
        assert repr(self.x) == "QSqrt5(1/2, -3/4)"
        assert repr(QSqrt5(Fraction(1, 2)) * 2) == "QSqrt5(1, 0)"
        assert not QSqrt5(Fraction(1, 2), 1) * 0 and QSqrt5(Fraction(1, 2)) * 2

    def test_foreign_operand(self):
        with pytest.raises(TypeError):
            self.x + "1"
        with pytest.raises(TypeError):
            self.x * 1.5
        assert (self.x == "x") is False


def _all_ints(coeffs):
    return all(type(c) is int for c in coeffs)


class TestTruncatedSeries:
    def test_geometric_inverse(self):
        one_minus_z = TruncatedSeries([1, -1], 8)
        inv = one_minus_z.inverse()
        assert inv.coeffs == [1] * 8

    def test_division_and_shift(self):
        z2 = TruncatedSeries([0, 0, 3], 8)
        assert z2.shift(-2).coeffs[0] == 3
        assert z2.shift(-2).shift(2).coeffs == z2.coeffs[:8]

    @pytest.mark.parametrize("k", [-2, -3])
    def test_shift_past_the_order_is_refused(self, k):
        with pytest.raises(ValueError, match=f"cannot shift by {k}: the series has only 2"):
            TruncatedSeries([0, 0], 2).shift(k)

    def test_shift_down_past_a_nonzero_coefficient_is_refused(self):
        with pytest.raises(ValueError, match="cannot shift by -1: low-order coefficients nonzero"):
            TruncatedSeries([1, 1], 4).shift(-1)

    def test_repr_elides_past_eight_coefficients(self):
        assert "..." not in repr(TruncatedSeries([1, 2], 8))
        assert repr(TruncatedSeries([1, 2], 9)).count("...") == 1

    def test_order_zero_is_refused(self):
        with pytest.raises(ValueError, match="order must be at least 1"):
            TruncatedSeries([1], 0)

    def test_zero_constant_term_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError, match="zero constant term"):
            TruncatedSeries([0, 1], 4).inverse()

    def test_sqrt(self):
        sq = TruncatedSeries([1, 2, 1], 10).sqrt()
        assert sq.coeffs[:3] == [1, 1, 0]

    def test_sqrt_needs_constant_term_one(self):
        with pytest.raises(ValueError):
            TruncatedSeries([4, 1], 5).sqrt()

    def test_mul_truncates(self):
        a = TruncatedSeries([1, 1], 4)
        b = a * a
        assert b.order == 4
        assert b.coeffs == [1, 2, 1, 0]

    def test_integer_series_divide_exactly(self):
        inv2 = TruncatedSeries([2, 1], 4).inverse().coeffs
        inv1 = TruncatedSeries([1, 1], 4).inverse().coeffs
        root = TruncatedSeries([1, 1], 4).sqrt().coeffs
        half = (TruncatedSeries([2, 4, 3], 3) / 2).coeffs
        assert inv2 == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16)]
        assert inv1 == [1, -1, 1, -1]
        assert root == [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]
        assert half == [1, 2, Fraction(3, 2)]
        # a float compares equal to its Fraction, so the types are checked too
        assert not any(isinstance(c, float) for c in inv2 + inv1 + root + half)
        assert _all_ints(inv1 + half[:2])


@st.composite
def _series(draw):
    """A series of int or Fraction coefficients with a random tail of zeros."""
    coeff = draw(st.sampled_from([st.integers(-9, 9), st.fractions(-3, 3, max_denominator=5)]))
    head = draw(st.lists(coeff, max_size=8))
    tail = draw(st.integers(0, 6))
    return TruncatedSeries(head, max(1, len(head) + tail))


class TestProduct:
    @given(_series(), _series())
    @example(TruncatedSeries([Fraction(0)], 5), TruncatedSeries([Fraction(1, 2), 3], 7))
    def test_mul_is_the_defining_sum(self, a, b):
        n = min(a.order, b.order)
        want = [sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)) for k in range(n)]
        for product in (a * b, b * a):
            assert product.order == n and product.coeffs == want
            if a.is_zero() or b.is_zero():  # no work, and no Fraction zeros
                assert _all_ints(product.coeffs)

    @given(_series(), _series())
    @example(TruncatedSeries([Fraction(1, 2)], 3), TruncatedSeries([1, 2, 3, 4], 6))
    def test_sub_is_the_elementwise_difference(self, a, b):
        def scalar(k, order):
            return [k] + [0] * (order - 1)

        cases = [
            (a - b, a.coeffs, b.coeffs),
            (a - 3, a.coeffs, scalar(3, a.order)),
            (1 - a, scalar(1, a.order), a.coeffs),
        ]
        for got, xs, ys in cases:
            want = [x - y for x, y in zip(xs, ys)]  # to the lesser order
            assert got.order == len(want) and got.coeffs == want
            assert [type(c) for c in got.coeffs] == [type(c) for c in want]


@st.composite
def _divisor(draw):
    """A series with constant term 1, -1, 2 or 3/2: a polynomial of at most
    three terms padded to the order, or dense to the order."""
    coeff = draw(st.sampled_from([st.integers(-9, 9), st.fractions(-3, 3, max_denominator=5)]))
    order = draw(st.integers(1, 12))
    size = draw(st.sampled_from([min(order, 3), order]))
    head = draw(st.sampled_from([1, -1, 2, Fraction(3, 2)]))
    rest = draw(st.lists(coeff, min_size=size - 1, max_size=size - 1))
    return TruncatedSeries([head, *rest], order)


class TestDivision:
    @given(_series(), _divisor())
    @example(TruncatedSeries([1, 2, 3, 4, 5, 6], 6), TruncatedSeries([2, -1, 1], 8))
    def test_quotient_times_divisor_is_the_dividend(self, a, b):
        n = min(a.order, b.order)
        q = a / b
        assert q.order == n and q * b == TruncatedSeries(a.coeffs, n)

    @given(_divisor())
    def test_inverse_times_series_is_one(self, b):
        assert b * b.inverse() == TruncatedSeries([1], b.order)

    @given(_series())
    def test_zero_constant_term_is_refused_alike(self, a):
        b = TruncatedSeries([0, *a.coeffs], a.order + 1)
        message = "^series has no inverse: zero constant term$"
        for divide in (lambda: a / b, b.inverse):
            with pytest.raises(ZeroDivisionError, match=message):
                divide()


class TestKernelRoot:
    @pytest.mark.parametrize("cid", CUBIC_KERNELS, ids=lambda c: c.value)
    def test_shorter_orders_are_prefixes(self, cid):
        ks = [TruncatedSeries(p, 122) for p in CUBIC_KERNELS[cid]]
        full = kernel_root(ks, 1, 122)
        for m in (1, 2, 3, 5, 61):  # non-powers of two end on a capped step
            root = kernel_root(ks, 1, m)
            assert root.order == m and root.coeffs == full.coeffs[:m]

    @pytest.mark.parametrize("cid", CUBIC_KERNELS, ids=lambda c: c.value)
    def test_x0_must_be_a_root(self, cid):
        ks = [TruncatedSeries(p, 12) for p in CUBIC_KERNELS[cid]]
        with pytest.raises(ValueError, match="x0 is not a root of the kernel at z = 0"):
            kernel_root(ks, 5, 12)

    def test_double_root_refused(self):
        ks = [TruncatedSeries([c], 8) for c in (1, -2, 1)]  # (x - 1)^2
        with pytest.raises(ValueError, match="not a simple root"):
            kernel_root(ks, 1, 8)


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
        ks = [TruncatedSeries(p, SERIES_ORDER) for p in CUBIC_KERNELS[cid]]
        assert _all_ints(kernel_root(ks, 1, SERIES_ORDER).coeffs)

    @pytest.mark.parametrize("cid", QUARTIC_KERNELS, ids=lambda c: c.value)
    def test_hensel_factors(self, cid):
        e1, e2 = hensel_quadratic_factors(*QUARTIC_KERNELS[cid], SERIES_ORDER)
        assert _all_ints(e1.coeffs) and _all_ints(e2.coeffs)


class TestClosedForms:
    def test_no_closed_form(self):
        with pytest.raises(ValueError, match="no closed form for class 830"):
            expand_closed_form(ClassId.C830, 10)


class TestCatalytic:
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
    def test_detects_wrong_series(self):
        bad = count_class(ClassId.C663A, 60)
        bad[30] += 1
        assert not verify_minimal_polynomial(ClassId.C663A, bad)

    def test_every_closed_form_has_an_annihilator(self):
        # invseq series looks up the annihilator of every class with a closed form
        assert set(CLOSED_FORM_CLASSES) == set(MINIMAL_POLYNOMIALS)


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

    def test_quartic_not_degenerating_at_zero_is_refused(self):
        with pytest.raises(ValueError, match=r"does not degenerate to \(x - 1\)\^2"):
            hensel_quadratic_factors([1], [1], [1], [1], 5)

    def test_733_roots_in_sqrt5_extension(self):
        order = 120  # the verify benchmark's bounded_roots.733 order
        x1, x3 = bounded_roots_733(order)
        e1, e2 = hensel_quadratic_factors(*QUARTIC_KERNELS[ClassId.C733], order)
        s = x1 + x3
        p = x1 * x3
        for c in x1.coeffs + x3.coeffs + s.coeffs + p.coeffs:
            assert type(c.A) is int and type(c.B) is int and type(c.D) is int
        assert all(c.b == 0 for c in s.coeffs)
        assert all(c.b == 0 for c in p.coeffs)
        assert [c.a for c in s.coeffs] == e1.coeffs[: s.order]
        assert [c.a for c in p.coeffs] == e2.coeffs[: p.order]
        # golden-ratio structure of the leading coefficients
        assert x1.coeffs[1] == QSqrt5(Fraction(1, 2), Fraction(1, 2)) or x1.coeffs[
            1
        ] == QSqrt5(Fraction(1, 2), Fraction(-1, 2))
