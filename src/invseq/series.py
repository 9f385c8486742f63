"""Exact truncated power series and the algebraic generating functions.

Everything here is exact arithmetic: series coefficients are Python
``int`` wherever they are integral, ``fractions.Fraction`` only where a
division is inexact (see :func:`_div`), and numbers (A + B sqrt(5))/D
with integer A, B, D (:class:`QSqrt5`) only in the finished roots of
:func:`bounded_roots_733`, so agreement between two computations is
literal equality, not a floating-point tolerance.  Products and quotients
(``inverse()`` is 1 / x) read only the nonzero support of each factor and
divisor, so a short polynomial costs its own length per coefficient.

The counting series of the algebraic classes is computed here in two
ways.  The closed forms (:func:`expand_closed_form`) and the minimal
polynomials are algebraically independent of the generating-tree census
(:mod:`invseq.gentree`).  Order-by-order iteration of the catalytic
functional equations (:func:`iterate_catalytic`) is not: it is a separate
transcription of the census recurrence.  Its x-coefficient list at z^n is
the gentree fast state at depth n, list for list, except that the gentree
lists carry trailing zeros.  It works on plain integer lists and divides
by (1 - x) only exactly (:func:`_div_1mx` raises on a remainder).  The
test-suite confirms that all routes coincide.  The square-root forms of
1176, 1253 and 1016 and their annihilators come from one table,
``QUADRATIC_FORMS``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add, mul
from typing import Sequence

from .gentree import ClassId


class QSqrt5:
    """A number (A + B*sqrt(5)) / D with integers A, B and D > 0, never reduced.

    Only the ring operations the bounded roots of 733 meet: sums and products
    of roots, compared with rational series.  The roots have D = 2 and their
    sums and products D = 2 or 4, so a gcd per operation would cost more than
    it saves.  ``==`` cross-multiplies; ``a`` and ``b`` read A/D and B/D reduced.
    """

    __slots__ = ("A", "B", "D")

    def __init__(self, a, b=0):
        d = lcm(a.denominator, b.denominator)  # a, b: int or Fraction
        self.A, self.B, self.D = (a * d).numerator, (b * d).numerator, d

    @staticmethod
    def _raw(A: int, B: int, D: int) -> "QSqrt5":
        x = object.__new__(QSqrt5)
        x.A, x.B, x.D = A, B, D
        return x

    a = property(lambda self: _div(self.A, self.D))
    b = property(lambda self: _div(self.B, self.D))

    @staticmethod
    def _coerce(x) -> "QSqrt5":
        if isinstance(x, (int, Fraction)):
            return QSqrt5(x)
        return x if isinstance(x, QSqrt5) else NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.D == o.D:
            return QSqrt5._raw(self.A + o.A, self.B + o.B, self.D)
        D = self.D * o.D
        return QSqrt5._raw(self.A * o.D + o.A * self.D, self.B * o.D + o.B * self.D, D)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        A, B = self.A * o.A + 5 * self.B * o.B, self.A * o.B + self.B * o.A
        return QSqrt5._raw(A, B, self.D * o.D)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.A * o.D == o.A * self.D and self.B * o.D == o.B * self.D

    def __bool__(self):
        return bool(self.A or self.B)

    def __repr__(self):
        return f"QSqrt5({self.a}, {self.b})"


def _div(x, d):
    """x / d exactly: an int when both are ints and d divides x, else a Fraction."""
    if type(x) is int and type(d) is int:
        q, r = divmod(x, d)
        return Fraction(x, d) if r else q
    return x / d


def _support(cs: list) -> list:
    """cs without its trailing zeros."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def _convolve(a: list, b: list, n: int) -> list:
    """The product of coefficient lists a and b, up to its first n coefficients.

    Coefficient k sums a_i b_(k-i) over just the i with both indices in
    range, so a short operand costs only its length per coefficient.  The
    result stops at len(a) + len(b) - 1 coefficients; past that it is zero.
    """
    la, lb = len(a), len(b)
    rb = b[::-1]  # b_j is rb[lb - 1 - j]
    out = []
    for k in range(min(n, la + lb - 1) if la and lb else 0):
        lo, hi = max(0, k - lb + 1), min(k, la - 1) + 1
        out.append(sum(map(mul, a[lo:hi], rb[lb - 1 - k + lo : lb - 1 - k + hi])))
    return out


class TruncatedSeries:
    """A power series known modulo z^order, with exact coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int):
        cs = list(coeffs)
        if order < 1:
            raise ValueError("order must be at least 1")
        cs = cs[:order] + [0] * (order - len(cs))
        self.coeffs = cs
        self.order = order

    @classmethod
    def from_poly(cls, coeffs: Sequence, order: int) -> "TruncatedSeries":
        """The constructor under a second name.

        Only ``perfbench/workloads.py`` calls it; it goes with the next
        change to the benchmark.
        """
        return cls(coeffs, order)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        return f"TruncatedSeries([{shown}{', ...' if self.order > 8 else ''}], order={self.order})"

    def _wrap(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries([other], self.order)

    def __add__(self, other):
        o = self._wrap(other)
        n = min(self.order, o.order)
        return TruncatedSeries([self.coeffs[i] + o.coeffs[i] for i in range(n)], n)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._wrap(other)

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        a, b = _support(self.coeffs), _support(other.coeffs)
        return TruncatedSeries(_convolve(a, b, n), n)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        return TruncatedSeries([1], self.order) / self

    def __truediv__(self, other):
        """a / b in one pass: q_k = (a_k - sum_(i >= 1) b_i q_(k-i)) / b_0."""
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([_div(c, other) for c in self.coeffs], self.order)
        if not other.coeffs[0]:
            raise ZeroDivisionError("series has no inverse: zero constant term")
        a, b, q = self.coeffs, _support(other.coeffs), []
        for k in range(min(self.order, other.order)):
            j = min(k, len(b) - 1)  # b_i = 0 for i >= len(b)
            q.append(_div(a[k] - sum(map(mul, b[j:0:-1], q[k - j :])), b[0]))
        return TruncatedSeries(q, len(q))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by z^k; negative k requires the low coefficients to vanish."""
        if k >= 0:
            return TruncatedSeries([0] * k + self.coeffs, self.order + k)
        if -k >= self.order:
            raise ValueError(f"cannot shift by {k}: the series has only {self.order} coefficients")
        if any(self.coeffs[i] for i in range(-k)):
            raise ValueError(f"cannot shift by {k}: low-order coefficients nonzero")
        return TruncatedSeries(self.coeffs[-k:], self.order + k)

    def sqrt(self) -> "TruncatedSeries":
        """The square root with constant term 1, of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("sqrt needs constant term 1")
        out = [1]
        for n in range(1, self.order):
            acc = sum(map(mul, out[1:n], out[n - 1 : 0 : -1]))
            out.append(_div(self.coeffs[n] - acc, 2))
        return TruncatedSeries(out, self.order)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def horner(coeffs: Sequence[TruncatedSeries], x: TruncatedSeries) -> TruncatedSeries:
    """sum_i coeffs[i] * x^i, evaluated from the leading coefficient down."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def polymul(a: Sequence, b: Sequence) -> list:
    """Full (untruncated) product of coefficient lists."""
    return _convolve(a, b, len(a) + len(b) - 1)


def kernel_root(
    kernel: Sequence[TruncatedSeries], x0, order: int
) -> TruncatedSeries:
    """The power-series root X(z) of K(x, z) = sum_i kernel[i] x^i with X(0) = x0.

    Requires x0 to be a simple root of K(x, 0): K and dK/dx at (x0, z=0)
    must be zero and nonzero.  Each Newton step in the series ring doubles
    the number of correct coefficients, so the steps run at working order
    2, 4, 8, ... capped at ``order``, on K truncated to that order; one
    residual at the full order then certifies the result.
    """
    ks = [TruncatedSeries(k.coeffs, order) for k in kernel]
    deriv = [ks[i] * i for i in range(1, len(ks))]
    # series arithmetic keeps the lesser order, so each Horner sum below
    # is K, or dK/dx, truncated to the order of x
    x = TruncatedSeries([x0], 1)
    if not horner(ks, x).is_zero():
        raise ValueError("x0 is not a root of the kernel at z = 0")
    if horner(deriv, x).is_zero():
        raise ValueError("not a simple root: derivative vanishes at z=0")
    m = 1
    while m < order:
        m = min(2 * m, order)
        x = TruncatedSeries(x.coeffs, m)
        x = x - horner(ks, x) / horner(deriv, x)
    x = TruncatedSeries(x.coeffs, order)  # certify all order coefficients
    if not horner(ks, x).is_zero():
        raise RuntimeError("kernel root iteration failed to converge")
    return x


def hensel_quadratic_factors(
    p3: Sequence, p2: Sequence, p1: Sequence, p0: Sequence, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Symmetric functions of the two bounded roots of a quartic kernel.

    The quartic z^2 x^4 + p3 x^3 + p2 x^2 + p1 x + p0 (coefficients given
    as z-polynomials) has two roots bounded near z = 0 and two diverging
    like 1/z.  Factor it as (z^2 x^2 + a x + b)(x^2 + c x + d) with
    a(0)=0, b(0)=1, c(0)=-2, d(0)=1; the bounded pair are the roots of the
    second factor, so their sum is -c and their product is d.  The
    order-by-order system for (a_n, b_n, c_n, d_n) is triangular with unit
    diagonal, hence solvable in exact arithmetic.

    Returns (e1, e2) = (sum, product) of the bounded roots.
    """

    kernel = [TruncatedSeries(p, order) for p in (p3, p2, p1, p0)]
    p3, p2, p1, p0 = (k.coeffs for k in kernel)  # zero-padded to the order
    if (p3[0], p2[0], p1[0], p0[0]) != (0, 1, -2, 1):
        raise ValueError("quartic does not degenerate to (x - 1)^2 at z = 0")

    a, b, c, d = [0], [1], [-2], [1]

    def mid(u, v, n):
        return sum(map(mul, u[1:n], v[n - 1 : 0 : -1]))

    for n in range(1, order):
        an = p3[n] - (c[n - 2] if n >= 2 else 0)
        a.append(an)
        bn = p2[n] - (d[n - 2] if n >= 2 else 0) - mid(a, c, n) + 2 * an
        b.append(bn)
        cn = p1[n] - an + 2 * bn - mid(a, d, n) - mid(b, c, n)
        c.append(cn)
        dn = p0[n] - bn - mid(b, d, n)
        d.append(dn)

    # paranoia: the factorisation must reproduce the quartic
    sa, sb = TruncatedSeries(a, order), TruncatedSeries(b, order)
    sc, sd = TruncatedSeries(c, order), TruncatedSeries(d, order)
    z2 = TruncatedSeries([0, 0, 1], order)
    products = [z2 * sc + sa, z2 * sd + sa * sc + sb, sa * sd + sb * sc, sb * sd]
    if products != kernel:
        raise RuntimeError("quadratic factor lifting produced a bad factorisation")

    return -sc, sd


# Quartic kernels whose bounded-root symmetric functions feed the closed forms
# (coefficients of x^3, x^2, x^1, x^0; the x^4 coefficient is z^2 in both).
QUARTIC_KERNELS = {
    ClassId.C1833A: ([0, -2, -1], [1, 3], [-2, -2], [1]),
    ClassId.C733: ([0, -2, -1], [1, 3, -1], [-2, -1], [1]),
}

# Cubic kernels with a unique power-series root (coefficients of x^0..x^3).
CUBIC_KERNELS = {
    ClassId.C663A: ([1], [-1, -1, 1], [0, 2], [0, 0, -1]),
    ClassId.C1420: ([1, 1], [-1, -1], [0, 2], [0, 0, -1]),
}


def bounded_roots_733(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The two bounded kernel roots individually, over Q(sqrt 5).

    The roots of x^2 - e1 x + e2 are (e1 +- z sqrt(u)) / 2, where the
    discriminant e1^2 - 4 e2 = z^2 u has u(0) = 5.  So sqrt(u) = sqrt(5) s
    with s = sqrt(u / 5) a rational series, and sqrt(5) is adjoined only
    to the finished coefficients.  This is an independent route to the
    same symmetric functions as :func:`hensel_quadratic_factors`.
    """
    e1, e2 = hensel_quadratic_factors(*QUARTIC_KERNELS[ClassId.C733], order + 2)
    u = (e1 * e1 - 4 * e2).shift(-2)
    if u.coeffs[0] != 5:
        raise RuntimeError("discriminant/z^2 should have constant term 5")
    zs = [0, *(u / 5).sqrt().coeffs]  # z s: the sqrt(5) part of z sqrt(u)
    x1 = TruncatedSeries([QSqrt5._raw(e, r, 2) for e, r in zip(e1.coeffs, zs)], order)
    x3 = TruncatedSeries([QSqrt5._raw(e, -r, 2) for e, r in zip(e1.coeffs, zs)], order)
    return x1, x3


# Square-root closed forms F = (p + q sqrt(R)) / d, as (p, q, d, R) in z;
# their annihilators in MINIMAL_POLYNOMIALS are derived from the same entries.
QUADRATIC_FORMS = {
    ClassId.C1176: ([2, 1, -10, 4], [-2, 3], [0, 8, -16, 8], [1, -4, -4]),
    ClassId.C1253: ([2, -15, 32, -16], [0, 1, 0, -4], [2, -16, 42, -44, 16], [1, -4]),
    ClassId.C1016: ([3, -20, 36, -16], [-1, 8, -12, 2], [2, -12, 18, -8], [1, -4]),
}

CLOSED_FORM_CLASSES = (*QUADRATIC_FORMS, *CUBIC_KERNELS, *QUARTIC_KERNELS)


def expand_closed_form(class_id: ClassId, order: int) -> list[int]:
    """Coefficients of the solved generating function, exact to z^(order-1).

    They are ints: in each square-root form, d / z^v (v the valuation of d)
    is an integer lead times a monic integer polynomial, and the lead is
    divided out last from coefficients that are multiples of it.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    n = order + 2  # headroom for the valuation shifts
    P = lambda *cs: TruncatedSeries(cs, n)
    if class_id in QUADRATIC_FORMS:
        p, q, d, R = QUADRATIC_FORMS[class_id]
        v = next(i for i, c in enumerate(d) if c)  # d = z^v (d[v] + ...)
        num = P(*p) + P(*q) * P(*R).sqrt()
        f = num.shift(-v) / (P(*d[v:]) / d[v]) / d[v]
    elif class_id in CUBIC_KERNELS:
        x = kernel_root([P(*cs) for cs in CUBIC_KERNELS[class_id]], 1, n)
        if class_id == ClassId.C663A:
            num = (x - 1) * (1 + P(0, -1, 1) * x)
            f = num.shift(-1) / x
        else:  # 1420
            num = P(1, 1) * (x - 1) - P(0, 1, -1) * x * x
            f = num.shift(-1) / (P(1, 1) * x)
    elif class_id in QUARTIC_KERNELS:
        e1, e2 = hensel_quadratic_factors(*QUARTIC_KERNELS[class_id], n)
        if class_id == ClassId.C1833A:
            w = e2 - e1 + 1  # (X1 - 1)(X2 - 1); vanishes at z = 0
            num = w * (e2.shift(1) - 1)
            den = e2 * (w.shift(1) + 1)
            f = num.shift(-1) / den
        else:  # 733
            num = 1 - e1.shift(1)
            den = 1 - e1.shift(1) - P(0, 1) + e2.shift(2)
            f = num / den
    else:
        raise ValueError(f"no closed form for class {class_id.value}")
    return f.coeffs[:order]


# ---------------------------------------------------------------------------
# Catalytic functional equations, iterated order by order in z.
# Each function is held as its z^n coefficient, a plain list of coefficients
# in the catalytic variable x, built from the z^(n-1) lists.  Lists are added
# by _padd and negated by _pneg; every division by (1 - x) goes through
# _div_1mx, which raises unless it is exact.
# ---------------------------------------------------------------------------


def _div_1mx(p: list[int]) -> list[int]:
    """Divide the polynomial p(x) by (1 - x); p(1) = 0 is required."""
    out = list(accumulate(p))
    if out[-1]:
        raise ArithmeticError("polynomial not divisible by (1 - x)")
    return out[:-1] or [0]


def _padd(*ps: Sequence[int]) -> list[int]:
    *rest, longest = sorted(ps, key=len)
    out = list(longest)
    for p in rest:
        out[: len(p)] = map(add, out, p)
    return out


def _pneg(p: Sequence[int]) -> list[int]:
    return [-c for c in p]


def _iterate_right_family(class_id: ClassId, order: int) -> list[int]:
    """The five-function system shared by classes 1176, 1253 and 1016.

    A tracks the non-decreasing part, B/C/D the staged growth through a
    partial repeat-of-maximum pattern, E the descending tail.  With A(1)
    for A(z, 1), and A_z, A_x the partial derivatives:

        A = 1 + z/(1-x) [A - x A(zx, 1)]
        B = zB + z/(1-x) [z A_z - x A_x + x/(1-x) (A(zx, 1) - A)]
        1176:  C = zB,       D = zD + zC,   E = z/(1-x) [T(1) - T], T = A + D + E
        1253:  C = zC + zB,  D = 2zD + zC,  E = zE + z/(1-x) [A(1) - A]
        1016:  C = zB,       D = zD + zC,   E = z/(1-x) [A(1) - A]

    and F_n = A_n(1) + D_n(1) + E_n(1).
    """
    A, B, C, D, E = [1], [0], [0], [0], [0]
    out = [1]
    for n in range(1, order):
        alpha = sum(A)
        A_new = _div_1mx(_padd(A, [0] * n + [-alpha]))
        # [z^(n-1)] of z A_z - x A_x is (n - 1 - i) A_i at x^i
        slope = [(n - 1 - i) * a for i, a in enumerate(A)]
        inner = _div_1mx([0, *_padd([0] * (n - 1) + [alpha], _pneg(A))])
        B_new = _padd(B, _div_1mx(_padd(slope, inner)))
        T = _padd(A, D, E) if class_id == ClassId.C1176 else A
        tail = _div_1mx(_padd([sum(T)], _pneg(T)))
        if class_id == ClassId.C1253:
            C, D, E = _padd(C, B), _padd([2 * d for d in D], C), _padd(E, tail)
        else:  # 1176, 1016
            C, D, E = B, _padd(D, C), tail
        A, B = A_new, B_new
        out.append(sum(A) + sum(D) + sum(E))
    return out


def _iterate_left_pair(class_id: ClassId, order: int) -> list[int]:
    """The two-function systems for classes 663A and 1420.

    A(x) and B(x) track the leading-zero count x:

        663A:  A = 1 + zx/(1-x) [A(1) - x A] + zx B
               B = z + z/(1-x) [x A(1) - A] + zx B
        1420:  A = 1 + zx/(1-x) [A(1) - x A] + zx/(1-x) [B(1) - x B]
               B = z + z/(1-x) [x A(1) - A] + z/(1-x) [x B(1) - B] + zx B

    The A- and B-driven terms of 1420 have one form, so both systems are
    A = 1 + zx/(1-x) [S(1) - x S] and B = z + z/(1-x) [x S(1) - S] + zx B,
    with S = A for 663A (whose A also gains zx B) and S = A + B for 1420.
    F_n = S_n(1).
    """
    single = class_id == ClassId.C663A
    A, B = [1], [0]
    out = [1]
    for n in range(1, order):
        S = A if single else _padd(A, B)
        sigma = sum(S)
        A_new = _div_1mx([0, sigma, *_pneg(S)])
        B_new = _padd(
            _div_1mx(_padd([0, sigma], _pneg(S))), [1 if n == 1 else 0], [0, *B]
        )
        if single:
            A_new = _padd(A_new, [0, *B])
        A, B = A_new, B_new
        out.append(sum(A) if single else sum(A) + sum(B))
    return out


_CATALYTIC_SYSTEMS = {
    ClassId.C1176: _iterate_right_family,
    ClassId.C1253: _iterate_right_family,
    ClassId.C1016: _iterate_right_family,
    ClassId.C663A: _iterate_left_pair,
    ClassId.C1420: _iterate_left_pair,
}
CATALYTIC_CLASSES = tuple(_CATALYTIC_SYSTEMS)


def iterate_catalytic(class_id: ClassId, order: int) -> list[int]:
    """Solve the class's catalytic functional-equation system to z^(order-1).

    This re-steps the generating-tree census: the lists at z^n are the
    class's gentree fast state at depth n without its trailing zeros.  So
    it checks the transcription of the recurrence, not the recurrence;
    the closed forms and minimal polynomials are the independent routes.
    """
    iterate = _CATALYTIC_SYSTEMS.get(class_id)
    if iterate is None:
        raise ValueError(f"no catalytic system for class {class_id.value}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    return iterate(class_id, order)[:order]  # each iteration always yields z^0


# ---------------------------------------------------------------------------
# Minimal polynomials: P(z, F) = 0 with P in MINIMAL_POLYNOMIALS[class],
# stored as a list of z-coefficient lists indexed by the power of F.
# ---------------------------------------------------------------------------


def _derived_quadratic(p, q, d, R):
    """Annihilator of F = (p + q sqrt(R)) / d: d^2 F^2 - 2 p d F + (p^2 - q^2 R)."""
    return [
        _padd(polymul(p, p), _pneg(polymul(polymul(q, q), R))),
        [-2 * c for c in polymul(p, d)],
        polymul(d, d),
    ]


MINIMAL_POLYNOMIALS: dict[ClassId, list[list]] = {
    ClassId.C663A: [[1], [-4, 1], [4, -2], [-1]],
    ClassId.C1420: [[1], [-4], [4], [-1, -1]],
    ClassId.C733: [[1, 2], [-3, -1, -1], [3, -3, 10, -1], [-1, 1, -7, 2], [0, 1, -2, 4]],
    ClassId.C1833A: [
        [1],
        [-5, -2],
        [10, 6],
        [-10, -7, -5],
        [5, 5, 11],
        [-1, -3, -6, -2],
        [0, 1, 0, 3],
    ],
    **{cid: _derived_quadratic(*form) for cid, form in QUADRATIC_FORMS.items()},
}

MINIMAL_POLYNOMIAL_DEGREE = {cid: len(poly) - 1 for cid, poly in MINIMAL_POLYNOMIALS.items()}


def verify_minimal_polynomial(class_id: ClassId, coeffs: Sequence) -> bool:
    """Check P(z, F) = 0 mod z^len(coeffs) for the stored annihilator."""
    f = TruncatedSeries(coeffs, len(coeffs))
    ks = [TruncatedSeries(cs, f.order) for cs in MINIMAL_POLYNOMIALS[class_id]]
    return horner(ks, f).is_zero()
