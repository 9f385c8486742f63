"""Exact truncated power series and the algebraic generating functions.

Everything here is exact arithmetic: series coefficients are Python
``int`` wherever they are integral, ``fractions.Fraction`` only where a
division is inexact (see :func:`_div`), and quadratic-field numbers where
needed (see :class:`QSqrt5`), so agreement between two computations is
literal equality of rationals, not a floating-point tolerance.

Three independent routes to the counting series exist for the algebraic
classes: the generating-tree census (:mod:`invseq.gentree`), the closed
forms expanded here (:func:`expand_closed_form`), and order-by-order
iteration of the catalytic functional equations
(:func:`iterate_catalytic`), which works on plain integer lists in the
catalytic variable x and divides by (1 - x) only exactly (:func:`_div_1mx`
raises on a remainder).  The test-suite confirms they coincide.  The
square-root forms of 1176, 1253 and 1016 and their annihilators come from
one table, ``QUADRATIC_FORMS``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, zip_longest
from operator import mul
from typing import Sequence

from .gentree import ClassId


class QSqrt5:
    """A number a + b*sqrt(5) with rational a, b kept as given; a field, so division works."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a
        self.b = b

    @staticmethod
    def _coerce(x) -> "QSqrt5":
        if isinstance(x, QSqrt5):
            return x
        if isinstance(x, (int, Fraction)):
            return QSqrt5(x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt5(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return QSqrt5(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt5":
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("zero element of Q(sqrt 5)")
        return QSqrt5(_div(self.a, norm), _div(-self.b, norm))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def conjugate(self) -> "QSqrt5":
        return QSqrt5(self.a, -self.b)

    def __float__(self):
        return float(self.a) + float(self.b) * 5 ** 0.5

    def __repr__(self):
        return f"QSqrt5({self.a}, {self.b})"


SQRT5 = QSqrt5(0, 1)


def _div(x, d):
    """x / d exactly: an int when both are ints and d divides x, else a Fraction."""
    if type(x) is int and type(d) is int:
        q, r = divmod(x, d)
        return Fraction(x, d) if r else q
    return x / d


class TruncatedSeries:
    """A power series known modulo z^order, with exact coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        cs = list(coeffs)
        if order is None:
            order = len(cs)
        if order < 1:
            raise ValueError("order must be at least 1")
        zero = cs[0] * 0 if cs else 0
        cs = cs[:order] + [zero] * (order - len(cs))
        self.coeffs = cs
        self.order = order

    @classmethod
    def from_poly(cls, coeffs: Sequence, order: int) -> "TruncatedSeries":
        """A polynomial in z, viewed as a series to the given order."""
        return cls(coeffs, order)

    @property
    def zero_coeff(self):
        return self.coeffs[0] * 0

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
        o = self._wrap(other)
        n = min(self.order, o.order)
        return TruncatedSeries([self.coeffs[i] - o.coeffs[i] for i in range(n)], n)

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries([sum(map(mul, a, b[k::-1])) for k in range(n)], n)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivisionError("series has no inverse: zero constant term")
        a, out = self.coeffs, [_div(1, c0)]
        for n in range(1, self.order):
            out.append(_div(-sum(map(mul, a[n:0:-1], out)), c0))
        return TruncatedSeries(out, self.order)

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([_div(c, other) for c in self.coeffs], self.order)
        return self * other.inverse()

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by z^k; negative k requires the low coefficients to vanish."""
        zero = self.zero_coeff
        if k >= 0:
            return TruncatedSeries([zero] * k + self.coeffs, self.order + k)
        if any(self.coeffs[i] for i in range(-k)):
            raise ValueError(f"cannot shift by {k}: low-order coefficients nonzero")
        return TruncatedSeries(self.coeffs[-k:], self.order + k)

    def sqrt(self, const_root=None) -> "TruncatedSeries":
        """The square root with constant term const_root (default 1)."""
        if const_root is None:
            const_root = 1
        if const_root * const_root != self.coeffs[0]:
            raise ValueError("const_root squared must equal the constant term")
        out = [const_root]
        twice = const_root + const_root
        for n in range(1, self.order):
            acc = sum(map(mul, out[1:n], out[n - 1 : 0 : -1]))
            out.append(_div(self.coeffs[n] - acc, twice))
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
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def kernel_root(
    kernel: Sequence[TruncatedSeries], x0, order: int
) -> TruncatedSeries:
    """The power-series root X(z) of K(x, z) = sum_i kernel[i] x^i with X(0) = x0.

    Requires a simple root: dK/dx at (x0, z=0) must be nonzero.  Newton
    iteration in the series ring converges quadratically, so the residual
    valuation doubles per step.
    """
    ks = [TruncatedSeries(k.coeffs, order) for k in kernel]
    x = TruncatedSeries([x0], order)
    deriv = [ks[i] * i for i in range(1, len(ks))]
    if not horner(deriv, x).coeffs[0]:
        raise ValueError("not a simple root: derivative vanishes at z=0")
    for _ in range(order.bit_length() + 2):
        res = horner(ks, x)
        if res.is_zero():
            return x
        x = x - res / horner(deriv, x)
    res = horner(ks, x)
    if not res.is_zero():
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

    def coeff(poly, n):
        return poly[n] if n < len(poly) else 0

    if (coeff(p3, 0), coeff(p2, 0), coeff(p1, 0), coeff(p0, 0)) != (0, 1, -2, 1):
        raise ValueError("quartic does not degenerate to (x - 1)^2 at z = 0")

    a, b, c, d = [0], [1], [-2], [1]

    def mid(u, v, n):
        return sum(map(mul, u[1:n], v[n - 1 : 0 : -1]))

    for n in range(1, order):
        an = coeff(p3, n) - (c[n - 2] if n >= 2 else 0)
        a.append(an)
        bn = coeff(p2, n) - (d[n - 2] if n >= 2 else 0) - mid(a, c, n) + 2 * an
        b.append(bn)
        cn = coeff(p1, n) - an + 2 * bn - mid(a, d, n) - mid(b, c, n)
        c.append(cn)
        dn = coeff(p0, n) - bn - mid(b, d, n)
        d.append(dn)

    # paranoia: the factorisation must reproduce the quartic
    sa, sb = TruncatedSeries(a, order), TruncatedSeries(b, order)
    sc, sd = TruncatedSeries(c, order), TruncatedSeries(d, order)
    z2 = TruncatedSeries.from_poly([0, 0, 1], order)
    checks = [
        (z2 * sc + sa, p3),
        (z2 * sd + sa * sc + sb, p2),
        (sa * sd + sb * sc, p1),
        (sb * sd, p0),
    ]
    for got, want in checks:
        if got != TruncatedSeries.from_poly(want, order):
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

    The discriminant of the lifted quadratic factor has valuation 2 with
    leading coefficient 5, so each root is a power series once sqrt(5) is
    adjoined.  This is an independent route to the same symmetric
    functions as :func:`hensel_quadratic_factors`.
    """
    e1, e2 = hensel_quadratic_factors(*QUARTIC_KERNELS[ClassId.C733], order + 2)
    disc = e1 * e1 - 4 * e2
    u = disc.shift(-2)
    if u.coeffs[0] != 5:
        raise RuntimeError("discriminant/z^2 should have constant term 5")
    u5 = TruncatedSeries([QSqrt5(cf) for cf in u.coeffs], u.order)
    root = u5.sqrt(SQRT5)
    half = Fraction(1, 2)
    e1_5 = TruncatedSeries([QSqrt5(cf) for cf in e1.coeffs], order)
    x1 = (e1_5 + root.shift(1)) * half
    x3 = (e1_5 - root.shift(1)) * half
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
    P = lambda *cs: TruncatedSeries.from_poly(cs, n)
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
    return [sum(cs) for cs in zip_longest(*ps, fillvalue=0)]


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
    """Solve the class's catalytic functional-equation system to z^(order-1)."""
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
    f = TruncatedSeries(coeffs)
    ks = [TruncatedSeries.from_poly(cs, f.order) for cs in MINIMAL_POLYNOMIALS[class_id]]
    return horner(ks, f).is_zero()
