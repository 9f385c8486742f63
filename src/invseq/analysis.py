"""Classification of the 343 relation triples and numerical asymptotics.

Two jobs live here.  First, grouping all triples of binary relations by
the pattern set they induce — normalised by a closure under containment
implications, since different pattern sets can carve out the same
avoiders — and then by their counting sequence, which recovers the
classical equivalence-class and Wilf-class structure.  Second, the
asymptotics of the exact counting sequences, on the standard library
alone: exact-rational extrapolation of the growth rate mu = lim
I_{n+1}/I_n and of the polynomial correction exponent, a float
least-squares fit of the stretched-exponential form that two of the
classes exhibit, and an exact certificate for each algebraic mu.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import PatternSet, RelationTriple, all_triples, length3_patterns, triple_to_pattern_set
from .gentree import ClassId
from .oracle import count_avoiders


# Containment implications among the 13 length-3 patterns: an inversion
# sequence that contains the pattern on the left necessarily contains at
# least one of the patterns on the right.  Most follow by replacing one
# element of an occurrence with the initial forced zero a_1 = 0 and case
# analysis on which occurrence values are zero; e.g. for 201 with
# occurrence (a_i, a_j, a_k), the subsequence (a_1, a_i, a_k) = (0, big,
# mid) is an occurrence of 021.  Consequently, forbidding the right-hand
# patterns already forbids the left-hand one, so adding it to a pattern
# set does not change the avoiders.
PATTERN_IMPLICATIONS: tuple[tuple[str, frozenset[str]], ...] = (
    ("021", frozenset({"001", "011"})),
    ("100", frozenset({"000", "001"})),
    ("100", frozenset({"000", "011"})),
    ("100", frozenset({"010", "021"})),
    ("101", frozenset({"001"})),
    ("101", frozenset({"011"})),
    ("101", frozenset({"010", "021"})),
    ("102", frozenset({"001"})),
    ("102", frozenset({"012"})),
    ("110", frozenset({"011"})),
    ("110", frozenset({"010", "021"})),
    ("120", frozenset({"012"})),
    ("120", frozenset({"010", "021"})),
    ("201", frozenset({"001"})),
    ("201", frozenset({"021"})),
    ("210", frozenset({"021"})),
    ("210", frozenset({"001", "110"})),
)


@functools.cache
def _implications() -> tuple:  # on the shared Pattern objects: set lookups hit by identity
    shared = {str(p): p for p in length3_patterns()}
    return tuple((shared[p], frozenset(map(shared.get, alts))) for p, alts in PATTERN_IMPLICATIONS)


def close_pattern_set(patterns: PatternSet) -> PatternSet:
    """Add every pattern made redundant by the implication table.

    The result is a canonical enlargement with the same avoiders, so two
    triples are equivalent whenever their induced pattern sets have equal
    closures.
    """
    have = set(patterns.patterns)
    while grown := [p for p, alts in _implications() if p not in have and alts <= have]:
        have.update(grown)
    return PatternSet(frozenset(have))


@dataclass
class TripleClassification:
    """Triples grouped by closed pattern set, with each cell's counting sequence."""

    pattern_classes: dict[PatternSet, list[RelationTriple]]
    counts: dict[PatternSet, tuple[int, ...]]

    @property
    def n_triples(self) -> int:
        return sum(len(v) for v in self.pattern_classes.values())

    @property
    def n_pattern_classes(self) -> int:
        return len(self.pattern_classes)

    @property
    def n_wilf_classes(self) -> int:
        return len(set(self.counts.values()))

    def cell_of(self, patterns: PatternSet) -> PatternSet:
        """The equivalence cell (canonical closed pattern set) containing
        the avoidance class of the given pattern set."""
        key = close_pattern_set(patterns)
        if key not in self.pattern_classes:
            raise KeyError(f"no triple induces a pattern set equivalent to {patterns}")
        return key


CLASSIFY_DEPTH = 10  # classify counts n = 0..CLASSIFY_DEPTH unless told otherwise


def classify_triples(n_max: int = CLASSIFY_DEPTH) -> TripleClassification:
    """Group all 343 relation triples by pattern set and counting sequence.

    Two triples whose induced pattern sets agree after closure under the
    implication table have the same avoiders; the Wilf classes are the
    distinct counting sequences of the cells up to n_max.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    pattern_classes: dict[PatternSet, list[RelationTriple]] = {}
    for t in all_triples():
        key = close_pattern_set(triple_to_pattern_set(t))
        pattern_classes.setdefault(key, []).append(t)
    counts = {
        ps: tuple(count_avoiders(n, ps) for n in range(n_max + 1))
        for ps in pattern_classes
    }
    return TripleClassification(pattern_classes, counts)


# ---------------------------------------------------------------------------
# Reference growth rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthInfo:
    """Reference growth rate mu of I_n, and whether I_n also carries a
    stretched-exponential factor mu1^(n^sigma)."""

    mu: float
    mu_polynomial: tuple[int, ...] | None = None  # ascending coeffs, mu is a root
    stretched: bool = False


SQRT2 = 2 ** 0.5

GROWTH_REFERENCE: dict[ClassId, GrowthInfo] = {
    ClassId.C663A: GrowthInfo(4.730576939379623, (4, -12, 4, -24, 5)),
    ClassId.C733: GrowthInfo(5.162073287778036, (1, -14, 7, -6, 1)),
    ClassId.C1016: GrowthInfo(4.0),
    ClassId.C1176: GrowthInfo(2 + 2 * SQRT2, (-4, -4, 1)),
    ClassId.C1253: GrowthInfo(4.0),
    ClassId.C1420: GrowthInfo(27 / 5),
    ClassId.C1833A: GrowthInfo(5.980417720769260, (32, 195, 12, 112, -20)),
    ClassId.C214: GrowthInfo(4.0),
    ClassId.C830: GrowthInfo(27 / 4),
    ClassId.C1509: GrowthInfo(3 + 2 * SQRT2, (1, -6, 1)),
    ClassId.C1953A: GrowthInfo(27 / 4),
    ClassId.C247: GrowthInfo(8.0, stretched=True),
    ClassId.C759: GrowthInfo(9.0, stretched=True),
    ClassId.C2106: GrowthInfo(9.0),
}


ROOT_TOL = 1e-9  # half-width of the interval that must hold a root of mu's polynomial


def check_root_constants(class_id: ClassId) -> float:
    """Certify the tabulated mu and return it: a stored integer polynomial
    must change sign, evaluated in exact rationals, across mu -/+ ROOT_TOL."""
    info = GROWTH_REFERENCE[class_id]
    if info.mu_polynomial is not None:
        mu, eps, poly = Fraction(info.mu), Fraction(ROOT_TOL), info.mu_polynomial
        lo, hi = (sum(c * x ** i for i, c in enumerate(poly)) for x in (mu - eps, mu + eps))
        if lo * hi > 0:
            raise ArithmeticError(
                f"{class_id.value}: no root of its polynomial within {ROOT_TOL} of mu"
            )
    return info.mu


# ---------------------------------------------------------------------------
# Extrapolation of counting sequences
# ---------------------------------------------------------------------------


@dataclass
class GrowthEstimate:
    mu: float
    exponent: float


def estimate_growth(counts: list[int], points: int = 10) -> GrowthEstimate:
    """Estimate mu (and the power-law exponent) from a counting sequence.

    Successive ratios r_n = I_{n+1}/I_n behave like mu (1 + g/n + ...), so
    polynomial extrapolation in 1/n to 1/n = 0 accelerates convergence;
    the exponent comes from extrapolating n (r_n / mu - 1).  Sample points
    are spread over the top half of the sequence.

    Both extrapolations are exact: with the Lagrange weights at 1/n = 0,
    w_i = prod_{j != i} n_i / (n_i - n_j), they are mu = sum w_i r_i and
    g = (sum w_i n_i r_i) / mu - sum w_i n_i.  The weights are small
    rationals, brought to one denominator L; the ratios share the
    denominator D = prod I_{n_i}.  Each result is then one integer
    division, rounded once to a float.  Exact arithmetic sidesteps the
    severe cancellation that makes floating-point extrapolation useless
    at these closely spaced abscissae.
    """
    if points < 2:  # one point makes the exponent 0 whatever the counts
        raise ValueError("points must be at least 2")
    n_max = len(counts) - 2
    if n_max < 2 * points + 2:
        raise ValueError(
            f"the growth estimate needs terms up to n = {2 * points + 3}, got {len(counts) - 1}"
        )
    step = max(1, n_max // (2 * points))
    ns = [n_max - j * step for j in range(points)]
    ws = [math.prod(Fraction(n, n - m) for m in ns if m != n) for n in ns]
    lcd = math.lcm(*(w.denominator for w in ws))
    den = math.prod(counts[n] for n in ns)
    wl = [w.numerator * (lcd // w.denominator) for w in ws]  # w_i L
    rd = [counts[n + 1] * (den // counts[n]) for n in ns]  # r_i D
    mu_num = sum(map(mul, wl, rd))  # mu L D
    moment = sum(map(mul, wl, map(mul, ns, rd)))  # (sum w_i n_i r_i) L D
    shift = sum(map(mul, wl, ns))  # (sum w_i n_i) L
    mu = mu_num / (lcd * den)
    exponent = (moment * lcd - shift * mu_num) / (mu_num * lcd)
    return GrowthEstimate(mu, exponent)


@dataclass
class StretchedFit:
    base: float
    sigma: float
    exponent: float
    log_mu1: float
    residual: float


STRETCHED_SIGMA = 0.375  # the exponent sigma, held fixed
STRETCHED_N_MIN = 50  # the fit uses n >= STRETCHED_N_MIN


def fit_stretched(counts: list[int], base: float) -> StretchedFit:
    """Least-squares fit of log I_n = log C + g log n + (log mu1) n^sigma + n log base.

    The exponent sigma is held fixed at STRETCHED_SIGMA; this is a
    diagnostic fit, not a confirmed functional form.
    """
    n_max = len(counts) - 1
    if n_max < STRETCHED_N_MIN + 3:  # three unknowns: at least one degree of freedom left
        raise ValueError(
            f"the stretched fit needs terms up to n = {STRETCHED_N_MIN + 3}, got {n_max}"
        )
    ns = range(STRETCHED_N_MIN, n_max + 1)
    ys = [math.log(counts[n]) - n * math.log(base) for n in ns]
    columns = [[1.0] * len(ns), [math.log(n) for n in ns], [n ** STRETCHED_SIGMA for n in ns]]
    (_, g, log_mu1), res = _least_squares(columns, ys)  # the constant log C is not reported
    residual = math.sqrt(math.fsum(r * r for r in res) / len(ns))
    return StretchedFit(base, STRETCHED_SIGMA, g, log_mu1, residual)


def _least_squares(columns: list[list[float]], ys: list[float]) -> tuple[list[float], list[float]]:
    """The x minimising |ys - sum_j x_j columns[j]|, and the residual vector.

    Modified Gram-Schmidt orthogonalises columns + [ys] in turn, so columns =
    Q U with U unit upper triangular and ys = Q c + residual; U x = c is
    then solved by back substitution."""
    qs, u = [], []
    for v in [*columns, ys]:
        comps = []
        for q in qs:
            c = math.fsum(map(mul, q, v)) / math.fsum(map(mul, q, q))
            v = [a - c * b for a, b in zip(v, q)]
            comps.append(c)
        qs.append(v)
        u.append(comps)
    x: list[float] = []
    for k in reversed(range(len(columns))):
        x.insert(0, u[-1][k] - math.fsum(u[j][k] * xj for j, xj in enumerate(x, k + 1)))
    return x, qs[-1]

