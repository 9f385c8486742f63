"""The three benchmark workloads, as lists of operations with checks.

Each workload is a closed loop: one single-threaded process runs its
operations one after another, each starting when the previous one ends.
An operation is ``(op_id, run, check)``: ``run()`` calls into invseq and
returns its output, ``check(output)`` compares that output with the
stored reference.  The seed only permutes the order of classes, cells or
checks; it never changes a size.

census    deep exact counting: each op extends one class by 10 terms with
          ``gentree.count_class`` and re-estimates the growth rate.
classify  the 343 -> 98 -> 63 triple classification through the CLI.
verify    the verification battery: series identities, kernel roots,
          word formulas and rules against the oracle, one op per check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction

from invseq import analysis, cli, combinat, gentree, oracle, series
from invseq.core import PatternSet
from invseq.gentree import ClassId, WILF_PARTNER_PATTERNS
from invseq.oracle import WordConstraint

# The sizes, read when a workload's ops are made.  The self-test runs a copy
# of this file that ends by rebinding SIZE to a tiny one.
SIZE = {"depth": 210, "order": 120, "oracle_n": 9, "words_k": 9, "ell": 12, "classify_n": 9}
CENSUS_STEP = 10
GROWTH_POINTS = 10
# estimate_growth needs len(counts) - 2 >= 2 * points + 2, i.e. depth >= 23;
# fit_stretched (n_min = 50) needs a few points past 50 for its 3 unknowns.
GROWTH_MIN_DEPTH = 30
STRETCHED_MIN_DEPTH = 60
# estimate_growth is exact up to the final float conversion; the stretched
# fit goes through numpy least squares.
MU_REL_TOL = {"algebraic": 1e-12, "stretched": 1e-6}

WORD_RULESETS = {
    "R1R2": (("212", "112", "213"), "words_R1R2"),
    "R1R3": (("111", "212", "112", "213"), "words_R1R3"),
}


def digest(counts) -> str:
    """sha256 of a counting sequence written as comma-separated decimals."""
    return hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()


def growth_fit(cid: ClassId, counts: list[int]) -> dict | None:
    """The growth-rate estimate a census op makes, or None if too few terms."""
    info = analysis.GROWTH_REFERENCE[cid]
    depth = len(counts) - 1
    if info.stretched:
        if depth < STRETCHED_MIN_DEPTH:
            return None
        fit = analysis.fit_stretched(counts, info.mu)
        return {"model": "stretched", "exponent": fit.exponent, "log_mu1": fit.log_mu1}
    if depth < GROWTH_MIN_DEPTH:
        return None
    est = analysis.estimate_growth(counts, GROWTH_POINTS)
    return {"model": "algebraic", "mu": est.mu, "exponent": est.exponent}


def _fit_matches(got: dict | None, want: dict) -> bool:
    if got is None or got["model"] != want["model"]:
        return False
    tol = MU_REL_TOL[want["model"]]
    return all(
        math.isclose(got[k], v, rel_tol=tol) for k, v in want.items() if k != "model"
    )


def census_ops(rng, ref: dict):
    depth_max = SIZE["depth"]
    classes = list(ClassId)
    rng.shuffle(classes)
    for cid in classes:
        for depth in range(CENSUS_STEP, depth_max + 1, CENSUS_STEP):

            def run(cid=cid, depth=depth):
                counts = gentree.count_class(cid, depth)
                return counts, growth_fit(cid, counts)

            def check(out, cid=cid, depth=depth):
                counts, fit = out
                if digest(counts) != ref["digests"][cid.value][str(depth)]:
                    return False
                return depth != ref["depth"] or _fit_matches(fit, ref["final_fit"][cid.value])

            yield f"census.{cid.value}.{depth}", run, check


def classify_ops(rng, ref: dict):
    n = SIZE["classify_n"]
    expected = {rep: cell["counts"][: n + 1] for rep, cell in ref["cells"].items()}
    wilf = len({tuple(v) for v in expected.values()})

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["classify", "--format", "json-lines", "--max-n", str(n)])
        return status, buf.getvalue()

    def check(out):
        status, text = out
        rows = [json.loads(line) for line in text.splitlines()]
        summary = rows.pop()
        if status != 0 or summary != {
            "triples": ref["triples"],
            "equivalence_classes": len(ref["cells"]),
            "wilf_classes": wilf,
        }:
            return False
        got = {r["representative"]: r for r in rows}
        if got.keys() != expected.keys():
            return False
        reps = sorted(got)
        rng.shuffle(reps)
        return all(
            got[rep]["counts"] == expected[rep]
            and got[rep]["n_triples"] == ref["cells"][rep]["n_triples"]
            for rep in reps
        )

    yield "classify", run, check


# -- verify: each check returns its verdict ----------------------------------


def _counts_fraction(cid, order):
    return [Fraction(c) for c in gentree.count_class(cid, order - 1)]


def _closed_form(cid, order):
    return [Fraction(c) for c in series.expand_closed_form(cid, order)] == _counts_fraction(
        cid, order
    )


def _catalytic(cid, order):
    return series.iterate_catalytic(cid, order) == _counts_fraction(cid, order)


def _minpoly(cid, order):
    return series.verify_minimal_polynomial(cid, gentree.count_class(cid, order - 1))


def _kernel_root(cid, order):
    ks = [series.TruncatedSeries.from_poly(p, order) for p in series.CUBIC_KERNELS[cid]]
    x = series.kernel_root(ks, 1, order)
    residual = series.TruncatedSeries([Fraction(0)], order)
    for k in reversed(ks):
        residual = residual * x + k
    return residual.is_zero() and x.coeffs[0] == 1


def _hensel(cid, order):
    """x^2 - e1 x + e2 must divide z^2 x^4 + p3 x^3 + p2 x^2 + p1 x + p0."""
    polys = series.QUARTIC_KERNELS[cid]
    e1, e2 = series.hensel_quadratic_factors(*polys, order)
    p3, p2, p1, p0 = (series.TruncatedSeries.from_poly(p, order) for p in polys)
    z2 = series.TruncatedSeries.from_poly([0, 0, 1], order)
    q1 = p3 + e1 * z2
    q0 = p2 + e1 * q1 - e2 * z2
    return (p1 + e1 * q0 - e2 * q1).is_zero() and (p0 - e2 * q0).is_zero()


def _bounded_roots(order):
    """The two Q(sqrt 5) roots have sum e1 and product e2."""
    x1, x3 = series.bounded_roots_733(order)
    e1, e2 = series.hensel_quadratic_factors(*series.QUARTIC_KERNELS[ClassId.C733], order)
    lift = lambda s: series.TruncatedSeries([series.QSqrt5(c) for c in s.coeffs], order)
    return x1 + x3 == lift(e1) and x1 * x3 == lift(e2)


def _words(rules, k, b):
    forbidden, formula = WORD_RULESETS[rules]
    constraint = WordConstraint.of(k, b, forbidden, surjective=True)
    return getattr(combinat, formula)(k, b) == oracle.count_words(constraint)


def _multiplicity_m(ell_max):
    return all(
        combinat.multiplicity_m(ell, b)
        == sum(combinat.words_R1R2(k, b) for k in range(b, ell + 1))
        for ell in range(ell_max + 1)
        for b in range(ell + 1)
    )


def _multiplicity_w(ell_max):
    return all(
        combinat.multiplicity_w(ell, b)
        == combinat.words_R1R3(ell - 1, b) + combinat.words_R1R3(ell, b)
        for ell in range(ell_max + 1)
        for b in range(ell + 1)
    )


def _against_oracle(cid, patterns, n_max):
    counts = gentree.count_class(cid, n_max)
    return all(counts[n] == oracle.count_avoiders(n, patterns) for n in range(n_max + 1))


def verify_checks() -> dict:
    """check id -> zero-argument callable returning the check's verdict."""
    order, n, ell = SIZE["order"], SIZE["oracle_n"], SIZE["ell"]
    checks = {}
    for cid in series.CLOSED_FORM_CLASSES:
        checks[f"closed_form.{cid.value}"] = lambda cid=cid: _closed_form(cid, order)
        if cid in series.CATALYTIC_CLASSES:
            checks[f"catalytic.{cid.value}"] = lambda cid=cid: _catalytic(cid, order)
    for cid in series.MINIMAL_POLYNOMIAL_DEGREE:
        checks[f"minpoly.{cid.value}"] = lambda cid=cid: _minpoly(cid, order)
    for cid in series.CUBIC_KERNELS:
        checks[f"kernel_root.{cid.value}"] = lambda cid=cid: _kernel_root(cid, order)
    for cid in series.QUARTIC_KERNELS:
        checks[f"hensel.{cid.value}"] = lambda cid=cid: _hensel(cid, order)
    checks["bounded_roots.733"] = lambda: _bounded_roots(order)
    for k in range(1, SIZE["words_k"] + 1):
        for b in range(1, k + 1):
            for rules in WORD_RULESETS:
                checks[f"words.{rules}.{k}.{b}"] = lambda r=rules, k=k, b=b: _words(r, k, b)
    checks["multiplicity_m"] = lambda: _multiplicity_m(ell)
    checks["multiplicity_w"] = lambda: _multiplicity_w(ell)
    for cid in ClassId:
        checks[f"rules_vs_oracle.{cid.value}"] = lambda cid=cid: _against_oracle(
            cid, cid.patterns, n
        )
    for cid, partner in WILF_PARTNER_PATTERNS.items():
        checks[f"wilf_partner.{cid.value}"] = lambda cid=cid, p=partner: _against_oracle(
            cid, PatternSet.of(*p), n
        )
    return checks


def verify_ops(rng, ref: dict):
    checks = verify_checks()
    ids = list(checks)
    rng.shuffle(ids)
    for op_id in ids:
        yield op_id, checks[op_id], lambda verdict, op_id=op_id: verdict == ref["verdicts"][op_id]


OPS = {"census": census_ops, "classify": classify_ops, "verify": verify_ops}
