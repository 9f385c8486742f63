"""Command-line surface tying the enumeration modules together.

Commands: count, series, classify, asymptotics, words, verify-all.
Output formats: a human-readable table, json-lines (one JSON object per
row), and the OEIS b-file format ("<index> <value>" per line, no header).
Exit status is 0 only when every requested verification passed, 1 when
one failed, and 2 on bad input (a one-line ``error:`` on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, Sequence

from . import combinat
from .analysis import (
    CLASSIFY_DEPTH,
    GROWTH_REFERENCE,
    classify_triples,
    estimate_growth,
    fit_stretched,
)
from .core import PatternSet, RelationTriple, triple_to_pattern_set
from .gentree import WILF_PARTNER_PATTERNS, ClassId, count_class
from .oracle import (
    BOUND_ENV_VAR,
    WordConstraint,
    count_avoiders,
    count_words,
    oracle_bound,
)
from .series import (
    CATALYTIC_CLASSES,
    CLOSED_FORM_CLASSES,
    CUBIC_KERNELS,
    MINIMAL_POLYNOMIAL_DEGREE,
    TruncatedSeries,
    expand_closed_form,
    horner,
    iterate_catalytic,
    kernel_root,
    verify_minimal_polynomial,
)

FORMATS = ("table", "json-lines", "b-file")


def _emit_rows(rows: Iterable[dict], fmt: str, text: Callable[[dict], str]) -> None:
    """Print each row: one JSON object for json-lines, else ``text(row)``."""
    for row in rows:
        print(json.dumps(row, sort_keys=True) if fmt == "json-lines" else text(row))


def _patterns_for(args) -> PatternSet:
    if args.class_id is not None:
        return ClassId.parse(args.class_id).patterns
    if args.triple is not None:
        return triple_to_pattern_set(RelationTriple.parse(args.triple))
    return PatternSet.of(*args.patterns)


def cmd_count(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    engine = args.engine
    if engine is None:
        engine = "gentree" if args.class_id is not None else "oracle"
    if engine == "gentree":
        if args.class_id is None:
            raise ValueError("the gentree engine needs --class")
        counts = count_class(ClassId.parse(args.class_id), args.n)
    else:
        patterns = _patterns_for(args)
        counts = [count_avoiders(n, patterns, args.bound) for n in range(args.n + 1)]
    rows = [{"n": n, "count": c} for n, c in enumerate(counts)]
    _emit_rows(rows, args.format, "{n} {count}".format_map)
    return 0


def cmd_series(args) -> int:
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    cid = ClassId.parse(args.class_id)
    expand = iterate_catalytic if args.source == "catalytic" else expand_closed_form
    # expand refuses a class it has no series for, before anything is counted
    coeffs = expand(cid, args.order + 1)  # coefficients through z^order
    reference = count_class(cid, args.order)
    rows = [{"n": n, "coefficient": str(c)} for n, c in enumerate(coeffs)]
    _emit_rows(rows, args.format, "{n} {coefficient}".format_map)
    verdicts = [{"check": "series matches counts", "ok": coeffs == reference}]
    if args.verify_minpoly:
        degree = MINIMAL_POLYNOMIAL_DEGREE[cid]
        ok = verify_minimal_polynomial(cid, reference)
        verdicts.append({"check": f"annihilator degree {degree}", "ok": ok})
    _emit_rows(
        verdicts, args.format, lambda v: f"verdict {'OK' if v['ok'] else 'FAIL'}: {v['check']}"
    )
    return 0 if all(v["ok"] for v in verdicts) else 1


def cmd_classify(args) -> int:
    tc = classify_triples(args.max_n, args.bound)
    rows = [
        {
            "representative": str(ps),
            "n_triples": len(tc.pattern_classes[ps]),
            "counts": list(tc.counts[ps]),
        }
        for ps in sorted(tc.pattern_classes, key=str)
    ]
    summary = {
        "triples": tc.n_triples,
        "equivalence_classes": tc.n_pattern_classes,
        "wilf_classes": tc.n_wilf_classes,
    }
    row_text = "{representative} triples={n_triples} counts={counts}"
    summary_text = (
        "total triples {triples}\n"
        "equivalence classes {equivalence_classes}\n"
        "wilf classes {wilf_classes}"
    )
    _emit_rows(rows, args.format, row_text.format_map)
    _emit_rows([summary], args.format, summary_text.format_map)
    return 0


def cmd_asymptotics(args) -> int:
    if args.terms < 0:
        raise ValueError("--terms must be nonnegative")
    cid = ClassId.parse(args.class_id)
    info = GROWTH_REFERENCE[cid]
    model = args.model
    if model is None:
        model = "stretched" if info.stretched else "algebraic"
    counts = count_class(cid, args.terms)
    if model == "stretched":
        fit = fit_stretched(counts, info.mu)
        row = {
            "class": cid.value,
            "model": "stretched",
            "base": fit.base,
            "sigma": fit.sigma,
            "exponent": fit.exponent,
            "log_mu1": fit.log_mu1,
            "residual": fit.residual,
        }
    else:
        est = estimate_growth(counts, args.points)
        row = {
            "class": cid.value,
            "model": "algebraic",
            "mu": est.mu,
            "exponent": est.exponent,
            "reference_mu": info.mu,
            "relative_error": abs(est.mu - info.mu) / info.mu,
        }
    _emit_rows([row], args.format, lambda r: "\n".join(f"{k} {v}" for k, v in r.items()))
    return 0


WORD_RULESETS = {
    "R1R2": (("212", "112", "213"), combinat.words_R1R2),
    "R1R3": (("111", "212", "112", "213"), combinat.words_R1R3),
}


def cmd_words(args) -> int:
    forbidden, formula = WORD_RULESETS[args.rules]
    expected = formula(args.k, args.b)
    constraint = WordConstraint.of(args.k, args.b, forbidden, surjective=True)
    actual = count_words(constraint, args.bound)
    row = {
        "k": args.k,
        "b": args.b,
        "rules": args.rules,
        "formula": expected,
        "enumerated": actual,
        "ok": expected == actual,
    }
    text = f"formula {expected}\nenumerated {actual}\nverdict {'OK' if row['ok'] else 'FAIL'}"
    _emit_rows([row], args.format, lambda _: text)
    return 0 if row["ok"] else 1


# Depths of the verification battery: the defaults of verify-all and the
# depths of the acceptance tests.  A series order is a number of coefficients.
ORACLE_DEPTH = 10
SERIES_ORDER = 61
WORDS_MAX_K = 9
IDENTITY_MAX_ELL = 12

# Each check below yields (where, expected, got) for every comparison it
# makes; it passes when it yields something and every pair agrees.
Comparisons = Iterator[tuple[str, object, object]]


def check_rules_vs_oracle(n_max: int) -> Comparisons:
    for cid in ClassId:
        counts = count_class(cid, n_max)
        for n in range(n_max + 1):
            yield f"class {cid.value} n={n}", count_avoiders(n, cid.patterns), counts[n]


def check_series_agreement(order: int) -> Comparisons:
    for cid in CLOSED_FORM_CLASSES:
        reference = count_class(cid, order - 1)
        sources = [("closed form", expand_closed_form(cid, order))]
        if cid in CATALYTIC_CLASSES:
            sources.append(("catalytic", iterate_catalytic(cid, order)))
        for source, coeffs in sources:
            for n, (want, got) in enumerate(zip_longest(reference, coeffs)):
                yield f"class {cid.value} {source} n={n}", want, got


def check_minimal_polynomials(order: int) -> Comparisons:
    for cid in MINIMAL_POLYNOMIAL_DEGREE:
        ok = verify_minimal_polynomial(cid, count_class(cid, order - 1))
        yield f"class {cid.value} annihilator", True, ok


def check_kernel_roots(order: int) -> Comparisons:
    for cid, polys in CUBIC_KERNELS.items():
        ks = [TruncatedSeries.from_poly(p, order) for p in polys]
        x = kernel_root(ks, 1, order)
        if cid is ClassId.C1420:
            yield "class 1420 root prefix", [1, 2, 5, 17, 64], [int(c) for c in x.coeffs[:5]]
        nonzero = sum(1 for c in horner(ks, x).coeffs if c)
        yield f"class {cid.value} nonzero residual terms", 0, nonzero


def check_words(k_max: int) -> Comparisons:
    for k in range(1, k_max + 1):
        for b in range(1, k + 1):
            for rules, (forbidden, formula) in WORD_RULESETS.items():
                constraint = WordConstraint.of(k, b, forbidden, surjective=True)
                yield f"{rules} k={k} b={b}", formula(k, b), count_words(constraint, k)
    for ell in range(IDENTITY_MAX_ELL + 1):
        for b in range(ell + 1):
            m = sum(combinat.words_R1R2(k, b) for k in range(b, ell + 1))
            yield f"m ell={ell} b={b}", m, combinat.multiplicity_m(ell, b)
            w = combinat.words_R1R3(ell - 1, b) + combinat.words_R1R3(ell, b)
            yield f"w ell={ell} b={b}", w, combinat.multiplicity_w(ell, b)


def check_classification() -> Comparisons:
    tc = classify_triples()
    yield "triples", 343, tc.n_triples
    yield "equivalence classes", 98, tc.n_pattern_classes
    yield "wilf classes", 63, tc.n_wilf_classes
    for cid, partner in WILF_PARTNER_PATTERNS.items():
        own, other = tc.cell_of(cid.patterns), tc.cell_of(PatternSet.of(*partner))
        yield f"class {cid.value} vs its Wilf partner", tc.counts[own], tc.counts[other]


def _first_failure(results: Comparisons) -> str | None:
    """None if every comparison agrees, else a description of the first that does not.

    The arguments were checked before the run, so an exception raised by a
    check is a defect of the program and fails that check.
    """
    compared = False
    try:
        for where, expected, got in results:
            if expected != got:
                return f"{where}: expected {expected}, got {got}"
            compared = True
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    return None if compared else "nothing was compared"


def cmd_verify_all(args) -> int:
    limit = oracle_bound()
    if not 0 <= args.n <= limit:
        raise ValueError(
            f"--n must be between 0 and the exhaustive-search bound {limit}"
            f" ({BOUND_ENV_VAR} raises the bound)"
        )
    if args.order < 5:
        raise ValueError("--order must be at least 5")
    if args.max_k < 1:
        raise ValueError("--max-k must be at least 1")
    checks = [
        ("succession rules vs oracle", check_rules_vs_oracle(args.n)),
        ("closed forms vs counts", check_series_agreement(args.order)),
        ("minimal polynomials", check_minimal_polynomials(args.order)),
        ("kernel roots", check_kernel_roots(args.order)),
        ("word formulas", check_words(args.max_k)),
        ("triple classification", check_classification()),
    ]
    failed = False
    for name, comparisons in checks:
        failure = _first_failure(comparisons)
        failed |= failure is not None
        print(f"PASS {name}" if failure is None else f"FAIL {name}: {failure}")
    return 1 if failed else 0


def _add_format(p: argparse.ArgumentParser, choices=FORMATS, default="table") -> None:
    p.add_argument("--format", choices=choices, default=default)


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as one ``error:`` line and exit status 2, no usage."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invseq",
        description="Exact enumeration of pattern-avoiding inversion sequences.",
        epilog=f"The {BOUND_ENV_VAR} environment variable sets the default "
        "exhaustive-search bound; --bound flags override it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="counting sequence of an avoidance class")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--class", dest="class_id", metavar="ID")
    sel.add_argument("--patterns", nargs="+", metavar="PAT")
    sel.add_argument(
        "--triple",
        metavar="R1,R2,R3",
        help='e.g. ">,<=,!="; write a triple that starts with "-" as '
        '"(-,-,>)" or --triple=-,-,>',
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--engine", choices=("gentree", "oracle"))
    p.add_argument("--bound", type=int)
    _add_format(p, default="b-file")
    p.set_defaults(run=cmd_count)

    p = sub.add_parser("series", help="generating-function coefficients")
    p.add_argument("--class", dest="class_id", required=True, metavar="ID")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--source", choices=("closed-form", "catalytic"), default="closed-form")
    p.add_argument("--verify-minpoly", action="store_true")
    _add_format(p, default="b-file")
    p.set_defaults(run=cmd_series)

    p = sub.add_parser("classify", help="group the 343 relation triples")
    p.add_argument("--max-n", type=int, default=CLASSIFY_DEPTH)
    p.add_argument("--bound", type=int)
    _add_format(p, choices=("table", "json-lines"))
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("asymptotics", help="growth-rate fit of a class")
    p.add_argument("--class", dest="class_id", required=True, metavar="ID")
    p.add_argument("--terms", type=int, default=210)
    p.add_argument("--model", choices=("algebraic", "stretched"))
    p.add_argument("--points", type=int, default=10)
    _add_format(p, choices=("table", "json-lines"))
    p.set_defaults(run=cmd_asymptotics)

    p = sub.add_parser("words", help="commitment-word formulas vs enumeration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--rules", choices=tuple(WORD_RULESETS), required=True)
    p.add_argument("--bound", type=int)
    _add_format(p, choices=("table", "json-lines"))
    p.set_defaults(run=cmd_words)

    p = sub.add_parser("verify-all", help="run the full verification battery")
    p.add_argument("--n", type=int, default=ORACLE_DEPTH, help="rule-vs-oracle depth")
    p.add_argument(
        "--order", type=int, default=SERIES_ORDER, help="series order (coefficients)"
    )
    p.add_argument("--max-k", type=int, default=WORDS_MAX_K, help="word-length cap")
    p.set_defaults(run=cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return status
    except ValueError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader of stdout left (``invseq classify | head -1``): stop
        # quietly, with stdout on devnull so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
