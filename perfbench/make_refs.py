"""Regenerate the benchmark's reference outputs in perfbench/refs/.

    PYTHONPATH=src python3 perfbench/make_refs.py

Each reference is computed once and cross-checked by an independent
route before it is stored; any disagreement aborts without writing.

census    counts of every class to depth 210, stored as one digest per
          census op, plus the final growth fit.  Terms n <= 9 are checked
          against the exhaustive oracle, and the 7 closed-form classes
          against the closed-form series to the full depth.
classify  the count vector and triple count of each of the 98 cells.
          Every cell is checked by filtering all inversion sequences of
          length <= 7 without pruning, and the cells of the 14 classes and
          their Wilf partners against the succession rules to n = 9.
verify    the verdict of each check; all must pass, and so must the CLI's
          own copy of the battery (``invseq verify-all``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from invseq import analysis, cli, core, gentree, oracle, series
from invseq.gentree import ClassId, WILF_PARTNER_PATTERNS

from workloads import CENSUS_STEP, SIZE, classify_ops, digest, growth_fit, verify_checks

OUT = Path(__file__).resolve().parent / "refs"
BRUTE_FORCE_N = 7


def _require(ok: bool, what: object = "") -> None:
    if not ok:
        raise SystemExit(f"reference cross-check failed: {what}")


def census_ref() -> dict:
    depth = SIZE["depth"]
    digests, fits = {}, {}
    for cid in ClassId:
        counts = gentree.count_class(cid, depth)
        for n in range(SIZE["oracle_n"] + 1):
            _require(counts[n] == oracle.count_avoiders(n, cid.patterns), (cid, n))
        if cid in series.CLOSED_FORM_CLASSES:
            closed = series.expand_closed_form(cid, depth + 1)
            _require([Fraction(c) for c in counts] == closed, cid)
        digests[cid.value] = {
            str(d): digest(counts[: d + 1]) for d in range(CENSUS_STEP, depth + 1, CENSUS_STEP)
        }
        fits[cid.value] = growth_fit(cid, counts)
        print(f"census {cid.value}: {counts[-1].bit_length()} bits at n={depth}")
    return {"depth": depth, "digests": digests, "final_fit": fits}


def _brute_force_counts(patterns: core.PatternSet, n_max: int) -> list[int]:
    out = []
    for n in range(n_max + 1):
        seqs = itertools.product(*(range(i) for i in range(1, n + 1)))
        out.append(sum(core.avoids_all(core.InversionSequence(s), patterns) for s in seqs))
    return out


def classify_ref() -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _require(cli.main(["classify", "--format", "json-lines"]) == 0)
    rows = [json.loads(line) for line in buf.getvalue().splitlines()]
    summary = rows.pop()
    _require(summary == {"triples": 343, "equivalence_classes": 98, "wilf_classes": 63}, summary)
    cells = {r["representative"]: {"n_triples": r["n_triples"], "counts": r["counts"]} for r in rows}

    tc = analysis.classify_triples()
    for ps in tc.pattern_classes:
        brute = _brute_force_counts(ps, BRUTE_FORCE_N)
        _require(cells[str(ps)]["counts"][: BRUTE_FORCE_N + 1] == brute, str(ps))
    for cid in ClassId:
        partners = [cid.patterns]
        if cid in WILF_PARTNER_PATTERNS:
            partners.append(core.PatternSet.of(*WILF_PARTNER_PATTERNS[cid]))
        for ps in partners:
            rep = str(tc.cell_of(ps))
            _require(cells[rep]["counts"] == gentree.count_class(cid, SIZE["classify_n"]), rep)
    ref = {"triples": summary["triples"], "cells": cells}
    # the workload's own check must accept what was just stored
    [(_, run, check)] = classify_ops(random.Random(0), ref)
    _require(check(run()))
    return ref


def verify_ref() -> dict:
    verdicts = {op_id: check() for op_id, check in verify_checks().items()}
    _require(all(verdicts.values()), [k for k, v in verdicts.items() if not v])
    with contextlib.redirect_stdout(io.StringIO()):
        _require(cli.main(["verify-all"]) == 0)
    return {"verdicts": verdicts}


def main() -> None:
    refs = {"classify": classify_ref(), "verify": verify_ref(), "census": census_ref()}
    OUT.mkdir(exist_ok=True)
    for name, ref in refs.items():
        (OUT / f"{name}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {name}.json")


if __name__ == "__main__":
    main()
