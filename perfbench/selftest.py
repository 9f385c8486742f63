"""Self-test of the benchmark at a tiny size (about four minutes).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It works in copies of the checkout
under .perfbench/selftest, each holding BENCHMARK.json, perfbench/ and
src/, whose perfbench/workloads.py ends with a few lines that shrink the
workloads to a tiny size (and, for one check, slow them down).  It checks
that:
  * every workload prints exactly the metrics BENCHMARK.json names, with
    their units, both untraced and traced, and passes at the tiny size;
  * the exact per-layer counts repeat between two seeds;
  * a corrupted reference value is counted as a failed op (correct is
    false, failed > 0) instead of passing silently;
  * a slower program reads slower: fixed extra pure-Python work in every
    op of a census to depth 100 raises the rescaled wall_s by what that
    work alone reads as, within 15%, so host-speed rescaling does not
    absorb it;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import inspect
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench" / "selftest"
EXACT = ("gentree.steps", "gentree.max_bits", "oracle.dfs_nodes", "series.mul.calls")
TINY = {"depth": 30, "order": 20, "oracle_n": 6, "words_k": 5, "ell": 6, "classify_n": 6}
MID = dict(TINY, depth=100)  # census with 140 ops, a few seconds a pass
# one reference value per workload that the tiny size checks, and its corruption
CORRUPT = {
    "census": lambda ref: ref["digests"]["1420"].__setitem__("20", "0" * 64),
    "classify": lambda ref: ref["cells"][min(ref["cells"])]["counts"].__setitem__(4, 0),
    "verify": lambda ref: ref["verdicts"].__setitem__("closed_form.1176", False),
}


def extra_work() -> None:
    """Fixed pure-Python work, unlike the calibration kernel (no big integers, dicts or fractions)."""
    for _ in range(100):
        sorted(str(i) for i in range(1000))


# appended to workloads.py: every op ends with one call of extra_work()
SLOWDOWN = "\n\n" + inspect.getsource(extra_work) + """

def _slowed(make_ops):
    def make(*args):
        for op_id, run, check in make_ops(*args):
            def slow_run(run=run):
                out = run()
                extra_work()
                return out
            yield op_id, slow_run, check
    return make


OPS = {name: _slowed(make) for name, make in OPS.items()}
"""
SLOWDOWN_TOL = 0.15  # largest |measured rise / expected rise - 1| accepted

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def make_tree(name: str, tail: str = "", with_src: bool = True) -> Path:
    """A copy of the checkout with tail appended to perfbench/workloads.py."""
    tree = SCRATCH / name
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tree / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    if with_src:
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
    with open(tree / "perfbench" / "workloads.py", "a") as fh:
        fh.write(tail)
    return tree


def bench(tree: Path, workload: str, *extra: str, seed: int = 1):
    """Exit status, last-line result (None unless status 0) and the lines above it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", *extra],
        cwd=tree, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc.returncode, result, lines[:-1]


def check_metrics(result: dict, specs: list[dict], what: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: passes")
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in specs], f"{what}: every named metric, in order")
    expect(
        all(
            metrics[m["name"]]["unit"] == m["unit"] and math.isfinite(metrics[m["name"]]["value"])
            for m in specs
            if m["name"] in metrics
        ),
        f"{what}: units and finite values",
    )


def census_wall(tree: Path, seed: int) -> tuple[float, float, int]:
    """A census run's rescaled and unscaled wall_s, and its op count."""
    status, result, notes = bench(tree, "census", "--trace", "0", seed=seed)
    expect(status == 0 and result["correct"], f"{tree.name} census seed {seed}: passes")
    line = next(n for n in notes if n.startswith("unscaled:"))
    raw = float(re.search(r"wall_s ([0-9.e+-]+)", line).group(1))
    return result["metrics"]["wall_s"]["value"], raw, result["attempted"]


def rescaled_cost(calls: int) -> float:
    """What calls of extra_work() alone read as, timed the way child.py times ops."""
    clock = SpeedClock()
    timeline = []
    for _ in range(calls):
        start, n0 = perf_counter(), clock.now()
        extra_work()
        timeline.append((start, perf_counter(), clock.now() - n0))
    for _ in range(10):
        clock.sample()
    clock.stop()
    return sum(clock.scaled(*t) for t in timeline)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    tiny = make_tree("tiny", f"\nSIZE = {TINY!r}\n")
    for w in (w["name"] for w in spec["workloads"]):
        status, result, _ = bench(tiny, w, "--trace", "0")
        expect(status == 0, f"{w} untraced: exit status 0")
        if result:
            check_metrics(result, spec["end_to_end"], f"{w} untraced")
        traced = []
        for seed in (1, 2):
            status, result, _ = bench(tiny, w, "--trace", "1", seed=seed)
            expect(status == 0, f"{w} traced seed {seed}: exit status 0")
            if result:
                check_metrics(result, spec["per_layer"], f"{w} traced seed {seed}")
                traced.append(result["metrics"])
        if len(traced) == 2:
            expect(
                all(traced[0][k]["value"] == traced[1][k]["value"] for k in EXACT),
                f"{w} traced: exact counts repeat across seeds",
            )

    refs = tiny / "perfbench" / "refs"
    for w, corrupt in CORRUPT.items():
        path = refs / f"{w}.json"
        ref = json.loads(path.read_text())
        corrupt(ref)
        path.write_text(json.dumps(ref))
        status, result, _ = bench(tiny, w, "--trace", "0")
        expect(
            status == 0 and not result["correct"] and result["failed"] >= 1,
            f"{w}: a corrupted reference counts as a failed op",
        )

    mid = make_tree("mid", f"\nSIZE = {MID!r}\n")
    slow = make_tree("slow", f"\nSIZE = {MID!r}\n{SLOWDOWN}")
    # base and slowed runs alternate, so a drift in host speed hits both
    walls = [(census_wall(mid, seed), census_wall(slow, seed)) for seed in range(1, 4)]
    (base_s, base_raw, ops), (slow_s, slow_raw, _) = (
        [statistics.median(col) for col in zip(*runs)] for runs in zip(*walls)
    )
    cost = statistics.median(rescaled_cost(ops) for _ in range(3))
    print(
        f"extra work in each of {ops} ops: rescaled census wall_s {base_s:.3f} -> {slow_s:.3f} s, "
        f"up {slow_s - base_s:.3f} s against {cost:.3f} s for the extra work alone; "
        f"unscaled {base_raw:.3f} -> {slow_raw:.3f} s"
    )
    expect(
        abs((slow_s - base_s) / cost - 1) < SLOWDOWN_TOL,
        f"rescaled wall_s rises by the extra work's own rescaled time, within {SLOWDOWN_TOL:.0%}",
    )

    status, result, _ = bench(make_tree("bare", with_src=False), "census", "--trace", "0")
    expect(status != 0 and result is None, "without the sources: non-zero exit, no result")
    shutil.rmtree(SCRATCH)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
