"""The invseq benchmark: one workload run, metrics as one JSON line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the checkout's ``src``.
Every pass of the workload runs in a fresh interpreter (child.py) with
``INVSEQ_ORACLE_BOUND`` removed, so the census starts cold and nothing
carries over between passes.  Times are seconds at a reference host
speed, measured by a calibration kernel interleaved with the work (see
speed.py); the unscaled times are printed too.  Passes repeat while
another one still fits in ``--seconds`` (always at least one).  Before
them, set-up-only interpreters time ``import invseq`` plus building the
CLI parser, each followed by one that times a reference import of
invseq's dependencies; setup_s is the median ratio of the two times
at the reference import's REF_IMPORT_S (see refimport.py).

--trace 0 prints the end-to-end metrics: setup_s, wall_s, op_p50_s,
op_tail_s and peak_rss_mb.  --trace 1 alternates untraced and traced
passes and prints the per-layer metrics of the traced ones, plus
trace.overhead_frac.  op_p50_s is the median latency of every op
of every untraced pass, smoothed as the mean of the ops from the 40th to
the 60th percentile; op_tail_s is, per pass, the highest percentile with
at least 10 ops beyond it, the 11th slowest op, smoothed as the mean of
the 2nd to the 20th slowest (the slowest op when a pass has 20 or
fewer), and then the median over passes, so the number of passes that
fit does not move it.  The last stdout line is always
{"correct", "attempted", "failed", "metrics"}; the lines before it say
how many passes and ops ran, which percentile op_tail_s is, the share of
ops that failed (failed_frac) and which ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("census", "classify", "verify")
P50_BAND = (0.4, 0.6)
TAIL_BAND = (2, 20)  # ranks from the slowest op, centred on the 11th
SETUP_PROBES = 16
REF_IMPORT_S = 0.065  # the reference import at the reference host speed
RUN_LIMIT_S = 170  # a run must end within 180 s


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "INVSEQ_ORACLE_BOUND"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = "1"  # numpy starts no threads: one single-threaded process
    return env


def run_child(argv: list[str], env: dict, deadline: float, script: str = "child.py") -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def p50(op_s: list[float]) -> float:
    """The median op latency, smoothed: the mean of the ops from p40 to p60.

    A workload's ops differ in size by orders of magnitude, so a plain
    median jumps between neighbouring ops from run to run (quartile spread
    0.15 over verify passes, against 0.06 for this band).
    """
    ops = sorted(op_s)
    lo, hi = P50_BAND
    return statistics.fmean(ops[int(lo * len(ops)) : math.ceil(hi * len(ops))])


def tail(op_s: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 ops beyond it, smoothed, and its rank.

    That percentile is the 11th slowest op; like p50() it is smoothed, as
    the mean of the TAIL_BAND ranks around it (quartile spread over nine
    census runs 0.020 against 0.032 for the 11th op alone).  With 20 ops
    or fewer the band does not fit, and the slowest op (p100) is reported
    instead.
    """
    ops = sorted(op_s)
    first, last = TAIL_BAND
    if len(ops) <= last:
        return ops[-1], 100.0
    return statistics.fmean(ops[-last : -first + 1]), 100.0 * (len(ops) - 10) / len(ops)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "invseq" / "cli.py").is_file():
        print(f"error: no invseq sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = child_env(root)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    # the first pair also leaves the bytecode cache behind; it is not counted
    setups = [
        (
            run_child(["--setup-only"], env, deadline)["setup_raw_s"],
            run_child([], env, deadline, script="refimport.py")["ref_import_s"],
        )
        for _ in range(SETUP_PROBES + 1)
    ][1:]
    spans_dir = root / ".perfbench" / "spans"
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    plain, traced = [], []
    pass_s = []
    while True:
        i = len(plain) + len(traced)
        argv = ["--workload", args.workload, "--seed", f"{args.seed}:{i}"]
        is_traced = args.trace == 1 and i % 2 == 1
        if is_traced:
            argv += ["--trace-out", str(spans_dir / f"{args.workload}-{args.seed}-{i}.jsonl")]
        t0 = time.monotonic()
        (traced if is_traced else plain).append(run_child(argv, env, deadline))
        pass_s.append(time.monotonic() - t0)
        per_round = statistics.fmean(pass_s) * (2 if args.trace else 1)
        if is_traced == bool(args.trace) and time.monotonic() - start + per_round > args.seconds:
            break

    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failed_ops = [op for r in passes for op in r["failed"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.trace:
        names = traced[0]["layers"].keys()
        # median_low keeps the exact counts exact when the passes are even
        metrics = {k: statistics.median_low(r["layers"][k] for r in traced) for k in names}
        metrics["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced) / wall_s - 1
        )
        units = spec["per_layer"]
    else:
        metrics = {
            "setup_s": REF_IMPORT_S * statistics.median(s / r for s, r in setups),
            "wall_s": wall_s,
            "op_p50_s": p50([t for r in plain for t in r["op_s"]]),
            "op_tail_s": statistics.median(tail(r["op_s"])[0] for r in plain),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in passes),
        }
        units = spec["end_to_end"]
        n_ops = len(plain[0]["op_s"])
        first, last = TAIL_BAND
        print(
            f"op_p50_s: mean of p40..p60 of all {n_ops * len(plain)} ops; op_tail_s: median "
            f"over passes of p{tail(plain[0]['op_s'])[1]:.1f} of the pass's {n_ops} ops"
            + (f", smoothed over slowest ranks {first}..{last}" if n_ops > last else "")
        )
        print(
            "unscaled: setup_s {:.4g}, wall_s {:.4g}, op_p50_s {:.4g}, op_tail_s {:.4g}".format(
                statistics.median(s for s, _ in setups),
                statistics.median(r["wall_raw_s"] for r in plain),
                p50([t for r in plain for t in r["op_raw_s"]]),
                statistics.median(tail(r["op_raw_s"])[0] for r in plain),
            )
        )
    print(
        f"{args.workload}: {len(plain)} untraced + {len(traced)} traced passes, "
        f"{len(setups)} set-ups, failed_frac {len(failed_ops) / attempted:.4g} "
        f"({len(failed_ops)}/{attempted})"
    )
    if failed_ops:
        print("failed ops: " + " ".join(sorted(set(failed_ops))))
    unit_of = {m["name"]: m["unit"] for m in units}
    print(
        json.dumps(
            {
                "correct": not failed_ops,
                "attempted": attempted,
                "failed": len(failed_ops),
                "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
