"""Steadiness study and baseline: run the benchmark many times, report spreads.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/baseline.json

Run from the root of a checkout.  For each workload it makes ``--runs``
untraced runs, seed 1, 2, ..., each with BENCHMARK.json's run_seconds,
and one traced run.  For every end-to-end metric it reports the median
and the quartile spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, against the metric's bound.  A
metric is steady when its spread is below a third of its bound.  The
traced run gives the per-layer numbers.  Everything goes to ``--out`` as
JSON; workloads not run this time keep what the file already holds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or "unknown cpu"


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="+", default=None)
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = p.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    report.update(
        {
            "machine": f"{platform.machine()}, {cpu_model()}, "
            f"{len(os.sched_getaffinity(0))} CPUs available",
            "python": platform.python_version(),
            "run_seconds": seconds,
        }
    )
    steady = True
    for w in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            t0 = time.monotonic()
            runs.append(run_once(w, seed, seconds, 0))
            print(f"{w} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        entry = {
            "date": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
            "runs": args.runs,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "notes": runs[0]["notes"],
            "end_to_end": {},
        }
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            s.update(bound=m["bound"], steady=s["spread"] < m["bound"] / 3, values=values)
            steady &= s["steady"]
            entry["end_to_end"][m["name"]] = s
            print(f"  {m['name']:12s} median {s['median']:.5g} {m['unit']}, spread "
                  f"{s['spread']:.3f} (bound {m['bound']}) {'steady' if s['steady'] else 'NOT STEADY'}")
        traced = run_once(w, 1, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_notes"] = traced["notes"]
        print(f"  trace.overhead_frac {entry['per_layer']['trace.overhead_frac']:.4f}")
        report["workloads"][w] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
