"""One pass of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
The first thing it does is time set-up: ``import invseq`` and building
the CLI parser (with ``--setup-only`` that is all it does; run.py
rescales these times, see refimport.py).  Then it starts the host-speed
clock, runs the workload's operations once, in the order the seed gives,
and prints one JSON record on its last stdout line.  Times are rescaled
to the reference host speed (see speed.py); the raw ones ride along.

    python3 perfbench/child.py --workload census --seed 1:0 [--trace-out F]
    python3 perfbench/child.py --setup-only
"""

import time

_T0 = time.perf_counter()
import invseq.cli  # noqa: E402

invseq.cli.build_parser()
SETUP_RAW_S = time.perf_counter() - _T0

import json  # noqa: E402
import sys  # noqa: E402

if sys.argv[1:] == ["--setup-only"]:  # set-up probes exit before importing more
    print(json.dumps({"setup_raw_s": SETUP_RAW_S}))
    sys.exit(0)

import argparse  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedClock  # noqa: E402

HERE = Path(__file__).resolve().parent
TAIL_SAMPLES = 10  # host-speed samples taken after the timed work, for its window


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", default="0")
    p.add_argument("--trace-out", help="trace this pass and write its spans here")
    args = p.parse_args()

    src = (Path.cwd() / "src").resolve()
    if not Path(invseq.cli.__file__).resolve().is_relative_to(src):
        print(f"error: invseq imported from {invseq.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import OPS

    ref = json.loads((HERE / "refs" / f"{args.workload}.json").read_text())
    ops = list(OPS[args.workload](random.Random(args.seed), ref))
    clock = SpeedClock()
    tracer = None
    if args.trace_out:
        tracer = Tracer(run_id=f"{args.workload}:{args.seed}", clock=clock.now)
        tracer.install()

    # per op: perf_counter at start and end, then op and op-plus-check seconds
    timeline = []
    failed = []
    for op_id, run, check in ops:
        start, n0 = time.perf_counter(), clock.now()
        n1 = None
        try:
            out = run()
            n1 = clock.now()
            ok = check(out)
        except (Exception, SystemExit):  # an op that raises fails; the loop goes on
            traceback.print_exc()
            ok = False
        n2 = clock.now()
        timeline.append((start, time.perf_counter(), (n2 if n1 is None else n1) - n0, n2 - n0))
        if not ok:
            failed.append(op_id)
    for _ in range(TAIL_SAMPLES):
        clock.sample()
    clock.stop()

    op_s = [clock.scaled(a, b, op) for a, b, op, _ in timeline]
    wall_s = sum(clock.scaled(a, b, step) for a, b, _, step in timeline)
    wall_raw_s = sum(step for *_, step in timeline)
    record = {
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "op_s": op_s,
        "op_raw_s": [op for _, _, op, _ in timeline],
        "attempted": len(ops),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out)
        record["layers"] = tracer.metrics(time_scale=wall_s / wall_raw_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
