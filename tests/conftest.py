import signal
from functools import lru_cache
from pathlib import Path

import pytest

from invseq.gentree import ClassId

# A test still running after TIME_LIMIT_S fails with a TimeoutError that names
# it, instead of hanging the suite; the error recurs every REPEAT_S after that,
# so code that catches one (verify-all turns it into a FAIL line) still ends.
TIME_LIMIT_S, REPEAT_S = 60, 5


@pytest.fixture(autouse=True)
def time_limit(request):
    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S, REPEAT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

# The census benchmark's references: sha256 digests of count_class(cid, d)
# for d = 10, 20, ..., 210 and every class's growth fit at d = 210, recorded
# with the benchmark and cross-checked there against independent routes.
CENSUS_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "census.json"

# Published initial terms of four counting sequences, which the closed forms
# must reproduce.
PUBLISHED_PREFIXES = {
    ClassId.C1016: [1, 1, 2, 6, 21, 76, 277, 1016, 3756, 13998],
    ClassId.C663A: [1, 1, 2, 5, 15, 50, 178, 663, 2552],
    ClassId.C1833A: [1, 1, 2, 6, 22, 90, 396, 1833, 8801, 43441, 219092],
    ClassId.C733: [1, 1, 2, 5, 15, 51, 188, 733, 2979, 12495, 53708],
}


@lru_cache(maxsize=None)
def all_inversion_sequences(n: int) -> tuple[tuple[int, ...], ...]:
    """Every length-n inversion sequence, lexicographically."""
    seqs = [()]
    for i in range(1, n + 1):
        seqs = [s + (v,) for s in seqs for v in range(i)]
    return tuple(seqs)
