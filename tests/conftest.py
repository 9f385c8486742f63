import itertools
from functools import lru_cache
from pathlib import Path

import pytest

# The census benchmark's references: sha256 digests of count_class(cid, d)
# for d = 10, 20, ..., 210 and every class's growth fit at d = 210, recorded
# with the benchmark and cross-checked there against independent routes.
CENSUS_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "census.json"


@lru_cache(maxsize=None)
def all_inversion_sequences(n: int) -> tuple[tuple[int, ...], ...]:
    """Every length-n inversion sequence, lexicographically."""
    seqs = [()]
    for i in range(1, n + 1):
        seqs = [s + (v,) for s in seqs for v in range(i)]
    return tuple(seqs)


@pytest.fixture(scope="session")
def invseqs():
    return all_inversion_sequences
