"""Request pools of the benchmark workloads and their seeded request order.

Every request is the argv of one `triplet` call.  A workload's requests are
grouped into batches; the measuring loop starts a batch only if it is
expected to finish inside the run, so a batch is never cut short.
"""

from __future__ import annotations

import random

# Every subcommand except `verify`, at sizes where interpreter start-up plus
# `import triplet.cli` is most of a call.  The last group are documented error
# paths: exit 2 (validation) and exit 3 (unsupported request) are expected.
CLI_LIGHT = [
    "weights --p 2 --q 3 --r 7 --s 1",
    "weights --p 3 --q 4 --r 5 --s 3",
    "weights --p 2 --q 5 --r 9 --s 4",
    "weights --p 3 --q 5 --r 11 --s 2",
    "weights --p 4 --q 5 --r 13 --s 7",
    "weights --pq-preset 2,3 --r 1 --s 1",
    "weights --pq-preset 3,4 --r 40 --s 40",
    "fuse-L --p 2 --q 3 --m 3 --n 3",
    "fuse-L --p 3 --q 4 --m 5 --n 2",
    "fuse-L --pq-preset 2,5 --m 4 --n 6",
    "fuse-C --m 1 --n 1",
    "fuse-C --m 7 --n 4",
    "fuse-C --m 20 --n 20",
    "kac-diagram --p 2 --q 3 --m 2 --n 2",
    "kac-diagram --p 2 --q 3 --m 2 --n 2 --format dot",
    "kac-diagram --p 3 --q 4 --m 10 --n 5",
    "kac-diagram --p 2 --q 5 --m 30 --n 30",
    "kac-diagram --p 2 --q 3 --m 30 --n 30 --format dot",
    "kac-diagram --p 3 --q 4 --m 20 --n 7 --format dot",
    "kac-diagram --p 2 --q 3 --r 5 --s 5",
    "hexagon --p 2 --q 3",
    "hexagon --p 2 --q 3 --t 1/2",
    "hexagon --p 3 --q 4 --t=-3/7",
    "hexagon --pq-preset 2,5",
    "braiding --p 2 --q 3 --n 0",
    "braiding --p 2 --q 3 --n 1",
    "braiding --p 3 --q 4 --n 2",
    "braiding --p 2 --q 5 --n 5",
    "braiding --p 4 --q 5 --n 8",
    "decompose --p 2 --q 3 --target wpq --nmax 1000",
    "decompose --p 2 --q 3 --target wpq-equivariant --nmax 1000",
    "decompose --p 3 --q 4 --target ideal --nmax 1000",
    "decompose --p 2 --q 5 --target wprime --nmax 1000",
    "decompose --p 2 --q 3 --target wpq-equivariant --nmax 5",
    "o0-check --p 3 --q 4 --nmax 10",
    "o0-check --p 2 --q 3 --nmax 100",
    "o0-check --pq-preset 2,5 --nmax 50",
    "sl2 --n 0 --op irrep",
    "sl2 --n 4 --op irrep",
    "sl2 --n 10 --op irrep",
    "sl2 --n 25 --op irrep",
    "sl2 --n 40 --op irrep",
    "sl2 --n 1 --op form",
    "sl2 --n 4 --op form",
    "sl2 --n 1 --op cg --m 1 --k 0",
    "sl2 --n 2 --op cg --m 3 --k 1",
    "sl2 --n 4 --op cg --m 4 --k 4",
    "weights --p 2 --q 4 --r 1 --s 1",
    "weights --p 3 --q 3 --r 1 --s 1",
    "fuse-L --p 2 --q 3 --m 1 --n 3",
    "kac-diagram --p 2 --q 3 --m 2 --n 3",
    "kac-diagram --p 2 --q 3 --r 4 --s 4",
    "hexagon --p 2 --q 3 --t 1/0",
    "hexagon --p 2 --q 3 --t 0",
    "braiding --p 2 --q 3 --n -1",
    "decompose --p 2 --q 3 --target wpq --nmax 0",
    "sl2 --n 2 --op cg --m 2 --k 1",
    "sl2 --n -1 --op irrep",
    "bogus",
]

VERIFY_ALL = ["verify --suite all"]

# Dense Fraction elimination in `linalg`/`sl2rep`; each size is a cold process,
# so every sl2rep cache lookup misses.  A pass takes roughly 10-15 s.
SL2_HEAVY = [
    "sl2 --n 8 --op cg --m 8 --k 8",
    "sl2 --n 10 --op cg --m 10 --k 0",
    "sl2 --n 12 --op cg --m 12 --k 12",
    "sl2 --n 6 --op cg --m 12 --k 6",
    "sl2 --n 10 --op form",
    "sl2 --n 12 --op form",
    "sl2 --n 14 --op form",
]

# name -> (pool, whether a whole pass over the pool is one batch)
WORKLOADS = {
    "cli-light": (CLI_LIGHT, False),
    "verify-all": (VERIFY_ALL, True),
    "sl2-heavy": (SL2_HEAVY, True),
}

# The reference work (run.py) that a workload's call times are scaled by:
# interpreter start-up for cli-light, whose calls are mostly start-up, and
# in-process arithmetic for the two whose calls are mostly computation.
REFERENCE = {"cli-light": "start", "verify-all": "compute", "sl2-heavy": "compute"}


def all_requests() -> list[list[str]]:
    """Every argv of every pool, each once."""
    return [req.split() for pool, _ in WORKLOADS.values() for req in pool]


def batches(workload: str, seed: int):
    """Endless batches of argv lists: seeded permutations of the pool.

    With whole-pass batches a run holds each request equally often, so its
    mean per call is over the same mix whatever the seed.
    """
    pool, whole_pass = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        order = [req.split() for req in rng.sample(pool, len(pool))]
        if whole_pass:
            yield order
        else:
            yield from ([argv] for argv in order)
