"""Seeded job plans for the three workloads (what each run compiles).

Quality metrics (best error, speedup) are properties of the cores, not of
the machine, so a workload's *set* of jobs is the same for every seed: a
seeded subset of the 60 curated cores moved ``best_error_bits.mean`` by
40-70% (interquartile range over median) between seeds, which no bound
could absorb.  The seed therefore fixes everything else: the compile
order, how the order is split over the hash-seeded worker processes,
which ``batch-cached`` jobs repeat, which land in the second, overlapping
batch, and which are re-requested as warm hits.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("suite-c99", "suite-fdlibm", "batch-cached")
SUITE_TARGETS = {"suite-c99": "c99", "suite-fdlibm": "fdlibm"}

#: Compiled by every worker during set-up, never measured.
WARMUP_CORE = "acoth"

#: Every third curated core, in suite order (20 of 60).
SUITE_STRIDE = 3

#: Every tenth curated core from the sixth, on three targets.
BATCH_OFFSET, BATCH_STRIDE = 5, 10
BATCH_TARGETS = ("c99", "fdlibm", "avx")
BATCH_WORKERS = 2


def derive(seed: int, *tags) -> int:
    """A sub-seed for one decision, independent of ``PYTHONHASHSEED``."""
    text = ":".join(str(part) for part in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _curated_names() -> list[str]:
    from repro.benchsuite import suite_names

    return list(suite_names())


def suite_panel() -> list[str]:
    return _curated_names()[::SUITE_STRIDE]


def suite_share(seed: int, share: int, shares: int) -> list[str]:
    """The cores worker ``share`` of ``shares`` compiles, in order."""
    order = suite_panel()
    random.Random(derive(seed, "order")).shuffle(order)
    return order[share::shares]


def batch_cores() -> list[str]:
    return _curated_names()[BATCH_OFFSET::BATCH_STRIDE]


def batch_plan(seed: int, avx_ok: list[str]) -> dict[str, list[tuple[str, str]]]:
    """Two overlapping batches over the unique jobs, plus warm re-requests.

    Per core, the seed picks which of its jobs go to the first batch (all
    but one), which of those is repeated in it (a redundant compile the
    scheduler does not deduplicate) and which is re-requested in the
    second batch (a cache hit) beside the core's remaining job (a cache
    write).  ``warm`` re-requests one cached job per core on its own.
    Choosing per core keeps the compile work of a run nearly the same for
    every seed; the seed also shuffles each batch.
    """
    rng = random.Random(derive(seed, "batch"))
    unique, batch1, batch2, warm = [], [], [], []
    for name in batch_cores():
        jobs = [
            (name, target) for target in BATCH_TARGETS
            if target != "avx" or name in avx_ok
        ]
        rng.shuffle(jobs)
        first, rest = jobs[:-1], jobs[-1:]
        unique += jobs
        batch1 += first + [rng.choice(first)]
        batch2 += [rng.choice(first)] + rest
        warm.append(rng.choice(first))
    rng.shuffle(batch1)
    rng.shuffle(batch2)
    return {"unique": unique, "batch1": batch1, "batch2": batch2, "warm": warm}
