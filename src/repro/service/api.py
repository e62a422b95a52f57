"""The batch compilation engine: cache-aware fan-out over the worker pool.

:func:`run_compile_jobs` is the engine behind
:meth:`repro.api.ChassisSession.compile_many`.  It layers the persistent
cache over the session's worker pool:

1. every job is fingerprinted, and specs sharing a fingerprint are
   coalesced: the first is the *primary*, later ones are *followers*;
2. each distinct fingerprint is looked up once in the cache (parent
   process, so hit/miss stats are centralized and workers stay
   cache-free);
3. primary misses are fanned out over the worker pool (or run inline
   when there is no pool, and for targets not resolvable from the
   registry by name — custom targets hold unpicklable closures);
4. fresh results are stored back (unless a saturation stopped on the wall
   clock), followers copy their primary's outcome, and every ok outcome
   carries both the JSON payload (for reports) and the deserialized
   :class:`~repro.core.pipeline.CompileResult` (for re-scoring).

Cached, coalesced and freshly-compiled outcomes are indistinguishable
apart from the ``cached`` flag: all are round-tripped through the same
serialization, so a warm run reproduces a cold run's report
byte-for-byte.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterable, Sequence, TypeAlias

from ..accuracy.sampler import SampleConfig, SampleSet
from ..core.loop import CompileConfig
from ..egraph.stats import stopped_on_wall_clock
from ..ir.fpcore import FPCore
from ..rival.backends import resolve_backend_name
from ..targets import get_target
from ..targets.target import Target
from .cache import CompileCache, job_fingerprint, target_fingerprint
from .results import core_to_source, result_from_dict
from .scheduler import BatchJob, JobOutcome, job_event, run_job

#: A unit of requested work: a benchmark plus a target (object or registry
#: name), optionally with pre-computed samples (see :func:`run_compile_jobs`).
JobSpec: TypeAlias = (
    tuple[FPCore, "Target | str"] | tuple[FPCore, "Target | str", "SampleSet | None"]
)


def _resolve_target(target: Target | str) -> Target:
    return get_target(target) if isinstance(target, str) else target


def _poolable(target: Target) -> bool:
    """A job can cross process boundaries only if the worker can rebuild
    exactly the same target from the registry by name."""
    try:
        registered = get_target(target.name)
    except (KeyError, ValueError):
        return False
    return registered is target or target_fingerprint(registered) == target_fingerprint(
        target
    )


def run_compile_jobs(
    specs: Sequence[JobSpec],
    config: CompileConfig | None = None,
    sample_config: SampleConfig | None = None,
    cache: CompileCache | str | None = None,
    timeout: float | None = None,
    progress=None,
    inline_lock=None,
    pool=None,
    trace: bool = False,
    ledger=None,
) -> list[JobOutcome]:
    """Compile many (benchmark, target) pairs; returns outcomes in order.

    Each distinct job fingerprint is looked up once and compiled at most
    once per call.  The first spec with a fingerprint is its *primary*;
    every later one is a *follower* that never reaches the cache, the
    scheduler or a worker and gets the primary's outcome under its own
    ``index``: an ok primary yields a ``cached`` follower with the same
    payload (no ``elapsed``/``engine``/``oracle``/``trace``), a failed or
    timed-out one a follower with the same status and error.

    A spec is ``(core, target)`` or ``(core, target, samples)`` — the
    optional :class:`~repro.accuracy.sampler.SampleSet` skips per-job
    sampling and MUST equal what ``sample_core(core, sample_config)``
    would produce (samples are seeded, so precomputing them is purely an
    optimization; the cache fingerprint assumes this equality).

    ``cache`` may be a :class:`CompileCache` or a directory path; ``None``
    disables caching.  ``timeout`` bounds each individual compilation in
    seconds.  ``pool``, when given, is a persistent
    :class:`~repro.service.pool.WorkerPool` that registry-target cache
    misses are dispatched through — even single-job batches, since its
    workers are already warm (sessions with ``jobs >= 2`` pass their own).

    Every other cache miss runs *inline* in the calling thread, in spec
    order.  mpmath precision is process-global, so concurrent callers must
    pass the same ``inline_lock`` to serialize those sections
    (pool-dispatched work is unaffected).  Going through
    :meth:`repro.api.ChassisSession.compile_many` does this for you.

    ``trace=True`` asks each freshly-compiled job — wherever it runs —
    to record a span trace, returned on ``JobOutcome.trace`` (cache hits
    have none: no phases ran).  Engine counters come back on
    ``JobOutcome.engine`` unconditionally.

    ``ledger``, when given, is a provenance journal (anything with
    :meth:`~repro.provenance.ledger.ProvenanceLedger.record_job`; taken
    duck-typed so this module never imports the provenance layer): one
    ``"batch"`` record is appended per job — hits in the lookup loop,
    fresh results as outcomes are rebuilt, ok followers as ``"hit"``
    records after their primary's — always in the *parent* process;
    workers never touch the journal.  Failed followers add no record.
    A fresh result whose saturation stopped on the wall-clock
    ``time_limit`` is never stored in the cache and is journaled as
    ``"bypass"``.
    """
    config = config or CompileConfig()
    sample_config = sample_config or SampleConfig()
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if isinstance(cache, str):
        cache = CompileCache(cache)

    resolved: list[tuple[FPCore, Target, str, object]] = []
    for spec in specs:
        core, target = spec[0], _resolve_target(spec[1])
        samples = spec[2] if len(spec) > 2 else None
        resolved.append(
            (core, target, job_fingerprint(core, target, config, sample_config), samples)
        )

    outcomes: list[JobOutcome | None] = [None] * len(resolved)
    pool_batch: list[BatchJob] = []
    inline_jobs: list[tuple[BatchJob, Target]] = []
    # Fingerprint -> index of its first spec (the primary); later specs
    # with the same fingerprint are followers and never run.
    primaries: dict[str, int] = {}
    followers: list[int] = []
    # What run_job will resolve for itself, wherever it runs; stamped
    # into records.
    oracle_backend = resolve_backend_name() if ledger is not None else ""

    for index, (core, target, fingerprint, samples) in enumerate(resolved):
        if fingerprint in primaries:
            followers.append(index)
            continue
        primaries[fingerprint] = index
        if cache is not None:
            payload = cache.get(fingerprint)
            if payload is not None:
                benchmark = core.name or "<anonymous>"
                outcomes[index] = JobOutcome(
                    index=index,
                    benchmark=benchmark,
                    target=target.name,
                    status="ok",
                    fingerprint=fingerprint,
                    cached=True,
                    payload=payload,
                )
                if progress is not None:
                    progress(job_event(index, benchmark, target.name, cached=True))
                if ledger is not None:
                    ledger.record_job(
                        "batch", core, target, config, sample_config,
                        fingerprint, cache="hit",
                        oracle_backend=oracle_backend,
                    )
                continue
        job = BatchJob(
            index, core_to_source(core), target.name,
            samples=samples, timeout=timeout, trace=trace,
            config=config, sample_config=sample_config,
        )
        if pool is not None and _poolable(target):
            pool_batch.append(job)
        else:
            inline_jobs.append((job, target))

    raw: list[dict] = []
    if pool_batch:
        raw.extend(pool.run_batch(pool_batch, progress))
    if inline_jobs:
        with inline_lock if inline_lock is not None else nullcontext():
            for job, target in inline_jobs:
                outcome = run_job(job, target=target)
                if progress is not None:
                    progress(outcome)
                raw.append(outcome)

    for outcome_dict in raw:
        index = outcome_dict["index"]
        core, target, fingerprint, _samples = resolved[index]
        outcome = JobOutcome(
            index=index,
            # Label from the parent's core, not the worker's re-parse, so
            # cold and warm (cache-hit) runs agree on benchmark identity.
            benchmark=core.name or "<anonymous>",
            target=outcome_dict["target"],
            status=outcome_dict["status"],
            fingerprint=fingerprint,
            cached=False,
            elapsed=outcome_dict["elapsed"],
            error_type=outcome_dict["error_type"],
            error=outcome_dict["error"],
            payload=outcome_dict["payload"],
            engine=outcome_dict.get("engine"),
            oracle=outcome_dict.get("oracle"),
            trace=outcome_dict.get("trace"),
        )
        # A saturation cut short by the wall clock makes the frontier
        # depend on machine load: share it in this call, never cache it.
        stored = (
            outcome.ok and cache is not None
            and not stopped_on_wall_clock(outcome.engine)
        )
        if stored:
            cache.put(fingerprint, outcome.payload)
        if ledger is not None:
            ledger.record_job(
                "batch", core, target, config, sample_config, fingerprint,
                cache=(
                    "store" if stored
                    else "bypass" if outcome.ok and cache is not None
                    else "none"
                ),
                status=outcome.status,
                elapsed=outcome.elapsed,
                engine=outcome.engine,
                oracle=outcome.oracle,
                oracle_backend=oracle_backend,
                error_type=outcome.error_type or None,
            )
        outcomes[index] = outcome

    for index in followers:
        core, target, fingerprint, _samples = resolved[index]
        primary = outcomes[primaries[fingerprint]]
        assert primary is not None, f"job {index} has no primary outcome"
        # An ok follower reads as a hit (the primary did the work); a
        # failed one repeats the failure, so /health counts it as one.
        outcome = JobOutcome(
            index=index,
            benchmark=core.name or "<anonymous>",
            target=target.name,
            status=primary.status,
            fingerprint=fingerprint,
            cached=primary.ok,
            error_type=primary.error_type,
            error=primary.error,
            payload=primary.payload,
        )
        if progress is not None:
            progress(job_event(
                index, outcome.benchmark, outcome.target, outcome.status,
                cached=outcome.cached, error_type=outcome.error_type,
                error=outcome.error,
            ))
        if ledger is not None and outcome.ok:
            # Lineage resolves through the primary's fresh record.
            ledger.record_job(
                "batch", core, target, config, sample_config, fingerprint,
                cache="hit", oracle_backend=oracle_backend,
            )
        outcomes[index] = outcome

    final: list[JobOutcome] = []
    for index, outcome in enumerate(outcomes):
        assert outcome is not None, f"job {index} produced no outcome"
        if outcome.ok and outcome.payload is not None:
            outcome.result = result_from_dict(outcome.payload, resolved[index][1])
        final.append(outcome)
    return final


def iter_ok_results(outcomes: Iterable[JobOutcome]):
    """Yield (outcome, CompileResult) for every successful job."""
    for outcome in outcomes:
        if outcome.ok and outcome.result is not None:
            yield outcome, outcome.result
