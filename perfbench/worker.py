"""One benchmark worker process: set up, measure a share of a workload.

Started by ``run.py`` with ``PYTHONHASHSEED`` pinned and ``src`` on the
path; prints one JSON object as its last stdout line.  Not meant to be run
by hand (see ``run.py``).

Set-up is what a fresh process pays before it can answer its first
request: importing the compiler, opening a session (and, for
``batch-cached``, starting its worker pool) and compiling one warm-up core
that is not part of any measured job list.  The warm-up result doubles as
a determinism probe: every worker of a run compiles it under a different
hash seed, and ``run.py`` requires identical digests and counts.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import plan  # noqa: E402  (benchmark-local module next to this file)


def digest_payload(payload: dict) -> str:
    """Digest of a serialized compile result, minus its wall-clock field."""
    stable = {key: value for key, value in payload.items() if key != "elapsed"}
    blob = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def quality(result) -> tuple[float, float | None]:
    """(best test error in bits, speedup at the input's error or None).

    The speedup is the input program's cost over the cost of the cheapest
    frontier program whose test error is no worse than the input's.
    """
    best = result.frontier.best_error().error
    bound = result.input_candidate.error
    eligible = [c.cost for c in result.frontier if c.error <= bound]
    speedup = result.input_candidate.cost / min(eligible) if eligible else None
    return best, speedup


def peak_rss_mb(pids=()) -> float:
    """Peak resident set of this process and of ``pids`` (live children)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def children_cpu_s(pids) -> float:
    """User+system CPU seconds used so far by live child processes."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def work_counts(session) -> dict:
    """Running totals of the work counters visible without tracing."""
    from layers import synth_oracle

    engine = session.stats.engine
    return {
        "saturate.enodes_built": engine.enodes_built,
        "saturate.matches_applied": engine.matches_applied,
        "saturate.runs": engine.saturations,
        "oracle.scalar_evals": session.evaluator.evals,
        "oracle.scalar_evals.synth": synth_oracle().evals,
    }


def compile_job(session, core, target, traced: bool) -> dict:
    """Compile one core in ``session``; timing, digest, counts, quality."""
    from repro.obs.trace import Trace, tracing
    from repro.service.results import result_to_dict

    before = work_counts(session)
    trace = Trace(name=f"{core.name}@{target}")
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    try:
        with tracing(trace) if traced else nullcontext():
            result = session.compile(core, target)
    except Exception as exc:  # a failed job is data, reported per job
        return {
            "core": core.name, "target": target, "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "wall": time.perf_counter() - start_wall,
            "cpu": time.process_time() - start_cpu,
        }
    wall = time.perf_counter() - start_wall
    cpu = time.process_time() - start_cpu
    best, speedup = quality(result)
    return {
        "core": core.name, "target": target, "status": "ok",
        "wall": wall, "cpu": cpu,
        "digest": digest_payload(result_to_dict(result)),
        "counts": {
            key: value - before[key] for key, value in work_counts(session).items()
        },
        "best_error": best, "speedup": speedup,
        "trace": trace.as_dict() if traced else None,
        "_result": result,
    }


def validation_record(session, core, target, candidate) -> dict:
    """Execute ``candidate``'s emitted code and cross-check it.

    Agreement means the executed error matches both the machine-evaluated
    error (``ValidationReport.ok``) and the error the compiler reported
    for the program on the same test points.
    """
    report = session.validate(core, target, program=candidate.program)
    agrees = report.ok and abs(report.executed_bits - candidate.error) <= 0.5
    return {
        "core": core.name, "target": target, "backend": report.backend,
        "executed_bits": report.executed_bits,
        "reported_bits": candidate.error, "ok": agrees,
    }


# --- suites ----------------------------------------------------------------------------


def run_suite(args, target: str) -> dict:
    from repro.api import ChassisSession
    from repro.benchsuite import core_named
    from repro.obs.trace import Trace, tracing

    import layers

    session = ChassisSession()
    warm = compile_job(session, core_named(plan.WARMUP_CORE), target, traced=False)
    ready = time.monotonic()
    out = {"ready": ready, "warmup": _probe(warm)}
    mine = [core_named(name) for name in plan.suite_share(args.seed, args.share, args.shares)]
    jobs: list[dict] = []
    if args.trace:
        # Each core is compiled untraced (unwrapped) and traced (wrapped),
        # in fresh sessions, alternating which goes first, so the wall
        # ratio is the tracing overhead and the digests must agree.
        untraced_session, traced_session = session, ChassisSession()
        for index, core in enumerate(mine):
            order = (False, True) if index % 2 == 0 else (True, False)
            for traced in order:
                with layers.installed() if traced else nullcontext():
                    job = compile_job(
                        traced_session if traced else untraced_session,
                        core, target, traced,
                    )
                job["traced"] = traced
                jobs.append(job)
        first_pass, validator = [j for j in jobs if j["traced"]], traced_session
    else:
        # Whole passes over this worker's cores, so every run times the
        # same multiset of jobs; another pass only if it fits the share.
        deadline = ready + args.seconds / args.shares
        rng = random.Random(plan.derive(args.seed, "repeat", args.share))
        order, pass_session = list(mine), session
        while True:
            pass_start = time.monotonic()
            for core in order:
                job = compile_job(pass_session, core, target, traced=False)
                job["traced"] = False
                jobs.append(job)
            if pass_session is not session:
                pass_session.close()
            if 2 * time.monotonic() - pass_start > deadline:
                break
            # A fresh session, so sampling is redone like the first time.
            rng.shuffle(order)
            pass_session = ChassisSession()
        first_pass, validator = jobs[: len(mine)], session
    out["rss_mb"] = peak_rss_mb()
    validate_trace = Trace(name="validate")
    with tracing(validate_trace) if args.trace else nullcontext():
        out["validations"] = [
            validation_record(
                validator, core_named(job["core"]), target,
                job["_result"].frontier.best_error(),
            )
            for job in first_pass if job["status"] == "ok"
        ]
    if args.trace:
        out["validate_trace"] = validate_trace.as_dict()
    session.close()
    out["jobs"] = [_public(job) for job in jobs]
    return out


def _probe(job: dict) -> dict:
    return {"digest": job.get("digest"), "counts": job.get("counts"),
            "status": job["status"]}


def _public(job: dict) -> dict:
    return {key: value for key, value in job.items() if not key.startswith("_")}


# --- batch-cached ------------------------------------------------------------------------


def _outcome_record(outcome) -> dict:
    record = {
        "core": outcome.benchmark, "target": outcome.target,
        "status": outcome.status, "cached": outcome.cached,
        "fingerprint": outcome.fingerprint, "elapsed": outcome.elapsed,
    }
    if outcome.ok:
        record["digest"] = digest_payload(outcome.payload)
    if outcome.ok and not outcome.cached:
        # Oracle counts are left out: a batch samples a core once for all
        # its targets, so they depend on which jobs share a batch.
        engine = outcome.engine or {}
        record["counts"] = {
            "saturate.enodes_built": engine.get("enodes_built", 0),
            "saturate.matches_applied": engine.get("matches_applied", 0),
            "saturate.runs": engine.get("saturations", 0),
        }
    if outcome.ok and outcome.result is not None:
        best, speedup = quality(outcome.result)
        record["best_error"], record["speedup"] = best, speedup
    return record


def batch_scenario(session, jobs_plan: dict, traced: bool) -> dict:
    """Two overlapping ``compile_many`` batches, then warm single hits."""
    from repro.benchsuite import core_named
    from repro.obs.trace import Trace, tracing

    def specs(pairs):
        return [(core_named(name), target) for name, target in pairs]

    parent_trace = Trace(name="batch-parent")
    pids = session.worker_pool().worker_pids()
    cpu0 = time.process_time() + children_cpu_s(pids)
    outcomes = []
    with tracing(parent_trace) if traced else nullcontext():
        start = time.perf_counter()
        batches = []
        for batch in (jobs_plan["batch1"], jobs_plan["batch2"]):
            batch_start = time.perf_counter()
            result = session.compile_many(specs(batch), trace=traced)
            batches.append((time.perf_counter() - batch_start, result))
            outcomes += result
        wall = time.perf_counter() - start
        cpu = time.process_time() + children_cpu_s(pids) - cpu0
        hits = []
        for pair in jobs_plan["warm"]:
            hit_start = time.perf_counter()
            [hit] = session.compile_many(specs([pair]))
            hits.append(time.perf_counter() - hit_start)
            if not hit.cached:
                raise RuntimeError(f"expected a warm hit for {pair}")
    workers = session.jobs
    pool_overhead = sum(
        batch_wall - sum(o.elapsed for o in result if not o.cached) / workers
        for batch_wall, result in batches
    )
    traces = [o.trace for o in outcomes if o.trace] + [parent_trace.as_dict()]
    return {
        "outcomes": outcomes, "wall": wall, "cpu": cpu, "warm_hits": hits,
        "pool_overhead_s": pool_overhead, "rss_mb": peak_rss_mb(pids),
        "traces": traces if traced else [],
    }


def run_batch(args) -> dict:
    from repro.api import ChassisSession
    from repro.benchsuite import core_named
    from repro.core.transcribe import transcribable
    from repro.obs.trace import Trace, tracing
    from repro.targets import get_target

    import layers

    caches = itertools.count()
    warm_job = [(core_named(plan.WARMUP_CORE), "c99")]

    def fresh_session():
        """A session on a new cache; its pool starts on the warm-up job."""
        cache = os.path.join(args.workdir, f"cache-{args.share}-{next(caches)}")
        shutil.rmtree(cache, ignore_errors=True)
        session = ChassisSession(cache=cache, jobs=plan.BATCH_WORKERS)
        return session, session.compile_many(warm_job)[0]

    session, warm_outcome = fresh_session()
    ready = time.monotonic()
    out = {"ready": ready, "warmup": _probe(_outcome_record(warm_outcome))}

    avx = get_target("avx")
    cores = plan.batch_cores()
    kept = [
        name for name in cores
        if transcribable(core_named(name).body, avx, core_named(name).precision)
    ]
    jobs_plan = plan.batch_plan(args.seed, kept)
    out["avx_filtered"] = sorted(set(cores) - set(kept))
    out["plan"] = {key: len(value) for key, value in jobs_plan.items()}

    # Whole scenarios until this worker's share of the run is used; each
    # repeat gets a new session and cache so it starts cold again.
    runs = []
    deadline = ready + args.seconds / args.shares
    while True:
        started = time.monotonic()
        runs.append(("untraced", batch_scenario(session, jobs_plan, traced=False)))
        if args.trace or 2 * time.monotonic() - started > deadline:
            break
        session.close()
        session, _ = fresh_session()

    if args.share == args.shares - 1:
        # Validation results do not depend on the worker; one suffices.
        best_by_job = {}
        for outcome in runs[0][1]["outcomes"]:
            if outcome.ok and outcome.result is not None:
                best_by_job.setdefault(
                    (outcome.benchmark, outcome.target),
                    outcome.result.frontier.best_error(),
                )
        validate_trace = Trace(name="validate")
        with tracing(validate_trace) if args.trace else nullcontext():
            out["validations"] = [
                validation_record(session, core_named(name), target, best)
                for (name, target), best in sorted(best_by_job.items())
            ]
        if args.trace:
            out["validate_trace"] = validate_trace.as_dict()
    session.close()

    if args.trace:
        # The wrappers go in before the traced session's pool exists, and
        # with no other pool alive, so its workers fork with them in place.
        with layers.installed():
            traced_session, _ = fresh_session()
            runs.append(("traced", batch_scenario(traced_session, jobs_plan, True)))
            traced_session.close()

    out["scenarios"] = [
        {
            "label": label,
            "outcomes": [_outcome_record(o) for o in run["outcomes"]],
            **{key: run[key] for key in
               ("wall", "cpu", "warm_hits", "pool_overhead_s", "rss_mb", "traces")},
        }
        for label, run in runs
    ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--share", type=int, required=True)
    parser.add_argument("--shares", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    if args.workload == "batch-cached":
        out = run_batch(args)
    else:
        out = run_suite(args, plan.SUITE_TARGETS[args.workload])
    out["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
