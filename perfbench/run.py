"""Repeated, per-layer compile benchmark for the Chassis reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload suite-c99 --seed 1 --seconds 20 --trace 0

Workloads (see ``plan.py`` for the job plans, ``README.md`` for the
layer table):

* ``suite-c99``    -- 20 curated cores compiled one at a time for ``c99``
  in warm in-process sessions, no persistent cache.  Saturation-heavy.
* ``suite-fdlibm`` -- the same cores for ``fdlibm``; synthesized-operator
  scoring and localization carry more of the weight.
* ``batch-cached`` -- ``ChassisSession(cache=..., jobs=2).compile_many``
  over two overlapping batches of (core, target) jobs on ``c99``,
  ``fdlibm`` and ``avx``, then warm single-job hits.

Every run starts one worker process per hash seed in ``--hash-seeds``,
one after another, each with ``PYTHONHASHSEED`` pinned.  Each worker sets
up (import, session, warm-up compile; ``setup_s`` is the median over the
workers) and the suites split their job list over the workers, so every
run averages over the same hash layouts.  ``batch-cached`` measures in the
last worker only.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` compiles every
job untraced and traced (wrapping each layer's public function, see
``layers.py``) and prints the per-layer metrics, the tracing overhead and
the share of ``phase.improve`` the improve layers account for.  It also
writes a Chrome trace and the layer table under ``.perfbench/``.

Correctness: every job's most accurate program is executed through
``session.validate`` (C via ``cc``, or the Python backend) against the
oracle; its executed error must match the reported one.  Determinism:
frontier digests and work counts of every job are recorded per source
tree in ``.perfbench/`` and must match on every later run of the same
code, traced or not, and across the workers' hash seeds.  Any failure
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import plan  # noqa: E402

STATE_DIR = ".perfbench"
#: Wall-clock cap for one worker process; the whole run must end in 180s.
WORKER_TIMEOUT_S = 150.0
#: Share of ``phase.improve`` the improve-layer spans must cover.
MIN_IMPROVE_COVERAGE = 0.90


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile (``q`` in (0, 1)).

    A Beta-weighted average of all order statistics: with 20-60 samples
    of unevenly spaced job times it moves far less between runs than the
    one or two order statistics a plain percentile picks.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 200
    weights = []
    for i in range(n):
        # Midpoint-rule mass of the Beta(a, b) density on [i/n, (i+1)/n].
        weights.append(sum(
            math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
            for t in ((i + (k + 0.5) / steps) / n for k in range(steps))
        ))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def source_digest(root: str) -> str:
    """Digest of every file under ``src/``: the code a record belongs to."""
    sha = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            sha.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                sha.update(handle.read())
    return sha.hexdigest()[:16]


# --- worker processes ---------------------------------------------------------------------


def run_workers(args, root: str, workdir: str) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = workdir
    seeds = args.hash_seeds
    results = []
    for share, hash_seed in enumerate(seeds):
        env["PYTHONHASHSEED"] = str(hash_seed)
        command = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--share", str(share), "--shares", str(len(seeds)),
            "--workdir", workdir,
        ]
        spawned = time.monotonic()
        # Own process group, so a worker that overruns is killed together
        # with the compile pool it forked.
        proc = subprocess.Popen(
            command, cwd=root, env=env, text=True, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"worker {share} ran past {WORKER_TIMEOUT_S}s")
        if proc.returncode != 0:
            sys.stderr.write(stderr)
            raise RuntimeError(
                f"worker {share} (PYTHONHASHSEED={hash_seed}) exited "
                f"{proc.returncode}"
            )
        result = json.loads(stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        results.append(result)
    return results


# --- determinism --------------------------------------------------------------------------


class DeterminismLedger:
    """Per-job digests and counts recorded for one source tree.

    Every job a run compiles is checked against what earlier runs of the
    same code recorded (any seed, traced or not) and against repeats of
    itself within the run; new entries are added after a clean run.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path) as handle:
                self.entries = json.load(handle)
        except (OSError, ValueError):
            self.entries = {}
        self.problems: list[str] = []

    def check(self, key: str, digest: str | None, counts: dict | None) -> None:
        if digest is None:
            return
        entry = self.entries.get(key)
        if entry is None:
            self.entries[key] = {"digest": digest, "counts": dict(counts or {})}
            return
        if entry["digest"] != digest:
            self.problems.append(
                f"frontier digest drift on {key}: {entry['digest']} != {digest}"
            )
        for name, value in (counts or {}).items():
            recorded = entry["counts"].get(name)
            if recorded is None:
                entry["counts"][name] = value
            elif recorded != value:
                self.problems.append(
                    f"count drift on {key} {name}: {recorded} != {value}"
                )

    def save(self) -> None:
        temporary = self.path + ".tmp"
        with open(temporary, "w") as handle:
            json.dump(self.entries, handle, sort_keys=True)
        os.replace(temporary, self.path)


def traced_counts(trace: dict) -> dict:
    """Per-job counts only a traced compile can see."""
    import layers

    found = layers.attribute([trace])
    return {
        "isel.calls": found["calls"].get("isel", 0),
        "score.train_programs": found["calls"].get("score.train", 0),
        "oracle.scalar_evals.localize": found["counts"].get("localize.evals", 0),
        "oracle.scalar_evals.sample": found["counts"].get("sample.evals", 0),
    }


# --- metrics ------------------------------------------------------------------------------


def quality_metrics(records: list[dict]) -> dict:
    """Quality over the unique jobs (first occurrence of each)."""
    seen = {}
    for record in records:
        if record.get("status") == "ok" and "best_error" in record:
            seen.setdefault((record["core"], record["target"]), record)
    speedups = [r["speedup"] for r in seen.values() if r["speedup"]]
    return {
        "best_error_bits.mean": statistics.fmean(r["best_error"] for r in seen.values()),
        "speedup_at_input_error.geomean": geomean(speedups),
    }


def validated_frac(validations: list[dict]) -> float:
    if not validations:
        return 0.0
    return sum(1 for v in validations if v["ok"]) / len(validations)


def end_to_end_suite(workers: list[dict]) -> tuple[dict, int, int]:
    jobs = [job for w in workers for job in w["jobs"] if not job["traced"]]
    ok = [job for job in jobs if job["status"] == "ok"]
    walls = [job["wall"] for job in ok]
    metrics = {
        "jobs_per_s": len(jobs) / sum(job["wall"] for job in jobs),
        "job_s.p50": percentile(walls, 0.5),
        "job_s.p90": percentile(walls, 0.9),
        "cpu_s_per_job": sum(job["cpu"] for job in jobs) / len(jobs),
        "peak_rss_mb": max(w["rss_mb"] for w in workers),
        "completed_frac": len(ok) / len(jobs),
        **quality_metrics(ok),
        "validated_frac": validated_frac([v for w in workers for v in w["validations"]]),
        "_samples": len(walls),
    }
    return metrics, len(jobs), len(jobs) - len(ok)


def scenarios(workers: list[dict], label: str) -> list[dict]:
    return [s for w in workers for s in w["scenarios"] if s["label"] == label]


def end_to_end_batch(workers: list[dict]) -> tuple[dict, int, int]:
    runs = scenarios(workers, "untraced")
    outcomes = [o for run in runs for o in run["outcomes"]]
    ok = [o for o in outcomes if o["status"] == "ok"]
    # Latency over each scenario's unique jobs: which jobs the seed repeats
    # must not move the percentiles (repeats show in jobs_per_s and in
    # batch.redundant_compiles).
    fresh = [
        first["elapsed"] for run in runs
        for first in {
            o["fingerprint"]: o for o in reversed(run["outcomes"])
            if o["status"] == "ok" and not o["cached"]
        }.values()
    ]
    metrics = {
        "jobs_per_s": len(outcomes) / sum(run["wall"] for run in runs),
        "job_s.p50": percentile(fresh, 0.5),
        "job_s.p90": percentile(fresh, 0.9),
        "cpu_s_per_job": sum(run["cpu"] for run in runs) / len(outcomes),
        "peak_rss_mb": max(run["rss_mb"] for run in runs),
        "completed_frac": len(ok) / len(outcomes),
        **quality_metrics(ok),
        "validated_frac": validated_frac(
            [v for w in workers for v in w.get("validations", [])]
        ),
        "_samples": len(fresh),
    }
    return metrics, len(outcomes), len(outcomes) - len(ok)


def redundant_compiles(outcomes: list[dict]) -> int:
    """Fresh compiles of a job fingerprint already compiled in the run."""
    compiled: set[str] = set()
    redundant = 0
    for outcome in outcomes:
        if outcome["status"] != "ok" or outcome["cached"]:
            continue
        if outcome["fingerprint"] in compiled:
            redundant += 1
        compiled.add(outcome["fingerprint"])
    return redundant


def per_layer(traces: list[dict], extra: dict) -> dict:
    import layers

    found = layers.attribute(traces)
    self_s, calls, counts, stops = (
        found["self_s"], found["calls"], found["counts"], found["stops"],
    )
    sample_calls = calls.get("sample", 0)
    points = counts.get("sample.batch_points", 0)
    metrics = {
        "sample.s": self_s.get("sample", 0.0),
        "sample.calls": sample_calls,
        "sample.acceptance": (
            counts.get("sample.acceptance", 0.0) / sample_calls if sample_calls else 0.0
        ),
        "oracle.batch_points": points,
        "oracle.fastpath_frac": (
            counts.get("sample.fastpath_hits", 0) / points if points else 0.0
        ),
        "oracle.scalar_evals.sample": counts.get("sample.evals", 0),
        "localize.s": self_s.get("localize", 0.0),
        "localize.calls": calls.get("localize", 0),
        "oracle.scalar_evals.localize": counts.get("localize.evals", 0),
        "opportunity.s": self_s.get("opportunity", 0.0),
        "isel.s": self_s.get("isel", 0.0),
        "isel.calls": calls.get("isel", 0),
        "saturate.s": self_s.get("saturate", 0.0),
        "saturate.calls": calls.get("saturate", 0),
        "saturate.enodes_built": counts.get("saturate.enodes_built", 0),
        "saturate.matches_applied": counts.get("saturate.matches_applied", 0),
        **{f"saturate.stop.{reason}": n for reason, n in stops.items()},
        "extract.s": self_s.get("extract", 0.0),
        "extract.variants": counts.get("extract.variants", 0),
        "series.s": self_s.get("series", 0.0),
        "regimes.s": self_s.get("regimes", 0.0),
        "score.train_s": self_s.get("score.train", 0.0),
        "score.train_programs": calls.get("score.train", 0),
        "score.test_s": self_s.get("score.test", 0.0),
        "synth.s": counts.get("synth.s", 0.0),
        "oracle.scalar_evals.synth": counts.get("synth.evals", 0),
        "cache.get_s": self_s.get("cache.get", 0.0),
        "cache.put_s": self_s.get("cache.put", 0.0),
        "ledger.append_s": self_s.get("ledger.append", 0.0),
        "ledger.records": calls.get("ledger.append", 0),
        "exec.build_s": self_s.get("exec.build", 0.0),
        "validate.s": self_s.get("validate", 0.0),
        "validate.programs": calls.get("validate", 0),
        "improve.s": found["improve_s"],
        "improve.coverage": (
            found["improve_covered_s"] / found["improve_s"]
            if found["improve_s"] else 0.0
        ),
        "cache.hit_frac": 0.0,
        "pool.overhead_s": 0.0,
        "batch.redundant_compiles": 0,
        "warm_hit_s.p50": 0.0,
    }
    metrics.update(extra)
    return metrics


# --- main ---------------------------------------------------------------------------------


def check_determinism(args, workers, ledger: DeterminismLedger) -> None:
    for worker in workers:
        ledger.check(
            f"warmup|{args.workload}", worker["warmup"]["digest"],
            worker["warmup"]["counts"],
        )
        if worker["warmup"]["status"] != "ok":
            ledger.problems.append(f"warm-up compile failed: {worker['warmup']}")
    for worker in workers:
        if args.workload == "batch-cached":
            for scenario in worker["scenarios"]:
                for outcome in scenario["outcomes"]:
                    ledger.check(
                        f"{args.workload}|{outcome['core']}|{outcome['target']}",
                        outcome.get("digest"), outcome.get("counts"),
                    )
            continue
        for job in worker["jobs"]:
            if job["status"] != "ok":
                continue
            counts = dict(job["counts"])
            if job.get("trace"):
                counts.update(traced_counts(job["trace"]))
            ledger.check(
                f"{args.workload}|{job['core']}|{job['target']}",
                job["digest"], counts,
            )


def format_table(title: str, metrics: dict, units: dict) -> str:
    lines = [title]
    for name, value in metrics.items():
        if name.startswith("_"):
            continue
        lines.append(f"  {name:<34} {value:>14.6g} {units.get(name, '')}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repeated, per-layer compile benchmark (see module doc)."
    )
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--hash-seeds", default="0,1,2",
        help="PYTHONHASHSEED of each worker process, comma-separated",
    )
    args = parser.parse_args(argv)
    args.hash_seeds = [int(s) for s in args.hash_seeds.split(",")]

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    state = os.path.join(root, STATE_DIR)
    os.makedirs(state, exist_ok=True)
    workdir = os.path.join(state, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workers = run_workers(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = DeterminismLedger(
        os.path.join(state, f"determinism-{source_digest(root)}.json")
    )
    problems: list[str] = []
    check_determinism(args, workers, ledger)
    setup_s = statistics.median(w["setup_s"] for w in workers)

    if args.workload == "batch-cached":
        e2e, attempted, failed = end_to_end_batch(workers)
    else:
        e2e, attempted, failed = end_to_end_suite(workers)
    e2e["setup_s"] = setup_s
    if e2e["validated_frac"] < 1.0:
        bad = [w for w in workers for w in w.get("validations", []) if not w["ok"]]
        problems.append(f"validated_frac {e2e['validated_frac']:.3f} < 1: {bad}")

    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer_names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    units = dict(end_to_end + layer_names)
    report = [format_table(
        f"{args.workload} seed={args.seed} end-to-end "
        f"({e2e['_samples']} timed jobs; hash seeds {args.hash_seeds}, set-up "
        + ", ".join(f"{w['setup_s']:.3f}" for w in workers) + " s)",
        {name: e2e[name] for name, _unit in end_to_end}, units,
    )]
    if args.workload == "batch-cached":
        report.append(
            f"  plan {workers[-1]['plan']}; filtered out (avx cannot "
            f"transcribe): {', '.join(workers[-1]['avx_filtered']) or 'none'}"
        )
    if args.trace:
        layer_metrics = traced_metrics(args, workers, problems)
        report.append(format_table("per-layer (traced)", layer_metrics, units))
        write_artifacts(args, root, state, workers, "\n".join(report))
        metrics, chosen = layer_metrics, layer_names
    else:
        metrics, chosen = e2e, end_to_end

    problems = ledger.problems + problems
    if problems:
        report.append("FAILED:\n  " + "\n  ".join(problems))
    else:
        ledger.save()
    print("\n".join(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in chosen
        },
    }))
    return 1 if problems else 0


def traced_metrics(args, workers: list[dict], problems: list[str]) -> dict:
    validate_traces = [w["validate_trace"] for w in workers if w.get("validate_trace")]
    if args.workload == "batch-cached":
        untraced, traced = scenarios(workers, "untraced"), scenarios(workers, "traced")
        outcomes = [o for run in untraced for o in run["outcomes"]]
        extra = {
            "cache.hit_frac": sum(o["cached"] for o in outcomes) / len(outcomes),
            "pool.overhead_s": statistics.median(r["pool_overhead_s"] for r in untraced),
            "batch.redundant_compiles": statistics.median(
                redundant_compiles(run["outcomes"]) for run in untraced
            ),
            "warm_hit_s.p50": statistics.median(
                hit for run in untraced for hit in run["warm_hits"]
            ),
            "trace_overhead_frac": sum(r["wall"] for r in traced)
            / sum(r["wall"] for r in untraced) - 1.0,
        }
        traces = [t for run in traced for t in run["traces"]]
        return per_layer(traces + validate_traces, extra)
    jobs = [job for w in workers for job in w["jobs"]]
    traced = [job for job in jobs if job["traced"]]
    untraced_wall = sum(job["wall"] for job in jobs if not job["traced"])
    extra = {
        "trace_overhead_frac":
            sum(job["wall"] for job in traced) / untraced_wall - 1.0,
    }
    traces = [job["trace"] for job in traced if job.get("trace")]
    metrics = per_layer(traces + validate_traces, extra)
    if metrics["improve.coverage"] < MIN_IMPROVE_COVERAGE:
        problems.append(
            f"improve-layer spans cover {metrics['improve.coverage']:.3f} of "
            f"phase.improve, below {MIN_IMPROVE_COVERAGE}"
        )
    return metrics


def write_artifacts(args, root, state, workers, table: str) -> None:
    """The Chrome trace of the traced jobs and the printed layer table."""
    from repro.obs.trace import write_chrome_trace

    if args.workload == "batch-cached":
        traces = [t for run in scenarios(workers, "traced") for t in run["traces"]]
    else:
        traces = [j["trace"] for w in workers for j in w["jobs"] if j.get("trace")]
    stem = os.path.join(state, f"{args.workload}-seed{args.seed}")
    write_chrome_trace(stem + ".trace.json", traces)
    with open(stem + ".layers.txt", "w") as handle:
        handle.write(table + "\n")


if __name__ == "__main__":
    sys.exit(main())
