"""Batch compilation service: cold vs warm-cache vs parallel throughput.

Measures what the service subsystem buys the experiment harness: a cold
batch pays full compilation for every (benchmark, target) job, a warm batch
is served entirely from the persistent cache, and a parallel cold batch
overlaps compilations across worker processes.  Expected shape: warm-cache
time is orders of magnitude below cold time with hits == jobs, and the
parallel run beats serial on multi-core machines while producing an
identical report.
"""

import json
import tempfile
import time

from conftest import write_result

from repro.api import ChassisSession
from repro.service import CompileCache
from repro.service.batch import report_line


def _run(specs, config, cache=None, jobs=1):
    start = time.monotonic()
    with ChassisSession(
        config=config.compile_config,
        sample_config=config.sample_config,
        jobs=jobs,
        cache=cache,
    ) as session:
        outcomes = session.compile_many(specs)
    return outcomes, time.monotonic() - start


def test_batch_service_throughput(bench_cores, experiment_config):
    targets = ["c99", "arith", "fdlibm"]
    specs = [(core, name) for name in targets for core in bench_cores]

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = CompileCache(cache_dir)
        cold, cold_s = _run(specs, experiment_config, cache=cache, jobs=1)
        warm, warm_s = _run(specs, experiment_config, cache=cache, jobs=1)
        parallel, parallel_s = _run(specs, experiment_config, jobs=4)
        stats = cache.stats

    ok = sum(1 for o in cold if o.ok)
    report = (
        f"Batch service — {len(specs)} jobs "
        f"({len(bench_cores)} benchmarks x {len(targets)} targets), {ok} ok\n\n"
        f"{'phase':<22}{'wall time':>12}{'jobs/s':>10}\n"
        f"{'-' * 44}\n"
        f"{'cold (serial)':<22}{cold_s:>10.2f}s{len(specs) / cold_s:>10.2f}\n"
        f"{'warm (all cache hits)':<22}{warm_s:>10.2f}s{len(specs) / max(warm_s, 1e-9):>10.2f}\n"
        f"{'cold (4 workers)':<22}{parallel_s:>10.2f}s{len(specs) / parallel_s:>10.2f}\n\n"
        f"cache: {stats}\n"
        f"warm speedup over cold: {cold_s / max(warm_s, 1e-9):.1f}x\n"
        f"parallel speedup over cold: {cold_s / max(parallel_s, 1e-9):.2f}x\n"
    )
    write_result("batch_service", report)

    # Warm run recompiled nothing that succeeded cold (failures are not
    # cached, so only ok jobs can hit).
    assert stats.hits == ok
    assert warm_s < cold_s
    # Serial, warm, and parallel runs agree on the (deterministic) report.
    cold_report = [json.dumps(report_line(o)) for o in cold]
    assert cold_report == [json.dumps(report_line(o)) for o in warm]
    assert cold_report == [json.dumps(report_line(o)) for o in parallel]
