"""The session-owned persistent worker pool: reuse, routing, accounting.

Pins down the amortization contract from the roadmap: consecutive batches
(including serve ``/batch`` requests) must reuse the *same* warm worker
processes instead of rebuilding a pool per call, ``submit`` must route
registry-target jobs through those workers, and batch outcomes must land
in the session stats ``/health`` reports.
"""

import gc
import json
import threading
import urllib.request

import pytest

from repro.accuracy.sampler import SampleConfig
from repro.api import ChassisSession, CompileConfig, WorkerPool, create_server
from repro.benchsuite import core_named

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"
SRC2 = "(FPCore g (x) :pre (< 0.1 x 1) (+ (* x x) 1))"


@pytest.fixture(scope="module")
def pool_session():
    session = ChassisSession(config=FAST, sample_config=SAMPLES, jobs=2)
    yield session
    session.close()


class TestPoolReuse:
    def test_consecutive_batches_reuse_worker_pids(self, pool_session):
        specs = [(core_named("sqrt-sub"), "c99"), (core_named("logistic"), "c99")]
        first = pool_session.compile_many(specs)
        pool = pool_session.worker_pool()
        assert pool is not None
        pids = pool.worker_pids()
        generation = pool.generation
        assert len(pids) == 2 and generation == 1
        second = pool_session.compile_many(
            [(core_named("sqrt-sub"), "arith"), (core_named("logistic"), "arith")]
        )
        assert all(o.ok for o in first + second)
        # same processes, no rebuild: the whole point of the pool
        assert pool.worker_pids() == pids
        assert pool.generation == generation

    def test_single_job_batches_use_the_warm_pool(self, pool_session):
        """With warm workers there is no 'too small to pool' batch."""
        pool = pool_session.worker_pool()
        generation = pool.generation
        (outcome,) = pool_session.compile_many([(core_named("logistic"), "fdlibm")])
        assert outcome.ok
        assert pool.generation == generation  # reused, not rebuilt

    def test_pooled_submit_runs_in_worker_processes(self, pool_session):
        handles = [
            pool_session.submit(core_named("sqrt-sub"), "vdt"),
            pool_session.submit(core_named("logistic"), "vdt"),
        ]
        results = [handle.result(timeout=300) for handle in handles]
        assert all(len(result.frontier) > 0 for result in results)
        assert all(handle.poll() == "ok" for handle in handles)

    def test_config_change_keeps_the_warm_workers(self, pool_session):
        """Configs ride on each job, so a batch with another config runs
        on the same workers and matches an inline compile of it."""
        specs = [(core_named("sqrt-sub"), "c99")]
        pool_session.compile_many(specs)  # warm workers on the session config
        pool = pool_session.worker_pool()
        generation, pids = pool.generation, pool.worker_pids()
        assert generation >= 1 and len(pids) == 2
        other = CompileConfig(iterations=0, localize_points=6, max_variants=12)
        (outcome,) = pool_session.compile_many(specs, config=other)
        assert outcome.ok
        assert pool.generation == generation
        assert pool.worker_pids() == pids
        with ChassisSession(
            config=other, sample_config=SAMPLES, jobs=1
        ) as serial:
            (want,) = serial.compile_many(specs)

        def scrub(payload):
            return {k: v for k, v in payload.items() if k != "elapsed"}

        assert scrub(outcome.payload) == scrub(want.payload)

    def test_jobs_1_session_has_no_pool(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES, jobs=1)
        assert session.worker_pool() is None
        assert session.pool_info() is None

    def test_lazy_creation(self):
        session = ChassisSession(config=FAST, sample_config=SAMPLES, jobs=2)
        pool = session.worker_pool()
        assert pool is not None
        # no batch has run: no processes yet
        assert pool.worker_pids() == [] and pool.generation == 0
        session.close()

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.run_batch([])


class TestStatsAccounting:
    def test_batch_outcomes_fold_into_session_stats(self, tmp_path):
        """compile() and compile_many() must agree on /health accounting;
        batch failures and cache hits used to be invisible."""
        from repro.ir import parse_fpcore

        session = ChassisSession(
            config=FAST, sample_config=SAMPLES, cache=str(tmp_path)
        )
        bad = parse_fpcore("(FPCore nopoints (x) :pre (and (< 2 x) (< x 1)) x)")
        outcomes = session.compile_many(
            [(core_named("sqrt-sub"), "arith"), (bad, "arith")]
        )
        assert [o.status for o in outcomes] == ["ok", "failed"]
        assert session.stats.compiles == 1
        assert session.stats.failures == 1
        # a warm repeat is a cache hit in the same counters /compile uses
        session.compile_many([(core_named("sqrt-sub"), "arith")])
        assert session.stats.cache_hits == 1
        assert session.stats.batches == 2
        session.close()

    def test_duplicate_concurrent_sampling_samples_once(self):
        """samples_for re-checks the LRU under the oracle lock, so a
        contended duplicate records a hit instead of re-sampling."""
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        core = core_named("sqrt-sub")
        barrier = threading.Barrier(4)
        results = []

        def sample():
            barrier.wait()
            results.append(session.samples_for(core))

        threads = [threading.Thread(target=sample) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == 4
        assert all(r is results[0] for r in results)  # one shared SampleSet
        # exactly one oracle run: every miss beyond the first was converted
        # to a hit by the double-check (hits + misses == 4 + 1 - 1... the
        # invariant that matters: misses recorded, but only one sampling)
        assert session.stats.sample_hits + session.stats.sample_misses >= 4
        assert len(session._samples) == 1


class TestKeepaliveEviction:
    def test_fingerprint_caches_do_not_retain_dead_targets(self, c99):
        from repro.service.cache import _TARGET_FP_CACHE, target_fingerprint
        from repro.targets.target import _IMPL_CACHE

        custom = c99.extend("c99-transient", override_costs={"add.f64": 3.0})
        key = id(custom)
        target_fingerprint(custom)
        custom.impl_registry()
        assert key in _TARGET_FP_CACHE and key in _IMPL_CACHE
        del custom
        gc.collect()
        assert key not in _TARGET_FP_CACHE
        assert key not in _IMPL_CACHE

    def test_session_simulator_cache_evicts_with_target(self, c99):
        session = ChassisSession(config=FAST, sample_config=SAMPLES)
        custom = c99.extend("c99-transient-2", override_costs={"mul.f64": 9.0})
        key = id(custom)
        simulator = session.simulator(custom)
        assert key in session._simulators
        assert simulator.target is custom  # weak back-reference, still live
        del custom
        gc.collect()
        assert key not in session._simulators

    def test_registry_targets_stay_cached(self, c99):
        from repro.service.cache import _TARGET_FP_CACHE, target_fingerprint

        fingerprint = target_fingerprint(c99)
        gc.collect()
        assert _TARGET_FP_CACHE[id(c99)] == fingerprint


@pytest.fixture(scope="module")
def pool_server():
    session = ChassisSession(config=FAST, sample_config=SAMPLES, jobs=2)
    server = create_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    session.close()
    thread.join(timeout=10)


def _post(server, path, obj):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(obj).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return json.loads(response.read())


def _get(server, path):
    host, port = server.server_address[:2]
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=30
    ) as response:
        return json.loads(response.read())


class TestServePoolReuse:
    def test_consecutive_batch_requests_share_workers(self, pool_server):
        """Acceptance: serve --jobs 2 must not rebuild the pool per /batch
        request; /health exposes the worker PIDs to prove it."""
        first = _post(pool_server, "/batch",
                      {"cores": [SRC, SRC2], "targets": ["c99"]})
        health_1 = _get(pool_server, "/health")
        second = _post(pool_server, "/batch",
                       {"cores": [SRC, SRC2], "targets": ["arith"]})
        health_2 = _get(pool_server, "/health")
        assert first["summary"]["ok"] == 2 and second["summary"]["ok"] == 2
        pool_1, pool_2 = health_1["pool"], health_2["pool"]
        assert pool_1["generation"] == pool_2["generation"] == 1
        assert pool_1["pids"] == pool_2["pids"] and len(pool_1["pids"]) == 2

    def test_batch_summary_has_timeout_bucket(self, pool_server):
        payload = _post(pool_server, "/batch",
                        {"cores": [SRC2], "targets": ["fdlibm"]})
        assert set(payload["summary"]) == {"ok", "failed", "timeout", "cached"}
