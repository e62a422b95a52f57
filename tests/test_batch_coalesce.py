"""Batch coalescing: each distinct job fingerprint in one ``compile_many``
call is looked up once and compiled at most once; later duplicates
(followers) copy the first spec's (the primary's) outcome.  Also pins the
rule that a saturation stopped on the wall clock never reaches the cache.
"""

import dataclasses

import pytest

from repro.accuracy.sampler import SampleConfig
from repro.api import ChassisSession, CompileConfig
from repro.core.isel import DEFAULT_ISEL_LIMITS
from repro.targets import get_target

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SAMPLES = SampleConfig(n_train=8, n_test=8)

SRC = "(FPCore f (x) :pre (< 0.1 x 10) (- (sqrt (+ x 1)) (sqrt x)))"
SRC2 = "(FPCore g (x) :pre (< 0.1 x 1) (+ (* x x) 1))"
# avx has no atan2 and a bivariate kernel cannot be series-approximated.
UNTRANSCRIBABLE = (
    "(FPCore h (x y) :pre (and (< 0.1 x 10) (< 0.1 y 10)) (atan2 y x))"
)


def session_for(cache, jobs, config=FAST):
    return ChassisSession(
        config=config, sample_config=SAMPLES,
        cache=None if cache is None else str(cache), jobs=jobs,
    )


def run(cache, jobs, specs_of, progress=None, config=FAST):
    """Compile ``specs_of(session)`` in a fresh session; returns
    (outcomes, session stats, batch ledger records)."""
    session = session_for(cache, jobs, config)
    try:
        outcomes = session.compile_many(specs_of(session), progress=progress)
        records = (
            [] if session.ledger is None else
            [r for r in session.ledger.iter_records() if r["kind"] == "batch"]
        )
        return outcomes, session.stats, records
    finally:
        session.close()


def with_duplicates(target):
    def specs(session):
        f, g = session.parse(SRC), session.parse(SRC2)
        return [(f, target), (g, target), (f, target), (f, target), (g, target)]
    return specs


def deduplicated(target):
    def specs(session):
        return [(session.parse(SRC), target), (session.parse(SRC2), target)]
    return specs


def custom_target():
    return get_target("c99").extend(
        "c99-retuned", override_costs={"add.f64": 7.0}
    )


CASES = {
    "pooled": (2, "c99", True),
    "inline": (1, "c99", True),
    "custom-target": (2, None, True),
    "no-cache": (1, "c99", False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_duplicates_compile_once(tmp_path, case):
    jobs, target, cached = CASES[case]
    target = target or custom_target()
    events = []
    outcomes, stats, _ = run(
        tmp_path / "dup" if cached else None, jobs,
        with_duplicates(target), progress=events.append,
    )
    _, unique_stats, _ = run(
        tmp_path / "unique" if cached else None, jobs, deduplicated(target),
    )
    assert all(o.ok for o in outcomes)
    # The duplicated list does exactly the deduplicated list's work.
    assert stats.compiles == unique_stats.compiles == 2
    assert stats.engine.saturations == unique_stats.engine.saturations
    assert stats.cache_hits == 3

    # Outcomes stay in spec order; followers copy their primary.
    assert [o.index for o in outcomes] == list(range(5))
    assert [o.benchmark for o in outcomes] == ["f", "g", "f", "f", "g"]
    assert [o.cached for o in outcomes] == [False, False, True, True, True]
    for follower, primary in ((2, 0), (3, 0), (4, 1)):
        mine, theirs = outcomes[follower], outcomes[primary]
        assert mine.fingerprint == theirs.fingerprint
        assert mine.payload == theirs.payload
        assert mine.result is not None and mine.result is not theirs.result
        assert mine.elapsed == 0.0
        assert (mine.engine, mine.oracle, mine.trace) == (None, None, None)

    # One progress event per spec; followers report as served.
    assert sorted(e["index"] for e in events) == list(range(5))
    assert {e["index"] for e in events if e["cached"]} == {2, 3, 4}


def test_ok_followers_resolve_to_primary_record(tmp_path):
    outcomes, _, records = run(tmp_path / "cache", 1, with_duplicates("c99"))
    assert [r["cache"] for r in records] == [
        "store", "store", "hit", "hit", "hit",
    ]
    session = session_for(tmp_path / "cache", 1)
    try:
        for outcome in outcomes:
            origin = session.ledger.resolve(outcome.fingerprint)
            assert origin is not None and origin["cache"] == "store"
            fresh = [r for r in records
                     if r["fingerprint"] == outcome.fingerprint
                     and r["cache"] != "hit"]
            assert fresh == [origin]
    finally:
        session.close()


def test_failed_duplicate_fails_once(tmp_path):
    def specs(session):
        bad, f = session.parse(UNTRANSCRIBABLE), session.parse(SRC)
        return [(bad, "avx"), (f, "avx"), (bad, "avx")]

    events = []
    outcomes, stats, records = run(
        tmp_path / "cache", 2, specs, progress=events.append,
    )
    bad, ok, follower = outcomes
    assert ok.ok
    assert bad.status == follower.status == "failed"
    assert bad.error_type == follower.error_type == "Untranscribable"
    assert follower.error == bad.error
    assert not follower.cached
    # /health still counts every failed spec; only the primary ran.
    assert stats.failures == 2
    assert stats.compiles == 1
    failed = [r for r in records if r["status"] == "failed"]
    assert len(failed) == 1
    assert failed[0]["fingerprint"] == bad.fingerprint
    assert sorted(e["index"] for e in events) == [0, 1, 2]


WALL_CLOCK_LIMITED = dataclasses.replace(
    FAST, isel_limits=dataclasses.replace(DEFAULT_ISEL_LIMITS, time_limit=0.0)
)


def test_wall_clock_limited_compile_is_never_cached(tmp_path):
    session = session_for(tmp_path / "cache", 1, WALL_CLOCK_LIMITED)
    try:
        session.compile(SRC, "c99")
        session.compile(SRC, "c99")
        assert session.stats.engine.stop_reasons.get("time-limit", 0) > 0
        assert session.stats.cache_hits == 0
        assert session.stats.compiles == 2
        records = list(session.ledger.iter_records())
        assert [r["cache"] for r in records] == ["bypass", "bypass"]
    finally:
        session.close()


@pytest.mark.parametrize("jobs", [1, 2])
def test_wall_clock_limited_batch_is_shared_not_cached(tmp_path, jobs):
    def specs(session):
        f = session.parse(SRC)
        return [(f, "c99"), (f, "c99")]

    session = session_for(tmp_path / "cache", jobs, WALL_CLOCK_LIMITED)
    try:
        first = session.compile_many(specs(session))
        second = session.compile_many(specs(session))
        for primary, follower in (first, second):
            assert primary.ok and not primary.cached
            assert follower.cached and follower.payload == primary.payload
        assert session.cache.get(first[0].fingerprint) is None
        records = [r["cache"] for r in session.ledger.iter_records()]
        assert records == ["bypass", "hit", "bypass", "hit"]
    finally:
        session.close()
