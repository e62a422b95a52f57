"""Engine counters: what the e-graph engine did, aggregated per consumer.

The v2 engine (indexed e-matching, worklist extraction, saturation reuse)
is observable: every saturation run, snapshot build and cache decision
records into the *engine-stats sink* armed on the current thread, when one
is armed.  The session arms a sink around each pipeline run and folds the
result into :class:`~repro.session.SessionStats`, so ``/health`` and
``repro compile --json`` report real engine work — e-nodes built, matches
found/applied, why each saturation stopped, and saturation-cache hits —
without any engine API threading a stats object through every call site.

The sink is thread-local (compilations are serialized per thread by the
session's oracle lock); batch jobs arm their own and ship the counters
home on ``JobOutcome.engine``, which the session merges as a plain dict.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class EngineStats:
    """Counters over the e-graph engine's work.

    ``saturation_hits`` counts improvement-loop candidates whose
    subexpression reused an already-saturated e-graph.  Dict-valued fields
    are per-name counts; :meth:`merge` and :func:`stats_delta` fold them
    key by key.
    """

    #: Distinct e-nodes created during saturation runs.
    enodes_built: int = 0
    #: Effective (graph-changing) matches found by rule searches.
    matches_found: int = 0
    #: Matches actually applied (post side-condition, within node budget).
    matches_applied: int = 0
    #: Saturation runs (one per run_rules call).
    saturations: int = 0
    #: Improvement-loop saturations answered from the per-run cache.
    saturation_hits: int = 0
    #: Improvement-loop saturations that had to run the rules.
    saturation_misses: int = 0
    #: Graph topology snapshots built (one per generation that was
    #: searched or extracted from).
    snapshots_built: int = 0
    #: Searches/extractions that reused an existing same-generation
    #: snapshot (e.g. a second cost function pricing the same graph).
    snapshot_reuses: int = 0
    #: Rule name -> iterations whose search was truncated by the match budget.
    rules_truncated: dict[str, int] = field(default_factory=dict)
    #: Saturation stop reason (``RunnerReport.stop_reason``) -> runs.
    stop_reasons: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "EngineStats | dict") -> None:
        """Fold ``other``'s counters (an EngineStats or a plain
        :meth:`as_dict` dict) into this one.

        Unknown dict keys are ignored so payloads from newer/older
        workers stay mergeable.
        """
        if isinstance(other, EngineStats):
            other = vars(other)
        for fld in dataclasses.fields(self):
            mine, theirs = getattr(self, fld.name), other.get(fld.name)
            if not theirs:
                continue
            if isinstance(mine, dict):
                for name, count in theirs.items():
                    mine[name] = mine.get(name, 0) + count
            else:
                setattr(self, fld.name, mine + theirs)

    def any(self) -> bool:
        """True when at least one counter is non-zero."""
        return any(
            getattr(self, fld.name) for fld in dataclasses.fields(self)
        )

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def stopped_on_wall_clock(engine: dict | None) -> bool:
    """True when an :meth:`EngineStats.as_dict` dict records a saturation
    that stopped on its wall-clock ``time_limit``.  Such a result depends on
    how fast the machine was, so it must never enter the persistent cache."""
    return bool(engine and engine.get("stop_reasons", {}).get("time-limit", 0) > 0)


def stats_delta(after: dict, before: dict) -> dict:
    """``after - before`` over two :meth:`EngineStats.as_dict` snapshots.

    Used by ``repro compile --json`` to attribute engine work to one job
    out of a session's running totals.
    """
    delta: dict = {}
    for key, value in after.items():
        if isinstance(value, dict):
            prior = before.get(key, {})
            sub = {
                name: count - prior.get(name, 0)
                for name, count in value.items()
                if count - prior.get(name, 0)
            }
            delta[key] = sub
        else:
            delta[key] = value - before.get(key, 0)
    return delta


_LOCAL = threading.local()


def current_sink() -> EngineStats | None:
    """The engine-stats sink armed on this thread, if any."""
    return getattr(_LOCAL, "sink", None)


@contextmanager
def engine_stats_sink(stats: EngineStats):
    """Arm ``stats`` as this thread's engine-stats sink for the region.

    Re-entrant: an inner sink shadows the outer one (the inner region's
    work is attributed to the inner sink only), and the previous sink is
    restored on exit.
    """
    previous = current_sink()
    _LOCAL.sink = stats
    try:
        yield stats
    finally:
        _LOCAL.sink = previous
