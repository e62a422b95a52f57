"""The mpmath escalation ladder as an oracle backend.

This wraps the original :class:`RivalEvaluator` (interval arithmetic at
escalating ``mp.workprec``) behind the :class:`OracleBackend` protocol.
It is both a standalone backend (``REPRO_ORACLE_BACKEND=mpmath``) and
the hard-point fallback rung of the numpy fast path: batch calls loop
point-at-a-time, but take the serialization lock **once per batch**
instead of once per point, so a session's ``_oracle_lock`` now guards
only the mpmath rung (``mp.workprec`` is process-global state) rather
than entire sampling or scoring passes.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Sequence

from ...ir.expr import Expr
from ...ir.types import F64
from ...deadline import check_deadline
from ..eval import RivalEvaluator
from .base import OK, OracleBackend, OracleCounters, PointResult, classify_failure


class MpmathBackend(OracleBackend):
    """Adaptive-precision mpmath evaluation behind the backend protocol."""

    name = "mpmath"

    def __init__(self, evaluator: RivalEvaluator | None = None, lock=None):
        #: The escalation ladder; shared with the owning session so its
        #: ``evals``/``escalations`` counters stay authoritative.
        self.evaluator = evaluator if evaluator is not None else RivalEvaluator()
        #: Zero-arg callable returning a context manager that serializes
        #: access to the process-global mpmath state (a session passes
        #: its instrumented ``_oracle_section``); None means the caller
        #: guarantees single-threaded use.
        self._lock = lock
        self._counters = OracleCounters()
        self._counters_lock = threading.Lock()

    def _section(self):
        return self._lock() if self._lock is not None else nullcontext()

    def _bump(self, points: int, escalated: int, fastpath: int = 0) -> None:
        with self._counters_lock:
            self._counters.batch_calls += 1
            self._counters.batch_points += points
            self._counters.escalated_points += escalated
            self._counters.fastpath_hits += fastpath
        self._record_batch(points, fastpath=fastpath, escalated=escalated)

    def counters(self) -> OracleCounters:
        with self._counters_lock:
            snapshot = OracleCounters()
            snapshot.merge(self._counters)
        return snapshot

    # --- point-at-a-time ------------------------------------------------------

    def eval(self, expr: Expr, point: dict[str, float], ty: str = F64) -> float:
        with self._section():
            return self.evaluator.eval(expr, point, ty)

    def eval_bool(self, expr: Expr, point: dict[str, float]) -> bool:
        with self._section():
            return self.evaluator.eval_bool(expr, point)

    # --- batched --------------------------------------------------------------

    def eval_batch(
        self, expr: Expr, points: Sequence[dict[str, float]], ty: str = F64
    ) -> list[PointResult]:
        results = self._ladder_batch(expr, points, ty)
        self._bump(len(points), escalated=len(points))
        return results

    def eval_bool_batch(
        self, expr: Expr, points: Sequence[dict[str, float]]
    ) -> list[PointResult]:
        results = self._ladder_bool_batch(expr, points)
        self._bump(len(points), escalated=len(points))
        return results

    # --- the ladder rung (also used by the numpy backend's residue) -----------

    def _ladder_batch(
        self, expr: Expr, points: Sequence[dict[str, float]], ty: str
    ) -> list[PointResult]:
        """Run every point through the ladder, under one lock hold.

        Each point starts at the rung where the previous point of this
        call settled: the points of one batch share an expression, and
        the ones that reach the ladder tend to need the same precision.
        That holds for the fast rungs' residue and, measured over the
        curated cores, for whole batches too (``eval_batch``): a batch
        whose points mostly settle at 80 bits pays a few needless
        higher first passes, less than what the carried start saves on
        batches that escalate.  The evaluator accepts a start above
        rung 0 only for a nonzero value, so every result is bit-identical
        to the rung-0 ladder.  The start rung lives only in this call.

        DeadlineExceeded (a BaseException) propagates; ordinary per-point
        failures become statuses.
        """
        results: list[PointResult] = []
        start = 0
        with self._section():
            for point in points:
                check_deadline()
                try:
                    value, start = self.evaluator._settle(expr, point, ty, start)
                except Exception as exc:
                    results.append(classify_failure(exc))
                else:
                    results.append(PointResult(OK, value))
        return results

    def _ladder_bool_batch(
        self, expr: Expr, points: Sequence[dict[str, float]]
    ) -> list[PointResult]:
        results: list[PointResult] = []
        with self._section():
            for point in points:
                check_deadline()
                try:
                    verdict = self.evaluator.eval_bool(expr, point)
                except Exception as exc:
                    results.append(classify_failure(exc))
                else:
                    results.append(PointResult(OK, 1.0 if verdict else 0.0))
        return results
