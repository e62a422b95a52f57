"""Process-pool oracle backend: shard batches across worker oracles.

The third backend of the subsystem: batch evaluations are split into
per-worker chunks and dispatched through the session's persistent
:class:`~repro.service.pool.WorkerPool`, so oracle-bound work stops
contending on the parent's one process-global ``mp.workprec`` lock.
Each worker owns a private :class:`~repro.rival.eval.RivalEvaluator`
wrapped in the numpy fast path (workers are single-threaded, so no lock
is needed there), and ships per-chunk counter deltas home so the session
can still account every evaluation.

Expressions cross the process boundary as s-expression text (:class:`Expr`
trees hold interned structural state that must not be pickled); points are
plain ``{name: float}`` dicts.  Results come back as ``(status, value)``
pairs in point order, so chunk concatenation preserves the batch order
and the combined output is bit-identical to an in-process evaluation.

Small batches (and point-at-a-time calls) skip the pool entirely — the
round-trip would cost more than the evaluation — and run on the
in-process fallback backend instead.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

from ...ir.parser import parse_expr
from ...ir.printer import expr_to_sexpr
from ...ir.types import F64
from ..eval import RivalEvaluator
from .base import OracleBackend, OracleCounters, PointResult
from .mpmath_backend import MpmathBackend
from .numpy_backend import NumpyBackend

#: Batches below this many points run in-process: the pickle round-trip
#: and dispatch latency beat the ladder only once a chunk has real work.
#: Overridable per instance (constructor) or per process
#: (``REPRO_ORACLE_POOL_MIN_BATCH``).
MIN_POOL_POINTS = 64


def _resolve_min_pool_points(value: int | None = None) -> int:
    """Sharding threshold: explicit argument, then environment, then 64."""
    if value is not None:
        return max(1, int(value))
    raw = os.environ.get("REPRO_ORACLE_POOL_MIN_BATCH", "").strip()
    if raw:
        try:
            parsed = int(raw)
        except ValueError:
            raise ValueError(
                "REPRO_ORACLE_POOL_MIN_BATCH must be an integer, "
                f"got {raw!r}"
            ) from None
        return max(1, parsed)
    return MIN_POOL_POINTS

#: Per-worker oracle instances, keyed by the ladder's precision tuple.
#: Module-level so warm workers reuse their evaluator (and its compiled
#: numpy programs) across chunks and across batches.
_WORKER_ORACLE: dict = {}


def _worker_oracle(precisions: tuple) -> NumpyBackend:
    oracle = _WORKER_ORACLE.get(precisions)
    if oracle is None:
        # No lock: pool workers run one task at a time on one thread.
        evaluator = RivalEvaluator(precisions)
        oracle = _WORKER_ORACLE[precisions] = NumpyBackend(
            MpmathBackend(evaluator)
        )
    return oracle


def _oracle_worker_chunk(task: dict) -> dict:
    """Evaluate one batch shard inside a pool worker.

    ``task`` is ``{"kind": "real"|"bool"|"sample", "source": sexpr,
    "ty": str, "points": [...], "precisions": (...)}`` — ``"sample"``
    chunks additionally carry ``"pre"`` (a precondition sexpr or None)
    and run the whole sampler iteration (filter + body) worker-side.
    Returns point-ordered ``(status, value)`` pairs (``None`` for sample
    points the precondition rejected) plus this chunk's counter deltas
    (including the worker evaluator's ``evals``/``escalations``, which
    have no other way home).
    """
    oracle = _worker_oracle(tuple(task["precisions"]))
    evaluator = oracle.evaluator
    evals0, escalations0 = evaluator.evals, evaluator.escalations
    before = oracle.counters()
    expr = parse_expr(task["source"])
    if task["kind"] == "bool":
        results = oracle.eval_bool_batch(expr, task["points"])
    elif task["kind"] == "sample":
        pre = parse_expr(task["pre"]) if task["pre"] else None
        results = oracle.sample_batch(pre, expr, task["points"], task["ty"])
    else:
        results = oracle.eval_batch(expr, task["points"], task["ty"])
    counters = oracle.counters()
    deltas = {
        key: value - getattr(before, key)
        for key, value in counters.as_dict().items()
    }
    deltas["evals"] = evaluator.evals - evals0
    deltas["escalations"] = evaluator.escalations - escalations0
    # The parent records its own batch-level shape (one logical batch,
    # not one per shard).
    deltas["batch_calls"] = 0
    deltas["batch_points"] = 0
    return {
        "results": [
            None if r is None else (r.status, r.value) for r in results
        ],
        "counters": deltas,
    }


class PoolOracleBackend(OracleBackend):
    """Shard batched oracle calls across per-worker oracle instances."""

    name = "pool"

    def __init__(
        self,
        fallback: NumpyBackend,
        *,
        pool_provider=None,
        min_pool_points: int | None = None,
    ):
        #: In-process backend for point calls and small batches.
        self.fallback = fallback
        self.evaluator = fallback.evaluator
        #: Zero-arg callable returning the session's WorkerPool (or None,
        #: in which case everything runs on the fallback).
        self._pool_provider = pool_provider
        #: Sharding threshold: constructor argument, then the
        #: ``REPRO_ORACLE_POOL_MIN_BATCH`` environment knob, then 64.
        self.min_pool_points = _resolve_min_pool_points(min_pool_points)
        self._counters = OracleCounters()
        self._counters_lock = threading.Lock()

    # --- point-at-a-time ------------------------------------------------------

    def eval(self, expr, point, ty=F64):
        return self.fallback.eval(expr, point, ty)

    def eval_bool(self, expr, point):
        return self.fallback.eval_bool(expr, point)

    # --- counters -------------------------------------------------------------

    def counters(self) -> OracleCounters:
        # ``_counters`` holds only sharded batches (worker deltas merged
        # in); small batches and point calls land on the fallback, whose
        # counters are disjoint by construction.
        with self._counters_lock:
            snapshot = OracleCounters()
            snapshot.merge(self._counters)
        snapshot.merge(self.fallback.counters())
        return snapshot

    # --- batched --------------------------------------------------------------

    def eval_batch(self, expr, points, ty=F64) -> list[PointResult]:
        return self._sharded(expr, points, kind="real", ty=ty)

    def eval_bool_batch(self, expr, points) -> list[PointResult]:
        return self._sharded(expr, points, kind="bool", ty=F64)

    def sample_batch(
        self, pre, body, points: Sequence[dict], ty: str = F64
    ) -> list[PointResult | None]:
        """Shard whole sampler iterations: each worker filters its chunk
        against the precondition and evaluates the survivors' bodies in
        one round trip, so cancellation-bound sampling no longer
        serializes on the parent's ladder between the two passes."""
        return self._sharded(body, points, kind="sample", ty=ty, pre=pre)

    def _sharded(
        self, expr, points: Sequence[dict], *, kind: str, ty: str, pre=None
    ) -> list[PointResult]:
        pool = self._pool_provider() if self._pool_provider else None
        if pool is None or len(points) < self.min_pool_points:
            if kind == "bool":
                return self.fallback.eval_bool_batch(expr, points)
            if kind == "sample":
                return self.fallback.sample_batch(pre, expr, points, ty)
            return self.fallback.eval_batch(expr, points, ty)
        source = expr_to_sexpr(expr)
        pre_source = expr_to_sexpr(pre) if pre is not None else None
        precisions = tuple(self.evaluator.precisions)
        chunk = max(
            self.min_pool_points,
            (len(points) + pool.workers - 1) // pool.workers,
        )
        tasks = [
            {
                "kind": kind,
                "source": source,
                "ty": ty,
                "points": list(points[start:start + chunk]),
                "precisions": precisions,
            }
            for start in range(0, len(points), chunk)
        ]
        if kind == "sample":
            for task in tasks:
                task["pre"] = pre_source
        payloads = pool.run_tasks(_oracle_worker_chunk, tasks)
        results: list = []
        merged = OracleCounters()
        for payload in payloads:
            results.extend(
                None if entry is None else PointResult(entry[0], entry[1])
                for entry in payload["results"]
            )
            merged.merge(payload["counters"])
        if kind == "sample":
            # Mirror the in-process composition's batch shape: one bool
            # batch over every candidate plus one real batch over the
            # precondition's survivors (or just the real batch when the
            # core has no precondition).
            passing = sum(1 for entry in results if entry is not None)
            merged.batch_calls = 2 if pre is not None else 1
            merged.batch_points = (
                len(points) + passing if pre is not None else len(points)
            )
        else:
            merged.batch_calls = 1
            merged.batch_points = len(points)
        merged.pool_chunks = len(tasks)
        with self._counters_lock:
            self._counters.merge(merged)
        self._record_batch(
            merged.batch_points,
            fastpath=merged.fastpath_hits,
            escalated=merged.escalated_points,
            dd=merged.dd_hits,
        )
        return results
