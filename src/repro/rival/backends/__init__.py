"""Pluggable oracle backends (see :mod:`repro.rival.backends.base`).

Three strategies behind one :class:`OracleBackend` protocol:

* ``numpy`` (alias ``auto``, the default) — the vectorized rung cascade
  (:mod:`.rungs`): an extended-precision interval sweep, then batched
  double-double interval arithmetic (:mod:`.dd`), each accepting only
  points whose outward-rounded enclosure already rounds uniquely in the
  target format; the residue escalates to the mpmath ladder.
* ``mpmath`` — the original escalation ladder alone (the reference
  semantics every other backend must match bit-for-bit).
* ``pool`` — batches *and whole sampler iterations* sharded across
  per-worker oracle instances on the session's persistent
  :class:`~repro.service.pool.WorkerPool`.

Select with ``ChassisSession(oracle_backend=...)`` or the
``REPRO_ORACLE_BACKEND`` environment variable.
"""

from __future__ import annotations

from ..eval import RivalEvaluator
from .base import (
    BACKEND_NAMES,
    DOMAIN_ERROR,
    INVALID,
    OK,
    PRECISION_EXHAUSTED,
    OracleBackend,
    OracleCounters,
    PointResult,
    classify_failure,
    iter_ok_values,
    resolve_backend_name,
)
from .mpmath_backend import MpmathBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "BACKEND_NAMES",
    "DOMAIN_ERROR",
    "INVALID",
    "OK",
    "PRECISION_EXHAUSTED",
    "MpmathBackend",
    "NumpyBackend",
    "OracleBackend",
    "OracleCounters",
    "PointResult",
    "classify_failure",
    "iter_ok_values",
    "make_backend",
    "resolve_backend_name",
]


def make_backend(
    name: str | None = None,
    *,
    evaluator: RivalEvaluator | None = None,
    lock=None,
    pool_provider=None,
    min_pool_points: int | None = None,
) -> OracleBackend:
    """Build the oracle backend for ``name`` (None: environment, then auto).

    ``evaluator`` is the shared escalation ladder (a fresh one when
    omitted); ``lock`` is a zero-arg callable returning a context manager
    serializing the process-global mpmath rung (sessions pass their
    instrumented oracle section).  ``pool_provider`` feeds the ``pool``
    backend; without a provider (or with a ``jobs=1`` session, whose
    provider returns None) pooled requests degrade to the in-process fast
    path.  ``min_pool_points`` overrides the pool's
    sharding threshold (default: ``REPRO_ORACLE_POOL_MIN_BATCH``, then
    64 points).
    """
    resolved = resolve_backend_name(name)
    evaluator = evaluator if evaluator is not None else RivalEvaluator()
    ladder = MpmathBackend(evaluator, lock=lock)
    if resolved == "mpmath":
        return ladder
    fast = NumpyBackend(ladder)
    if resolved == "numpy":
        return fast
    # Imported lazily so the common in-process backends never pay for the
    # pool machinery (and so worker processes resolving "pool" -> fallback
    # keep their import footprint small).
    from .pool_backend import PoolOracleBackend

    return PoolOracleBackend(
        fast,
        pool_provider=pool_provider,
        min_pool_points=min_pool_points,
    )
