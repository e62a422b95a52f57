"""Synthesis of correctly-rounded operator implementations (paper section 4.2).

When a target description provides no linking information for an operator,
Chassis synthesizes a maximally-accurate implementation from the operator's
desugaring using Rival.  We do the same with the adaptive interval oracle:
evaluate the desugaring at the input point until its enclosure rounds
unambiguously into the output format.

Inside one compile (:func:`memoized`, armed by
:meth:`~repro.core.pipeline.CompilePipeline.run`) each distinct argument
tuple is evaluated once, and callers that know their inputs in advance
settle them through an oracle backend in one batch per operator
(:func:`settle`, :func:`settle_program`) — the session's longdouble → dd →
ladder cascade.  Calls the batches did not cover fall back to the scalar
evaluator :func:`_oracle`.  :func:`mp_eval` is the fixed-precision mpmath
evaluator series expansion uses.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Mapping, Sequence

import mpmath
from mpmath import mp, mpf

from ..fpeval.machine import compile_expr
from ..ir.expr import App, Const, Expr, Num, Var

#: mpmath implementations of each real operator for *point* evaluation.
_MP_OPS: dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "neg": lambda a: -a,
    "fabs": abs,
    "fmin": min,
    "fmax": max,
    "copysign": lambda a, b: abs(a) if b >= 0 else -abs(a),
    "sqrt": mpmath.sqrt,
    "cbrt": lambda a: mpmath.cbrt(a) if a >= 0 else -mpmath.cbrt(-a),
    "pow": lambda a, b: mpmath.power(a, b),
    "hypot": mpmath.hypot,
    "exp": mpmath.exp,
    "exp2": lambda a: mpmath.power(2, a),
    "expm1": mpmath.expm1,
    "log": mpmath.log,
    "log2": lambda a: mpmath.log(a, 2),
    "log10": mpmath.log10,
    "log1p": mpmath.log1p,
    "sin": mpmath.sin,
    "cos": mpmath.cos,
    "tan": mpmath.tan,
    "asin": mpmath.asin,
    "acos": mpmath.acos,
    "atan": mpmath.atan,
    "atan2": mpmath.atan2,
    "sinh": mpmath.sinh,
    "cosh": mpmath.cosh,
    "tanh": mpmath.tanh,
    "asinh": mpmath.asinh,
    "acosh": mpmath.acosh,
    "atanh": mpmath.atanh,
    "floor": mpmath.floor,
    "ceil": mpmath.ceil,
    "round": mpmath.nint,
    "trunc": lambda a: mpmath.floor(a) if a >= 0 else mpmath.ceil(a),
    "fmod": lambda a, b: a - b * (mpmath.floor(a / b) if (a / b) >= 0 else mpmath.ceil(a / b)),
}


def mp_eval(expr: Expr, env: dict[str, mpf]) -> mpf:
    """Evaluate a real expression with mpmath at the current precision.

    Domain errors surface as mpmath exceptions or complex results, which
    callers convert to NaN.
    """
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Num):
        return mpf(expr.value.numerator) / mpf(expr.value.denominator)
    if isinstance(expr, Const):
        if expr.name == "PI":
            return mpmath.pi()
        if expr.name == "E":
            return mpmath.e()
        if expr.name == "INFINITY":
            return mpf("inf")
        return mpf("nan")
    assert isinstance(expr, App)
    fn = _MP_OPS.get(expr.op)
    if fn is None:
        raise KeyError(f"no mpmath semantics for {expr.op!r}")
    args = [mp_eval(a, env) for a in expr.args]
    result = fn(*args)
    if isinstance(result, mpmath.mpc):
        raise ValueError(f"complex result from {expr.op}")
    return result


def synthesize_impl(
    approx: Expr, params: tuple[str, ...], ret_type: str
) -> Callable[..., float]:
    """Build a correctly-rounded implementation of a desugaring.

    Uses the adaptive interval oracle (our Rival stand-in): enclosures are
    tightened until the result rounds unambiguously into the output format,
    so cross-magnitude cancellations (``log1p(1e-300)``) round correctly
    rather than collapsing at a fixed working precision.  Inside a compile
    the result for each argument tuple comes from the compile's memo;
    only arguments no batch settled reach the scalar evaluator.
    """

    def impl(*args: float) -> float:
        memo = _MEMO.get()
        if memo is None:
            return _scalar(approx, params, ret_type, args)
        values = memo.setdefault(impl, {})
        key = _bits(args)
        value = values.get(key)
        if value is None:
            value = values[key] = _scalar(approx, params, ret_type, args)
        return value

    impl.__name__ = "synth_impl"
    impl.synthesized = (approx, params, ret_type)
    return impl


def _scalar(approx: Expr, params: tuple[str, ...], ret_type: str, args) -> float:
    from ..rival.eval import DomainError, PrecisionExhausted

    try:
        return _oracle().eval(approx, dict(zip(params, args)), ret_type)
    except (DomainError, PrecisionExhausted, KeyError, ValueError):
        return math.nan


def _bits(args: Sequence[float]) -> bytes:
    """Memo key of an argument tuple: its bit patterns.  ``-0.0`` and
    ``0.0`` compare and hash equal but are different inputs (IEEE ``/``,
    ``copysign`` and ``atan2`` tell them apart), so they get two keys."""
    return struct.pack(f"{len(args)}d", *args)


#: Per-compile memo: synthesized impl -> {argument bits: result}.
_MEMO: ContextVar[dict | None] = ContextVar("synth_memo", default=None)


@contextmanager
def memoized():
    """Arm a fresh memo of synthesized-operator results for one compile.

    The scope is exactly the block: results never carry over between
    compiles, so per-compile oracle counts do not depend on job order.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def settle(impl: Callable, arg_tuples: Iterable[Sequence[float]], oracle) -> None:
    """Evaluate ``impl`` at every argument tuple the memo lacks, in one
    ``oracle.eval_batch``.

    A no-op outside :func:`memoized` and for linked implementations.
    Points the oracle cannot settle (domain error, precision exhausted,
    invalid) record NaN, as the scalar path does.
    """
    memo = _MEMO.get()
    spec = getattr(impl, "synthesized", None)
    if memo is None or spec is None:
        return
    values = memo.setdefault(impl, {})
    pending: dict[bytes, Sequence[float]] = {}
    for args in arg_tuples:
        key = _bits(args)
        if key not in values:
            pending.setdefault(key, args)
    if not pending:
        return
    approx, params, ret_type = spec
    points = [dict(zip(params, args)) for args in pending.values()]
    for key, result in zip(pending, oracle.eval_batch(approx, points, ret_type)):
        values[key] = result.value if result.ok else math.nan


def settle_program(
    program: Expr,
    ops: Mapping,
    points: Sequence[Mapping[str, float]],
    oracle,
) -> None:
    """Settle every synthesized operator ``program`` applies over ``points``.

    Nodes are visited bottom-up, so a node's arguments are computed by the
    evaluation machine from already-settled inner nodes; each node's
    distinct argument tuples then go to :func:`settle` in one batch.
    Branches of a conditional are settled at every point, taken or not.
    """
    if _MEMO.get() is None:
        return
    done: set[Expr] = set()
    # Pre-order lists every node before its descendants; reversed, after.
    for _path, node in reversed(list(program.subexprs())):
        if not isinstance(node, App) or node in done:
            continue
        done.add(node)
        spec = ops.get(node.op)
        if spec is None or getattr(spec.impl, "synthesized", None) is None:
            continue
        try:
            arg_fns = [
                compile_expr(arg, ops, arg_ty)
                for arg, arg_ty in zip(node.args, spec.arg_types)
            ]
        except KeyError:
            return  # the program cannot be evaluated at all
        arg_tuples = []
        for point in points:
            try:
                arg_tuples.append(tuple(fn(point) for fn in arg_fns))
            except (OverflowError, ValueError, ZeroDivisionError):
                continue
        settle(spec.impl, arg_tuples, oracle)


_ORACLE = None


def _oracle():
    """The scalar evaluator behind memo misses (and calls outside a compile)."""
    global _ORACLE
    if _ORACLE is None:
        from ..rival.eval import RivalEvaluator

        _ORACLE = RivalEvaluator()
    return _ORACLE
