"""The local error heuristic (paper section 5.2, introduced by Herbie).

Local error isolates the error *an operator itself introduces* from error
inherited through its arguments: evaluate the operator's arguments exactly
(correctly rounded into their formats), apply the floating-point operator
once, and compare against the correctly-rounded true value of the node.  An
operator with high local error is a rewrite candidate; an operator that
merely passes along its children's error is not blamed.

Exact values are shared the way Herbie's localization shares them: each
distinct (desugared real subexpression, format) pair is evaluated over the
whole point block in one ``eval_batch`` through an oracle backend, and a
caller-held memo carries those blocks across the programs of a compile.
Synthesized operators applied to the exact arguments are settled the same
way, one batch per node (:func:`repro.targets.synth.settle`).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..ir.expr import App, Expr
from ..ir.types import F64
from ..rival.backends import OracleBackend, PointResult, make_backend
from ..rival.eval import RivalEvaluator
from ..targets import synth
from ..targets.target import Target
from .ulp import bits_of_error

Path = tuple[int, ...]
Point = Mapping[str, float]
#: Exact values over one point block, keyed by (real expression, format).
ExactBlocks = dict[tuple[Expr, str], list[PointResult]]


def local_errors(
    program: Expr,
    target: Target,
    points: Sequence[Point],
    ty: str = F64,
    evaluator: RivalEvaluator | None = None,
    oracle: OracleBackend | None = None,
    exact: ExactBlocks | None = None,
) -> dict[Path, float]:
    """Mean local error (bits) of every target-operator node in ``program``.

    Conditionals contribute through their branches; predicate and leaf
    nodes have no local error.  A node is skipped at points where the
    oracle cannot settle one of its arguments or its own value.

    ``oracle`` defaults to a backend around ``evaluator``.  ``exact``
    memoizes exact values across calls; it must only be passed again with
    the same ``points``.
    """
    if oracle is None:
        oracle = make_backend(evaluator=evaluator)
    if exact is None:
        exact = {}
    points = list(points)

    def exact_block(expr: Expr, fmt: str) -> list[PointResult]:
        real = target.desugar_expr(expr)
        block = exact.get((real, fmt))
        if block is None:
            block = exact[(real, fmt)] = oracle.eval_batch(real, points, fmt)
        return block

    impls = target.impl_registry()
    results: dict[Path, float] = {}
    for path, node in program.subexprs():
        if not isinstance(node, App):
            continue
        spec = impls.get(node.op)
        if spec is None:
            continue  # conditionals, predicates, unknown ops
        ret_type = target.operator(node.op).ret_type
        arg_blocks = [
            exact_block(arg, arg_ty) for arg, arg_ty in zip(node.args, spec.arg_types)
        ]
        out_block = exact_block(node, ret_type)
        settled = [
            (tuple(r.value for r in args), out.value)
            for *args, out in zip(*arg_blocks, out_block)
            if out.ok and all(r.ok for r in args)
        ]
        if not settled:
            continue
        synth.settle(spec.impl, (args for args, _ in settled), oracle)
        total = 0.0
        for args, exact_out in settled:
            try:
                approx_out = spec.impl(*args)
            except (OverflowError, ValueError, ZeroDivisionError):
                approx_out = math.nan
            total += bits_of_error(approx_out, exact_out, ret_type)
        results[path] = total / len(settled)
    return results
