"""Exact values settled once per compile, in batches through the oracle backend.

Localize evaluates each (real subexpression, format) pair over the whole
point block in one ``eval_batch``; synthesized operators read a per-compile
memo that scoring and localize fill in batches.  Both must reproduce the
scalar per-point semantics exactly, and the memo must never outlive one
compile.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.accuracy import bits_of_error, local_errors, sample_core
from repro.accuracy.sampler import SampleConfig
from repro.api import ChassisSession
from repro.benchsuite import core_named
from repro.core import transcribe
from repro.ir import F64, parse_expr
from repro.rival.backends import OK, PointResult, make_backend
from repro.rival.eval import DomainError, PrecisionExhausted, RivalEvaluator
from repro.targets import synth


def _scalar_local_errors(program, target, points, ty=F64):
    """Reference: one scalar oracle call per node, argument and point."""
    evaluator = RivalEvaluator()
    impls = target.impl_registry()
    results = {}
    for path, node in program.subexprs():
        spec = impls.get(getattr(node, "op", None))
        if spec is None:
            continue
        ret_type = target.operator(node.op).ret_type
        total, counted = 0.0, 0
        for point in points:
            try:
                args = [
                    evaluator.eval(target.desugar_expr(arg), point, arg_ty)
                    for arg, arg_ty in zip(node.args, spec.arg_types)
                ]
                exact = evaluator.eval(target.desugar_expr(node), point, ret_type)
            except (DomainError, PrecisionExhausted, KeyError):
                continue
            try:
                approx = spec.impl(*args)
            except (OverflowError, ValueError, ZeroDivisionError):
                approx = math.nan
            total += bits_of_error(approx, exact, ret_type)
            counted += 1
        if counted:
            results[path] = total / counted
    return results


def _bits(value: float) -> bytes:
    return struct.pack("d", value)


# (target, program source, points); the last points of each hit domain
# errors in at least one node.
CASES = [
    (
        "c99",
        "(log.f64 (sub.f64 (sqrt.f64 (add.f64 x 1)) (sqrt.f64 x)))",
        [{"x": 1e18}, {"x": 2.0}, {"x": 0.5}, {"x": -3.0}],
    ),
    (
        "c99",
        "(div.f64 (sub.f64 (exp.f64 x) 1) x)",
        [{"x": 1e-9}, {"x": -2.5}, {"x": 0.0}, {"x": 800.0}],
    ),
    (
        "fdlibm",
        "(mul.f64 (log1pmd.f64 x) (log1p_kernel.f64 (sub.f64 x 1)))",
        [{"x": 1e-8}, {"x": 0.25}, {"x": -0.75}, {"x": 2.0}, {"x": 0.0}],
    ),
    (
        "vdt",
        "(sub.f64 (fast_exp.f64 x) (fast_log.f64 x))",
        [{"x": 1.1}, {"x": 2.3}, {"x": -1.0}, {"x": 0.0}],
    ),
]


@pytest.mark.parametrize("target_name,source,points", CASES)
def test_batched_local_errors_match_scalar_reference(
    target_name, source, points, request
):
    target = request.getfixturevalue(target_name)
    program = parse_expr(source, known_ops=set(target.operators))
    expected = _scalar_local_errors(program, target, points)
    with synth.memoized():
        batched = local_errors(program, target, points, F64, RivalEvaluator())
    assert batched == expected
    # A shared memo gives the same answer on reuse, without new batches.
    oracle = make_backend(evaluator=RivalEvaluator())
    exact: dict = {}
    first = local_errors(program, target, points, F64, None, oracle, exact)
    calls = oracle.counters().batch_calls
    assert local_errors(program, target, points, F64, None, oracle, exact) == first
    assert oracle.counters().batch_calls == calls
    assert first == expected


def test_batched_local_errors_on_benchmark_programs(c99, fdlibm):
    for name, target in (("logistic", c99), ("log-sub", fdlibm)):
        core = core_named(name)
        samples = sample_core(core, SampleConfig(n_train=12, n_test=8))
        program = transcribe(core.body, target, F64)
        expected = _scalar_local_errors(program, target, samples.train)
        with synth.memoized():
            assert local_errors(program, target, samples.train) == expected


class _CopysignOracle:
    """Stub backend: ``copysign(1, x)``, which tells -0.0 from 0.0."""

    def eval_batch(self, expr, points, ty=F64):
        return [PointResult(OK, math.copysign(1.0, p["x"])) for p in points]


def test_memo_keeps_signed_zeros_apart():
    impl = synth.synthesize_impl(parse_expr("(log1p x)"), ("x",), F64)
    unmemoized = [_bits(impl(-0.0)), _bits(impl(0.0))]
    with synth.memoized():
        assert [_bits(impl(-0.0)), _bits(impl(0.0))] == unmemoized
    stub = synth.synthesize_impl(parse_expr("(copysign 1 x)"), ("x",), F64)
    with synth.memoized():
        synth.settle(stub, [(-0.0,), (0.0,)], _CopysignOracle())
        assert (stub(-0.0), stub(0.0)) == (-1.0, 1.0)


def test_memo_is_scoped_to_one_block():
    impl = synth.synthesize_impl(parse_expr("(copysign 1 x)"), ("x",), F64)
    with synth.memoized():
        synth.settle(impl, [(-2.0,)], _CopysignOracle())
        synth.settle(impl, [(-2.0,)], None)  # already settled: no oracle call
        assert impl(-2.0) == -1.0
    with synth.memoized():
        # A fresh memo: nothing settled, so the scalar oracle answers.
        assert impl(-2.0) == -1.0
        assert synth._MEMO.get() == {impl: {_bits(-2.0): -1.0}}
    assert synth._MEMO.get() is None


def _eval_counts(session):
    return session.evaluator.evals, synth._oracle().evals


def test_repeat_compile_in_one_session_has_identical_eval_deltas():
    session = ChassisSession()
    cores = [core_named("log-sub"), core_named("expm1-naive")]
    for core in cores:
        session.samples_for(core)  # samples are session-cached; warm them
    deltas = []
    for core in (cores[0], cores[1], cores[0]):
        before = _eval_counts(session)
        session.compile(core, "fdlibm", use_cache=False)
        after = _eval_counts(session)
        deltas.append((after[0] - before[0], after[1] - before[1]))
    assert deltas[0] == deltas[2]


def test_fdlibm_compile_counts_localize_and_synth_batches():
    session = ChassisSession()
    core = core_named("log-sub")
    before = session.oracle.counters().batch_points
    session.samples_for(core)
    sampled = session.oracle.counters().batch_points - before
    session.compile(core, "fdlibm")
    total = session.oracle.counters().batch_points - before
    assert total > sampled
    # Synthesized operators were settled in batches, not one by one.
    scalar_before = synth._oracle().evals
    session.compile(core_named("log-sub"), "fdlibm", use_cache=False)
    assert synth._oracle().evals - scalar_before < 50
