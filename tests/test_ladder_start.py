"""The mpmath ladder's start rung and its cheaper interval passes.

``MpmathBackend._ladder_batch`` starts each point at the rung where the
previous point of the same call settled, and the evaluator accepts a
start above rung 0 only for a nonzero value; anything else replays the
ladder from rung 0.  These tests hold it to its contract:
sample sets bit-identical to the rung-0 ladder (pinned digests of every
curated core), per-point identity on cancellation-heavy residues, the
exactness of the ``ldexp``-style widening margins, and the pass savings
that motivate it.
"""

from __future__ import annotations

import hashlib
import struct

import mpmath
import pytest
from mpmath import mp, mpf

from repro.accuracy.sampler import SampleConfig, sample_core
from repro.api import ChassisSession
from repro.benchsuite.suite import core_named, curated_suite
from repro.ir.parser import parse_expr
from repro.ir.types import F64
from repro.rival.backends import MpmathBackend, make_backend, resolve_backend_name
from repro.rival.backends.base import OK, classify_failure
from repro.rival.eval import DEFAULT_PRECISIONS, RivalEvaluator
from repro.rival.interval import Interval, _down, _up

#: Sample-set digests of every curated core at the default SampleConfig,
#: as the rung-0 ladder (every point climbing from 80 bits) produces them.
SAMPLE_DIGESTS = {
    "quadratic-mod": "40ed97e1bda9276d",
    "ellipse-angle": "edefe2ead8868755",
    "acoth": "46fe8f9abb6cb540",
    "sqrt-sub": "8bee642d708dec67",
    "quad-plus": "131d807dff4fc801",
    "quad-minus": "14d37c45c5f2a541",
    "expm1-naive": "d21d568186fc0f8b",
    "log1p-naive": "d4f8d58dd0e81527",
    "cos-frac": "9c67c1a6a77c3a03",
    "sin-frac": "5b4f66cb20aa4152",
    "tan-sub-sin": "1478b1cc0d7f5280",
    "exp-frac": "bd0c2d29e983f30b",
    "log-sub": "3af4fd49388dce27",
    "rcp-diff": "e9f1b40e68459fd6",
    "sqrt-sq-sub": "39ef04d1e3513e4c",
    "sinh-naive": "6b11d1195ed64e5d",
    "x-sub-sin": "e1349379f1747f9e",
    "cos2-sin2": "b3e2ca0083ebf307",
    "logistic": "cf3b82617c9c87eb",
    "softplus": "c7ddb35ab5647dde",
    "logsumexp2": "6f792ce46a7ae700",
    "hypot-naive": "3441d4675e9cdafe",
    "norm3d": "63a707b177729091",
    "asinh-naive": "863a7c3c7204d9bc",
    "geo-mean": "38796b9a168672bd",
    "harmonic-mean": "a0142610c3196a1d",
    "midpoint": "6871c8b33ad5e0b4",
    "quad-disc": "15f9242edac59d09",
    "triangle-area": "0d2a7dacbd10737a",
    "slerp-weight": "80023daa77639779",
    "deg-dist": "f7e2ccce0624eb47",
    "variance-2": "5a4290615e78a2d8",
    "pythag-diff": "01c228ed471446b6",
    "poly-horner": "d26ea8808bade6aa",
    "rump": "b5be636f5bc260b0",
    "sum-sq-diff": "b9e1f22b747c826f",
    "cube-diff": "4d61a92d6e2ae209",
    "div-chain": "30a5ebd781d802a8",
    "rcp-norm": "66c9c37545d0baf7",
    "rcp-sum": "9f05f6eb93559554",
    "fma-chain": "c71a0eb9cefd7a26",
    "poly-eval-2": "6afcbdd5d0224e3f",
    "tanh-naive": "d2b2ab14e3f1f1c5",
    "sigmoid-diff": "3ca0722c13299e78",
    "exp-sq": "07b2ad87494620f8",
    "cosh-1": "7c034f2703b7eb38",
    "lorentz": "713ede3f73237b00",
    "planck": "843b258174b56bc3",
    "entropy-term": "c419429651a6f4ee",
    "haversine-half": "c132e414643d28d1",
    "compound-interest": "efe93044aa26725a",
    "gauss-kernel": "1c473b33b834eb53",
    "sqrt-2nd-diff": "95088fcc939fa10d",
    "atan-diff": "501c9d6114bf5ca4",
    "cot-small": "c33d039a20095351",
    "sinc-sq": "7aa639f87403a26b",
    "cube-expand": "cd69842b6721445e",
    "exp-ratio": "4497f95969462b66",
    "log-ratio-sym": "a88080ba815ecc6f",
    "hypot3-diff": "2484038fbd7cdff3",
}

#: Cancellation-heavy cores whose points mostly reach the ladder.
RESIDUE_CORES = (
    "deg-dist", "cosh-1", "tanh-naive", "x-sub-sin", "tan-sub-sin",
    "quadratic-mod",
)
#: Those whose residue includes zero-valued points (the replay path).
ZERO_RESIDUE = {"deg-dist", "cosh-1", "x-sub-sin", "tan-sub-sin"}


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _digest(core, samples) -> str:
    """Points, exact-value bit patterns and acceptance of a sample set."""
    h = hashlib.sha256()
    for points, exacts in (
        (samples.train, samples.train_exact),
        (samples.test, samples.test_exact),
    ):
        h.update(struct.pack("<q", len(points)))
        for point, exact in zip(points, exacts):
            for name in core.arguments:
                h.update(_bits(point[name]))
            h.update(_bits(exact))
    h.update(struct.pack("<d", samples.acceptance))
    return h.hexdigest()[:16]


def _outcome(evaluator, expr, point, ty=F64):
    """``(status, bits)`` of a rung-0 ``eval()``, failures as statuses."""
    try:
        return (OK, _bits(evaluator.eval(expr, point, ty)))
    except Exception as exc:  # noqa: BLE001 - mapped like a batch failure
        return (classify_failure(exc).status, None)


@pytest.fixture(scope="module")
def env_oracle():
    """The oracle ``REPRO_ORACLE_BACKEND`` asks for, with a real worker
    pool behind it when that is ``pool`` (so sampling runs the ladder per
    worker chunk)."""
    jobs = 2 if resolve_backend_name() == "pool" else 1
    with ChassisSession(jobs=jobs) as session:
        yield session.oracle


def _ladder_residue(core, monkeypatch):
    """Sample ``core`` in-process and record every ladder call as
    ``(expr, points, ty, passes)``; returns the calls and the evaluator."""
    calls = []
    ladder = MpmathBackend._ladder_batch

    def spy(self, expr, points, ty):
        before = self.evaluator.passes
        results = ladder(self, expr, points, ty)
        calls.append((expr, list(points), ty, self.evaluator.passes - before))
        return results

    monkeypatch.setattr(MpmathBackend, "_ladder_batch", spy)
    evaluator = RivalEvaluator()
    sample_core(core, SampleConfig(), oracle=make_backend("numpy", evaluator=evaluator))
    monkeypatch.undo()
    return calls


class TestSampleSetsUnchanged:
    def test_every_curated_core_matches_its_pinned_digest(self, env_oracle):
        cores = curated_suite()
        assert sorted(core.name for core in cores) == sorted(SAMPLE_DIGESTS)
        got = {
            core.name: _digest(core, sample_core(core, SampleConfig(), oracle=env_oracle))
            for core in cores
        }
        assert got == SAMPLE_DIGESTS
        if resolve_backend_name() == "pool":
            assert env_oracle.counters().pool_chunks > 0


class TestLadderResidue:
    @pytest.mark.parametrize("name", RESIDUE_CORES)
    def test_batch_equals_rung0_eval_per_point(self, name, monkeypatch):
        calls = _ladder_residue(core_named(name), monkeypatch)
        assert calls, "the cascade sent nothing to the ladder"
        reference = RivalEvaluator()
        batch = MpmathBackend(RivalEvaluator())
        zeros = 0
        for expr, points, ty, _passes in calls:
            want = [_outcome(reference, expr, p, ty) for p in points]
            got = [
                (r.status, _bits(r.value) if r.ok else None)
                for r in batch._ladder_batch(expr, points, ty)
            ]
            assert got == want
            zeros += sum(bits in (_bits(0.0), _bits(-0.0)) for _s, bits in want)
        assert bool(zeros) == (name in ZERO_RESIDUE)

    def test_deg_dist_runs_under_half_the_rung0_passes(self, monkeypatch):
        calls = _ladder_residue(core_named("deg-dist"), monkeypatch)
        reference = RivalEvaluator()
        for expr, points, ty, _passes in calls:
            for point in points:
                _outcome(reference, expr, point, ty)
        started = sum(passes for *_rest, passes in calls)
        assert 0 < started < reference.passes / 2


class TestSettle:
    X_SUB_SIN = parse_expr("(- x (sin x))")
    #: ``x - sin x`` underflows here: the rung-0 ladder answers a zero at
    #: rung 3 with the sign of that rung's lower endpoint.
    TINY = {"x": 3.05e-142}

    @pytest.mark.parametrize("start", range(len(DEFAULT_PRECISIONS)))
    def test_zero_is_answered_as_from_rung0(self, start):
        evaluator = RivalEvaluator()
        want = _bits(evaluator.eval(self.X_SUB_SIN, self.TINY))
        value, rung = evaluator._settle(self.X_SUB_SIN, self.TINY, F64, start)
        assert (_bits(value), rung) == (want, 3)

    def test_no_rung_runs_twice_on_replay(self):
        evaluator = RivalEvaluator()
        evaluator._settle(self.X_SUB_SIN, self.TINY, F64, 4)
        # rung 4 (a zero), then rungs 0..3 of the replay
        assert evaluator.passes == 5

    def test_nonzero_is_accepted_at_the_start_rung(self):
        evaluator = RivalEvaluator()
        point = {"x": 1e-30}
        want = evaluator.eval(self.X_SUB_SIN, point)
        evaluator.passes = evaluator.escalations = 0
        value, rung = evaluator._settle(self.X_SUB_SIN, point, F64, 4)
        assert (_bits(value), rung, evaluator.passes) == (_bits(want), 4, 1)
        assert evaluator.escalations == 1

    def test_conditionals_always_start_at_rung0(self):
        # At 80 bits the literal's enclosure holds x = 1, so the condition
        # divides by an interval straddling zero and the rung-0 ladder
        # answers a domain error; 160 bits would decide it.  A start rung
        # must not skip the rung that gives the ladder's answer.
        expr = parse_expr(
            "(if (< (/ 1 (- x 1.0000000000000000000000000001)) 0) 1 2)"
        )
        point = {"x": 1.0}
        evaluator = RivalEvaluator()
        want = _outcome(evaluator, expr, point)
        try:
            got = (OK, _bits(evaluator._settle(expr, point, F64, 2)[0]))
        except Exception as exc:  # noqa: BLE001 - mapped like a batch failure
            got = (classify_failure(exc).status, None)
        assert got == want


class TestWideLiterals:
    def test_integer_wider_than_the_working_precision(self):
        expr = parse_expr(
            "(- 1000000000000000000000000000001 1000000000000000000000000000000)"
        )
        assert RivalEvaluator().eval(expr, {}) == 1.0

    @pytest.mark.parametrize("prec", DEFAULT_PRECISIONS)
    def test_point_encloses_the_literal(self, prec):
        n = 3**200 + 1
        with mp.workprec(prec):
            interval = Interval.point(n)
            assert interval.lo <= n <= interval.hi
            assert interval.is_point() == (n.bit_length() <= prec)


def _old_margin(x):
    return abs(x) * mpf(2) ** (3 - mp.prec) + mpf(2) ** (-mp.prec - 1080)


def _old_down(x):
    if mpmath.isinf(x) or mpmath.isnan(x):
        return x
    return x - _old_margin(x)


def _old_up(x):
    if mpmath.isinf(x) or mpmath.isnan(x):
        return x
    return x + _old_margin(x)


class TestWideningMargins:
    @pytest.mark.parametrize("prec", DEFAULT_PRECISIONS)
    def test_down_and_up_equal_the_power_formula(self, prec):
        with mp.workprec(prec):
            values = [mpf(0), mpf("inf"), mpf("-inf"), mpf("nan"), mpf(1)]
            for sign in (1, -1):
                values += [
                    sign * mpf(5e-324),                  # least subnormal
                    sign * mpf(2.2250738585072014e-308),  # least normal
                    sign * mpf(2) ** -1100,               # below binary64
                    sign * mpmath.pi() * mpf(2) ** -3000,
                    sign * mpf(1.7976931348623157e308),
                    sign * mpmath.e() * mpf(2) ** 5000,
                ]
            for value in values:
                for new, old in ((_down, _old_down), (_up, _old_up)):
                    got, want = new(value), old(value)
                    if mpmath.isnan(want):
                        assert mpmath.isnan(got)
                    else:
                        assert got._mpf_ == want._mpf_, (prec, value)
