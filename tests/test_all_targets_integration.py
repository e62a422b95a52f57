"""Cross-target integration smoke tests: compile on every built-in target.

These are the reproduction's equivalent of the paper's headline claim
("Chassis can compile to a diverse set of targets", section 6.1): one
benchmark per operator-capability tier, compiled on all nine targets, with
the universal invariants checked — well-typed output, Pareto-consistent
frontier, output at least as accurate as the input.
"""

import dataclasses

import pytest

from repro.accuracy import SampleConfig, sample_core
from repro.benchsuite import core_named
from repro.core import CompileConfig, Untranscribable, compile_core
from repro.cost import TargetCostModel
from repro.targets import TARGET_NAMES, get_target

FAST = CompileConfig(iterations=1, localize_points=6, max_variants=12)
SMALL = SampleConfig(n_train=12, n_test=12)

#: One arithmetic-only benchmark (every target can express it).
ARITH_BENCH = "sqrt-sub"
#: One transcendental benchmark (hardware targets need polynomials).
TRANSCENDENTAL_BENCH = "logistic"


def _core_for(bench: str, target):
    """The benchmark retuned to a format the target computes in.

    The narrow-format targets (fp16/bf16) carry no binary64 operators —
    compiling on them means compiling *into* their format, so the core's
    ``:precision`` moves to the target's and sampling follows.
    """
    core = core_named(bench)
    formats = target.float_types()
    if core.precision not in formats:
        core = dataclasses.replace(core, precision=formats[0])
    return core


@pytest.fixture(scope="module")
def arith_samples():
    return sample_core(core_named(ARITH_BENCH), SMALL)


@pytest.fixture(scope="module")
def transcendental_samples():
    return sample_core(core_named(TRANSCENDENTAL_BENCH), SMALL)


@pytest.mark.parametrize("target_name", TARGET_NAMES)
def test_arith_benchmark_on_every_target(target_name, arith_samples):
    target = get_target(target_name)
    core = _core_for(ARITH_BENCH, target)
    samples = (
        arith_samples
        if core.precision == "binary64"
        else sample_core(core, SMALL)
    )
    result = compile_core(core, target, FAST, samples=samples)

    assert len(result.frontier) >= 1
    model = TargetCostModel(target)
    for candidate in result.frontier:
        assert model.supports_program(candidate.program), candidate
        assert 0 <= candidate.error <= 64
        assert candidate.cost > 0
    assert (
        result.frontier.best_error().error
        <= result.input_candidate.error + 1e-9
    )


@pytest.mark.parametrize("target_name", TARGET_NAMES)
def test_transcendental_benchmark_on_every_target(
    target_name, transcendental_samples
):
    target = get_target(target_name)
    core = _core_for(TRANSCENDENTAL_BENCH, target)
    samples = (
        transcendental_samples
        if core.precision == "binary64"
        else sample_core(core, SMALL)
    )
    result = compile_core(core, target, FAST, samples=samples)
    assert len(result.frontier) >= 1
    model = TargetCostModel(target)
    for candidate in result.frontier:
        assert model.supports_program(candidate.program)
    if target_name in ("arith", "arith-fma", "avx"):
        # No exp instruction: the output must be a polynomial.
        for candidate in result.frontier:
            assert "exp" not in str(candidate.program)
