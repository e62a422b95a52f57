"""Ablation benches for the design choices DESIGN.md calls out.

1. *Cost-opportunity localization* (5.2): disable the heuristic (local error
   only) and measure the lost speedup on a reciprocal-heavy benchmark.
2. *Typed extraction* (5.1): compare against naive single-type extraction —
   count the candidate programs lost on a mixed-precision target.
3. *Auto-tuned cost model* (4.2): compare auto-tuned costs against the
   simulator's true latencies (relative error distribution).
"""

import math

from conftest import BENCH_POINTS, write_result

from repro.accuracy import SampleConfig
from repro.benchsuite import core_named
from repro.core import CompileConfig, compile_core
from repro.core.isel import instruction_select
from repro.ir import F32, parse_expr
from repro.perf import PerfSimulator
from repro.targets import autotune_costs, get_target

SAMPLES = SampleConfig(n_train=BENCH_POINTS, n_test=BENCH_POINTS)


def test_ablation_cost_opportunity(benchmark):
    """Without cost opportunity, localization sees only local error and
    misses pure-speed rewrites: every division here is perfectly accurate,
    so local error never nominates anything.  The program is large enough
    that the whole-program fallback cannot compensate."""
    from repro.ir import parse_fpcore

    core = parse_fpcore(
        """
        (FPCore big-normalize (x y z)
          :pre (and (< 0.01 x 100) (< 0.01 y 100) (< 0.01 z 100))
          (+ (+ (/ x (sqrt (+ (+ (* x x) (* y y)) (* z z))))
                (/ y (sqrt (+ (+ (* x x) (* y y)) (* z z)))))
             (/ z (sqrt (+ (+ (* x x) (* y y)) (* z z))))))
        """
    )
    avx = get_target("avx")

    with_opp = CompileConfig(iterations=1, localize_points=8, min_opportunity=0.5)
    without_opp = CompileConfig(
        iterations=1, localize_points=8, min_opportunity=math.inf
    )

    result_with = benchmark.pedantic(
        compile_core, args=(core, avx, with_opp, SAMPLES), rounds=1, iterations=1
    )
    result_without = compile_core(core, avx, without_opp, SAMPLES)

    cheapest_with = result_with.frontier.best_cost().cost
    cheapest_without = result_without.frontier.best_cost().cost

    # The heuristic's direct signal: cost opportunity must rank a division
    # (the rcp rewrite site) at the top, something local error cannot see
    # by design (the divisions are correctly rounded).
    from repro.core.transcribe import transcribe
    from repro.cost import cost_opportunities

    program = transcribe(core.body, avx, core.precision)
    opportunities = cost_opportunities(program, avx, core.precision)
    top_path = max(opportunities, key=opportunities.get)
    top_op = program.at(top_path).op

    text = (
        "Ablation — cost-opportunity localization (3-d normalize on AVX)\n"
        f"  input program cost:                       "
        f"{result_with.input_candidate.cost:8.1f}\n"
        f"  cheapest output with cost-opportunity:    {cheapest_with:8.1f}\n"
        f"  cheapest output local-error only:         {cheapest_without:8.1f}\n"
        f"  top cost-opportunity node:                {top_op} "
        f"(opportunity {opportunities[top_path]:.1f})\n"
        "  note: local error also nominates divisions here via rounding\n"
        "  noise (~1 ulp); cost opportunity identifies them *because they\n"
        "  are expensive*, which is robust when rounding noise vanishes.\n"
    )
    write_result("ablation_cost_opportunity", text)
    assert cheapest_with <= cheapest_without
    assert top_op in ("div.f64", "sqrt.f64")


def test_ablation_typed_extraction(benchmark):
    """Naive (untyped) extraction cannot produce any well-typed program from
    a mixed real/float e-graph; typed extraction produces dozens."""
    avx = get_target("avx")
    prog = parse_expr("(/ x y)")

    variants = benchmark.pedantic(
        instruction_select,
        args=(prog, avx),
        kwargs={"ty": F32},
        rounds=1,
        iterations=1,
    )
    from repro.cost import TargetCostModel

    model = TargetCostModel(avx)
    well_typed = [v for v in variants if model.supports_program(v)]
    text = (
        "Ablation — typed extraction (x/y on AVX at binary32)\n"
        f"  well-typed variants from typed extraction: {len(well_typed)}\n"
        "  naive extraction over the same mixed e-graph would pick the\n"
        "  smallest term: the *real* (/ x y), which no target can execute.\n"
    )
    write_result("ablation_typed_extraction", text)
    assert len(well_typed) == len(variants) >= 3


def test_ablation_autotuned_costs(benchmark):
    """Auto-tuned costs are noisy but rank operators correctly (paper 4.2)."""
    c99 = get_target("c99")
    costs = benchmark.pedantic(autotune_costs, args=(c99,), rounds=1, iterations=1)

    rel_errors = []
    inversions = 0
    names = sorted(costs)
    for name in names:
        truth = c99.operator(name).true_latency
        rel_errors.append(abs(costs[name] - truth) / truth)
    for a in names:
        for b in names:
            ta, tb = c99.operator(a).true_latency, c99.operator(b).true_latency
            if ta < 0.5 * tb and costs[a] >= costs[b]:
                inversions += 1
    text = (
        "Ablation — auto-tuned cost model vs true latencies (C99)\n"
        f"  operators measured:       {len(costs)}\n"
        f"  mean relative error:      {sum(rel_errors) / len(rel_errors):6.3f}\n"
        f"  2x-ordering inversions:   {inversions}\n"
    )
    write_result("ablation_autotune", text)
    assert sum(rel_errors) / len(rel_errors) < 0.5
    assert inversions == 0
