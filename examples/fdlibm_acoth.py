"""Case study 3 (paper sections 2, 6.4): inverse hyperbolic cotangent on fdlibm.

Run:  python examples/fdlibm_acoth.py

fdlibm implements log via range reduction to ``log(1+s) - log(1-s)``; the
target description exposes that internal subroutine as the ``log1pmd``
operator.  Chassis rewrites ``0.5 * log((1+x)/(1-x))`` into
``log1pmd(x) * 0.5`` — one cheap library-internal call where Herbie's best
needs two log1p calls.
"""

from repro import CompileConfig, SampleConfig, compile_core, get_target, parse_fpcore
from repro.accuracy import sample_core
from repro.baselines import herbie_frontier_on_target
from repro.cost import TargetCostModel
from repro.ir import expr_to_sexpr

CORE = parse_fpcore(
    """
    (FPCore acoth (x)
      :name "inverse hyperbolic cotangent"
      :pre (and (< 0.001 (fabs x)) (< (fabs x) 0.999))
      (* 1/2 (log (/ (+ 1 x) (- 1 x)))))
    """
)


def main() -> None:
    fdlibm = get_target("fdlibm")
    op = fdlibm.operator("log1pmd.f64")
    print(f"fdlibm exposes {op.name}: desugars to {expr_to_sexpr(op.approx)}")
    print(f"  cost {op.cost} vs log.f64 cost {fdlibm.operator('log.f64').cost}")
    print()

    config = CompileConfig(iterations=2)
    samples = sample_core(CORE, SampleConfig(n_train=32, n_test=32))
    result = compile_core(CORE, fdlibm, config, samples=samples)
    print("Chassis frontier on fdlibm:")
    for candidate in result.frontier:
        print(f"  cost={candidate.cost:7.1f} err={candidate.error:6.2f}  "
              f"{expr_to_sexpr(candidate.program)}")

    herbie, stats = herbie_frontier_on_target(CORE, fdlibm, samples, config)
    print()
    print(f"Herbie (target-agnostic), lowered to fdlibm ({stats}):")
    for candidate in herbie:
        print(f"  cost={candidate.cost:7.1f} err={candidate.error:6.2f}  "
              f"{expr_to_sexpr(candidate.program)}")

    model = TargetCostModel(fdlibm)
    best_chassis = result.frontier.best_error()
    best_herbie = herbie.best_error()
    print()
    print(f"At best accuracy: Chassis cost {best_chassis.cost:.1f} vs "
          f"Herbie cost {best_herbie.cost:.1f} "
          f"(x{best_herbie.cost / best_chassis.cost:.2f} advantage)")


if __name__ == "__main__":
    main()
