"""Quickstart: compile one expression for one target and inspect the frontier.

Run:  python examples/quickstart.py

Chassis takes a real-number expression (FPCore) and a *target description*
and produces a Pareto frontier of floating-point programs trading speed for
accuracy.  Here we compile the classic catastrophic-cancellation example
``sqrt(x+1) - sqrt(x)`` for the C 99 target.
"""

from repro import ChassisSession, CompileConfig, SampleConfig, get_target, parse_fpcore
from repro.core import render
from repro.ir import expr_to_infix

CORE = parse_fpcore(
    """
    (FPCore sqrt-sub (x)
      :name "sqrt(x+1) - sqrt(x)"
      :pre (and (<= 1e6 x) (<= x 1e18))
      (- (sqrt (+ x 1)) (sqrt x)))
    """
)


def main() -> None:
    target = get_target("c99")
    with ChassisSession(
        config=CompileConfig(iterations=2),
        sample_config=SampleConfig(n_train=48, n_test=48),
    ) as session:
        result = session.compile(CORE, target)

    print(f"Benchmark: {CORE.properties.get('name', CORE.name)}")
    print(f"Target:    {target.name} ({target.description})")
    print()
    inp = result.input_candidate
    print(f"input  cost={inp.cost:8.1f}  bits-of-error={inp.error:6.2f}")
    print(f"       {expr_to_infix(inp.program)}")
    print()
    print(f"Pareto frontier ({len(result.frontier)} programs, cheap -> accurate):")
    for candidate in result.frontier:
        print(f"  cost={candidate.cost:8.1f}  bits-of-error={candidate.error:6.2f}")
        print(f"       {expr_to_infix(candidate.program)}")
    print()
    print("Most accurate output, rendered as C:")
    print(render(result.frontier.best_error().program, CORE, target))


if __name__ == "__main__":
    main()
