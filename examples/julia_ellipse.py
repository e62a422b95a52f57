"""Case study 2 (paper section 6.4): the ellipse-angle kernel on Julia.

Run:  python examples/julia_ellipse.py

The input computes a^2 sin^2(pi/180 * theta) + b^2 cos^2(pi/180 * theta) —
an ellipse's implicit-equation coefficient with the angle in *degrees*.
Herbie can only fight the degree-to-radian conversion with series
expansions; Chassis, told about Julia's helper library, reaches for
``sind``/``cosd`` (degree-based trigonometry computed in higher internal
precision) and friends like ``deg2rad`` and ``abs2``.
"""

from repro import ChassisSession, CompileConfig, SampleConfig, get_target, parse_fpcore
from repro.core import render
from repro.ir import expr_to_sexpr

CORE = parse_fpcore(
    """
    (FPCore ellipse-angle (a b theta)
      :name "ellipse implicit-equation coefficient"
      :pre (and (< 0.001 a 1000) (< 0.001 b 1000) (< -360 theta 360))
      (+ (* (* a a) (* (sin (* (/ PI 180) theta)) (sin (* (/ PI 180) theta))))
         (* (* b b) (* (cos (* (/ PI 180) theta)) (cos (* (/ PI 180) theta))))))
    """
)


def main() -> None:
    julia = get_target("julia")
    helpers = [name for name in julia.operators
               if name.split(".")[0] in ("sind", "cosd", "deg2rad", "abs2", "sinpi")]
    print(f"Julia helper operators available: {', '.join(sorted(helpers))}")
    print()

    with ChassisSession(
        config=CompileConfig(iterations=2),
        sample_config=SampleConfig(n_train=32, n_test=32),
    ) as session:
        result = session.compile(CORE, julia)
    print("Pareto frontier on Julia:")
    for candidate in result.frontier:
        print(f"  cost={candidate.cost:7.1f} err={candidate.error:6.2f}  "
              f"{expr_to_sexpr(candidate.program)}")
    print()
    print("Most accurate output as Julia source:")
    print(render(result.frontier.best_error().program, CORE, julia))


if __name__ == "__main__":
    main()
