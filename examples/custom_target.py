"""Defining your own target with the S-expression DSL (paper figure 3).

Run:  python examples/custom_target.py

Target descriptions list operators — each with a type signature, a
*desugaring* (the real expression it approximates), optional linking to an
implementation, and a cost.  This example builds a tiny DSP-style target
with a fast approximate reciprocal and compiles a normalization kernel for
it, then auto-tunes the cost model as the paper describes for targets with
no cost information.
"""

from repro import ChassisSession, CompileConfig, SampleConfig, parse_fpcore
from repro.fpeval import approx, impls
from repro.ir import expr_to_sexpr
from repro.targets import autotuned, parse_target_description

TARGET_SOURCE = """
(define-operator (add.f32 [a binary32] [b binary32]) binary32
  #:approx (+ a b) #:link add32 #:cost 2.0)
(define-operator (sub.f32 [a binary32] [b binary32]) binary32
  #:approx (- a b) #:link sub32 #:cost 2.0)
(define-operator (mul.f32 [a binary32] [b binary32]) binary32
  #:approx (* a b) #:link mul32 #:cost 2.0)
(define-operator (div.f32 [a binary32] [b binary32]) binary32
  #:approx (/ a b) #:link div32 #:cost 14.0)
(define-operator (sqrt.f32 [a binary32]) binary32
  #:approx (sqrt a) #:link sqrt32 #:cost 14.0)
(define-operator (rcp.f32 [a binary32]) binary32
  #:approx (/ 1 a) #:link rcp32 #:cost 3.0)
(define-operator (rsqrt.f32 [a binary32]) binary32
  #:approx (/ 1 (sqrt a)) #:link rsqrt32 #:cost 3.0)

(define-target tiny-dsp
  #:description "a small fixed-function DSP with approximate reciprocals"
  #:if-style vector
  #:if-cost (max 4)
  #:literals ([binary32 1])
  #:operators (add.f32 sub.f32 mul.f32 div.f32 sqrt.f32 rcp.f32 rsqrt.f32))
"""

LINKS = {
    "add32": impls.add32,
    "sub32": impls.sub32,
    "mul32": impls.mul32,
    "div32": impls.div32,
    "sqrt32": impls.sqrt32,
    "rcp32": approx.rcp32,
    "rsqrt32": approx.rsqrt32,
}

CORE = parse_fpcore(
    """
    (FPCore normalize (x y)
      :name "x / sqrt(x^2 + y^2)"
      :precision binary32
      :pre (and (< 0.001 (fabs x) 1000) (< 0.001 (fabs y) 1000))
      (/ x (sqrt (+ (* x x) (* y y)))))
    """
)


def main() -> None:
    target = parse_target_description(TARGET_SOURCE, link_registry=LINKS)
    print(f"Defined target {target.name!r} with {len(target.operators)} operators")

    # The paper: with no cost information, Chassis auto-tunes by measuring
    # single-operator hot loops.
    tuned = autotuned(target)
    print("Auto-tuned costs:", {n: op.cost for n, op in sorted(tuned.operators.items())})
    print()

    with ChassisSession(
        config=CompileConfig(iterations=2),
        sample_config=SampleConfig(n_train=32, n_test=32),
    ) as session:
        result = session.compile(CORE, tuned)
    print("Pareto frontier (rsqrt should replace the div+sqrt chain):")
    for candidate in result.frontier:
        print(f"  cost={candidate.cost:7.1f} err={candidate.error:6.2f}  "
              f"{expr_to_sexpr(candidate.program)}")


if __name__ == "__main__":
    main()
