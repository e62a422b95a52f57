"""Adaptive-precision correctly-rounded evaluation (the Rival contract).

Given a real expression and an exact input point, compute the *correctly
rounded* result in a target float format: evaluate with interval arithmetic
at escalating working precision until the enclosure rounds to a single
floating-point value, exactly as Herbie/Chassis use the Rival library
(paper section 3.1).

The ladder's answer is the one climbed from the lowest precision (rung 0).
A caller may start a point at a higher rung (the batch ladder starts each
point where the previous one settled); that start is accepted only when it
settles a **nonzero** value.  Intervals are sound and rounding is
monotone, so every rung that settles a nonzero value settles the same
float.  A settled zero carries the sign of ``lo`` at the first settling
rung, so a zero, a domain error or exhaustion replays the ladder from rung
0, reusing the passes already run.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

from ..formats import get_format
from ..ir.expr import App, Const, Expr, Num, Var
from ..ir.types import F64
from .interval import INTERVAL_OPS, DomainError, Interval, _pi

#: Working precisions tried in order (bits of significand).
DEFAULT_PRECISIONS = (80, 160, 320, 640, 1280)


class PrecisionExhausted(ArithmeticError):
    """The enclosure failed to converge at the highest working precision."""


def round_to_format(value: mpf, ty) -> float:
    """Round an mpf correctly into float format ``ty`` (returned as Python float).

    Every registered format's values are representable exactly in a
    Python float, so the return type is float for all of them.  This is
    the compound rounding the numpy fast path mirrors: re-round the
    significand to the format's precision half-even at unbounded exponent
    (``mp.workprec``), then apply the format's storage cast for
    overflow/subnormal semantics.
    """
    if mpmath.isnan(value):
        return math.nan
    fmt = get_format(ty)
    with mp.workprec(fmt.precision):
        rounded = +value  # unary plus re-rounds to the context precision
    return fmt.storage_clamp(float(rounded))


def _interval_of_leaf(expr: Expr, point: dict[str, float]) -> Interval:
    if isinstance(expr, Var):
        try:
            return Interval.point(point[expr.name])
        except KeyError:
            raise KeyError(f"no value for variable {expr.name!r}") from None
    if isinstance(expr, (Num, Const)):
        return _constant_interval(expr, mp.prec)
    raise TypeError(f"not a leaf: {expr!r}")


@lru_cache(maxsize=1024)
def _constant_interval(expr: Num | Const, prec: int) -> Interval:
    """The enclosure of a literal or named constant at working precision
    ``prec`` (the current one).  Every pass at that precision rebuilds
    the same intervals, so they are memoized (no interval is mutated
    after construction, so sharing them is safe)."""
    if isinstance(expr, Num):
        value = expr.value
        if value.denominator == 1:
            return Interval.point(value)
        num = Interval.point(value.numerator)
        den = Interval.point(value.denominator)
        return INTERVAL_OPS["/"](num, den)
    if expr.name == "PI":
        pi = _pi()
        return Interval(pi * (1 - mpf(2) ** (2 - prec)), pi * (1 + mpf(2) ** (2 - prec)))
    if expr.name == "E":
        e = mpmath.e()
        return Interval(e * (1 - mpf(2) ** (2 - prec)), e * (1 + mpf(2) ** (2 - prec)))
    if expr.name == "INFINITY":
        return Interval.point(mpf("inf"))
    if expr.name == "NAN":
        return Interval.error()
    raise DomainError(f"constant {expr.name} is not a real value")


class Ambiguous(Exception):
    """A boolean condition could not be decided at this precision."""


def _eval_interval(expr: Expr, point: dict[str, float]) -> Interval:
    """One interval-arithmetic pass at the current working precision."""
    if isinstance(expr, App):
        if expr.op == "if":
            cond = _eval_bool(expr.args[0], point)
            return _eval_interval(expr.args[1 if cond else 2], point)
        fn = INTERVAL_OPS.get(expr.op)
        if fn is None:
            raise KeyError(f"no interval semantics for operator {expr.op!r}")
        args = [_eval_interval(a, point) for a in expr.args]
        return fn(*args)
    return _interval_of_leaf(expr, point)


def _eval_bool(expr: Expr, point: dict[str, float]) -> bool:
    """Decide a comparison/boolean expression exactly, or raise Ambiguous."""
    if isinstance(expr, Const):
        if expr.name == "TRUE":
            return True
        if expr.name == "FALSE":
            return False
    if not isinstance(expr, App):
        raise TypeError(f"not a boolean expression: {expr!r}")
    op = expr.op
    if op == "and":
        return _eval_bool(expr.args[0], point) and _eval_bool(expr.args[1], point)
    if op == "or":
        return _eval_bool(expr.args[0], point) or _eval_bool(expr.args[1], point)
    if op == "not":
        return not _eval_bool(expr.args[0], point)
    left = _eval_interval(expr.args[0], point)
    right = _eval_interval(expr.args[1], point)
    if left.err or right.err:
        raise DomainError(f"domain error inside condition {op}")
    if op == "<":
        if left.hi < right.lo:
            return True
        if left.lo >= right.hi:
            return False
    elif op == "<=":
        if left.hi <= right.lo:
            return True
        if left.lo > right.hi:
            return False
    elif op == ">":
        if left.lo > right.hi:
            return True
        if left.hi <= right.lo:
            return False
    elif op == ">=":
        if left.lo >= right.hi:
            return True
        if left.hi < right.lo:
            return False
    elif op == "==":
        if left.is_point() and right.is_point() and left.lo == right.lo:
            return True
        if left.hi < right.lo or right.hi < left.lo:
            return False
    elif op == "!=":
        if left.hi < right.lo or right.hi < left.lo:
            return True
        if left.is_point() and right.is_point() and left.lo == right.lo:
            return False
    else:
        raise KeyError(f"unknown predicate {op!r}")
    raise Ambiguous(op)


class RivalEvaluator:
    """Correctly-rounded evaluation of real expressions at exact points."""

    def __init__(self, precisions: tuple[int, ...] = DEFAULT_PRECISIONS):
        self.precisions = precisions
        #: Correctly-rounded evaluations performed by this evaluator.
        #: Plain ints, not locked: in-process callers serialize on the
        #: session's mpmath-rung lock (mp.workprec is process-global
        #: state), and per-worker instances are single-threaded — their
        #: counts travel home as ``JobOutcome.oracle`` deltas and merge
        #: into ``SessionStats.rival`` under the session lock.
        self.evals = 0
        #: Evaluations answered above rung 0 (the lowest working
        #: precision).  A batch that starts a point at a higher rung
        #: answers it there, so this counts where answers came from,
        #: not how many rungs a rung-0 ladder would have climbed.
        self.escalations = 0
        #: Interval passes run, one per working precision tried (real
        #: and boolean ladders alike).
        self.passes = 0

    def eval(self, expr: Expr, point: dict[str, float], ty: str = F64) -> float:
        """The correctly rounded value of ``expr`` at ``point`` in format ``ty``.

        Raises :class:`DomainError` when the expression is undefined at the
        point, and :class:`PrecisionExhausted` when the enclosure will not
        converge (e.g. comparing identical quantities for equality).
        """
        return self._settle(expr, point, ty, 0)[0]

    def _pass(
        self, expr: Expr, point: dict[str, float], ty: str, rung: int
    ) -> tuple[float | None, str | None]:
        """One interval pass at ``precisions[rung]``: ``(value, issue)``.

        ``value`` is the settled float, or None when the enclosure does
        not round to one value; ``issue`` names why the ladder must climb
        (None when the enclosure merely was too wide).  A certain
        :class:`DomainError` propagates.
        """
        self.passes += 1
        with mp.workprec(self.precisions[rung]):
            try:
                result = _eval_interval(expr, point)
            except Ambiguous:
                return None, "ambiguous condition"
            if result.err:
                return None, "possible domain error"
            lo = round_to_format(result.lo, ty)
            hi = round_to_format(result.hi, ty)
        return (lo, None) if lo == hi else (None, None)

    def _settle(
        self, expr: Expr, point: dict[str, float], ty: str, start: int
    ) -> tuple[float, int]:
        """``(value, rung)``: the ladder's answer and the rung that gave it.

        The ladder proper climbs from rung 0 and returns the first
        enclosure that rounds to one value.  ``start > 0`` first climbs
        from rung ``start`` and accepts only a **nonzero** settle: sound
        enclosures round monotonically, so every rung that settles a
        nonzero value settles the same float.  A zero is not accepted
        there, because the ladder answers a zero with the sign of ``lo``
        at the *first* settling rung.  A zero, a certain domain error or
        exhaustion replays the ladder from rung 0 instead, reusing the
        passes already run, so no rung runs twice for one point.
        Expressions with conditionals always start at rung 0: a condition
        may raise a possible domain error at a low rung that a higher
        rung decides.
        """
        self.evals += 1
        tried: dict[int, object] = {}
        if start and "if" not in expr.operators():
            for rung in range(start, len(self.precisions)):
                try:
                    outcome = tried[rung] = self._pass(expr, point, ty, rung)
                except DomainError as exc:
                    tried[rung] = exc
                    break
                value = outcome[0]
                if value is not None:
                    if value != 0:
                        self.escalations += 1
                        return value, rung
                    break
        last_issue = "did not converge"
        for rung in range(len(self.precisions)):
            outcome = tried.get(rung)
            if outcome is None:
                outcome = self._pass(expr, point, ty, rung)
            elif isinstance(outcome, DomainError):
                raise outcome
            value, issue = outcome
            if value is not None:
                if rung:
                    self.escalations += 1
                return value, rung
            if issue is not None:
                last_issue = issue
        if last_issue == "possible domain error":
            raise DomainError("domain error persisted at maximum precision")
        raise PrecisionExhausted(last_issue)

    def eval_bool(self, expr: Expr, point: dict[str, float]) -> bool:
        """Decide a boolean expression (e.g. an FPCore precondition)."""
        for prec in self.precisions:
            self.passes += 1
            with mp.workprec(prec):
                try:
                    return _eval_bool(expr, point)
                except Ambiguous:
                    continue
        raise PrecisionExhausted("ambiguous condition at maximum precision")

    def defined_at(self, expr: Expr, point: dict[str, float], ty: str = F64) -> bool:
        """True when the expression has a finite correctly-rounded value."""
        try:
            value = self.eval(expr, point, ty)
        except (DomainError, PrecisionExhausted, KeyError):
            return False
        return math.isfinite(value)
