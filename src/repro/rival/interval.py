"""Real interval arithmetic over mpmath — our stand-in for the Rival library.

Herbie and Chassis score accuracy against "correctly rounded" results
computed by the Rival interval library (paper section 3.1).  This module
provides the same contract: guaranteed-enclosure interval arithmetic over
arbitrary-precision floats, with a *possible error* flag for domain
violations (log of a negative, division by zero, ...).

Soundness recipe: each operation computes endpoint values with mpmath at the
current working precision (mpmath's transcendental functions are accurate to
~1 ulp) and then widens the result outward by a few ulps at that precision.
The adaptive evaluator (:mod:`repro.rival.eval`) escalates precision until
the enclosure rounds unambiguously into the target format, so the widening
margin only costs iterations, never correctness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    from_man_exp,
    from_rational,
    mpf_abs,
    mpf_add,
    mpf_shift,
    mpf_sub,
    round_ceiling,
    round_floor,
    round_nearest,
)


class DomainError(ArithmeticError):
    """The expression is (certainly) undefined at the evaluated point."""


class Interval:
    """A closed real interval ``[lo, hi]`` with a possible-error flag.

    ``err=True`` means the true result *may* be a domain error (the input
    enclosure straddles a singularity or domain edge); the adaptive
    evaluator treats it as "escalate precision, and give up if it persists".
    """

    __slots__ = ("lo", "hi", "err")

    def __init__(self, lo, hi, err: bool = False):
        self.lo = mpf(lo)
        self.hi = mpf(hi)
        self.err = err
        if not err and not (self.lo <= self.hi):
            if mpmath.isnan(self.lo) or mpmath.isnan(self.hi):
                self.err = True
            else:
                raise ValueError(f"inverted interval [{lo}, {hi}]")

    # --- constructors -----------------------------------------------------------

    @staticmethod
    def point(value) -> "Interval":
        """The tightest interval around an exact value at the working precision.

        A float becomes a width-zero point: every ladder precision holds a
        binary64 exactly.  An int or Fraction is rounded outward, so a
        literal wider than the working precision gets its two neighbours
        rather than a nearest value that excludes it; one that fits is a
        width-zero point.
        """
        if isinstance(value, int):
            value = Fraction(value)
        if isinstance(value, Fraction):
            prec = mp.prec
            p, q = value.numerator, value.denominator
            return Interval(
                mp.make_mpf(from_rational(p, q, prec, round_floor)),
                mp.make_mpf(from_rational(p, q, prec, round_ceiling)),
            )
        v = mpf(value)
        return Interval(v, v)

    @staticmethod
    def error() -> "Interval":
        """A certainly-erroneous interval."""
        return Interval(mpf("nan"), mpf("nan"), err=True)

    # --- inspection --------------------------------------------------------------

    def is_point(self) -> bool:
        return not self.err and self.lo == self.hi

    def width(self) -> mpf:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        v = mpf(value)
        return not self.err and self.lo <= v <= self.hi

    def contains_zero(self) -> bool:
        return not self.err and self.lo <= 0 <= self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", err" if self.err else ""
        return f"Interval({mpmath.nstr(self.lo, 12)}, {mpmath.nstr(self.hi, 12)}{flag})"


# --- outward widening ------------------------------------------------------------


#: The absolute margin floor ``2^(-prec-1080)``, per working precision.
_FLOOR: dict[int, tuple] = {}


def _margin(x: mpf, prec: int) -> tuple:
    """``|x| * 2^(3-prec) + 2^(-prec-1080)`` as a raw mpf value.

    A few ulps at ``prec`` plus an absolute floor.  The scaling is an
    exponent shift, which is exact, so only the sum rounds (to nearest
    at ``prec``, as ``mpf`` arithmetic does).
    """
    floor = _FLOOR.get(prec)
    if floor is None:
        floor = _FLOOR[prec] = from_man_exp(1, -prec - 1080)
    return mpf_add(mpf_shift(mpf_abs(x._mpf_), 3 - prec), floor, prec, round_nearest)


def _down(x: mpf) -> mpf:
    """A value certainly <= the true value that ``x`` approximates."""
    if mpmath.isinf(x) or mpmath.isnan(x):
        return x
    prec = mp.prec
    return mp.make_mpf(mpf_sub(x._mpf_, _margin(x, prec), prec, round_nearest))


def _up(x: mpf) -> mpf:
    """A value certainly >= the true value that ``x`` approximates."""
    if mpmath.isinf(x) or mpmath.isnan(x):
        return x
    prec = mp.prec
    return mp.make_mpf(mpf_add(x._mpf_, _margin(x, prec), prec, round_nearest))


def _widened(lo: mpf, hi: mpf) -> Interval:
    return Interval(_down(lo), _up(hi))


# --- exact endpoint arithmetic -----------------------------------------------------


def iadd(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    return _widened(a.lo + b.lo, a.hi + b.hi)


def isub(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    return _widened(a.lo - b.hi, a.hi - b.lo)


def ineg(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    return Interval(-a.hi, -a.lo)


def imul(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _widened(min(products), max(products))


def idiv(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    if b.contains_zero():
        # A point denominator of exactly 0 is certainly an error; an interval
        # merely straddling 0 may shrink away at higher precision.
        return Interval.error()
    quotients = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
    return _widened(min(quotients), max(quotients))


def ifabs(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    if a.lo >= 0:
        return Interval(a.lo, a.hi)
    if a.hi <= 0:
        return Interval(-a.hi, -a.lo)
    return Interval(mpf(0), max(-a.lo, a.hi))


def ifmin(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def ifmax(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def icopysign(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    mag = ifabs(a)
    if b.lo > 0:
        return mag
    if b.hi < 0:
        return ineg(mag)
    return Interval(-mag.hi, mag.hi)


# --- monotone function lifting -------------------------------------------------------


def _monotone_inc(fn: Callable, a: Interval, lo_ok: Callable | None = None) -> Interval:
    """Lift a monotonically increasing function with optional domain check."""
    if a.err:
        return Interval.error()
    if lo_ok is not None and not lo_ok(a):
        return Interval.error()
    try:
        return _widened(fn(a.lo), fn(a.hi))
    except (ValueError, mpmath.libmp.ComplexResult, ZeroDivisionError, OverflowError):
        return Interval.error()


def iexp(a: Interval) -> Interval:
    return _monotone_inc(mpmath.exp, a)


def iexpm1(a: Interval) -> Interval:
    return _monotone_inc(mpmath.expm1, a)


def ilog(a: Interval) -> Interval:
    return _monotone_inc(mpmath.log, a, lambda iv: iv.lo > 0)


def ilog2(a: Interval) -> Interval:
    return _monotone_inc(lambda x: mpmath.log(x, 2), a, lambda iv: iv.lo > 0)


def ilog10(a: Interval) -> Interval:
    return _monotone_inc(mpmath.log10, a, lambda iv: iv.lo > 0)


def ilog1p(a: Interval) -> Interval:
    return _monotone_inc(mpmath.log1p, a, lambda iv: iv.lo > -1)


def isqrt(a: Interval) -> Interval:
    return _monotone_inc(mpmath.sqrt, a, lambda iv: iv.lo >= 0)


def _real_cbrt(x):
    """Real cube root (mpmath.cbrt returns the complex principal root)."""
    if x >= 0:
        return mpmath.cbrt(x)
    return -mpmath.cbrt(-x)


def icbrt(a: Interval) -> Interval:
    return _monotone_inc(_real_cbrt, a)


def iasin(a: Interval) -> Interval:
    return _monotone_inc(mpmath.asin, a, lambda iv: iv.lo >= -1 and iv.hi <= 1)


def iacos(a: Interval) -> Interval:
    if a.err or a.lo < -1 or a.hi > 1:
        return Interval.error()
    return _widened(mpmath.acos(a.hi), mpmath.acos(a.lo))


def iatan(a: Interval) -> Interval:
    return _monotone_inc(mpmath.atan, a)


def isinh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.sinh, a)


def itanh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.tanh, a)


def iasinh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.asinh, a)


def iacosh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.acosh, a, lambda iv: iv.lo >= 1)


def iatanh(a: Interval) -> Interval:
    return _monotone_inc(mpmath.atanh, a, lambda iv: iv.lo > -1 and iv.hi < 1)


def icosh(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    hi = max(mpmath.cosh(a.lo), mpmath.cosh(a.hi))
    lo = mpf(1) if a.contains_zero() else min(mpmath.cosh(a.lo), mpmath.cosh(a.hi))
    return _widened(lo, hi)


# --- periodic functions ----------------------------------------------------------------


#: π rounded to nearest, per working precision.
_PI: dict[int, mpf] = {}


def _pi() -> mpf:
    pi = _PI.get(mp.prec)
    if pi is None:
        pi = _PI[mp.prec] = mpmath.pi()
    return pi


def isin(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    two_pi = 2 * _pi()
    if a.width() >= two_pi:
        return Interval(mpf(-1), mpf(1))
    half_pi = _pi() / 2
    # Maximum at pi/2 + 2k*pi within [lo, hi]?
    has_max = mpmath.floor((a.hi - half_pi) / two_pi) >= mpmath.ceil(
        (a.lo - half_pi) / two_pi
    )
    has_min = mpmath.floor((a.hi + half_pi) / two_pi) >= mpmath.ceil(
        (a.lo + half_pi) / two_pi
    )
    values = (mpmath.sin(a.lo), mpmath.sin(a.hi))
    hi = mpf(1) if has_max else _up(max(values))
    lo = mpf(-1) if has_min else _down(min(values))
    return Interval(max(lo, mpf(-1)), min(hi, mpf(1)))


def icos(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    half_pi = _pi() / 2
    shift = Interval(_down(half_pi), _up(half_pi))
    return isin(iadd(a, shift))


def itan(a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    pi = _pi()
    # Does [lo, hi] contain an asymptote pi/2 + k*pi?
    if mpmath.floor((a.hi - pi / 2) / pi) >= mpmath.ceil((a.lo - pi / 2) / pi):
        return Interval.error()
    return _widened(mpmath.tan(a.lo), mpmath.tan(a.hi))


# --- power -----------------------------------------------------------------------------


def ipow(a: Interval, b: Interval) -> Interval:
    if a.err or b.err:
        return Interval.error()
    if b.is_point() and mpmath.isint(b.lo):
        return _ipow_int(a, int(b.lo))
    if a.lo > 0:
        return iexp(imul(b, ilog(a)))
    return Interval.error()


def _ipow_int(a: Interval, n: int) -> Interval:
    if n == 0:
        return Interval.point(1)
    if n < 0:
        inv = idiv(Interval.point(1), a)
        return _ipow_int(inv, -n) if not inv.err else Interval.error()
    lo_p, hi_p = a.lo**n, a.hi**n
    if n % 2 == 1:
        return _widened(lo_p, hi_p)
    if a.lo >= 0:
        return _widened(lo_p, hi_p)
    if a.hi <= 0:
        return _widened(hi_p, lo_p)
    return _widened(mpf(0), max(lo_p, hi_p))


def ihypot(a: Interval, b: Interval) -> Interval:
    return isqrt(iadd(imul(a, a), imul(b, b)))


def iatan2(y: Interval, x: Interval) -> Interval:
    if y.err or x.err:
        return Interval.error()
    if x.lo > 0 or (x.lo >= 0 and not y.contains_zero()) or y.lo > 0 or y.hi < 0:
        corners = [
            mpmath.atan2(yy, xx)
            for yy in (y.lo, y.hi)
            for xx in (x.lo, x.hi)
        ]
        return _widened(min(corners), max(corners))
    # Interval straddles the branch cut (negative x-axis) or the origin.
    return Interval.error()


# --- rounding functions --------------------------------------------------------------------


def _rounding(fn: Callable, a: Interval) -> Interval:
    if a.err:
        return Interval.error()
    return Interval(fn(a.lo), fn(a.hi))


def ifloor(a: Interval) -> Interval:
    return _rounding(mpmath.floor, a)


def iceil(a: Interval) -> Interval:
    return _rounding(mpmath.ceil, a)


def itrunc(a: Interval) -> Interval:
    return _rounding(lambda x: mpmath.floor(x) if x >= 0 else mpmath.ceil(x), a)


def iround(a: Interval) -> Interval:
    return _rounding(mpmath.nint, a)


def ifmod(a: Interval, b: Interval) -> Interval:
    if a.err or b.err or b.contains_zero():
        return Interval.error()
    quotient = itrunc(idiv(a, b))
    if quotient.lo != quotient.hi:
        # Straddles a discontinuity; escalation may shrink it for points.
        return Interval.error()
    return isub(a, imul(b, quotient))


# --- dispatch table ----------------------------------------------------------------------

#: Interval implementation for each real operator.
INTERVAL_OPS: dict[str, Callable[..., Interval]] = {
    "+": iadd,
    "-": isub,
    "*": imul,
    "/": idiv,
    "neg": ineg,
    "fabs": ifabs,
    "fmin": ifmin,
    "fmax": ifmax,
    "copysign": icopysign,
    "sqrt": isqrt,
    "cbrt": icbrt,
    "pow": ipow,
    "hypot": ihypot,
    "exp": iexp,
    "exp2": lambda a: ipow(Interval.point(2), a),
    "expm1": iexpm1,
    "log": ilog,
    "log2": ilog2,
    "log10": ilog10,
    "log1p": ilog1p,
    "sin": isin,
    "cos": icos,
    "tan": itan,
    "asin": iasin,
    "acos": iacos,
    "atan": iatan,
    "atan2": iatan2,
    "sinh": isinh,
    "cosh": icosh,
    "tanh": itanh,
    "asinh": iasinh,
    "acosh": iacosh,
    "atanh": iatanh,
    "floor": ifloor,
    "ceil": iceil,
    "round": iround,
    "trunc": itrunc,
    "fmod": ifmod,
}
