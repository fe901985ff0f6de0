"""Scalar numeric kernels used by the closed-form solvers.

Everything here is deliberately dependency-free so the solver results are
reproducible bit-for-bit: the package's one Lambert W, the principal
branch W_0 (each level of the STM dual chain, the lower end of the STM
lead bracket and TTM's hover denominators call it), the one bracketed,
safeguarded Newton root finder (it serves both of the STM solver's price
searches and TTM's hover re-tightening), and an adaptive Simpson
integrator used by the verification oracles.
"""

import math
from functools import reduce
from operator import add

from .errors import AccuracyError, BracketingError, NumericDomainError

# exp(-1), the left edge of the W_0 domain
_INV_E = math.exp(-1.0)
# Halley iteration: relative step tolerance and iteration cap
_W_STEP_TOL = 1e-12
_W_MAX_ITER = 200
# integrate_adaptive: integrand evaluations allowed per integral
_QUAD_MAX_EVALS = 200_000


def lambert_w0(x: float) -> float:
    """Principal branch W_0 of the Lambert W function.

    Solves w * exp(w) = x for x >= -1/e using Halley's iteration.  The
    initial guess is piecewise: a series expansion around the branch
    point -1/e (Corless et al. 1996, eq. 4.22), the identity seed near
    zero, and the two-term asymptotic log expansion for large x.

    Arguments within 1e-15 below -1/e are treated as the branch point
    itself (w = -1); anything further below raises NumericDomainError.
    """
    # guards in seed order, so the STM chain's x in [-1/e, 0] reaches its
    # seed in the fewest comparisons
    if x < -0.3243:
        if x < -_INV_E:
            if x >= -_INV_E - 1e-15:
                return -1.0
            raise NumericDomainError(
                f"lambert_w0: argument {x!r} lies below -1/e")
        # series about the branch point; p -> 0 as x -> -1/e
        p = math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
        if p < 1e-4:
            # series truncation error is O(p^4) < 1e-16 here, while the
            # Halley denominator degenerates with w + 1 -> 0: stop now
            return w
    elif x < 1.5:
        if x == 0.0:
            return 0.0
        w = x / (1.0 + x)
    elif x >= 1.5:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    else:
        # NaN fails every ordered comparison above
        raise NumericDomainError("lambert_w0: argument is NaN")

    for _ in range(_W_MAX_ITER):
        ew = math.exp(w)
        r = w * ew - x
        if r == 0.0:
            return w
        # Halley step; near the branch point w + 1 ~ p stays well away
        # from zero relative to the residual, keeping the step finite
        denom = ew * (w + 1.0) - (w + 2.0) * r / (2.0 * (w + 1.0))
        step = r / denom
        w -= step
        if abs(step) <= _W_STEP_TOL * (1.0 + abs(w)):
            return w
    raise AccuracyError(f"lambert_w0: no convergence for argument {x!r}")


def bracketed_newton(fdf, lo: float, hi: float, tol: float,
                     f_lo: float | None = None,
                     f_hi_max: float | None = None) -> float:
    """Root of f on [lo, hi] by Newton steps kept inside a sign-change
    bracket.

    fdf(x) returns (f(x), f'(x)).  Each step is the Newton step from the
    last point evaluated (first from the end with the smaller |f|) when
    that step is finite and lands strictly inside the bracket, and the
    bracket's midpoint otherwise; so an f that reads +inf, as on a
    region outside a function's domain, is simply bisected away.  Every
    step shrinks the bracket.  Terminates when |f| <= tol at an end or
    at the new point, when the bracket a step was taken in is no wider
    than tol, when the Newton step is too small to move x (a steep f
    may never reach tol in floats), or when no float lies strictly
    inside the bracket.  The returned point is always the last one fdf
    was called at, so a caller can keep what fdf computed there.
    Raises BracketingError when f(lo) and f(hi) do not differ in sign.

    f_lo, when given, is the proven sign of f(lo) as +inf or -inf: lo is
    not evaluated, and the first step is taken from hi.

    f_hi_max, when given, is a proven upper bound on f(hi).  Where
    0 < f(lo) < -f_hi_max, f(hi) is below zero and larger in size than
    f(lo), so the sign check passes and the first step is taken from lo
    whatever f(hi) is: hi is not evaluated.
    """
    if not hi > lo:
        raise ValueError("bracketed_newton: need hi > lo")
    flo, dlo = fdf(lo) if f_lo is None else (f_lo, math.nan)
    if abs(flo) <= tol:
        return lo
    if f_hi_max is not None and 0.0 < flo < -f_hi_max:
        last = lo
        x, fx, dx = lo, flo, dlo
    else:
        fhi, dhi = fdf(hi)
        if abs(fhi) <= tol:
            return hi
        if not flo * fhi < 0.0:
            raise BracketingError(
                f"bracketed_newton: no sign change in [{lo!r}, {hi!r}]")
        last = hi
        x, fx, dx = ((lo, flo, dlo) if abs(flo) < abs(fhi)
                     else (hi, fhi, dhi))
    while True:
        new = x - fx / dx if dx != 0.0 else math.nan
        if new == x:
            if x != last:     # the first step, from lo, after hi
                fdf(x)
            return x
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if not lo < new < hi:
                return last
        fx, dx = fdf(new)
        x = last = new
        if abs(fx) <= tol or (hi - lo) <= tol:
            return x
        if flo * fx < 0.0:
            hi = x
        else:
            lo, flo = x, fx


def integrate_adaptive(f, a: float, b: float, rel_tol: float = 1e-9) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    The error target is relative to a rough magnitude estimate of the
    integral of |f|, so sign cancellation cannot silently loosen the
    tolerance.  Each accepted panel contributes its Richardson
    extrapolated value.  Raises AccuracyError when the evaluation budget
    runs out before the target is met.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    if b < a:
        raise NumericDomainError("integrate_adaptive: need a <= b")

    evals = [0]

    def feval(x):
        evals[0] += 1
        if evals[0] > _QUAD_MAX_EVALS:
            raise AccuracyError(
                "integrate_adaptive: evaluation budget exhausted")
        return f(x)

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    # magnitude scale from a fixed coarse pass over |f|
    n0 = 16
    xs = [a + (b - a) * i / n0 for i in range(n0 + 1)]
    fs = [feval(x) for x in xs]
    # a left fold: from CPython 3.12 sum() of floats rounds differently
    scale = reduce(add, map(abs, fs), 0.0) * (b - a) / (n0 + 1)
    abs_tol = rel_tol * max(scale, 1e-300)

    total = 0.0
    # stack entries: (a, fa, b, fb, fm, whole_estimate, local_tol)
    stack = []
    for i in range(n0):
        xa, xb = xs[i], xs[i + 1]
        fa, fb = fs[i], fs[i + 1]
        fm = feval(0.5 * (xa + xb))
        whole = simpson(fa, fm, fb, xb - xa)
        stack.append((xa, fa, xb, fb, fm, whole, abs_tol / n0))

    while stack:
        xa, fa, xb, fb, fm, whole, tol_here = stack.pop()
        xm = 0.5 * (xa + xb)
        fml = feval(0.5 * (xa + xm))
        fmr = feval(0.5 * (xm + xb))
        left = simpson(fa, fml, fm, xm - xa)
        right = simpson(fm, fmr, fb, xb - xm)
        err = left + right - whole
        if abs(err) <= 15.0 * tol_here or (xb - xa) < 1e-14 * (b - a):
            total += left + right + err / 15.0
        else:
            half = 0.5 * tol_here
            stack.append((xa, fa, xm, fm, fml, left, half))
            stack.append((xm, fm, xb, fb, fmr, right, half))
    return total
