import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import lambertw as scipy_lambertw

from uavwpt import numerics
from uavwpt.errors import AccuracyError, BracketingError, NumericDomainError
from uavwpt.numerics import bracketed_newton, integrate_adaptive, lambert_w0


def test_lambert_identity_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-12)


def test_lambert_matches_scipy_across_range():
    # independent oracle: scipy's lambertw, principal branch
    xs = np.concatenate([
        -np.exp(-1.0) + np.logspace(-12, -0.5, 40),
        np.logspace(-10, 8, 60),
        [-0.1, -0.01, 0.5, 2.0, 700.0],
    ])
    for x in xs:
        expect = float(scipy_lambertw(float(x)).real)
        got = lambert_w0(float(x))
        # near the branch point both sides lose digits to the e*x + 1
        # cancellation, so 1e-9 is as tight as a fair comparison gets
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-10)


def test_lambert_below_branch_raises():
    with pytest.raises(NumericDomainError):
        lambert_w0(-1.0 / math.e - 1e-6)


def test_lambert_domain_edges():
    with pytest.raises(NumericDomainError, match="argument is NaN"):
        lambert_w0(math.nan)
    # within 1e-15 below -1/e is the branch point itself
    for x in (math.nextafter(-numerics._INV_E, -1.0),
              -numerics._INV_E - 9e-16):
        assert x < -numerics._INV_E
        assert lambert_w0(x) == -1.0


@given(st.floats(min_value=-0.999, max_value=700.0))
def test_lambert_inverse_identity(w):
    # W(w e^w) = w on the principal branch for w >= -1
    x = w * math.exp(w)
    got = lambert_w0(x)
    assert got == pytest.approx(w, rel=1e-9, abs=1e-9)


# SHA-256 over lambert_w0's result (float.hex) or error (type and
# message) on _w0_grid(), so the last bit of any result and the wording
# of every raise show.  Pinned with glibc's libm on x86-64 Linux under
# CPython 3.11.
PINNED_W0_DIGEST = (
    "f0a7f96e7e2a559c138067f24a75dfd2c003b91cdf9f38ab369d513473b2072f")


def _w0_grid() -> list:
    """lambert_w0's arguments: the STM chain's band, both zeros, the
    1e-15 band below -1/e and beyond it, and every seed's range."""
    # the chain's x = -exp(-2 mu - 1), mu log-spaced from 1e-17 (the
    # branch point's series) to 400 (x underflows to -0.0 past 372.1)
    top = math.log10(400.0) + 17.0
    xs = [-math.exp(-2.0 * 10.0 ** (-17.0 + top * k / 20_000) - 1.0)
          for k in range(20_001)]
    xs += [-0.0, 0.0, math.nan, math.inf, -math.inf, -0.5, -1.0]
    # the branch point, and 1e-16 steps below it to 2e-15
    xs += [-numerics._INV_E - k * 1e-16 for k in range(21)]
    xs += [math.nextafter(-numerics._INV_E, -1.0),
           math.nextafter(-numerics._INV_E, 0.0)]
    # series and identity seeds: -1/e to 1.5 in equal steps
    xs += [-numerics._INV_E + (numerics._INV_E + 1.5) * k / 4_000
           for k in range(4_001)]
    # the identity seed near zero and the log seed up to 1e8
    xs += [10.0 ** (k / 100.0) for k in range(-3_000, 801)]
    return xs


def _w0_token(x: float) -> str:
    try:
        return lambert_w0(x).hex()
    except (NumericDomainError, AccuracyError) as e:
        return f"{type(e).__name__}: {e}"


def test_lambert_pinned_bitwise():
    digest = hashlib.sha256()
    for x in _w0_grid():
        digest.update(f"{x.hex()} {_w0_token(x)}\n".encode())
    assert digest.hexdigest() == PINNED_W0_DIGEST


def _with_slope(f, df):
    return lambda x: (f(x), df(x))


def test_bisect_linear():
    up = _with_slope(lambda x: x - 2.0, lambda x: 1.0)
    down = _with_slope(lambda x: 2.0 - x, lambda x: -1.0)
    for fdf in (up, down):
        assert bracketed_newton(fdf, 0.0, 10.0, tol=1e-10) == \
            pytest.approx(2.0)


def test_bisect_sqrt2():
    up = _with_slope(lambda x: x * x - 2.0, lambda x: 2.0 * x)
    down = _with_slope(lambda x: 2.0 - x * x, lambda x: -2.0 * x)
    for fdf in (up, down):
        root = bracketed_newton(fdf, 0.0, 2.0, tol=1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)


def _secant(f, x0, x1, iters=100):
    # deliberately different algorithm, used as the reference
    f0, f1 = f(x0), f(x1)
    for _ in range(iters):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x0, f0 = x1, f1
        x1, f1 = x2, f(x2)
    return x1


def _cubic(r, c, sign):
    # monotone: slope 3(x - r)^2 + c never vanishes for c > 0
    def f(x):
        return sign * ((x - r) ** 3 + c * (x - r))

    def df(x):
        return sign * (3.0 * (x - r) ** 2 + c)

    return f, df


def test_bisect_agrees_with_secant_on_monotone_cubics():
    rng = np.random.default_rng(11)
    for k in range(100):
        r = float(rng.uniform(-5.0, 5.0))
        c = float(rng.uniform(0.1, 4.0))
        f, df = _cubic(r, c, 1.0 if k % 2 else -1.0)
        got = bracketed_newton(_with_slope(f, df), r - 7.0, r + 9.0,
                               tol=1e-12)
        ref = _secant(f, r - 1.0, r + 2.0)
        assert got == pytest.approx(ref, abs=1e-8)


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=4.0),
       st.floats(min_value=0.5, max_value=20.0),
       st.floats(min_value=0.5, max_value=20.0),
       st.sampled_from((1.0, -1.0)))
def test_newton_matches_brentq_on_monotone_cubics(r, c, left, right, sign):
    f, df = _cubic(r, c, sign)
    got = bracketed_newton(_with_slope(f, df), r - left, r + right,
                           tol=1e-12)
    ref = brentq(f, r - left, r + right, xtol=1e-14, rtol=1e-15)
    assert got == pytest.approx(ref, abs=1e-10)


def test_newton_bisects_through_infinite_region():
    # f reads +inf left of 1, as an out-of-domain region does; on the
    # convex decreasing branch beyond it (root 3) the first Newton step
    # from the right overshoots into that region
    seen = []

    def fdf(x):
        seen.append(x)
        if x < 1.0:
            return math.inf, math.nan
        return 1.0 / x - 1.0 / 3.0, -1.0 / (x * x)

    root = bracketed_newton(fdf, -50.0, 10.0, tol=1e-12)
    assert root == pytest.approx(3.0, abs=1e-10)
    assert sum(x < 1.0 for x in seen) >= 2


def test_newton_stops_at_an_end_within_tol():
    seen = []

    def fdf(x):
        seen.append(x)
        return 1e-13 - x, -1.0

    assert bracketed_newton(fdf, 0.0, 1.0, tol=1e-12) == 0.0
    assert seen == [0.0]


def test_newton_stops_at_the_upper_end_within_tol():
    seen = []

    def fdf(x):
        seen.append(x)
        return x - 1.0 + 1e-13, 1.0

    assert bracketed_newton(fdf, 0.0, 1.0, tol=1e-12) == 1.0
    assert seen == [0.0, 1.0]


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0)])
def test_newton_needs_an_ordered_bracket(lo, hi):
    def fdf(x):
        raise AssertionError("f evaluated on an empty bracket")

    with pytest.raises(ValueError, match="need hi > lo"):
        bracketed_newton(fdf, lo, hi, tol=1e-12)


def test_newton_stops_when_its_step_cannot_move_x():
    # so steep that one float step of x jumps over |f| <= tol; bisecting
    # on would take some fifty more evaluations to the same point
    seen = []

    def fdf(x):
        seen.append(x)
        return 1e20 * (x - math.pi) - 3e4, 1e20

    root = bracketed_newton(fdf, 3.0, 4.0, tol=1e-12)
    assert abs(root - math.pi) <= 4.0 * math.ulp(math.pi)
    assert len(seen) <= 5


def test_newton_returns_the_last_point_it_evaluated():
    # the first step, taken from lo after hi was evaluated, cannot move
    # x: the search evaluates lo again, so a caller keeping what fdf
    # computed at the returned point reads it at lo, not at hi
    seen = []

    def fdf(x):
        seen.append(x)
        return 1e-10 - 1e10 * (x - 1.0), -1e10

    root = bracketed_newton(fdf, 1.0, 2.0, tol=1e-12)
    assert root == 1.0
    assert seen == [1.0, 2.0, 1.0]


def test_bounded_upper_end_is_not_evaluated():
    # f = ln(3/x) on [1, 30]: f(lo) = 1.10 and f(hi) = -2.30 <= -2, so
    # with that bound the search takes the same steps from lo, minus hi
    def search(**bound):
        seen = []

        def fdf(x):
            seen.append(x)
            return math.log(3.0 / x), -1.0 / x

        return bracketed_newton(fdf, 1.0, 30.0, tol=1e-12, **bound), seen

    root, seen = search()
    bounded, seen_bounded = search(f_hi_max=-2.0)
    assert seen[:2] == [1.0, 30.0] and len(seen) > 3
    assert seen_bounded == [seen[0], *seen[2:]]
    assert bounded.hex() == root.hex() == seen_bounded[-1].hex()


@pytest.mark.parametrize("flo", [-1.0, 2.0, 3.0])
def test_bounded_upper_end_evaluated_outside_its_range(flo):
    # the skip needs 0 < f(lo) < -f_hi_max; otherwise hi is evaluated
    # and a bracket without a sign change still raises
    seen = []

    def fdf(x):
        seen.append(x)
        return flo + x if flo > 0.0 else flo - x, 1.0

    with pytest.raises(BracketingError):
        bracketed_newton(fdf, 0.0, 1.0, tol=1e-12, f_hi_max=-2.0)
    assert seen == [0.0, 1.0]


def test_bounded_upper_end_on_adjacent_floats_returns_lo():
    # no float lies inside [lo, hi]: the last point evaluated is lo
    seen = []

    def fdf(x):
        seen.append(x)
        return 1.0, -1.0

    lo, hi = 1.0, math.nextafter(1.0, 2.0)
    assert bracketed_newton(fdf, lo, hi, tol=1e-12, f_hi_max=-2.0) == lo
    assert seen == [lo]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_known_lower_end_is_not_evaluated(sign):
    # f = +-ln(3/x) on [0.5, 4]: |f(lo)| = 1.79 > |f(hi)| = 0.29, so a
    # search that evaluates lo steps first from hi; given only lo's sign,
    # the search takes the same steps without evaluating lo
    def search(**known):
        seen = []

        def fdf(x):
            seen.append(x)
            return sign * math.log(3.0 / x), -sign / x

        return bracketed_newton(fdf, 0.5, 4.0, tol=1e-12, **known), seen

    root, seen = search()
    known, seen_known = search(f_lo=sign * math.inf)
    assert seen[:2] == [0.5, 4.0] and len(seen) > 3
    assert seen_known == seen[1:]
    assert known.hex() == root.hex() == seen_known[-1].hex()


def test_known_lower_end_returns_the_last_point_evaluated():
    # lo is never evaluated, so never returned: on adjacent floats, or
    # with f(hi) within tol, the search returns hi
    seen = []

    def line(x):
        seen.append(x)
        return 1.2 - x, -1.0

    for lo, hi in ((math.nextafter(1.25, 0.0), 1.25), (1.0, 1.2)):
        seen.clear()
        assert bracketed_newton(line, lo, hi, tol=1e-12, f_lo=math.inf) == hi
        assert seen == [hi]
    # the given sign is checked against f(hi)'s like an evaluated one
    seen.clear()
    with pytest.raises(BracketingError):
        bracketed_newton(line, 0.0, 1.0, tol=1e-12, f_lo=math.inf)
    assert seen == [1.0]


def test_bisect_no_root_raises():
    with pytest.raises(BracketingError):
        bracketed_newton(_with_slope(lambda x: x * x + 1.0,
                                     lambda x: 2.0 * x), 0.0, 1.0, tol=1e-10)


def test_integrate_constant_and_linear():
    assert integrate_adaptive(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0)
    assert integrate_adaptive(lambda x: x, 0.0, 1.0) == pytest.approx(0.5)


def test_integrate_interval_edges():
    def f(x):
        raise AssertionError("integrand evaluated on an empty interval")

    assert integrate_adaptive(f, 2.0, 2.0) == 0.0
    with pytest.raises(NumericDomainError, match="need a <= b"):
        integrate_adaptive(f, 1.0, 0.0)


def test_integrate_budget_exhausted_raises(monkeypatch):
    # sqrt's endpoint cusp needs deep refinement at the default tolerance
    got = integrate_adaptive(math.sqrt, 0.0, 1.0)
    assert got == pytest.approx(2.0 / 3.0, rel=1e-9)
    monkeypatch.setattr(numerics, "_QUAD_MAX_EVALS", 100)
    with pytest.raises(AccuracyError, match="evaluation budget exhausted"):
        integrate_adaptive(math.sqrt, 0.0, 1.0)


def test_integrate_arctan_antiderivative():
    # inverse-square family: the closed form is an arctan difference
    A, c, D = 10.0, 4.0, 37.0

    def f(x):
        return 1.0 / ((x + c) ** 2 + A * A)

    expect = (math.atan((D + c) / A) - math.atan(c / A)) / A
    got = integrate_adaptive(f, 0.0, D, rel_tol=1e-11)
    assert got == pytest.approx(expect, rel=1e-9)


def test_integrate_matches_scipy_quad():
    def f(x):
        return math.exp(-x * x) * math.cos(3.0 * x)

    expect, _ = quad(f, -2.0, 5.0, epsabs=1e-13, epsrel=1e-13)
    got = integrate_adaptive(f, -2.0, 5.0, rel_tol=1e-10)
    assert got == pytest.approx(expect, rel=1e-8)


@given(st.floats(min_value=0.05, max_value=50.0),
       st.floats(min_value=-40.0, max_value=40.0))
def test_integrate_inverse_square_property(c_perp, offset):
    # leg-average integrand used throughout the channel model
    def f(x):
        return 1.0 / ((x - offset) ** 2 + c_perp * c_perp)

    got = integrate_adaptive(f, 0.0, 25.0, rel_tol=1e-10)
    expect = (math.atan((25.0 - offset) / c_perp)
              - math.atan(-offset / c_perp)) / c_perp
    assert got == pytest.approx(expect, rel=1e-8)
