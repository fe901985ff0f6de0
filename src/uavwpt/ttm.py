"""Total-time minimization: shortest mission that still delivers each
group's information demand.

Hover times come from a per-group scalar minimization with a Lambert W
closed form.  A second of hover for group n costs one second, but when
the next group can convert incoming hover energy into shorter flight,
the effective cost drops to kappa = 1 - a_{n+1}/b_{n+1}; minimizing
kappa*tau + zeta(tau) subject to the demand gives

    tau_n = 2 I_n / (W((kappa gamma_n b_n - 1)/e) + 1)

with kappa = 1 for the last group.  A backward pass prices each hover;
its credit probe keeps the credit only while leg n+1 stays off the speed
cap.  A forward pass then flies each leg for its flight need, the exact
inverse of the rate formula, floored at the speed cap, and re-tightens
the hover on a clamped leg so every group's delivery matches its demand
exactly instead of overshooting.  Both passes compute the need inline.

`solve_ttm(problem)` is the reference door; a sweep's, `_kept_total`,
runs the same kernel on plain tuples with TimeAllocation's checks and
builds no problem or result.  The denominator W + 1 reads the
coefficients, not the demand I_n, so the kept door keeps each one, at
full cost or with the credit, in a `denoms` dict for one set of
coefficients, computed where a solve first needs it; one that fails
its domain check raises and is not kept.  `experiments.run_trial`
keeps each plan's coefficients and dict across sweep points at one
SNR, so the later points of an I_nats or v_max sweep make no Lambert
call; a pt_db point scales new coefficients and prices its hovers
anew.
"""

import math
from dataclasses import dataclass, field
from functools import reduce
from math import expm1
from operator import add

from .channel import GroupCoefficients
from .errors import ConfigError, NumericDomainError
from .geometry import leg_floors
from .numerics import bracketed_newton, lambert_w0
from .stm import TimeAllocation, _check_times

TTM_DIAG_HEADER = "N,Pt_dB,v_max,I_total,total_time,clamped_legs"

_DEMAND_TOL = 1e-12   # residual tolerance when re-tightening a hover
_EXP_LIMIT = 700.0    # beyond this, exp overflows; treat demand as inf


@dataclass(frozen=True)
class TtmProblem:
    """Time-minimization instance: per-group demands I_n in nats.  The
    speed-cap floors D_n / v_max are derived once, when it is built."""

    coeffs: GroupCoefficients
    D: tuple[float, ...]
    v_max: float
    I: tuple[float, ...]
    floors: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "floors",
                           leg_floors(self.D, self.v_max, self.coeffs.N))
        if len(self.I) != self.N:
            raise ConfigError("need one demand per group")
        for n, i_n in enumerate(self.I, start=1):
            if not i_n > 0.0:
                raise ConfigError(f"group {n} demand must be positive")

    @property
    def N(self) -> int:
        return self.coeffs.N


def _hover_denom(gamma_b_eff: float, n: int) -> float:
    """W((gamma_b_eff - 1)/e) + 1, the denominator of group n's
    cost-minimizing hover 2 I_n / (W + 1).

    gamma_b_eff is kappa * gamma_n * b_n; it must be positive or the
    Lambert argument falls off the principal branch.
    """
    if gamma_b_eff <= 0.0:
        raise NumericDomainError(
            f"group {n}: effective flight-harvest credit "
            f"{gamma_b_eff:.6g} <= 0; the hover closed form has no "
            "solution (next group hovers better than it flies)")
    w = lambert_w0((gamma_b_eff - 1.0) / math.e)
    denom = w + 1.0
    if denom <= 0.0:
        raise NumericDomainError(
            f"group {n}: hover closed form denominator W+1 = {denom:.6g}")
    return denom


def _tau_for_demand(I_n: float, gamma_n: float, energy: float,
                    hi: float) -> float:
    """Smallest hover delivering I_n nats on fixed harvested energy.

    (tau/2)ln(1 + gamma*energy/tau) is increasing in tau and already
    >= I_n at hi, so the equality root lies in (0, hi].  With
    x = gamma*energy/tau its slope is (ln(1 + x) - x/(1 + x))/2.
    """
    def excess(t):
        x = gamma_n * energy / t
        log1p = math.log1p(x)
        return 0.5 * t * log1p - I_n, 0.5 * (log1p - x / (1.0 + x))

    if excess(hi)[0] <= 0.0:
        return hi
    lo = hi
    for _ in range(200):
        lo *= 0.5
        if excess(lo)[0] < 0.0:
            break
    else:
        raise NumericDomainError("hover re-tightening found no lower bracket")
    return bracketed_newton(excess, lo, hi, tol=_DEMAND_TOL)


def _ttm_allocation(gamma, a, b, I, floors, denoms: dict):
    """`solve_ttm`'s kernel on plain tuples: (tau, zeta).  `denoms` holds
    the hover denominators computed so far for these coefficients
    ({n: full-cost W + 1 of group n, -n: its credit W + 1}) and gains
    those this solve computes."""
    # backward pass over taus = tau_0..tau_N (no start hover): the credit
    # probe checks that leg n+1, which reads only hovers n and n+1, is
    # still free
    N = len(I)
    taus = [0.0] * (N + 1)
    for n in range(N, 0, -1):
        I_n = I[n - 1]
        if n < N and a[n] < b[n]:
            denom = denoms.get(-n)
            if denom is None:
                kappa = 1.0 - a[n] / b[n]
                denom = denoms[-n] = _hover_denom(
                    kappa * gamma[n - 1] * b[n - 1], n)
            tau_n = taus[n] = 2.0 * I_n / denom
            # leg n+1's flight need (see the forward pass) off the cap
            tau_next = taus[n + 1]
            u = 2.0 * I[n] / tau_next
            need = (math.inf if u > _EXP_LIMIT else
                    (tau_next / gamma[n] * expm1(u) - a[n] * tau_n) / b[n])
            if need > floors[n] * (1.0 + 1e-12):
                continue
        denom = denoms.get(n)
        if denom is None:
            denom = denoms[n] = _hover_denom(gamma[n - 1] * b[n - 1], n)
        taus[n] = 2.0 * I_n / denom

    # forward pass: each leg's flight need, the rate formula inverted (inf
    # where exp would overflow); a leg under its speed-cap floor flies at
    # the floor, and its hover is re-tightened to demand equality
    zetas = []
    prev = 0.0
    for n, (I_n, g, an, bn, floor, tau_n) in enumerate(
            zip(I, gamma, a, b, floors, taus[1:]), start=1):
        u = 2.0 * I_n / tau_n
        zeta = (math.inf if u > _EXP_LIMIT else
                (tau_n / g * expm1(u) - an * prev) / bn)
        if zeta <= floor:
            zeta = floor
            tau_n = taus[n] = _tau_for_demand(I_n, g, an * prev + bn * floor,
                                              tau_n)
        zetas.append(zeta)
        prev = tau_n
    return tuple(taus), tuple(zetas)


def solve_ttm(problem: TtmProblem):
    """Minimal-time hover and flight schedule meeting every demand.

    Group n < N takes the downstream credit when the next group flies
    better than it hovers, a_{n+1} < b_{n+1}, and the next leg is not
    clamped at the speed cap; otherwise every hover second is priced at
    full cost.  Returns (TimeAllocation, total_time).
    """
    c = problem.coeffs
    alloc = TimeAllocation(*_ttm_allocation(
        c.gamma, c.a, c.b, problem.I, problem.floors, {}))
    return alloc, alloc.total


def _kept_total(gamma, a, b, I, floors, denoms: dict) -> float:
    """`solve_ttm`'s total time on plain tuples, `denoms` as in
    `_ttm_allocation`, with TimeAllocation's checks and then its total's
    errors, building no allocation."""
    tau, zeta = _ttm_allocation(gamma, a, b, I, floors, denoms)
    # no time the kernel returns is negative, so one outside [0, inf)
    # makes the sum inf or nan, or its partials overflow
    try:
        total = math.fsum(tau) + math.fsum(zeta)
    except OverflowError:
        total = math.nan
    if not total < math.inf:
        _check_times(tau, zeta)
        return math.fsum(tau) + math.fsum(zeta)
    return total


def ttm_diag_row(problem: TtmProblem, pt_db: float,
                 alloc: TimeAllocation) -> str:
    """One CSV data row matching TTM_DIAG_HEADER: the demand summed by a
    left fold, and the legs the forward pass floored at the speed cap."""
    demand = reduce(add, problem.I, 0.0)
    clamped = sum(zeta <= floor
                  for zeta, floor in zip(alloc.zeta, problem.floors))
    return (f"{problem.N},{pt_db:.12g},{problem.v_max:.12g},{demand:.12g},"
            f"{alloc.total:.12g},{clamped}")
