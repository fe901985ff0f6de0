"""Total-time minimization: shortest mission that still delivers each
group's information demand.

Hover times come from a per-group scalar minimization with a Lambert W
closed form.  A second of hover for group n costs one second, but when
the next group can convert incoming hover energy into shorter flight,
the effective cost drops to kappa = 1 - a_{n+1}/b_{n+1}; minimizing
kappa*tau + zeta(tau) subject to the demand gives

    tau_n = 2 I_n / (W((kappa gamma_n b_n - 1)/e) + 1)

with kappa = 1 for the last group.  Flight times then come from the
exact inverse of the rate formula, floored at the speed cap
(`zeta_closed_form`, which also tests each credit against the next
leg's cap).  A forward pass re-tightens hovers on clamped legs so
every group's delivered information matches its demand exactly
instead of overshooting.
"""

import math
from dataclasses import dataclass, field
from math import expm1

from .channel import GroupCoefficients
from .errors import ConfigError, NumericDomainError
from .numerics import bracketed_newton, lambert_w0
from .stm import TimeAllocation, leg_floors

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
                           leg_floors(self.coeffs, self.D, self.v_max))
        if len(self.I) != self.coeffs.N:
            raise ConfigError("need one demand per group")
        for n, i_n in enumerate(self.I, start=1):
            if not i_n > 0.0:
                raise ConfigError(f"group {n} demand must be positive")

    @property
    def N(self) -> int:
        return self.coeffs.N


def _tau_opt(I_n: float, gamma_b_eff: float, n: int) -> float:
    """Cost-minimizing hover 2I/(W((gamma_b_eff - 1)/e) + 1).

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
    return 2.0 * I_n / denom


def zeta_closed_form(problem: TtmProblem, n: int, tau) -> float:
    """Flight time of leg n given the hover schedule tau = (tau_1..tau_N).

    Exact inverse of the rate formula: the flight time that tops up
    group n's energy to make tau_n seconds of transmission deliver
    exactly I_n nats, floored at the speed cap.  The group harvests
    nothing before leg 1 (no start hover in time minimization).
    """
    if not 1 <= n <= len(problem.D):
        raise NumericDomainError(f"group index {n} out of range")
    tau_n = tau[n - 1]
    if tau_n <= 0.0:
        raise NumericDomainError(f"group {n}: hover time must be positive")
    tau_prev = 0.0 if n == 1 else tau[n - 2]
    floor = problem.floors[n - 1]
    u = 2.0 * problem.I[n - 1] / tau_n
    if u > _EXP_LIMIT:
        return math.inf
    coeffs = problem.coeffs
    need = (tau_n / coeffs.gamma[n - 1] * expm1(u)
            - coeffs.a[n - 1] * tau_prev) / coeffs.b[n - 1]
    return floor if floor > need else need


def _tau_for_demand(I_n: float, gamma_n: float, energy: float,
                    tau_hi: float) -> float:
    """Smallest hover delivering I_n nats on fixed harvested energy.

    (tau/2)ln(1 + gamma*energy/tau) is increasing in tau and already
    >= I_n at tau_hi, so the equality root lies in (0, tau_hi].  With
    x = gamma*energy/tau its slope is (ln(1 + x) - x/(1 + x))/2.
    """
    def excess(t):
        x = gamma_n * energy / t
        log1p = math.log1p(x)
        return 0.5 * t * log1p - I_n, 0.5 * (log1p - x / (1.0 + x))

    hi = tau_hi
    at_hi = excess(hi)
    if at_hi[0] <= 0.0:
        return hi
    lo = hi
    for _ in range(200):
        lo *= 0.5
        at_lo = excess(lo)
        if at_lo[0] < 0.0:
            break
    else:
        raise NumericDomainError("hover re-tightening found no lower bracket")
    # the search starts at both ends, which the bracket hunt has just
    # evaluated
    known = {lo: at_lo, hi: at_hi}
    return bracketed_newton(lambda t: known.get(t) or excess(t), lo, hi,
                            tol=_DEMAND_TOL)


def solve_ttm(problem: TtmProblem):
    """Minimal-time hover and flight schedule meeting every demand.

    Group n < N takes the downstream credit when the next group flies
    better than it hovers, a_{n+1} < b_{n+1}, and the next leg is not
    clamped at the speed cap; otherwise every hover second is priced at
    full cost.  Returns (TimeAllocation, total_time).
    """
    N = problem.N
    g_ = problem.coeffs.gamma
    a_ = problem.coeffs.a
    b_ = problem.coeffs.b

    # backward pass: hover times, checking that each group's credit
    # assumption survives the next leg's speed-cap clamp (leg n+1 reads
    # only hovers n and n+1)
    taus = [0.0] * N
    taus[N - 1] = _tau_opt(problem.I[N - 1], g_[N - 1] * b_[N - 1], N)
    for n in range(N - 1, 0, -1):
        if a_[n] < b_[n]:
            kappa = 1.0 - a_[n] / b_[n]
            taus[n - 1] = _tau_opt(problem.I[n - 1],
                                   kappa * g_[n - 1] * b_[n - 1], n)
            if (zeta_closed_form(problem, n + 1, taus)
                    > problem.floors[n] * (1.0 + 1e-12)):
                continue
        taus[n - 1] = _tau_opt(problem.I[n - 1], g_[n - 1] * b_[n - 1], n)

    # forward pass: flight times from the final hovers; on clamped legs
    # the hover is re-tightened to demand equality
    zetas = [0.0] * N
    prev = 0.0
    for n in range(1, N + 1):
        need = zeta_closed_form(problem, n, taus)
        floor = problem.floors[n - 1]
        if need > floor:
            zetas[n - 1] = need
        else:
            zetas[n - 1] = floor
            energy = a_[n - 1] * prev + b_[n - 1] * floor
            taus[n - 1] = _tau_for_demand(
                problem.I[n - 1], g_[n - 1], energy, taus[n - 1])
        prev = taus[n - 1]

    alloc = TimeAllocation(tau=(0.0, *taus), zeta=tuple(zetas))
    return alloc, alloc.total


def count_clamped_legs(problem: TtmProblem, alloc: TimeAllocation) -> int:
    """Legs flown exactly at the speed cap."""
    return sum(zeta <= floor * (1.0 + 1e-12)
               for zeta, floor in zip(alloc.zeta, problem.floors))


def ttm_diag_row(N: int, pt_db: float, v_max: float, I_total: float,
                 total_time: float, clamped_legs: int) -> str:
    """One CSV data row matching TTM_DIAG_HEADER."""
    return (f"{N},{pt_db:.12g},{v_max:.12g},{I_total:.12g},"
            f"{total_time:.12g},{clamped_legs}")
