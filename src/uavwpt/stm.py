"""Sum-throughput maximization: closed-form optimal hover and flight
times under a total mission-time budget.

The model: the UAV hovers tau_0 at the start, flies leg n in zeta_n and
hovers tau_n over group n.  Legs 2..N are flown at the speed cap
D_n/v_max (`geometry.leg_floors`); only the start hover tau_0 or the
first leg's flight time zeta_1 may take up slack beyond the hovers over
the groups.  (Freeing every leg is the pending model change, item 2 of
ROADMAP.md.)

The solver works with the budget's shadow price mu.  Writing
Y_n = 1 + gamma_n E_n / tau_n for group n's SNR factor and q_n = 1/Y_n,
a second of hover over group n is worth own(Y_n) + gamma_{n+1} a_{n+1}
q_{n+1} / 2, with own(Y) = (ln Y - 1 + 1/Y)/2.  Setting every hover's
worth to mu gives a backward chain of explicit Lambert W expressions,

    q_N = -W0(-exp(-(2 mu + 1))),
    q_n = -W0(-exp(-(2 r_n + 1))),  r_n = mu - gamma_{n+1} a_{n+1} q_{n+1}/2,

defined where every r_n > 0, with analytic derivatives dq_n/dmu and
d2q_n/dmu2.  Each level calls numerics.lambert_w0 (`_chain_q`) over the
coupling weights gamma_n a_n / 2, which each search forms once.  The
first-phase variable that harvests better ("lead": tau_0 when
a_1 > b_1, else zeta_1) is worth gamma_1 lead q_1 / 2, which falls as
mu rises, so one bracketed search (numerics.bracketed_newton) in
t = ln mu, with Halley steps, finds the price mu+ at which it is worth
exactly mu.  Its bracket (`_lead_bracket`) has closed-form ends: a
lower end where the gap is >= 0, an upper end where it is below -2.9,
evaluated only when the search's start rule needs it, and, where the
lower end lies outside the chain's domain, a tight upper end at which
the gap is <= 0.  A KKT structure test (Boyd &
Vandenberghe, ch. 5) then settles the solve:

- free: the mission with tau_0 = 0 and every leg at the cap fits the
  budget at mu+, and the lead variable closes the budget linearly;
- pinned: it does not (or the lead is worth less than mu across the
  chain's whole domain), so the lead variable stays at its bound and a
  second bracketed Newton search on the mission time's analytic slope
  finds the mu > mu+ at which that mission takes exactly T;
- degenerate: there is no slack to hover in.

diagnostics.method names the outcome, diagnostics.objective is
sum_throughput, the left fold of delivered_information, and
optimality_gap the Frank-Wolfe duality gap (Jaggi 2013) that
certifies the outcome without a solver.

`solve_stm(problem)` is the reference door; a sweep's, `_kept_throughput`,
runs the same kernel on plain tuples with the constructors' checks and
builds no problem or result.  The first search reads only gamma, a and
c = gamma_1 lead / 2, and so does the price state the free structure
reads at mu+: q_n, each group's hover time per unit of harvested energy
rho_n and the budget weights S_n (_lead_price).  So a sweep keeps both
in a `LeadPrice` slot, read when its (gamma, a, c) equals the plan's,
compared with ==, and refilled otherwise: a kept state has the bits a
fresh search would give.  The hover-and-fly baselines of one sweep
point share one key: each sensor is hovered directly overhead with one
receive antenna, so every link has a = 1/A^2 and the same gamma
whatever the draw.  So a point's baselines build the state once, and
each later solve evaluates no chain: two forward passes of the energy
chain close its budget.  Both structures walk one energy chain
(`_hovers` from `_rho`); the pinned search reads b and the floors too,
and is not kept.
"""

import functools
import math
import operator
from dataclasses import dataclass, field
from math import inf

from .channel import GroupCoefficients
from .errors import (AccuracyError, BracketingError, ConfigError,
                     InfeasiblePlanError, NumericDomainError)
from .geometry import leg_floors
from .numerics import bracketed_newton, lambert_w0

STM_DIAG_HEADER = "N,T,v_max,mu,objective,budget_residual,optimality_gap"

_ROOT_TOL = 1e-12         # both searches' tolerance (dimensionless)
_LEAD_GAP_AT_HI = -2.9    # proven bound on the lead gap at its upper end
# tolerated drift when closing the budget, relative to T: a pinned
# mission can be so steep in mu that one float step of mu moves it ~1e-9 T
_BUDGET_SLOP = 1e-6


@dataclass(frozen=True)
class StmProblem:
    """Throughput-maximization instance over one planned mission.

    The variables are the hovers tau_0..tau_N (at least 0) and zeta_1
    (at least D_1/v_max); legs 2..N are pinned at the speed cap
    D_n/v_max, and optimality_gap certifies over the variables only.
    The cap floors and their sum, the travel time, are derived once.
    """

    coeffs: GroupCoefficients
    D: tuple[float, ...]
    T: float
    v_max: float
    floors: tuple[float, ...] = field(init=False, repr=False, compare=False)
    travel_time: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        floors = leg_floors(self.D, self.v_max, self.coeffs.N)
        object.__setattr__(self, "floors", floors)
        object.__setattr__(self, "travel_time", math.fsum(floors))
        _check_budget(self.T, self.travel_time)

    @property
    def N(self) -> int:
        return self.coeffs.N

    @property
    def slack(self) -> float:
        """Budget left over after flying every leg at top speed."""
        return self.T - self.travel_time


@dataclass(frozen=True)
class TimeAllocation:
    """tau = (tau_0..tau_N) hover times, zeta = (zeta_1..zeta_N) flight
    times, all seconds."""

    tau: tuple[float, ...]
    zeta: tuple[float, ...]

    def __post_init__(self):
        _check_times(self.tau, self.zeta)

    @property
    def total(self) -> float:
        return math.fsum(self.tau) + math.fsum(self.zeta)


@dataclass(frozen=True)
class StmDiagnostics:
    """How a solve came out.

    mu is the budget's shadow price and objective the summed throughput
    in nats/Hz.  method names the structure solved: "free-tau0" or
    "free-zeta1" (that variable takes up the slack), "pinned" (tau_0 = 0
    and every leg at the cap) or "degenerate" (no slack at all).
    budget_residual is |total - T| in seconds and optimality_gap the
    certificate (`optimality_gap`), both at the solved allocation.
    """

    mu: float
    objective: float
    method: str
    budget_residual: float
    optimality_gap: float

    def __post_init__(self):
        _check_price(self.mu)


def _check_budget(T: float, travel_time: float) -> None:
    """StmProblem's checks on a budget T with legs flown in travel_time."""
    if not T > 0.0:
        raise ConfigError("T must be positive")
    if travel_time > T:
        raise InfeasiblePlanError(f"minimum travel time {travel_time:.6g} s "
                                  f"exceeds the budget T={T:.6g} s")


def _check_times(tau, zeta) -> None:
    """TimeAllocation's checks on hover times tau and flight times zeta."""
    if len(tau) != len(zeta) + 1:
        raise NumericDomainError("need exactly one more hover than legs")
    for v in (*tau, *zeta):
        if not 0.0 <= v < inf:
            raise NumericDomainError(f"negative or non-finite time {v}")


def _check_price(mu: float) -> None:
    """StmDiagnostics' check on the budget price mu."""
    if not mu >= 0.0:
        raise NumericDomainError("budget price must be nonnegative")


def _halves(gamma, a) -> list:
    """The chain's coupling weights gamma_n a_n / 2, formed once per
    search (`_chain_q`)."""
    return [0.5 * g * an for g, an in zip(gamma, a)]


def _chain_q(halves, mu: float):
    """Backward dual chain at budget price mu over the coupling weights
    halves[n] = gamma_n a_n / 2 (`_halves`): q_n = 1/Y_n for n = N..1
    with the slopes dq_n/dmu and curvatures d2q_n/dmu2, or None where
    the chain is undefined (some r_n <= 0, or q_n rounds to 1: no
    finite hover is worth mu).

    own(1/q) = r reads q exp(-q) = exp(-(2r + 1)), so
    q = -W0(-exp(-(2r + 1))), and W0's derivative gives
    dq/dmu = phi dr/dmu with phi = 2w/(1 + w), w = -q, and
    d2q/dmu2 = phi (d2r/dmu2 - 2 (dr/dmu)^2/(1 + w)^2).  Each level
    calls `numerics.lambert_w0`, whose errors it raises.
    """
    N = len(halves)
    q = [0.0] * N
    dq = [0.0] * N
    d2q = [0.0] * N
    r, dr, d2r = mu, 1.0, 0.0
    for n in range(N - 1, -1, -1):
        if r <= 0.0:
            return None
        w = lambert_w0(-math.exp(-2.0 * r - 1.0))
        if w <= -1.0:
            return None
        q[n] = -w
        phi = 2.0 * w / (1.0 + w)
        dq[n] = phi * dr
        d2q[n] = phi * (d2r - 2.0 * dr * dr / ((1.0 + w) * (1.0 + w)))
        half = halves[n]
        r, dr, d2r = mu - half * q[n], 1.0 - half * dq[n], -half * d2q[n]
    return q, dq, d2q


class LeadPrice:
    """A sweep's kept lead-price search: the key (gamma, a, c) it read,
    the price mu+ and the price state there (None outside the domain)."""

    key = mu = state = None


def _lead_price(gamma, a, c: float):
    """The price mu+ at which the lead first-phase variable, worth
    c q_1 with c = gamma_1 lead / 2, is worth mu, and the price state at
    the last price evaluated, or None outside the chain's domain.

    The search runs in t = ln mu on the gap ln(c q_1) - t, whose first
    and second derivatives come from the chain, so that each Newton step
    of numerics.bracketed_newton is a Halley step.  It starts at
    `_lead_bracket`'s lower end; where the chain is defined there, the
    upper end hi is never evaluated, and where it is not, the search
    runs up to the tight end instead, or, where the chain is undefined
    at that end too (no mu+ exists), from it up to hi.

    The state is what the free structure reads at that price, tuples
    (q, rho, S): q_n from the chain; rho_n = tau_n/E_n =
    gamma_n q_n/(1 - q_n), group n's hover time per unit of harvested
    energy; and S_n, the budget weight of one second of hover n through
    the downstream energy chain, S_N = 1, S_m = 1 + a_{m+1} rho_{m+1}
    S_{m+1}.  A pure function of the exact tuples it reads, so a kept
    result has the bits a fresh search would give; the state is made of
    tuples so that no caller can alter a kept one.
    """
    chain = None      # the chain at the last price searched
    at = gap = None   # that price's log and the lead gap's value there
    halves = _halves(gamma, a)

    def lead_gap(t):
        # the gap at mu = e^t and Halley's denominator in t, kept at
        # least half the slope d1 < 0 so that no step exceeds twice
        # Newton's: a Newton step on this pair is a Halley step
        nonlocal chain, at, gap
        if t != at:
            at, mu = t, math.exp(t)
            chain = _chain_q(halves, mu)
            if chain is None:
                gap = math.inf, math.nan
            else:
                q, dq, d2q = chain
                slope = mu * dq[0] / q[0]
                g, d1 = math.log(c * q[0]) - t, slope - 1.0
                d2 = slope + mu * mu * d2q[0] / q[0] - slope * slope
                gap = g, d1 - max(g * d2 / (2.0 * d1), 0.5 * d1)
        return gap

    t_lo, t_hi, t_tight = _lead_bracket(halves, c)
    if lead_gap(t_lo)[0] < math.inf:
        t = bracketed_newton(lead_gap, t_lo, t_hi, tol=_ROOT_TOL,
                             f_hi_max=_LEAD_GAP_AT_HI)
    else:
        try:
            t = bracketed_newton(lead_gap, t_lo, t_tight, tol=_ROOT_TOL)
        except BracketingError:
            # the chain is undefined at t_tight too: its domain starts
            # above the tight end and holds no mu+
            t = bracketed_newton(lead_gap, t_tight, t_hi, tol=_ROOT_TOL,
                                 f_hi_max=_LEAD_GAP_AT_HI)
    mu = math.exp(t)
    if chain is None:
        return mu, None
    q = chain[0]
    rho = _rho(gamma, q)
    S = [1.0] * len(q)
    for m in range(len(q) - 1, 0, -1):
        S[m - 1] = 1.0 + a[m] * rho[m] * S[m]
    return mu, (tuple(q), tuple(rho), tuple(S))


def _lead_bracket(halves, c: float):
    """The lead search's bracket in t = ln mu: (t_lo, t_hi, t_tight).
    The gap is >= 0 at t_lo, below _LEAD_GAP_AT_HI = -2.9 at t_hi, and
    <= 0 at t_tight wherever mu+ exists in the chain's domain.

    lo: q_1 is at least group 1's link with nothing downstream, q(mu),
    so the gap is >= 0 where c q(mu) = mu (`_alone_price` with h = 0).

    tight: q_2 <= 1 puts r_1 >= mu - h with h = halves[1], so q_1(mu)
    <= q(mu - h) and the gap is <= 0 above the price at which
    c q(mu - h) = mu.  That end is used where c >= 1/2 (below, the W0
    argument may leave W0's domain), its closed form is finite and it falls inside (lo, hi); else t_tight = t_hi.  Both
    ends are roots of one closed form, ln c + 2h - 1 - W0((2c - 1)
    e^(2h - 1)), at h = 0 and h = halves[1].

    hi: let top be the largest of c and the downstream weights
    halves[1:].  At 1 + top, q_n <= 1 puts every r_n >= 1, so q_1 <=
    -W0(-e^-3) = 0.05247 and, as c < hi, the gap is below
    ln 0.05247 = -2.948.  Past the float limit of exp (1 + top above
    about 372) the chain reads q = 0 there; hi is then 1.55 + ln(top)/2.
    As q <= e^(-2r), every r_n stays >= R = 1.5 + ln(top)/2 (a weight
    times e^(-2R) is at most e^-3 < 0.05), so q_1 <= e^-3/top, the gap
    is below -3 - ln hi, and every q_n in the bracket reads above 0.
    """
    t_lo = _alone_price(c, 0.0)
    top = max([c] + halves[1:])
    hi = 1.0 + top
    if math.exp(-2.0 * hi - 1.0) == 0.0:
        hi = 1.55 + 0.5 * math.log(top)
    t_hi = math.log(hi)
    t_tight = t_hi
    if len(halves) > 1 and c >= 0.5 and halves[1] < 350.0:
        t = _alone_price(c, halves[1])
        if t_lo < t < t_hi:
            t_tight = t
    return t_lo, t_hi, t_tight


def _alone_price(c: float, h: float) -> float:
    """ln of the price mu at which c q(mu - h) = mu, q(r) the chain level
    with nothing downstream: ln c + 2h - 1 - W0((2c - 1) e^(2h - 1)),
    +inf where that argument overflows (h < 350 keeps e^(2h - 1)
    finite)."""
    z = (2.0 * c - 1.0) * math.exp(2.0 * h - 1.0)
    if z == math.inf:
        return math.inf
    return math.log(c) + 2.0 * h - 1.0 - lambert_w0(z)


def _rho(gamma, q) -> list:
    """rho_n = gamma_n q_n/(1 - q_n) at the chain's q (`_lead_price`)."""
    return [g * qn / (1.0 - qn) for g, qn in zip(gamma, q)]


def _hovers(rho, a, b, tau0: float, zetas) -> list:
    """The energy chain forward from the first phase (tau_0, zeta_1):
    tau_n = rho_n (a_n tau_{n-1} + b_n zeta_n) for n = 1..N."""
    taus = []
    prev = tau0
    for r, an, bn, zn in zip(rho, a, b, zetas):
        prev = r * (an * prev + bn * zn)
        taus.append(prev)
    return taus


def _close_budget(tau0: float, taus, zetas, T: float):
    """Put the float drift into the largest hover so hover and flight
    times sum to T, as (tau, zeta).  Every hover is worth the budget
    price, so where the drift goes matters only to second order; more
    than float noise means the solve went wrong."""
    drift = T - math.fsum((tau0, *taus, *zetas))
    if abs(drift) > _BUDGET_SLOP * max(T, 1.0):
        raise AccuracyError(f"allocation misses the budget by {drift:.3e} s")
    j = taus.index(max(taus))
    taus[j] += drift
    return (tau0, *taus), tuple(zetas)


def _stm_allocation(gamma, a, b, floors, T, slack, price):
    """`solve_stm`'s kernel on plain tuples: (tau, zeta, mu, method), the
    lead search read from and kept in the `LeadPrice` slot `price`."""
    if slack <= 1e-12:
        return (0.0,) * (len(floors) + 1), floors, 0.0, "degenerate"
    free_first_hover = a[0] > b[0]
    lead = a[0] if free_first_hover else b[0]
    key = (gamma, a, 0.5 * gamma[0] * lead)
    if price is None or price.key != key:
        mu, state = _lead_price(*key)
        if price is not None:
            price.key, price.mu, price.state = key, mu, state
    else:
        mu, state = price.mu, price.state
    if state is not None:
        _, rho, S = state
        excess = math.fsum((0.0, *_hovers(rho, a, b, 0.0, floors),
                            *floors, -T))
        if excess <= 0.0:
            # mission time is affine in the free first-phase variable:
            # it overruns T by `excess` at the variable's bound and grows
            # by 1 + lead rho_1 S_1 per second above it
            floor = 0.0 if free_first_hover else floors[0]
            first = floor - excess / (1.0 + lead * rho[0] * S[0])
            tau0, zetas = ((first, floors) if free_first_hover
                           else (0.0, (first, *floors[1:])))
            return (*_close_budget(tau0, _hovers(rho, a, b, tau0, zetas),
                                   zetas, T),
                    mu, "free-tau0" if free_first_hover else "free-zeta1")

    pinned = None     # (mu, taus) at the last in-domain price
    halves = _halves(gamma, a)

    def hover_gap(mu):
        nonlocal pinned
        chain = _chain_q(halves, mu)
        if chain is None:
            return math.inf, math.nan
        q, dq, _ = chain
        rho = _rho(gamma, q)
        taus = _hovers(rho, a, b, 0.0, floors)
        pinned = mu, taus
        hover = math.fsum(taus)
        if hover == 0.0:
            return -math.inf, math.nan
        # d tau_n/dmu = E_n gamma_n dq_n/(1 - q_n)^2 + rho_n a_n dtau_{n-1}
        slope = dtau = 0.0
        for g, an, bn, qn, dqn, r, prev, zn in zip(gamma, a, b, q, dq, rho,
                                                   (0.0, *taus), floors):
            dtau = (g * dqn / (1.0 - qn) ** 2 * (an * prev + bn * zn)
                    + r * an * dtau)
            slope += dtau
        return math.log(hover / slack), slope / hover

    # the pinned hovers shrink to nothing as mu grows
    hi = mu + 1.0
    while hover_gap(hi)[0] > 0.0:
        hi += hi - mu
    bracketed_newton(hover_gap, mu, hi, tol=_ROOT_TOL)
    mu, taus = pinned
    return (*_close_budget(0.0, taus, floors, T), mu, "pinned")


def solve_stm(problem: StmProblem):
    """Optimal hover and flight times for a throughput-maximization
    instance.

    Searches the price mu+ at which the lead first-phase variable is
    worth the budget price, then either lets that variable close the
    budget (free) or keeps it at its bound and searches the price at
    which the pinned mission spends the budget exactly (pinned); see the
    module docstring.  Both searches run on gaps taken in logs, so that
    Newton steps scale.  Returns (TimeAllocation, StmDiagnostics);
    diagnostics.method names the structure.
    """
    c = problem.coeffs
    tau, zeta, mu, method = _stm_allocation(
        c.gamma, c.a, c.b, problem.floors, problem.T, problem.slack, None)
    alloc = TimeAllocation(tau=tau, zeta=zeta)
    return alloc, StmDiagnostics(
        mu=mu, objective=sum_throughput(c, alloc), method=method,
        budget_residual=abs(alloc.total - problem.T),
        optimality_gap=optimality_gap(problem, alloc))


def _kept_throughput(gamma, a, b, floors, T, travel_time,
                     price: LeadPrice | None) -> float:
    """`solve_stm`'s objective on plain tuples, `price` as in
    `_stm_allocation`, with StmProblem's, TimeAllocation's and
    StmDiagnostics' checks in that order, building none of them."""
    _check_budget(T, travel_time)
    tau, zeta, mu, _ = _stm_allocation(gamma, a, b, floors, T,
                                       T - travel_time, price)
    _check_times(tau, zeta)
    _check_price(mu)
    return functools.reduce(operator.add,
                            _information(gamma, a, b, tau, zeta), 0.0)


def _information(gamma, a, b, tau, zeta) -> list:
    """`delivered_information` on plain tuples, as a list."""
    out = []
    for g, an, bn, tau_prev, zn, tau_n in zip(gamma, a, b, tau[:-1], zeta,
                                              tau[1:]):
        if tau_n == 0.0:
            out.append(0.0)
            continue
        energy = an * tau_prev + bn * zn
        if energy < 0.0:
            raise NumericDomainError("negative harvested-energy term")
        x = g * energy / tau_n
        log_y = (math.log1p(x) if x < inf else
                 math.log(g) + math.log(energy) - math.log(tau_n))
        out.append(tau_n * (0.5 * log_y))
    return out


def delivered_information(coeffs: GroupCoefficients,
                          alloc: TimeAllocation) -> tuple[float, ...]:
    """Per-group delivered information tau_n R_n in nats per hertz, with
    R_n = log(1 + gamma_n (a_n tau_{n-1} + b_n zeta_n) / tau_n) / 2 the
    uplink rate after harvesting over the previous hover and leg n.

    Groups with zero hover time deliver zero (the tau*R limit).  Where
    gamma_n E_n / tau_n overflows a float, ln(1 + x) is taken as
    ln gamma_n + ln E_n - ln tau_n, equal to float precision past 2^53.
    """
    if len(alloc.zeta) != coeffs.N:
        raise NumericDomainError("allocation does not match the group count")
    return tuple(_information(coeffs.gamma, coeffs.a, coeffs.b, alloc.tau,
                              alloc.zeta))


def sum_throughput(coeffs: GroupCoefficients, alloc: TimeAllocation) -> float:
    """Total delivered information Sigma tau_n R_n in nats per hertz: the
    left fold of delivered_information, group by group in order."""
    return functools.reduce(operator.add,
                            delivered_information(coeffs, alloc), 0.0)


def throughput_gradient(coeffs: GroupCoefficients, tau, zeta) -> list:
    """Partial derivatives of sum_throughput, ordered (d/dtau_0 ..
    d/dtau_N, d/dzeta_1 .. d/dzeta_N).

    With q_n = 1/Y_n, hover n gains 0.5(ln Y_n - 1 + q_n) from its own
    rate and 0.5 gamma_{n+1} a_{n+1} q_{n+1} from charging group n+1;
    tau_0 only charges group 1, and flight time zeta_n only charges
    group n, 0.5 gamma_n b_n q_n.  A group with no hover adds nothing
    downstream and has an unbounded marginal gain of its own.  An
    overflowing Y_n is logged as in delivered_information, and its q_n
    taken as tau_n / (gamma_n E_n), equal to 1/Y_n to float precision
    there: 1/inf would read 0 and drop the downstream worth
    0.5 gamma_n a_n q_n, which stays of order a_n tau_n / E_n.
    """
    g_ = coeffs.gamma
    a_ = coeffs.a
    b_ = coeffs.b
    N = coeffs.N
    q = [0.0] * N
    own = [math.inf] * N
    for n in range(N):
        if tau[n + 1] > 0.0:
            energy = a_[n] * tau[n] + b_[n] * zeta[n]
            Y = 1.0 + g_[n] * energy / tau[n + 1]
            if Y < math.inf:
                q[n] = 1.0 / Y
                log_y = math.log(Y)
            else:
                q[n] = tau[n + 1] / energy / g_[n]
                log_y = (math.log(g_[n]) + math.log(energy)
                         - math.log(tau[n + 1]))
            own[n] = 0.5 * (log_y - 1.0 + q[n])
    d = [0.5 * g_[0] * a_[0] * q[0]]
    for n in range(N - 1):
        d.append(own[n] + 0.5 * g_[n + 1] * a_[n + 1] * q[n + 1])
    d.append(own[-1])
    d.extend([0.5 * g * b * qn for g, b, qn in zip(g_, b_, q)])
    return d


def optimality_gap(problem: StmProblem, alloc: TimeAllocation) -> float:
    """Frank-Wolfe duality gap at `alloc` in nats/Hz, an upper bound on
    the optimum's throughput minus alloc's: sum_k (x_k - f_k)(max_j d_j
    - d_k) over the variables x_k, their floors f_k and the gradient d.

    Throughput is jointly concave, so its linearization at alloc bounds
    it, and over the shifted simplex of the variables that bound peaks
    where the variable worth most takes all the slack.  A variable at
    its floor adds nothing: an allocation without slack reads 0.
    """
    N = problem.N
    d = throughput_gradient(problem.coeffs, alloc.tau, alloc.zeta)[:N + 2]
    x = (*alloc.tau, alloc.zeta[0])
    floors = (0.0,) * (N + 1) + (problem.floors[0],)
    top = max(d)
    return math.fsum((xk - fk) * (top - dk)
                     for xk, fk, dk in zip(x, floors, d) if xk > fk)


def stm_diag_row(problem: StmProblem, diag: StmDiagnostics) -> str:
    """One CSV data row matching STM_DIAG_HEADER."""
    fields = (problem.N, problem.T, problem.v_max, diag.mu,
              diag.objective, diag.budget_residual, diag.optimality_gap)
    return ",".join(_fmt(v) for v in fields)


def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:.12g}"
