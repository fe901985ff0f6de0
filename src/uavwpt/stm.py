"""Sum-throughput maximization: closed-form optimal hover and flight
times under a total mission-time budget.

The solver works in the dual domain.  Writing Y_n = 1 + gamma_n * E_n /
tau_n for the SNR factor of group n at the optimum, the stationarity
system collapses to a backward recursion in q_n = 1/Y_n driven by a
single scalar dual variable mu_N (the shadow price of the last group's
flight-time clamp).  Every q_n is an explicit Lambert W expression, so
for fixed mu_N the whole chain is evaluated directly, and mu_N itself is
the root of a scalar monotone-decreasing function g.  The chain is
undefined only below a validity edge; g reads +inf there, so a single
bisection (numerics.bisect_root) finds the root.  All exponentials are
arranged so large mu_N underflows harmlessly instead of overflowing.

Two boundary structures occur.  When the first leg's flight harvesting
is at least as productive as hovering at the start (b_1 >= a_1) the
start hover tau_0 is zero and the first flight time zeta_1 is free.
Otherwise (a_1 > b_1, the usual shape for hover-over-sensor baselines)
every leg is flown at top speed and tau_0 is the free variable.  Any
input outside either closed form's domain goes to a
sequential-quadratic-programming solver; diagnostics.method names the
path.  One analytic gradient, throughput_gradient, drives both that
solver and the stationarity check kkt_residuals.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channel import GroupCoefficients, group_rate
from .errors import (AccuracyError, BracketingError, InfeasiblePlanError,
                     NumericDomainError)
from .numerics import bisect_root, lambert_w0

STM_DIAG_HEADER = "N,T,v_max,mu_N,objective,budget_residual,kkt_residual"

# thresholds for the closed-form bookkeeping
_MU_ROOT_TOL = 1e-12
_BUDGET_SLOP = 1e-9       # tolerated float drift when closing the budget
_MIN_HOVER = 1e-9         # numeric-path lower bound on hover times


@dataclass(frozen=True)
class StmProblem:
    """Throughput-maximization instance over one planned mission."""

    coeffs: GroupCoefficients
    D: tuple[float, ...]
    T: float
    v_max: float

    def __post_init__(self):
        if self.T <= 0.0 or self.v_max <= 0.0:
            raise NumericDomainError("T and v_max must be positive")
        if len(self.D) != self.coeffs.N:
            raise NumericDomainError("need one leg length per group")
        for n, d in enumerate(self.D, start=1):
            if not d > 0.0:
                raise NumericDomainError(f"leg {n} has non-positive length")
        if self.travel_time > self.T:
            raise InfeasiblePlanError(
                f"minimum travel time {self.travel_time:.6g} s exceeds "
                f"the budget T={self.T:.6g} s")

    @property
    def N(self) -> int:
        return self.coeffs.N

    @property
    def travel_time(self) -> float:
        return math.fsum(d / self.v_max for d in self.D)

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
        if len(self.tau) != len(self.zeta) + 1:
            raise NumericDomainError("need exactly one more hover than legs")
        for v in (*self.tau, *self.zeta):
            if v < 0.0 or not math.isfinite(v):
                raise NumericDomainError(f"negative or non-finite time {v}")

    @property
    def total(self) -> float:
        return math.fsum(self.tau) + math.fsum(self.zeta)


@dataclass(frozen=True)
class StmDiagnostics:
    """Dual and bookkeeping quantities of a solve.

    mu is the budget shadow price, mu_N the clamp dual the root finder
    searched over; f are the energy-per-hover-second coupling ratios and
    Y the SNR factors 1 + gamma*f.  F1/F2 reproduce the linear budget
    closure (free variable = F1/F2).  method is "closed-form",
    "closed-form-start-hover", "numeric" or "degenerate".
    """

    mu_N: float
    f: tuple[float, ...]
    F1: float
    F2: float
    Y: tuple[float, ...]
    kkt_residual: float
    budget_residual: float
    mu: float
    objective: float
    method: str
    clamped: bool

    def __post_init__(self):
        if self.mu_N < 0.0:
            raise NumericDomainError("dual variable must be nonnegative")
        if not self.F2 > 0.0:
            raise NumericDomainError("budget closure denominator must be > 0")
        for v in self.f:
            if not v > 0.0:
                raise NumericDomainError("coupling ratios must be positive")


def _chain_q(gamma, a, b, mu_n: float):
    """Backward dual chain: q_n = 1/Y_n for n = N..1 at a given mu_N.

    Raises NumericDomainError naming the first group whose stationarity
    condition cannot be met (Lambert W argument out of domain).
    """
    N = len(gamma)
    gnbn = gamma[N - 1] * b[N - 1]
    z = -mu_n - 1.0
    if z > 700.0:
        raise NumericDomainError("mu_N too negative for the dual chain")
    w = lambert_w0((gnbn - 1.0) * math.exp(z))
    expo = w + mu_n + 1.0
    if expo <= 0.0:
        raise NumericDomainError(
            f"group {N}: SNR factor would not exceed 1 at mu_N={mu_n!r}")
    q = [0.0] * N
    q[N - 1] = math.exp(-expo)
    for j in range(N - 2, -1, -1):
        e = gamma[j + 1] * a[j + 1] * q[j + 1] - gnbn * q[N - 1] - mu_n - 1.0
        if e >= -1.0:
            raise NumericDomainError(
                f"group {j + 1}: stationarity chain out of domain at "
                f"mu_N={mu_n!r}")
        q[j] = -lambert_w0(-math.exp(e))
    return q


def _solve_mu(problem: StmProblem, first_coeff: float, base: float) -> float:
    """Root of g(mu_N) = first_coeff*q_1 - gamma_N b_N q_N - mu_N over
    mu_N >= base, where q is the dual chain.  first_coeff encodes which
    first-phase variable is free (gamma_1 b_1 for the first flight leg,
    gamma_1 a_1 for the start hover).

    g is +inf below the chain's domain edge, so one bisection from base
    finds either the root or the edge; converging on the edge without
    ever seeing g >= -tol means the root lies below it.
    """
    g_ = problem.coeffs.gamma
    a_ = problem.coeffs.a
    b_ = problem.coeffs.b
    gnbn = g_[-1] * b_[-1]
    near_root = False

    def g(mu):
        nonlocal near_root
        try:
            q = _chain_q(g_, a_, b_, mu)
        except NumericDomainError:
            return math.inf
        value = first_coeff * q[0] - gnbn * q[-1] - mu
        near_root = near_root or value >= -_MU_ROOT_TOL
        return value

    if g(base) < 0.0:
        raise BracketingError(
            f"dual root lies below the search floor {base!r}")
    # g(mu) <= first_coeff - mu, so one jump past first_coeff brackets it
    mu = bisect_root(g, base, max(base, 0.0) + first_coeff + 1.0,
                     tol=_MU_ROOT_TOL)
    if not near_root:
        raise BracketingError(
            f"dual root lies below the search floor {mu!r}")
    return mu


def solve_mu_n(problem: StmProblem) -> float:
    """Dual variable of the last flight-time clamp, free-first-leg form.

    Requires gamma_N b_N > 1: the last group must be able to push its
    SNR factor past 1 on flight harvesting alone, otherwise this
    boundary structure does not apply.
    """
    g_ = problem.coeffs.gamma
    b_ = problem.coeffs.b
    if g_[-1] * b_[-1] <= 1.0:
        raise NumericDomainError(
            f"gamma_N*b_N = {g_[-1] * b_[-1]:.6g} <= 1: group {problem.N} "
            "cannot reach a positive rate on flight harvesting alone")
    if problem.N == 1:
        return 0.0
    return _solve_mu(problem, g_[0] * problem.coeffs.b[0], 0.0)


def compute_f(problem: StmProblem, mu_n: float):
    """Coupling ratios f_n = E_n / tau_n at the optimum for a given dual.

    f_n relates harvested energy to hover length; equivalently
    Y_n = 1 + gamma_n f_n.
    """
    g_ = problem.coeffs.gamma
    q = _chain_q(g_, problem.coeffs.a, problem.coeffs.b, mu_n)
    f = []
    for j, qj in enumerate(q):
        if qj <= 0.0:
            raise NumericDomainError(
                f"group {j + 1}: dual chain underflowed to a zero SNR "
                "reciprocal; no finite coupling ratio")
        f.append((1.0 - qj) / (g_[j] * qj))
    for j, fj in enumerate(f):
        if not fj > 0.0:
            raise NumericDomainError(
                f"group {j + 1}: coupling ratio {fj} is not positive")
    return f


def _suffix_weights(problem: StmProblem, f):
    """S_m = accumulated budget weight of one second of hover m through
    the downstream energy chain: S_N = 1, S_m = 1 + (a_{m+1}/f_{m+1})
    S_{m+1}."""
    a_ = problem.coeffs.a
    N = problem.N
    S = [1.0] * N
    for m in range(N - 2, -1, -1):
        S[m] = 1.0 + (a_[m + 1] / f[m + 1]) * S[m + 1]
    return S


def _budget_closure(problem: StmProblem, f, free_first_hover: bool):
    """Linear budget closure: the free first-phase variable equals F1/F2.

    With every other flight time pinned at D_n/v_max, total mission time
    is affine in the single free variable (zeta_1, or tau_0 when the
    start hover is the free one); F1 collects the constants, F2 the free
    variable's weight.
    """
    b_ = problem.coeffs.b
    a_ = problem.coeffs.a
    S = _suffix_weights(problem, f)
    zeta_fixed = [d / problem.v_max for d in problem.D]
    start = 0 if free_first_hover else 1
    spent = math.fsum(
        zeta_fixed[m] * (1.0 + (b_[m] / f[m]) * S[m])
        for m in range(start, problem.N))
    F1 = problem.T - spent
    lead = a_[0] if free_first_hover else b_[0]
    F2 = 1.0 + (lead / f[0]) * S[0]
    return F1, F2


def compute_zeta1(problem: StmProblem, f) -> float:
    """Optimal first flight time zeta_1 = F1/F2, clamped to the speed
    cap if the closed form lands below it."""
    F1, F2 = _budget_closure(problem, f, free_first_hover=False)
    if not F2 > 0.0:
        raise NumericDomainError(f"budget closure denominator F2={F2} <= 0")
    return max(F1 / F2, problem.D[0] / problem.v_max)


def _close_budget(tau0: float, taus, zetas, T: float):
    """Absorb float drift so hover + flight times sum to T exactly.

    Drift goes into tau_0; a tiny negative tau_0 is shaved off the
    largest hover instead.  Anything beyond float noise means the
    closed form was applied outside its domain.
    """
    drift = T - math.fsum((tau0, *taus, *zetas))
    tau0 += drift
    if tau0 < 0.0:
        if tau0 < -_BUDGET_SLOP * max(T, 1.0):
            raise NumericDomainError(
                f"allocation overruns the budget by {-tau0:.3e} s")
        j = max(range(len(taus)), key=lambda m: taus[m])
        taus[j] = max(taus[j] + tau0, 0.0)
        tau0 = 0.0
    return tau0, taus


def _forward_times(problem: StmProblem, f, tau_prev: float, zeta1: float):
    """Run the energy chain forward: tau_n = (a_n tau_{n-1} + b_n
    zeta_n)/f_n with flight times at the cap from leg 2 on."""
    a_ = problem.coeffs.a
    b_ = problem.coeffs.b
    zetas = [zeta1] + [d / problem.v_max for d in problem.D[1:]]
    taus = []
    prev = tau_prev
    for n in range(problem.N):
        prev = (a_[n] * prev + b_[n] * zetas[n]) / f[n]
        taus.append(prev)
    return taus, zetas


def _diagnostics(problem, alloc, mu_n, f, F1, F2, method, clamped,
                 mu=None):
    g_ = problem.coeffs.gamma
    b_ = problem.coeffs.b
    Y = tuple(1.0 + g_[j] * f[j] for j in range(problem.N))
    if mu is None:
        mu = 0.5 * (mu_n + g_[-1] * b_[-1] / Y[-1])
    return StmDiagnostics(
        mu_N=mu_n, f=tuple(f), F1=F1, F2=F2, Y=Y,
        kkt_residual=kkt_residuals(problem, alloc, mu),
        budget_residual=abs(alloc.total - problem.T), mu=mu,
        objective=sum_throughput(problem.coeffs, alloc), method=method,
        clamped=clamped)


def _solve_closed_form(problem: StmProblem):
    """Dispatch between the two boundary structures of the closed form."""
    a_ = problem.coeffs.a
    b_ = problem.coeffs.b
    g_ = problem.coeffs.gamma
    if b_[0] >= a_[0]:
        # free first flight leg, start hover pinned at zero
        mu_n = solve_mu_n(problem)
        f = compute_f(problem, mu_n)
        F1, F2 = _budget_closure(problem, f, free_first_hover=False)
        zeta1 = compute_zeta1(problem, f)
        clamped = zeta1 > F1 / F2
        taus, zetas = _forward_times(problem, f, 0.0, zeta1)
        tau0, taus = _close_budget(0.0, taus, zetas, problem.T)
        alloc = TimeAllocation(tau=(tau0, *taus), zeta=tuple(zetas))
        return alloc, _diagnostics(problem, alloc, mu_n, f, F1, F2,
                                   "closed-form", clamped)

    # free start hover, every leg at the speed cap
    mu_n = _solve_mu(problem, g_[0] * a_[0], base=-g_[-1] * b_[-1])
    if mu_n < 0.0:
        raise NumericDomainError(
            f"start-hover closed form needs a nonnegative dual, got {mu_n!r}")
    f = compute_f(problem, mu_n)
    F1, F2 = _budget_closure(problem, f, free_first_hover=True)
    if not F2 > 0.0:
        raise NumericDomainError(f"budget closure denominator F2={F2} <= 0")
    tau0 = F1 / F2
    if tau0 < 0.0:
        raise NumericDomainError(
            f"start hover {tau0:.6g} s came out negative; structure invalid")
    taus, zetas = _forward_times(problem, f, tau0,
                                 problem.D[0] / problem.v_max)
    tau0, taus = _close_budget(tau0, taus, zetas, problem.T)
    alloc = TimeAllocation(tau=(tau0, *taus), zeta=tuple(zetas))
    return alloc, _diagnostics(problem, alloc, mu_n, f, F1, F2,
                               "closed-form-start-hover", False)


def _degenerate_allocation(problem: StmProblem):
    """Zero slack: every second goes to flying, nothing is transmitted."""
    zetas = tuple(d / problem.v_max for d in problem.D)
    alloc = TimeAllocation(tau=(0.0,) * (problem.N + 1), zeta=zetas)
    diag = StmDiagnostics(
        mu_N=0.0, f=(math.inf,) * problem.N, F1=0.0, F2=1.0,
        Y=(math.inf,) * problem.N, kkt_residual=0.0,
        budget_residual=abs(alloc.total - problem.T), mu=0.0,
        objective=0.0, method="degenerate", clamped=True)
    return alloc, diag


def solve_stm_numeric(problem: StmProblem):
    """Sequential quadratic programming on the reduced problem.

    Free variables are the N hover times and the first leg's flight
    extension beyond the speed-cap floor, all expressed as fractions of
    the slack budget so the solver sees a unit-scaled simplex; the start
    hover absorbs the remainder.  The gradient is throughput_gradient's:
    throughput is 1-homogeneous, so its partials are the same in slack
    units.  Several deterministic starts are tried and the best feasible
    point kept.
    """
    N = problem.N
    B = problem.slack
    if B <= 1e-12:
        return _degenerate_allocation(problem)
    g_ = np.asarray(problem.coeffs.gamma)
    a_ = np.asarray(problem.coeffs.a)
    b_ = np.asarray(problem.coeffs.b)
    zeta_floor = np.asarray(problem.D) / problem.v_max
    zf_hat = zeta_floor / B  # flight floors in slack units
    zf_list = zf_hat.tolist()

    # u = (hover fractions, extra-first-leg fraction); tau0 gets the rest
    def objective(u):
        taus = u[:N]
        energy = np.empty(N)
        energy[0] = (a_[0] * (1.0 - float(np.sum(u)))
                     + b_[0] * (zf_hat[0] + u[N]))
        if N > 1:
            energy[1:] = a_[1:] * taus[:-1] + b_[1:] * zf_hat[1:]
        return -0.5 * float(np.sum(taus * np.log1p(g_ * energy / taus)))

    def gradient(u):
        x = u.tolist()
        rest = 1.0 - float(np.sum(u))
        d = throughput_gradient(problem.coeffs, (rest, *x[:N]),
                                (zf_list[0] + x[N], *zf_list[1:]))
        return d[0] - np.asarray(d[1:])

    floor = _MIN_HOVER / max(B, 1.0)
    ramp = np.arange(1, N + 1, dtype=float)
    ramp *= 0.90 / ramp.sum()
    starts = [
        np.full(N + 1, 1.0 / (N + 2)),
        np.append(ramp, 0.05),
        np.append(np.full(N, 0.45 / N), 0.5),
    ]
    best_u, best_val, converged = None, np.inf, False
    messages = []
    for u0 in starts:
        res = minimize(
            objective, u0, jac=gradient, method="SLSQP",
            bounds=[(floor, 1.0)] * N + [(0.0, 1.0)],
            constraints=[{"type": "ineq",
                          "fun": lambda u: 1.0 - float(np.sum(u)),
                          "jac": lambda u: -np.ones(N + 1)}],
            options={"ftol": 1e-14, "maxiter": 500})
        u = np.clip(res.x, [floor] * N + [0.0], 1.0)
        total = float(np.sum(u))
        if total > 1.0:
            u *= (1.0 - 1e-15) / total
        val = objective(u)
        if val < best_val:
            best_u, best_val = u, val
        converged = converged or bool(res.success)
        if not res.success:
            messages.append(str(res.message))

    taus = [float(t) * B for t in best_u[:N]]
    zetas = [float(zeta_floor[0] + best_u[N] * B)]
    zetas += [float(z) for z in zeta_floor[1:]]
    tau0 = B - float(np.sum(best_u)) * B
    tau0, taus = _close_budget(tau0, taus, zetas, problem.T)
    alloc = TimeAllocation(tau=(tau0, *taus), zeta=tuple(zetas))

    # recover the dual picture from the final primal point
    a_l = problem.coeffs.a
    b_l = problem.coeffs.b
    f = []
    prev = tau0
    for n in range(N):
        if taus[n] > 0.0:
            f.append((a_l[n] * prev + b_l[n] * zetas[n]) / taus[n])
        else:
            f.append(math.inf)
        prev = taus[n]
    Y_last = 1.0 + float(g_[-1]) * f[-1]
    mu_hat = 0.5 * (math.log(Y_last) - 1.0 + 1.0 / Y_last)
    # mu_N is reported clamped at zero; on boundary structures the true
    # budget price is the last-group stationarity value mu_hat, so pass
    # it explicitly to keep the Lagrangian self-check meaningful
    mu_n = max(0.0, 2.0 * mu_hat - float(g_[-1] * b_[-1]) / Y_last)
    F2 = 1.0 + (float(b_[0]) / f[0]) * _suffix_weights(problem, f)[0]
    F1 = zetas[0] * F2
    clamped = zetas[0] <= zeta_floor[0] * (1.0 + 1e-12)
    diag = _diagnostics(problem, alloc, mu_n, f, F1, F2, "numeric", clamped,
                        mu=mu_hat)
    if not converged and diag.kkt_residual > 1e-3:
        raise AccuracyError(
            "numeric throughput solve failed: " + "; ".join(messages[:2]))
    return alloc, diag


def solve_stm(problem: StmProblem):
    """Optimal hover and flight times for a throughput-maximization
    instance.

    Tries the closed form appropriate to the instance's boundary
    structure and retries any domain failure with the SQP solver;
    diagnostics.method names the path taken.  Returns
    (TimeAllocation, StmDiagnostics).
    """
    if problem.slack <= 1e-12:
        return _degenerate_allocation(problem)
    try:
        return _solve_closed_form(problem)
    except NumericDomainError:
        return solve_stm_numeric(problem)


def sum_throughput(coeffs: GroupCoefficients, alloc: TimeAllocation) -> float:
    """Total delivered information Sigma tau_n R_n in nats per hertz.

    Groups with zero hover time contribute zero (the tau*R limit).
    """
    if len(alloc.zeta) != coeffs.N:
        raise NumericDomainError("allocation does not match the group count")
    total = 0.0
    for n in range(1, coeffs.N + 1):
        tau_n = alloc.tau[n]
        if tau_n == 0.0:
            continue
        rate = group_rate(coeffs, n, alloc.tau[n - 1], alloc.zeta[n - 1],
                          tau_n)
        total += tau_n * rate
    return total


def throughput_gradient(coeffs: GroupCoefficients, tau, zeta) -> list:
    """Partial derivatives of sum_throughput, ordered (d/dtau_0 ..
    d/dtau_N, d/dzeta_1).

    With q_n = 1/Y_n, hover n gains 0.5(ln Y_n - 1 + q_n) from its own
    rate and 0.5 gamma_{n+1} a_{n+1} q_{n+1} from charging group n+1;
    tau_0 and zeta_1 only charge group 1.  A group with no hover adds
    nothing downstream and has an unbounded marginal gain of its own.
    """
    g_ = coeffs.gamma
    a_ = coeffs.a
    b_ = coeffs.b
    N = coeffs.N
    q = [0.0] * N
    own = [math.inf] * N
    for n in range(N):
        if tau[n + 1] > 0.0:
            Y = 1.0 + g_[n] * (a_[n] * tau[n] + b_[n] * zeta[n]) / tau[n + 1]
            q[n] = 1.0 / Y
            own[n] = 0.5 * (math.log(Y) - 1.0 + q[n])
    d = [0.5 * g_[0] * a_[0] * q[0]]
    for n in range(N - 1):
        d.append(own[n] + 0.5 * g_[n + 1] * a_[n + 1] * q[n + 1])
    d.append(own[-1])
    d.append(0.5 * g_[0] * b_[0] * q[0])
    return d


def kkt_residuals(problem: StmProblem, alloc: TimeAllocation,
                  mu: float) -> float:
    """Largest stationarity residual |dH/dx - mu| of the budget
    Lagrangian over the coordinates away from their bounds: hovers above
    a small floor, and the first flight time when it is not pinned at
    the speed cap."""
    d = throughput_gradient(problem.coeffs, alloc.tau, alloc.zeta)
    free = [i for i, x in enumerate(alloc.tau) if x > 1e-3]
    zeta1 = alloc.zeta[0]
    if zeta1 > problem.D[0] / problem.v_max * (1.0 + 1e-9) and zeta1 > 1e-3:
        free.append(problem.N + 1)
    return max((abs(d[i] - mu) for i in free), default=0.0)


def stm_diag_row(problem: StmProblem, diag: StmDiagnostics) -> str:
    """One CSV data row matching STM_DIAG_HEADER."""
    fields = (problem.N, problem.T, problem.v_max, diag.mu_N,
              diag.objective, diag.budget_residual, diag.kkt_residual)
    return ",".join(_fmt(v) for v in fields)


def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:.12g}"
