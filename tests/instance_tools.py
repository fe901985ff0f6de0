"""Synthetic solver instances and reference solvers for the unit tests.

The instances bypass the geometry pipeline and build coefficient bundles
directly, so solver tests stay focused and fast: the solvers see a group
only through its aggregates a, b and gamma.  stm_sqp_reference solves
the same STM model as uavwpt.stm by sequential quadratic programming,
an independent check on the closed form; its non-convergence rule reads
kkt_residuals, the budget Lagrangian's worst KKT violation.
stm_grid_oracle is an exhaustive refined grid search over the same
model at N <= 3, and full_variable_gap the Frank-Wolfe gap with every
leg free, the problem the model narrows (ROADMAP item 2).
hover_moved_to_start makes a feasible, off-optimum allocation.
group_information writes out one group's delivered information
tau_n R_n, the bitwise reference for `stm.delivered_information`.
group_coefficients rebuilds a plan's aggregates from the plan alone,
the bitwise reference for the coefficients a trial is drawn with,
plan_sums the range checks and left folds it adds them with, and
baseline_coefficients the same reference for a baseline, from its leg
lengths.
leg_average_inverse_sq is the flight coefficient written from a leg's
end points, a copy of `channel`'s one formula (which takes what the draw
holds) kept apart so that it ties every drawn b_i to a separately
written reference; coeff_a, coeff_b and harvested_energy give one
sensor's hover and flight coefficients and harvested energy.
tau_closed_form is one group's TTM hover closed
form, which `solve_ttm` computes inline, and ttm_sqp_reference solves
the time-minimization problem with every hover and every leg free by
sequential quadratic programming, an oracle that shares no code with
`solve_ttm`.  flight_need is a leg's TTM flight time, the inverse of the
rate formula, and ttm_allocation_reference the TTM kernel calling it per
group, the bitwise reference for `ttm._ttm_allocation`, which computes
it inline.  lead_price_reference is the lead price mu+ of
`stm._lead_price` to 50 digits in the standard library's decimal, and
baseline_sums_reference a baseline's exact sums (a, b, h) from its leg
lengths, with the arctangent decimal_atan; ulps measures a float's
distance from such a reference.
"""

import math
from decimal import Decimal, getcontext, localcontext

import numpy as np
from scipy.optimize import minimize

from uavwpt import channel
from uavwpt.channel import ChannelParams, GroupCoefficients
from uavwpt.errors import (AccuracyError, NumericDomainError, PlanError,
                           UnsupportedScaleError)
from uavwpt.geometry import GroupPlan
from uavwpt.numerics import lambert_w0
from uavwpt.stm import (StmDiagnostics, StmProblem, TimeAllocation,
                        _close_budget, optimality_gap, solve_stm,
                        sum_throughput, throughput_gradient)
from uavwpt.ttm import _EXP_LIMIT, TtmProblem, _hover_denom, _tau_for_demand

_MIN_HOVER = 1e-9         # lower bound on the reference's hover times

ALTITUDE = 10.0
CAP = 1.0 / ALTITUDE**2


def synthetic_coeffs(rng, N, flight_dominant=True, gamma_range=(60.0, 600.0)):
    """Random positive coefficient bundle.

    flight_dominant=True draws b > a for every group (the UAV passes
    overhead inbound); False draws a > b (hovering is the better
    harvest, the start-hover solution structure).
    """
    a = rng.uniform(0.15 * CAP, 0.55 * CAP, N)
    if flight_dominant:
        b = np.minimum(a * rng.uniform(1.3, 2.4, N), CAP)
    else:
        b = a * rng.uniform(0.35, 0.85, N)
    gamma = rng.uniform(*gamma_range, N)
    return GroupCoefficients(
        a=tuple(float(v) for v in a),
        b=tuple(float(v) for v in b),
        gamma=tuple(float(v) for v in gamma),
    )


def stm_instance(seed, N=2, T=1000.0, v_max=10.0, flight_dominant=True):
    rng = np.random.default_rng(seed)
    coeffs = synthetic_coeffs(rng, N, flight_dominant)
    D = tuple(float(d) for d in rng.uniform(20.0, 30.0, N))
    return StmProblem(coeffs=coeffs, D=D, T=T, v_max=v_max)


def ttm_instance(seed, N=2, v_max=10.0, I_each=10.0, flight_dominant=True):
    rng = np.random.default_rng(seed)
    coeffs = synthetic_coeffs(rng, N, flight_dominant)
    D = tuple(float(d) for d in rng.uniform(20.0, 30.0, N))
    return TtmProblem(coeffs=coeffs, D=D, v_max=v_max, I=(I_each,) * N)


def stm_sqp_reference(problem: StmProblem):
    """Sequential quadratic programming on the reduced problem.

    Free variables are the N hover times and the first leg's flight
    extension beyond the speed-cap floor, all expressed as fractions of
    the slack budget so the solver sees a unit-scaled simplex; the start
    hover absorbs the remainder.  The gradient is throughput_gradient's:
    throughput is 1-homogeneous, so its partials are the same in slack
    units.  Several deterministic starts are tried and the best feasible
    point kept.  Returns (TimeAllocation, StmDiagnostics) with method
    "sqp" and mu read off the last group's stationarity.
    """
    N = problem.N
    B = problem.slack
    if B <= 1e-12:
        return solve_stm(problem)     # the degenerate allocation
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
        return d[0] - np.asarray(d[1:N + 2])

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
    alloc = TimeAllocation(*_close_budget(tau0, taus, zetas, problem.T))

    # recover the budget price from the last group's SNR factor
    if taus[-1] > 0.0:
        f_last = ((problem.coeffs.a[-1] * alloc.tau[-2]
                   + problem.coeffs.b[-1] * zetas[-1]) / taus[-1])
    else:
        f_last = math.inf
    Y_last = 1.0 + float(g_[-1]) * f_last
    mu_hat = 0.5 * (math.log(Y_last) - 1.0 + 1.0 / Y_last)
    diag = StmDiagnostics(
        mu=mu_hat, objective=sum_throughput(problem.coeffs, alloc),
        method="sqp", budget_residual=abs(alloc.total - problem.T),
        optimality_gap=optimality_gap(problem, alloc))
    if not converged and kkt_residuals(problem, alloc, mu_hat) > 1e-3:
        raise AccuracyError(
            "numeric throughput solve failed: " + "; ".join(messages[:2]))
    return alloc, diag


def group_information(coeffs: GroupCoefficients, n: int, tau_prev: float,
                      zeta_n: float, tau_n: float) -> float:
    """tau_n R_n of group n (nats/Hz) over a hover of tau_n seconds,
    after harvesting for tau_prev (hover) and zeta_n (flight) seconds,
    with the rate R_n = 0.5 ln(1 + gamma_n E_n / tau_n); 0 for no hover.
    Where gamma_n E_n / tau_n overflows, ln(1 + x) is taken as
    ln gamma_n + ln E_n - ln tau_n."""
    if tau_n == 0.0:
        return 0.0
    energy = coeffs.a[n - 1] * tau_prev + coeffs.b[n - 1] * zeta_n
    gamma = coeffs.gamma[n - 1]
    x = gamma * energy / tau_n
    if x == math.inf:
        log_y = math.log(gamma) + math.log(energy) - math.log(tau_n)
    else:
        log_y = math.log1p(x)
    return tau_n * (0.5 * log_y)


def kkt_residuals(problem: StmProblem, alloc: TimeAllocation,
                  mu: float) -> float:
    """Worst KKT violation of the budget Lagrangian at price mu.

    A coordinate off its bound must be worth exactly mu, |dH/dx - mu|;
    one at its bound (a hover of at most 1e-3 s, or zeta_1 at the speed
    cap) must be worth at most mu, since raising it would otherwise pay,
    so it contributes max(dH/dx - mu, 0).  Legs 2..N sit at the cap by
    the model and are not variables.
    """
    d = throughput_gradient(problem.coeffs, alloc.tau, alloc.zeta)
    bound = [x <= 1e-3 for x in alloc.tau]
    bound.append(alloc.zeta[0] <= max(problem.floors[0] * (1.0 + 1e-9), 1e-3))
    return max(max(di - mu, 0.0) if at else abs(di - mu)
               for di, at in zip(d, bound))


def hover_moved_to_start(alloc: TimeAllocation,
                         seconds: float) -> TimeAllocation:
    """alloc with `seconds` moved from its largest group hover to tau_0:
    still feasible, no longer optimal."""
    tau = list(alloc.tau)
    j = max(range(1, len(tau)), key=tau.__getitem__)
    tau[j] -= seconds
    tau[0] += seconds
    return TimeAllocation(tau=tuple(tau), zeta=alloc.zeta)


def full_variable_gap(problem: StmProblem, alloc: TimeAllocation) -> float:
    """Frank-Wolfe gap over every tau_n and every zeta_n, legs 2..N
    included: `stm.optimality_gap` for the problem in which every leg
    may be flown slower than the cap.  It bounds how far the pinned
    model's optimum falls below that problem's."""
    d = throughput_gradient(problem.coeffs, alloc.tau, alloc.zeta)
    x = (*alloc.tau, *alloc.zeta)
    floors = (0.0,) * (problem.N + 1) + problem.floors
    top = max(d)
    return math.fsum((xk - fk) * (top - dk)
                     for xk, fk, dk in zip(x, floors, d) if xk > fk)


def _stm_objective_grid(problem: StmProblem, taus, e1):
    """Vectorized throughput over broadcastable hover/flight arrays."""
    g_ = problem.coeffs.gamma
    a_ = problem.coeffs.a
    b_ = problem.coeffs.b
    N = problem.N
    B = problem.slack
    floor1 = problem.D[0] / problem.v_max
    tau0 = B - sum(taus) - e1
    feasible = tau0 >= -1e-12
    tau0 = np.clip(tau0, 0.0, None)
    total = 0.0
    prev = tau0
    for n in range(N):
        zeta = floor1 + e1 if n == 0 else problem.D[n] / problem.v_max
        energy = a_[n] * prev + b_[n] * zeta
        t = taus[n]
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(t > 0.0, 0.5 * t * np.log1p(
                g_[n] * energy / np.where(t > 0.0, t, 1.0)), 0.0)
        total = total + term
        prev = t
    return np.where(feasible, total, -np.inf), tau0


def stm_grid_oracle(problem: StmProblem, refinements: int = 2):
    """Exhaustive grid search over the throughput problem, N <= 3.

    Free axes are the N hover times and the first leg's flight
    extension; the start hover absorbs the slack.  An 11-point base
    grid per axis is refined around the incumbent, each pass shrinking
    the step tenfold; the incumbent never regresses.
    """
    if problem.N > 3:
        raise UnsupportedScaleError(
            f"grid oracle supports N <= 3, got N={problem.N}")
    B = problem.slack
    N = problem.N
    if B <= 0.0:
        zetas = tuple(d / problem.v_max for d in problem.D)
        alloc = TimeAllocation(tau=(0.0,) * (N + 1), zeta=zetas)
        return alloc, 0.0

    centers = np.full(N + 1, B / 2.0)
    step = B / 10.0
    best_val = -math.inf
    best_x = None
    for _ in range(refinements + 1):
        axes = []
        for d in range(N + 1):
            lo = max(0.0, centers[d] - 5.0 * step)
            hi = min(B, centers[d] + 5.0 * step)
            axes.append(np.linspace(lo, hi, 11))
        mesh = np.meshgrid(*axes, indexing="ij")
        taus = [m.ravel() for m in mesh[:N]]
        e1 = mesh[N].ravel()
        vals, _ = _stm_objective_grid(problem, taus, e1)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_x = [float(t[k]) for t in taus] + [float(e1[k])]
        centers = np.array(best_x)
        step /= 10.0

    taus = best_x[:N]
    e1 = best_x[N]
    tau0 = max(B - math.fsum(taus) - e1, 0.0)
    zetas = [problem.D[0] / problem.v_max + e1] + [
        d / problem.v_max for d in problem.D[1:]]
    alloc = TimeAllocation(tau=(tau0, *taus), zeta=tuple(zetas))
    return alloc, best_val


def tau_closed_form(problem: TtmProblem, n: int) -> float:
    """Optimal hover time of group n before any clamp repair: the
    closed form `solve_ttm` takes for a group whose credit holds.

    Groups before the last get the downstream credit factor
    kappa = 1 - a_{n+1}/b_{n+1}; a_{n+1} >= b_{n+1} is a hard domain
    error rather than a silent fallback.
    """
    if not 1 <= n <= problem.N:
        raise NumericDomainError(f"group index {n} out of range")
    g_ = problem.coeffs.gamma[n - 1]
    b_ = problem.coeffs.b[n - 1]
    if n == problem.N:
        return 2.0 * problem.I[n - 1] / _hover_denom(g_ * b_, n)
    kappa = 1.0 - problem.coeffs.a[n] / problem.coeffs.b[n]
    return 2.0 * problem.I[n - 1] / _hover_denom(kappa * g_ * b_, n)


def ttm_sqp_reference(problem: TtmProblem, start: TimeAllocation):
    """Shortest mission meeting every demand, by SLSQP over every hover
    tau_0..tau_N and every leg zeta_1..zeta_N (each at least its speed-cap
    floor), with the demands tau_n R_n >= I_n as constraints.

    The problem is convex: the objective is linear, and each delivery is
    the perspective of a concave function, jointly concave in (tau_{n-1},
    zeta_n, tau_n).  SLSQP starts at `start` and at a uniform point, and
    the shorter mission that meets every demand to 1e-9 nats is kept.
    Returns (TimeAllocation, total time).
    """
    N = problem.N
    g_ = np.asarray(problem.coeffs.gamma)
    a_ = np.asarray(problem.coeffs.a)
    b_ = np.asarray(problem.coeffs.b)
    demand = np.asarray(problem.I)
    floors = np.asarray(problem.floors)
    rows = np.arange(N)

    def parts(x):
        tau_prev, tau, zeta = x[:N], x[1:N + 1], x[N + 1:]
        energy = a_ * tau_prev + b_ * zeta
        return tau, energy, g_ * energy / tau

    def excess(x):
        tau, _, ratio = parts(x)
        return 0.5 * tau * np.log1p(ratio) - demand

    def excess_jac(x):
        tau, _, ratio = parts(x)
        jac = np.zeros((N, 2 * N + 1))
        per_energy = 0.5 * g_ / (1.0 + ratio)
        jac[rows, rows] = a_ * per_energy
        jac[rows, rows + 1] = 0.5 * (np.log1p(ratio) - ratio / (1.0 + ratio))
        jac[rows, rows + N + 1] = b_ * per_energy
        return jac

    bounds = ([(0.0, None)] + [(_MIN_HOVER, None)] * N
              + [(f, None) for f in floors])
    uniform = np.concatenate(([0.0], 2.0 * demand, 2.0 * floors))
    best, best_total = None, math.inf
    for x0 in (np.array([*start.tau, *start.zeta]), uniform):
        res = minimize(
            lambda x: float(np.sum(x)), x0, jac=lambda x: np.ones(2 * N + 1),
            method="SLSQP", bounds=bounds,
            constraints=[{"type": "ineq", "fun": lambda x: excess(x) - 1e-9,
                          "jac": excess_jac}],
            options={"ftol": 1e-15, "maxiter": 1000})
        x = np.maximum(res.x, [b[0] for b in bounds])
        total = math.fsum(x.tolist())
        if np.all(excess(x) >= -1e-9) and total < best_total:
            best, best_total = x, total
    if best is None:
        raise AccuracyError("TTM reference found no mission meeting "
                            "every demand")
    alloc = TimeAllocation(tau=tuple(best[:N + 1].tolist()),
                           zeta=tuple(best[N + 1:].tolist()))
    return alloc, best_total


def coeff_a(plan: GroupPlan, params: ChannelParams, n: int, i: int) -> float:
    """Hover-phase harvesting coefficient of sensor i for hover point n."""
    w = plan.position(i)
    return channel.point_inverse_sq(plan.hover(n), w, params.A)


def leg_average_inverse_sq(p0, p1, w, A: float) -> float:
    """Average of 1/(dist^2 + A^2) over a straight leg p0 -> p1 for a
    sensor at ground point w, written from the points: the reference for
    `channel.leg_average_inverse_sq`, which takes the leg's vector and
    length and the sensor's offset as the draw holds them.

    With s the arc length along the leg, s_w the projection of the
    sensor onto the leg, and c^2 = A^2 + (perpendicular offset)^2, the
    integrand is 1/((s - s_w)^2 + c^2), whose average over [0, D] is

        [arctan((D - s_w)/c) - arctan(-s_w/c)] / (D * c).

    A zero-length leg degenerates to the point value at p0.
    """
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    D = math.hypot(dx, dy)
    if D == 0.0:
        return channel.point_inverse_sq(p0, w, A)
    wx = w[0] - p0[0]
    wy = w[1] - p0[1]
    s_w = (wx * dx + wy * dy) / D
    perp_sq = wx * wx + wy * wy - s_w * s_w
    if perp_sq < 0.0:
        perp_sq = 0.0
    c = math.sqrt(A * A + perp_sq)
    return (math.atan2(D - s_w, c) - math.atan2(-s_w, c)) / (D * c)


def coeff_b(plan: GroupPlan, params: ChannelParams, n: int, i: int) -> float:
    """Flight-phase harvesting coefficient of sensor i over leg n."""
    p0, p1 = plan.leg(n)
    return leg_average_inverse_sq(p0, p1, plan.position(i), params.A)


def harvested_energy(plan: GroupPlan, params: ChannelParams, n: int, i: int,
                     tau_prev: float, zeta_n: float) -> float:
    """Energy (joules) sensor i collects before its group's hover n:
    tau_prev seconds of hover at the previous stop plus zeta_n seconds of
    inbound flight."""
    if tau_prev < 0.0 or zeta_n < 0.0:
        raise NumericDomainError("durations must be nonnegative")
    if i not in plan.members(n):
        raise PlanError(f"sensor {i} is not served by group {n}")
    return params.energy_scale * (
        coeff_a(plan, params, n, i) * tau_prev
        + coeff_b(plan, params, n, i) * zeta_n)


def plan_sums(plan: GroupPlan, params: ChannelParams, a_i, b_i):
    """A plan's sums (a, b, h) under radio `params`, given its members'
    hover and flight coefficients a_i and b_i listed in plan order: each
    pair is range-checked and added, and the member's uplink gains over
    receive antennas 2..M are added to h, in left folds.  A member with
    both coefficients outside (0, 1/A^2] is reported by its hover one.
    """
    A = params.A
    A2 = A * A
    bound = 1.0 / A2 * (1.0 + 1e-12)
    k0 = params.k0
    offsets = [(k - 1) * params.delta for k in range(2, params.M + 1)]
    sensors = plan.sensors
    pairs = iter(zip(a_i, b_i))
    a, b, h = [], [], []
    for n, (members, hover) in enumerate(
            zip(plan.groups, plan.hover_points), start=1):
        hx, hy = hover
        a_n = b_n = h_n = 0.0
        for i, (av, bv) in zip(members, pairs):
            if not 0.0 < av <= bound:
                raise NumericDomainError(
                    f"group {n}: hover coefficient {av} outside (0, 1/A^2]")
            if not 0.0 < bv <= bound:
                raise NumericDomainError(
                    f"group {n}: flight coefficient {bv} outside (0, 1/A^2]")
            a_n += av
            b_n += bv
            x, y = sensors[i - 1]
            for off in offsets:
                L = math.hypot(hx - x, hy + off - y)
                h_n += k0 / (L * L + A2)
        a.append(a_n)
        b.append(b_n)
        h.append(h_n)
    return tuple(a), tuple(b), tuple(h)


def group_coefficients(plan: GroupPlan,
                       params: ChannelParams) -> GroupCoefficients:
    """Every coefficient the solvers need for a plan, from the plan alone:
    each member's a_i from `channel.point_inverse_sq` and b_i from the
    point-form `leg_average_inverse_sq` (each leg starting where the
    previous one ended), summed by `plan_sums`, and
    gamma = snr * h.  The float operations and their order are those of
    the trial's own coefficient pass, so the two agree bit for bit.
    """
    A = params.A
    a_i, b_i = [], []
    p0 = plan.start_point
    for members, hover in zip(plan.groups, plan.hover_points):
        for i in members:
            w = plan.sensors[i - 1]
            a_i.append(channel.point_inverse_sq(hover, w, A))
            b_i.append(leg_average_inverse_sq(p0, hover, w, A))
        p0 = hover
    a, b, h = plan_sums(plan, params, a_i, b_i)
    snr = params.energy_scale / params.sigma2
    return GroupCoefficients(a=a, b=b, gamma=tuple([snr * h_n for h_n in h]))


def baseline_coefficients(plan: GroupPlan,
                          params: ChannelParams) -> GroupCoefficients:
    """A singleton plan's coefficients when each leg ends right over its
    sensor, from its leg lengths alone: at every stop a = 1/A^2 and
    gamma = snr * h, with h the left fold over receive antennas k = 2..M
    of k0 / (((k-1) delta)^2 + A^2), and b_n = atan(d_n/A) / (d_n A)
    (1/A^2 for a zero-length leg).  The float operations and their order
    are those of the trial's baseline, so the two agree bit for bit."""
    A = params.A
    h = 0.0
    for k in range(2, params.M + 1):
        off = (k - 1) * params.delta
        h += params.k0 / (off * off + A * A)
    b = tuple([math.atan(d / A) / (d * A) if d else 1.0 / (A * A)
               for d in plan.D])
    snr = params.energy_scale / params.sigma2
    K = len(b)
    return GroupCoefficients(a=(1.0 / (A * A),) * K, b=b,
                             gamma=(snr * h,) * K)


def flight_need(I_n: float, g: float, a: float, b: float,
                tau_prev: float, tau_n: float) -> float:
    """Flight time of a leg after which tau_n seconds of hover deliver
    exactly I_n nats to a group of coefficients (g, a, b), given tau_prev
    at the group before: the inverse of the rate formula, not floored at
    the speed cap; inf where exp would overflow."""
    u = 2.0 * I_n / tau_n
    if u > _EXP_LIMIT:
        return math.inf
    return (tau_n / g * math.expm1(u) - a * tau_prev) / b


def ttm_allocation_reference(gamma, a, b, I, floors, denoms: dict):
    """`ttm._ttm_allocation` written with one `flight_need` call per
    group, in both passes: the bitwise reference for the kernel, which
    computes each flight need inline."""
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
            taus[n] = 2.0 * I_n / denom
            if (flight_need(I[n], gamma[n], a[n], b[n], taus[n],
                            taus[n + 1]) > floors[n] * (1.0 + 1e-12)):
                continue
        try:
            denom = denoms[n]
        except KeyError:
            denom = denoms[n] = _hover_denom(gamma[n - 1] * b[n - 1], n)
        taus[n] = 2.0 * I_n / denom
    zetas = []
    prev = 0.0
    for n, (I_n, g, an, bn, floor, tau_n) in enumerate(
            zip(I, gamma, a, b, floors, taus[1:]), start=1):
        zeta = flight_need(I_n, g, an, bn, prev, tau_n)
        if zeta <= floor:
            zeta = floor
            tau_n = taus[n] = _tau_for_demand(I_n, g, an * prev + bn * floor,
                                              tau_n)
        zetas.append(zeta)
        prev = tau_n
    return tuple(taus), tuple(zetas)


def _decimal_w0(x):
    """W0(x) by Newton's method in the current decimal context, from the
    float W0 as seed (nudged off the branch point, where the slope is 0)."""
    w = max(Decimal(lambert_w0(float(x))), Decimal("-0.999999"))
    for _ in range(60):
        ew = w.exp()
        step = (w * ew - x) / (ew * (w + 1))
        w -= step
        if abs(step) <= Decimal("1e-46"):
            return w
    raise AccuracyError(f"decimal W0: no convergence for {x}")


def _decimal_lead(halves, c, mu):
    """c q_1 - mu of the dual chain at mu and its slope in mu, in
    decimal, or None where the chain is undefined."""
    r, dr = mu, Decimal(1)
    for half in reversed(halves):
        if r <= 0:
            return None
        w = _decimal_w0(-(-2 * r - 1).exp())
        if w <= -1:
            return None
        q, dq = -w, 2 * w / (1 + w) * dr
        r, dr = mu - half * q, 1 - half * dq
    return c * q - mu, c * dq - 1


def lead_price_reference(gamma, a, c: float, mu: float) -> Decimal:
    """The lead price mu+, where c q_1(mu) = mu on the exact chain over
    (gamma, a), to 50 digits: Newton's method in decimal from the float
    root mu.  Raises AccuracyError unless the gap is positive at
    mu+ (1 - 1e-11) and negative (or the chain undefined) at
    mu+ (1 + 1e-11)."""
    with localcontext() as ctx:
        ctx.prec = 50
        halves = [Decimal(0.5) * Decimal(g) * Decimal(an)
                  for g, an in zip(gamma, a)]
        c, x = Decimal(c), Decimal(mu)
        for _ in range(60):
            gap, slope = _decimal_lead(halves, c, x)
            step = gap / slope
            x -= step
            if abs(step) <= Decimal("1e-45") * x:
                break
        below = _decimal_lead(halves, c, x * (1 - Decimal("1e-11")))
        above = _decimal_lead(halves, c, x * (1 + Decimal("1e-11")))
        if below is None or not below[0] > 0 or (
                above is not None and not above[0] < 0):
            raise AccuracyError(f"no sign change of the lead gap at {x}")
        return +x


def decimal_atan(x: Decimal) -> Decimal:
    """arctan(x), x >= 0, in the current decimal context: the argument
    halved by atan x = 2 atan(x / (1 + sqrt(1 + x^2))) until x <= 1/16,
    then the Taylor series x - x^3/3 + x^5/5 - ... summed until a term
    falls below 10^-(prec + 2) of the sum."""
    halvings = 0
    while x > Decimal("0.0625"):
        x = x / (1 + (1 + x * x).sqrt())
        halvings += 1
    tiny = Decimal(10) ** -(getcontext().prec + 2)
    x2, term, total, k = x * x, x, x, 1
    while abs(term) > tiny * total:
        term *= -x2
        k += 2
        total += term / k
    return total * (1 << halvings)


def baseline_sums_reference(D, params: ChannelParams):
    """The exact sums (a, b, h) of a baseline that hovers right over each
    sensor at the end of legs D, under radio `params`, to 50 digits:
    a = 1/A^2 and h = sum over k = 2..M of k0 / (((k-1) delta)^2 + A^2)
    at every stop, and b_n = atan(d_n/A) / (d_n A), each float input
    read as the exact number it holds.  A zero-length leg gets 1/A^2."""
    with localcontext() as ctx:
        ctx.prec = 50
        k0, delta, A = map(Decimal, (params.k0, params.delta, params.A))
        a = 1 / (A * A)
        h = sum(k0 / ((k * delta) ** 2 + A * A) for k in range(1, params.M))
        b = [decimal_atan(d / A) / (d * A) if d else a
             for d in map(Decimal, D)]
        return (a,) * len(D), tuple(b), (h,) * len(D)


def ulps(v: float, ref: Decimal) -> float:
    """|v - ref| in units of the last place of ref rounded to a float."""
    return float(abs(Decimal(v) - ref) / Decimal(math.ulp(float(ref))))
