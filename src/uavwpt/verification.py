"""Independent oracles for the closed forms and solvers.

Nothing in here reuses the formulas it checks: flight energy is
re-derived by adaptive quadrature along the actual leg; the throughput
solver is held to `stm.optimality_gap`, which reads the objective's
gradient, not the solver's dual chain; the time solver is compared
against an exhaustive grid search with local refinement at desk scale.
Every acceptance tolerance lives in the TOLERANCES table so solver and
oracle cannot drift apart silently.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .config import ScenarioConfig
from .errors import UnsupportedScaleError
from .experiments import (apply_sweep_value, build_problem, generate_trial,
                          trial_rng)
from .geometry import GroupPlan
from .numerics import integrate_adaptive
from .stm import TimeAllocation, delivered_information, solve_stm
from .ttm import TtmProblem, solve_ttm

TOLERANCES = {
    "flight_energy_rel": 1e-6,   # closed-form vs quadrature energy
    "stm_objective_rel": 1e-3,   # solver may trail its bound by 0.1%
    "stm_budget_abs": 1e-8,      # seconds of budget slack allowed
    "ttm_total_factor": 1.05,    # solver total vs grid-oracle total
    "ttm_info_abs": 1e-8,        # nats of demand shortfall allowed
    "concavity_slack": 1e-9,     # midpoint concavity slack floor
}

# local zoom passes of ttm_grid_oracle after its coarse grid
_GRID_REFINEMENTS = 2

ORACLE_CSV_HEADER = "oracle,instance_seed,oracle_value,solver_value,rel_gap,pass"


@dataclass(frozen=True)
class OracleReport:
    """One oracle-vs-solver comparison."""

    oracle: str
    instance_seed: int
    oracle_value: float
    solver_value: float
    passed: bool

    @property
    def rel_gap(self) -> float:
        return (abs(self.solver_value - self.oracle_value)
                / max(abs(self.oracle_value), 1e-12))

    def csv_row(self) -> str:
        return (f"{self.oracle},{self.instance_seed},"
                f"{self.oracle_value:.12g},{self.solver_value:.12g},"
                f"{self.rel_gap:.12g},{int(self.passed)}")


def flight_energy_numeric(plan: GroupPlan, params, n: int,
                          zeta_n: float) -> float:
    """Energy group n's members harvest while the UAV flies leg n in
    zeta_n seconds, by adaptive quadrature along the actual trajectory."""
    if zeta_n < 0.0:
        raise ValueError("flight time must be nonnegative")
    if zeta_n == 0.0:
        return 0.0
    p0, p1 = plan.leg(n)
    members = [plan.position(i) for i in plan.members(n)]
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]

    def instantaneous_power(t):
        s = t / zeta_n
        pos = (p0[0] + s * dx, p0[1] + s * dy)
        return math.fsum([channel.point_inverse_sq(pos, w, params.A)
                          for w in members])

    integral = integrate_adaptive(instantaneous_power, 0.0, zeta_n,
                                  rel_tol=1e-9)
    return params.energy_scale * integral


def _ttm_total_grid(problem: TtmProblem, taus):
    """Vectorized minimal total time for fixed hover arrays: each leg's
    flight time is the exact demand inverse, floored at the speed cap."""
    g_ = problem.coeffs.gamma
    a_ = problem.coeffs.a
    b_ = problem.coeffs.b
    total = 0.0
    prev = 0.0
    for n in range(problem.N):
        t = taus[n]
        u = 2.0 * problem.I[n] / t
        with np.errstate(over="ignore"):
            need = (t / g_[n] * np.expm1(u) - a_[n] * prev) / b_[n]
        zeta = np.maximum(need, problem.floors[n])
        total = total + t + zeta
        prev = t
    return total


def ttm_grid_oracle(problem: TtmProblem):
    """Exhaustive search over hover times for the time-minimization
    problem, N <= 2; flight times follow analytically."""
    if problem.N > 2:
        raise UnsupportedScaleError(
            f"grid oracle supports N <= 2, got N={problem.N}")
    N = problem.N

    axes = []
    for n in range(N):
        lo = 1e-3 * problem.I[n]
        hi = 2e3 * problem.I[n]
        axes.append(np.geomspace(lo, hi, 61))
    best_val = math.inf
    best_tau = None
    for _ in range(_GRID_REFINEMENTS + 1):
        mesh = np.meshgrid(*axes, indexing="ij")
        taus = [m.ravel() for m in mesh]
        vals = _ttm_total_grid(problem, taus)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_tau = [float(t[k]) for t in taus]
        new_axes = []
        for n in range(N):
            width = best_tau[n] * 0.12 if len(axes[n]) == 61 else (
                axes[n][-1] - axes[n][0]) * 0.06
            lo = max(best_tau[n] - width, 1e-9 * problem.I[n])
            new_axes.append(np.linspace(lo, best_tau[n] + width, 21))
        axes = new_axes

    zetas = []
    prev = 0.0
    for n in range(N):
        t = best_tau[n]
        need = (t / problem.coeffs.gamma[n] * math.expm1(
            2.0 * problem.I[n] / t)
            - problem.coeffs.a[n] * prev) / problem.coeffs.b[n]
        zetas.append(max(need, problem.floors[n]))
        prev = t
    alloc = TimeAllocation(tau=(0.0, *best_tau), zeta=tuple(zetas))
    return alloc, float(best_val)


@dataclass(frozen=True)
class ConcavityReport:
    trials: int
    violations: int
    min_slack: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def concavity_suite(coeffs, trials: int, seed: int) -> ConcavityReport:
    """Randomized midpoint test that hover throughput tau*R is concave
    in (previous hover, flight time, own hover)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    N = coeffs.N
    g_ = np.asarray(coeffs.gamma)
    a_ = np.asarray(coeffs.a)
    b_ = np.asarray(coeffs.b)
    idx = rng.integers(0, N, size=trials)

    def H(tau_prev, zeta, tau):
        energy = a_[idx] * tau_prev + b_[idx] * zeta
        with np.errstate(over="ignore"):
            x = g_[idx] * energy / tau
        # where x overflows, ln(1 + x) is ln g + ln E - ln tau
        return 0.5 * tau * np.where(
            x < np.inf, np.log1p(x),
            np.log(g_[idx]) + np.log(energy) - np.log(tau))

    # log-uniform draws across four decades keep all three phases positive
    def draw():
        return np.exp(rng.uniform(math.log(1e-2), math.log(1e2),
                                  size=(3, trials)))

    p = draw()
    q = draw()
    lam = rng.uniform(0.0, 1.0, size=trials)
    mid = tuple(lam * p[j] + (1.0 - lam) * q[j] for j in range(3))
    slack = H(*mid) - lam * H(*p) - (1.0 - lam) * H(*q)
    violations = int(np.sum(slack < -TOLERANCES["concavity_slack"]))
    return ConcavityReport(trials=trials, violations=violations,
                           min_slack=float(slack.min()))


def run_verification(config: ScenarioConfig):
    """Full oracle suite; returns (reports, all_passed).

    Every instance is drawn from its own seed, derived from config.seed,
    and evaluated in-process, so the reports are a pure function of the
    config.  The stm_gap rows run at the swept sizes N = 4, 6 and 9,
    each instance's grouped plan then its baseline; their oracle_value
    is objective + optimality gap, an upper bound on the optimum.
    """
    seed = config.seed
    reports = []

    # drawn b_n vs quadrature: a group on even j, a baseline stop on odd j
    desk = apply_sweep_value(config, "N", 2)
    for j in range(200):
        inst = seed * 100003 + j
        geo = generate_trial(desk, trial_rng(inst, 0))
        plan, params, (_, b, _) = (
            (geo.plan, desk.radio, geo.sums) if j % 2 == 0 else
            (geo.baseline_plan, desk.baseline_radio, geo.baseline[2]))
        rng = trial_rng(inst, 1)
        n = int(rng.integers(1, plan.N + 1))
        zeta = float(rng.uniform(0.5, 10.0))
        closed = params.energy_scale * b[n - 1] * zeta
        numeric = flight_energy_numeric(plan, params, n, zeta)
        gap = abs(closed - numeric) / max(abs(numeric), 1e-300)
        reports.append(OracleReport(
            oracle="flight_energy", instance_seed=inst,
            oracle_value=numeric, solver_value=closed,
            passed=gap <= TOLERANCES["flight_energy_rel"]))

    # throughput solver vs its certified upper bound, both plans
    for N in (4, 6, 9):
        sized = apply_sweep_value(config, "N", N)
        for j in range(5):
            inst = seed * 7919 + j
            geo = generate_trial(sized, trial_rng(inst, 0))
            for baseline in (False, True):
                problem = build_problem(sized, geo, "stm", baseline)
                _, diag = solve_stm(problem)
                bound = diag.objective + diag.optimality_gap
                ok = (diag.objective
                      >= bound * (1.0 - TOLERANCES["stm_objective_rel"])
                      and diag.budget_residual
                      <= TOLERANCES["stm_budget_abs"])
                reports.append(OracleReport(
                    oracle="stm_gap", instance_seed=inst,
                    oracle_value=bound, solver_value=diag.objective,
                    passed=ok))

    # time-minimization solver vs grid oracle
    for j in range(5):
        inst = seed * 104729 + j
        geo = generate_trial(desk, trial_rng(inst, 0))
        problem = build_problem(desk, geo, "ttm")
        _, oracle_total = ttm_grid_oracle(problem)
        alloc, total = solve_ttm(problem)
        info = delivered_information(problem.coeffs, alloc)
        ok = total <= oracle_total * TOLERANCES["ttm_total_factor"]
        for n in range(problem.N):
            ok = ok and info[n] >= problem.I[n] - TOLERANCES["ttm_info_abs"]
        reports.append(OracleReport(
            oracle="ttm_grid", instance_seed=inst,
            oracle_value=oracle_total, solver_value=total, passed=ok))

    # concavity of the per-group throughput term
    geo = generate_trial(desk, trial_rng(seed * 31 + 7, 0))
    problem = build_problem(desk, geo, "stm")
    conc = concavity_suite(problem.coeffs, trials=100_000, seed=seed)
    reports.append(OracleReport(
        oracle="concavity", instance_seed=seed,
        oracle_value=-TOLERANCES["concavity_slack"],
        solver_value=conc.min_slack, passed=conc.passed))

    return reports, all(r.passed for r in reports)


def write_verification_csv(path, reports):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(ORACLE_CSV_HEADER + "\n")
        for r in reports:
            fh.write(r.csv_row() + "\n")
