import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import lambertw as scipy_lambertw

from instance_tools import stm_instance, synthetic_coeffs
from uavwpt.channel import GroupCoefficients, group_coefficients
from uavwpt.config import ScenarioConfig
from uavwpt.errors import (BracketingError, InfeasiblePlanError,
                           NumericDomainError)
from uavwpt import stm
from uavwpt.experiments import (SweepSpec, array_config, channel_params,
                                generate_trial, hf_eh_baseline, run_sweep,
                                trial_rng)
from uavwpt.stm import (StmProblem, TimeAllocation, _budget_closure,
                        _chain_q, _solve_closed_form, compute_f,
                        kkt_residuals,
                        solve_stm, solve_stm_numeric, stm_diag_row,
                        sum_throughput, throughput_gradient, STM_DIAG_HEADER)
from uavwpt.verification import stm_grid_oracle


# -------------------------------------------------- independent dual oracle

def _oracle_chain_q(gamma, a, b, mu_n):
    """Reference chain evaluation using scipy's Lambert W."""
    N = len(gamma)
    gnbn = gamma[-1] * b[-1]
    w = float(scipy_lambertw((gnbn - 1.0) * math.exp(-mu_n - 1.0)).real)
    q = [0.0] * N
    q[-1] = math.exp(-(w + mu_n + 1.0))
    for j in range(N - 2, -1, -1):
        e = gamma[j + 1] * a[j + 1] * q[j + 1] - gnbn * q[-1] - mu_n - 1.0
        q[j] = -float(scipy_lambertw(-math.exp(e)).real)
    return q


def _oracle_residual(problem, mu_n, start_hover=False):
    c = problem.coeffs
    q = _oracle_chain_q(c.gamma, c.a, c.b, mu_n)
    first = c.a[0] if start_hover else c.b[0]
    return c.gamma[0] * first * q[0] - c.gamma[-1] * c.b[-1] * q[-1] - mu_n


def _swept_problem(config, trial, baseline=False):
    """Trial `trial` of master seed 7 as an StmProblem: the grouped plan,
    or the hover-and-fly baseline's one-sensor groups."""
    geo = generate_trial(config, trial_rng(7, trial))
    plan = geo.baseline_plan if baseline else geo.plan
    scheme = hf_eh_baseline(config) if baseline else config
    coeffs = group_coefficients(plan, array_config(scheme),
                                channel_params(scheme))
    return StmProblem(coeffs=coeffs, D=plan.D, T=config.T_s,
                      v_max=config.v_max_mps)


def _closed_form_mu_n(problem):
    """mu_N found by the closed form."""
    return _solve_closed_form(problem)[1].mu_N


def _mu_from_point(problem, alloc):
    """Budget shadow price implied by last-group stationarity at a point."""
    c = problem.coeffs
    E = c.a[-1] * alloc.tau[-2] + c.b[-1] * alloc.zeta[-1]
    Y = 1.0 + c.gamma[-1] * E / alloc.tau[-1]
    return 0.5 * (math.log(Y) - 1.0 + 1.0 / Y)


# -------------------------------------------------- dual root

def test_symmetric_instance_residual():
    coeffs = GroupCoefficients(
        a=(0.004, 0.004), b=(0.007, 0.007), gamma=(300.0, 300.0))
    problem = StmProblem(coeffs=coeffs, D=(25.0, 25.0), T=800.0, v_max=10.0)
    mu_n = _closed_form_mu_n(problem)
    assert abs(_oracle_residual(problem, mu_n)) <= 1e-10


def test_random_instance_residuals():
    hits = 0
    for seed in range(40):
        problem = stm_instance(seed, N=2)
        try:
            mu_n = _closed_form_mu_n(problem)
        except NumericDomainError:
            continue  # outside the closed form's domain; numeric territory
        hits += 1
        assert abs(_oracle_residual(problem, mu_n)) <= 1e-10
    assert hits >= 10


@pytest.mark.parametrize("N, K, baseline", [(4, 20, False), (9, 45, False),
                                            (4, 20, True)])
def test_swept_size_roots_meet_oracle(N, K, baseline):
    config = ScenarioConfig(K=K, N=N, pt_db=2.0)
    seen = {}
    for trial in range(12):
        problem = _swept_problem(config, trial, baseline)
        if baseline:
            assert problem.N == K
        try:
            _, diag = _solve_closed_form(problem)
        except NumericDomainError:
            continue  # SQP territory
        start_hover = diag.method == "closed-form-start-hover"
        seen[diag.method] = seen.get(diag.method, 0) + 1
        assert abs(_oracle_residual(problem, diag.mu_N, start_hover)) <= 1e-10
    assert sum(seen.values()) >= 6
    if baseline:
        assert seen.get("closed-form-start-hover", 0) >= 3


@pytest.mark.parametrize("trial", [9, 43])
def test_root_below_domain_edge_falls_back(trial):
    # the chain is undefined at mu_N = 0 and g < 0 at its domain edge
    problem = _swept_problem(ScenarioConfig(K=45, N=9, pt_db=2.0), trial)
    with pytest.raises(BracketingError):
        _solve_closed_form(problem)
    _, diag = solve_stm(problem)
    assert diag.method == "numeric"


@pytest.mark.parametrize("N, K, baseline", [(4, 20, False), (9, 45, False),
                                            (4, 20, True)])
def test_chain_slope_matches_central_difference(N, K, baseline):
    config = ScenarioConfig(K=K, N=N, pt_db=2.0)
    checked = 0
    for trial in range(12):
        problem = _swept_problem(config, trial, baseline)
        c = problem.coeffs
        try:
            root = _closed_form_mu_n(problem)
        except NumericDomainError:
            continue  # SQP territory
        for mu in (root, root + 0.3, root + 2.0):
            h = 1e-6 * (1.0 + abs(mu))
            _, dq = _chain_q(c.gamma, c.a, c.b, mu)
            q_hi, _ = _chain_q(c.gamma, c.a, c.b, mu + h)
            q_lo, _ = _chain_q(c.gamma, c.a, c.b, mu - h)
            for n in range(problem.N):
                fd = (q_hi[n] - q_lo[n]) / (2.0 * h)
                assert dq[n] == pytest.approx(fd, rel=1e-6)
        checked += 1
    assert checked >= 6


def test_closed_form_chain_evaluations(monkeypatch):
    # the 40 default-config solves of test_sweep_rows_pinned's STM sweep
    counts = {"chain": 0, "solves": 0}

    def counted_chain(*args):
        counts["chain"] += 1
        return _chain_q(*args)

    def counted_solve(problem):
        counts["solves"] += 1
        return _solve_closed_form(problem)

    monkeypatch.setattr(stm, "_chain_q", counted_chain)
    monkeypatch.setattr(stm, "_solve_closed_form", counted_solve)
    sweep = SweepSpec(param="pt_db", values=(0.0, 8.0), trials=10,
                      objective="stm")
    run_sweep(ScenarioConfig(), sweep)
    assert counts["solves"] == 40
    assert counts["chain"] / counts["solves"] <= 16.0


def test_single_group_root_is_zero():
    problem = stm_instance(3, N=1)
    assert _closed_form_mu_n(problem) == 0.0


def test_low_snr_guard_names_group():
    coeffs = GroupCoefficients(
        a=(0.002,), b=(0.003,), gamma=(100.0,))
    problem = StmProblem(coeffs=coeffs, D=(25.0,), T=500.0, v_max=10.0)
    with pytest.raises(NumericDomainError) as exc:
        _solve_closed_form(problem)
    assert "group 1" in str(exc.value)


# -------------------------------------------------- coupling ratios

def test_coupling_identity_against_oracle_chain():
    for seed in (1, 5, 9):
        problem = stm_instance(seed, N=3)
        try:
            mu_n = _closed_form_mu_n(problem)
        except NumericDomainError:
            continue
        f = compute_f(problem, mu_n)
        q = _oracle_chain_q(problem.coeffs.gamma, problem.coeffs.a,
                            problem.coeffs.b, mu_n)
        for j in range(3):
            Y = 1.0 + problem.coeffs.gamma[j] * f[j]
            assert Y == pytest.approx(1.0 / q[j], rel=1e-9)


def test_last_coupling_ratio_rises_with_dual():
    # finite-difference sign probe on the last group's ratio
    problem = stm_instance(7, N=2)
    f0 = compute_f(problem, 0.8)
    f1 = compute_f(problem, 0.8 + 1e-5)
    assert f1[-1] > f0[-1]


# -------------------------------------------------- budget closure

def test_first_leg_time_affine_in_budget():
    base = stm_instance(9, N=2)
    f = compute_f(base, _closed_form_mu_n(base))
    zs = []
    for T in (600.0, 800.0, 1000.0):
        p = StmProblem(coeffs=base.coeffs, D=base.D, T=T, v_max=base.v_max)
        F1, F2 = _budget_closure(p, f, free_first_hover=False)
        zs.append(F1 / F2)
    assert zs[2] - zs[1] == pytest.approx(zs[1] - zs[0], rel=1e-9)


def test_budget_closes_exactly():
    for seed in range(25):
        problem = stm_instance(seed, N=2)
        alloc, diag = solve_stm(problem)
        assert abs(alloc.total - problem.T) <= 1e-8


def test_later_legs_pinned_at_speed_cap():
    problem = stm_instance(13, N=4)
    alloc, _ = solve_stm(problem)
    for n in range(2, 5):
        assert alloc.zeta[n - 1] == problem.D[n - 1] / problem.v_max


def test_first_leg_matches_grid_oracle():
    checked = 0
    for seed in (2, 6, 15):
        problem = stm_instance(seed, N=2)
        alloc, diag = solve_stm(problem)
        oracle_alloc, _ = stm_grid_oracle(problem, refinements=4)
        if oracle_alloc.zeta[0] <= problem.D[0] / problem.v_max * 1.01:
            continue  # clamped first leg has no 1% comparison to make
        checked += 1
        assert alloc.zeta[0] == pytest.approx(oracle_alloc.zeta[0], rel=0.01)
    assert checked >= 2


# -------------------------------------------------- full solve vs oracle

def test_objective_meets_grid_oracle():
    for seed in range(10):
        problem = stm_instance(seed, N=2)
        _, diag = solve_stm(problem)
        _, oracle_val = stm_grid_oracle(problem, refinements=3)
        assert diag.objective >= oracle_val * (1.0 - 1e-3)


def test_dual_price_matches_oracle_kkt():
    problem = stm_instance(21, N=2)
    _, diag = solve_stm(problem)
    oracle_alloc, _ = stm_grid_oracle(problem, refinements=5)
    assert diag.mu == pytest.approx(_mu_from_point(problem, oracle_alloc),
                                    abs=1e-3)


def test_closed_form_agrees_with_sqp():
    methods = set()
    for seed in range(30):
        problem = stm_instance(seed, N=int(2 + seed % 3))
        alloc_a, diag_a = solve_stm(problem)
        methods.add(diag_a.method)
        if diag_a.method.startswith("closed-form"):
            alloc_b, diag_b = solve_stm_numeric(problem)
            assert diag_a.objective == pytest.approx(diag_b.objective,
                                                     rel=1e-6)
    assert "closed-form" in methods


def test_start_hover_structure_on_hover_dominant_instances():
    seen = 0
    for seed in range(20):
        problem = stm_instance(seed, N=2, flight_dominant=False)
        alloc, diag = solve_stm(problem)
        if diag.method != "closed-form-start-hover":
            continue
        seen += 1
        assert alloc.tau[0] > 0.0
        for n in range(1, 3):
            assert alloc.zeta[n - 1] == pytest.approx(
                problem.D[n - 1] / problem.v_max)
        alloc_b, diag_b = solve_stm_numeric(problem)
        assert diag.objective == pytest.approx(diag_b.objective, rel=1e-6)
    assert seen >= 10


def test_more_budget_never_hurts():
    problem = stm_instance(17, N=3)
    _, diag_small = solve_stm(problem)
    bigger = StmProblem(coeffs=problem.coeffs, D=problem.D,
                        T=problem.T + 150.0, v_max=problem.v_max)
    _, diag_big = solve_stm(bigger)
    assert diag_big.objective >= diag_small.objective


def test_power_scaling_raises_optimum():
    problem = stm_instance(19, N=2)
    _, diag = solve_stm(problem)
    c = problem.coeffs
    louder = GroupCoefficients(
        a=c.a, b=c.b, gamma=tuple(2.0 * g for g in c.gamma))
    _, diag2 = solve_stm(StmProblem(coeffs=louder, D=problem.D,
                                    T=problem.T, v_max=problem.v_max))
    assert diag2.objective > diag.objective


# -------------------------------------------------- stationarity checks

def test_kkt_small_at_solution_large_when_perturbed():
    problem = stm_instance(23, N=2)
    alloc, diag = solve_stm(problem)
    assert diag.kkt_residual <= 1e-6

    tau = list(alloc.tau)
    tau[1] += 5.0
    tau[2] -= 5.0
    worse = kkt_residuals(problem,
                          TimeAllocation(tau=tuple(tau), zeta=alloc.zeta),
                          diag.mu)
    assert worse > 10.0 * diag.kkt_residual


def test_kkt_small_at_grid_optimum():
    problem = stm_instance(23, N=2)
    _, diag = solve_stm(problem)
    oracle_alloc, _ = stm_grid_oracle(problem, refinements=5)
    assert kkt_residuals(problem, oracle_alloc, diag.mu) <= 1e-3


@pytest.mark.parametrize("N", [1, 3, 9])
def test_gradient_matches_central_difference(N):
    rng = np.random.default_rng(50 + N)
    for _ in range(5):
        coeffs = synthetic_coeffs(rng, N)
        x = list(rng.uniform(2.0, 60.0, 2 * N + 1))

        def H(point):
            alloc = TimeAllocation(tau=tuple(point[:N + 1]),
                                   zeta=tuple(point[N + 1:]))
            return sum_throughput(coeffs, alloc)

        d = throughput_gradient(coeffs, x[:N + 1], x[N + 1:])
        assert len(d) == N + 2
        for idx in range(N + 2):  # tau_0..tau_N, then zeta_1
            h = 1e-5 * x[idx]
            hi = x.copy()
            lo = x.copy()
            hi[idx] += h
            lo[idx] -= h
            fd = (H(hi) - H(lo)) / (2.0 * h)
            assert d[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)


# -------------------------------------------------- throughput function

def test_zero_hover_zero_throughput():
    problem = stm_instance(2, N=2)
    alloc = TimeAllocation(tau=(0.0, 0.0, 0.0), zeta=(10.0, 10.0))
    assert sum_throughput(problem.coeffs, alloc) == 0.0


def test_single_group_concave_in_hover():
    rng = np.random.default_rng(31)
    coeffs = synthetic_coeffs(rng, 1)

    def H(tau):
        alloc = TimeAllocation(tau=(4.0, tau), zeta=(6.0,))
        return sum_throughput(coeffs, alloc)

    grid = np.linspace(0.2, 120.0, 80)
    for x, y in zip(grid[:-1:2], grid[2::2]):
        mid = 0.5 * (x + y)
        assert H(mid) >= 0.5 * (H(x) + H(y)) - 1e-9


# -------------------------------------------------- guards and edges

def test_low_snr_fallback_modes():
    coeffs = GroupCoefficients(
        a=(0.004, 0.0005), b=(0.006, 0.0008), gamma=(200.0, 40.0))
    problem = StmProblem(coeffs=coeffs, D=(25.0, 25.0), T=500.0, v_max=10.0)
    assert coeffs.gamma[-1] * coeffs.b[-1] <= 1.0
    alloc, diag = solve_stm(problem)
    assert diag.method == "numeric"
    assert diag.objective > 0.0
    assert abs(alloc.total - problem.T) <= 1e-8


def test_zero_slack_degenerates_to_flying():
    problem = stm_instance(4, N=2)
    tight = StmProblem(coeffs=problem.coeffs, D=problem.D,
                       T=problem.travel_time, v_max=problem.v_max)
    alloc, diag = solve_stm(tight)
    assert diag.method == "degenerate"
    assert diag.objective == 0.0
    assert all(t == 0.0 for t in alloc.tau)


def test_travel_beyond_budget_is_infeasible():
    rng = np.random.default_rng(41)
    coeffs = synthetic_coeffs(rng, 2)
    with pytest.raises(InfeasiblePlanError):
        StmProblem(coeffs=coeffs, D=(300.0, 300.0), T=50.0, v_max=10.0)


def test_allocation_validation():
    with pytest.raises(NumericDomainError):
        TimeAllocation(tau=(1.0, -2.0), zeta=(3.0,))
    with pytest.raises(NumericDomainError):
        TimeAllocation(tau=(1.0, 2.0), zeta=(math.nan,))
    with pytest.raises(NumericDomainError):
        TimeAllocation(tau=(1.0,), zeta=(1.0,))


def test_diag_row_matches_header():
    problem = stm_instance(1, N=2)
    _, diag = solve_stm(problem)
    row = stm_diag_row(problem, diag)
    assert len(row.split(",")) == len(STM_DIAG_HEADER.split(","))
    assert row.split(",")[0] == "2"


@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=1, max_value=4))
def test_solver_invariants_hold(seed, N):
    problem = stm_instance(seed, N=N)
    alloc, diag = solve_stm(problem)
    assert abs(alloc.total - problem.T) <= 1e-8 * max(problem.T, 1.0)
    assert all(t >= 0.0 for t in alloc.tau)
    assert all(z >= problem.D[j] / problem.v_max * (1.0 - 1e-12)
               for j, z in enumerate(alloc.zeta))
    assert diag.objective >= 0.0
    assert diag.mu_N >= 0.0
