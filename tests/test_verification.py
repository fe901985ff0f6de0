import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from instance_tools import (coeff_b, group_coefficients,
                            hover_moved_to_start, stm_grid_oracle,
                            stm_instance, synthetic_coeffs, ttm_instance)
from uavwpt.config import ScenarioConfig
from uavwpt.errors import UnsupportedScaleError
from uavwpt.experiments import (apply_sweep_value, build_problem,
                                generate_trial, trial_rng)
from uavwpt import verification
from uavwpt.stm import (TimeAllocation, delivered_information,
                        optimality_gap, solve_stm, sum_throughput)
from uavwpt.ttm import solve_ttm
from uavwpt.verification import (ORACLE_CSV_HEADER, OracleReport,
                                 concavity_suite, flight_energy_numeric,
                                 run_verification, ttm_grid_oracle,
                                 write_verification_csv)

CFG = ScenarioConfig(K=20, N=4, pt_db=4.0, seed=1)


# -------------------------------------------------- flight-energy oracle

def _one_trial(seed=11):
    geo = generate_trial(CFG, trial_rng(seed, 0))
    return geo, CFG.radio


def test_flight_energy_zero_time():
    geo, params = _one_trial()
    assert flight_energy_numeric(geo.plan, params, 1, 0.0) == 0.0
    with pytest.raises(ValueError):
        flight_energy_numeric(geo.plan, params, 1, -1.0)


def test_flight_energy_matches_closed_form():
    # a group's flight energy is energy_scale * b_n * zeta, for the b_n
    # the drawn trial's sums hold and for the members' reference b_i,
    # on the grouped plan and on the baseline
    geo, params = _one_trial()
    for plan, b, cases in ((geo.plan, geo.sums[1], ((1, 3.0), (4, 7.5))),
                           (geo.baseline_plan, geo.baseline[2][1],
                            ((1, 3.0), (20, 7.5)))):
        for n, zeta in cases:
            numeric = flight_energy_numeric(plan, params, n, zeta)
            for b_n in (b[n - 1], math.fsum(coeff_b(plan, params, n, i)
                                            for i in plan.members(n))):
                closed = params.energy_scale * b_n * zeta
                assert closed == pytest.approx(numeric, rel=1e-6)


# -------------------------------------------------- grid oracles

def test_stm_oracle_matches_simplex_search():
    problem = stm_instance(8, N=1)
    _, oracle_val = stm_grid_oracle(problem, refinements=3)
    B = problem.slack
    floor = problem.D[0] / problem.v_max

    def neg(x):
        tau1, e1 = x
        tau0 = B - tau1 - e1
        if tau1 <= 0.0 or e1 < 0.0 or tau0 < 0.0:
            return 0.0
        alloc = TimeAllocation(tau=(tau0, tau1), zeta=(floor + e1,))
        return -sum_throughput(problem.coeffs, alloc)

    best = math.inf
    for x0 in ((B / 3.0, B / 3.0), (B / 2.0, B / 4.0), (B / 4.0, B / 2.0)):
        res = minimize(neg, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 4000})
        best = min(best, float(res.fun))
    assert oracle_val == pytest.approx(-best, rel=1e-5)


def test_stm_oracle_refinement_never_regresses():
    problem = stm_instance(12, N=2)
    vals = [stm_grid_oracle(problem, refinements=r)[1] for r in range(4)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo
    _, diag = solve_stm(problem)
    # the grid value is a certified lower bound on the attainable optimum
    assert vals[-1] <= diag.objective * (1.0 + 1e-9) + 1e-12


def test_grid_value_within_certified_bound():
    # criterion 2's fifty desk instances: no grid point beats the
    # solver's objective plus its optimality gap
    desk = apply_sweep_value(ScenarioConfig(), "N", 2)
    for j in range(50):
        geo = generate_trial(desk, trial_rng(3000 + j, 0))
        problem = build_problem(desk, geo, "stm")
        _, diag = solve_stm(problem)
        _, oracle_val = stm_grid_oracle(problem)
        assert oracle_val <= (diag.objective + diag.optimality_gap) * (
            1.0 + 1e-12)


def test_stm_oracle_scale_guard():
    with pytest.raises(UnsupportedScaleError):
        stm_grid_oracle(stm_instance(1, N=4))


def test_stm_oracle_zero_slack():
    problem = stm_instance(4, N=2)
    from uavwpt.stm import StmProblem
    tight = StmProblem(coeffs=problem.coeffs, D=problem.D,
                       T=problem.travel_time, v_max=problem.v_max)
    alloc, val = stm_grid_oracle(tight)
    assert val == 0.0
    assert all(t == 0.0 for t in alloc.tau)


def test_ttm_oracle_meets_demands():
    problem = ttm_instance(5, N=2)
    alloc, total = ttm_grid_oracle(problem)
    info = delivered_information(problem.coeffs, alloc)
    for got, want in zip(info, problem.I):
        assert got >= want - 1e-8
    assert total == pytest.approx(alloc.total, rel=1e-12)
    # the solver's greedy clamp repair may trail the oracle, but only
    # within the documented factor
    _, solver_total = solve_ttm(problem)
    assert total * (1.0 - 1e-3) <= solver_total <= 1.05 * total


def test_ttm_oracle_scale_guard():
    with pytest.raises(UnsupportedScaleError):
        ttm_grid_oracle(ttm_instance(1, N=3))


# -------------------------------------------------- concavity suite

def test_concavity_clean_on_random_coeffs():
    coeffs = synthetic_coeffs(np.random.default_rng(2), 3)
    report = concavity_suite(coeffs, trials=20_000, seed=5)
    assert report.passed
    assert report.violations == 0
    assert report.min_slack >= -1e-9
    assert report.trials == 20_000


def test_concavity_rejects_empty_run():
    coeffs = synthetic_coeffs(np.random.default_rng(2), 2)
    with pytest.raises(ValueError):
        concavity_suite(coeffs, trials=0, seed=1)


# -------------------------------------------------- full suite

def test_full_suite_passes_and_is_deterministic():
    reports, ok = run_verification(CFG)
    assert ok
    assert len(reports) == 236
    by_name = {}
    for r in reports:
        by_name.setdefault(r.oracle, []).append(r)
    assert len(by_name["flight_energy"]) == 200
    assert len(by_name["stm_gap"]) == 30
    assert len(by_name["ttm_grid"]) == 5
    assert len(by_name["concavity"]) == 1
    assert all(r.passed for r in reports)

    again, ok2 = run_verification(CFG)
    assert ok2
    assert again == reports


def test_fault_injection_is_caught(monkeypatch):
    # flight coefficients 0.9 times too small, from both formulas the
    # draw calls (a grouped member's leg average and a baseline stop's
    # closed form), reach the sums the solvers read.  The certificate
    # and the TTM grid oracle read those same sums, so only the
    # flight-energy oracle, which checks them against quadrature, can
    # see the fault
    import uavwpt.experiments as experiments
    geo, params = _one_trial()
    clean = group_coefficients(geo.plan, params)
    assert geo.sums[1] == clean.b
    clean_baseline = geo.baseline[2][1]
    with monkeypatch.context() as m:
        for name in ("leg_average_inverse_sq", "overhead_leg_average"):
            real = getattr(experiments, name)
            m.setattr(experiments, name,
                      lambda *a, real=real: 0.9 * real(*a))
        faulty = _one_trial()[0]
        reports, ok = run_verification(CFG)
        faulty_baseline = faulty.baseline[2][1]
    assert faulty.sums[1] == pytest.approx(
        tuple(0.9 * b for b in clean.b), rel=1e-12)
    assert faulty_baseline == pytest.approx(
        tuple(0.9 * b for b in clean_baseline), rel=1e-15)
    assert not ok
    bad = [r for r in reports if not r.passed]
    # every flight-energy row fails: grouped groups and baseline stops
    assert len(bad) == 200
    assert all(r.oracle == "flight_energy" for r in bad)


def test_off_optimum_stm_solve_is_caught(monkeypatch):
    # a solver that returns a feasible but poor allocation: half of its
    # largest hover moved to tau_0, the budget still closed
    def faulty(problem):
        alloc, diag = solve_stm(problem)
        bad = hover_moved_to_start(alloc, 0.5 * max(alloc.tau[1:]))
        return bad, dataclasses.replace(
            diag, objective=sum_throughput(problem.coeffs, bad),
            budget_residual=abs(bad.total - problem.T),
            optimality_gap=optimality_gap(problem, bad))

    monkeypatch.setattr(verification, "solve_stm", faulty)
    reports, ok = run_verification(CFG)
    assert not ok
    failed = {r.oracle for r in reports if not r.passed}
    assert failed == {"stm_gap"}
    assert not any(r.passed for r in reports if r.oracle == "stm_gap")


# -------------------------------------------------- report plumbing

def test_report_gap_and_csv(tmp_path):
    r = OracleReport(oracle="stm_gap", instance_seed=3,
                     oracle_value=2.0, solver_value=2.002, passed=True)
    assert r.rel_gap == pytest.approx(0.001)
    path = tmp_path / "oracles.csv"
    write_verification_csv(path, [r])
    lines = path.read_text().splitlines()
    assert lines[0] == ORACLE_CSV_HEADER
    assert lines[1].endswith(",1")
    assert lines[1].startswith("stm_gap,3,")
