import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import lambertw

from instance_tools import (flight_need, group_information, synthetic_coeffs,
                            tau_closed_form, ttm_allocation_reference,
                            ttm_instance, ttm_sqp_reference)
from uavwpt import ttm
from uavwpt.channel import GroupCoefficients
from uavwpt.config import ScenarioConfig
from uavwpt.errors import ConfigError, NumericDomainError
from uavwpt.experiments import build_problem, generate_trial, trial_rng
from uavwpt.geometry import leg_floors
from uavwpt.stm import delivered_information
from uavwpt.ttm import (TtmProblem, _hover_denom, solve_ttm, ttm_diag_row,
                        TTM_DIAG_HEADER)
from uavwpt.verification import ttm_grid_oracle


def _single_group(gamma, a, b, D=25.0, v_max=10.0, I=10.0):
    coeffs = GroupCoefficients(
        a=(a,), b=(b,), gamma=(gamma,))
    return TtmProblem(coeffs=coeffs, D=(D,), v_max=v_max, I=(I,))


def _single_group_oracle(problem):
    """Brute-force N=1 total time: scan hover, refine around the kink."""
    g_ = problem.coeffs.gamma[0]
    b_ = problem.coeffs.b[0]
    I_ = problem.I[0]
    floor = problem.D[0] / problem.v_max

    def total(t):
        u = 2.0 * I_ / t
        if u > 700.0:
            return math.inf
        return t + max(t / g_ * math.expm1(u) / b_, floor)

    grid = np.geomspace(1e-4 * I_, 5e3 * I_, 4000)
    k = int(np.argmin([total(t) for t in grid]))
    res = minimize_scalar(total, bounds=(grid[max(k - 1, 0)],
                                         grid[min(k + 1, len(grid) - 1)]),
                          method="bounded",
                          options={"xatol": 1e-12})
    return min(float(res.fun), total(float(res.x)))


def _clamped_legs(problem, alloc):
    """Legs the solve flew at the speed cap, as the diag row counts them."""
    return int(ttm_diag_row(problem, 0.0, alloc).rsplit(",", 1)[1])


# -------------------------------------------------- hover closed form

def test_hover_linear_in_demand():
    base = ttm_instance(1, N=2, I_each=10.0)
    double = TtmProblem(coeffs=base.coeffs, D=base.D, v_max=base.v_max,
                        I=tuple(2.0 * i for i in base.I))
    for n in (1, 2):
        assert tau_closed_form(double, n) == pytest.approx(
            2.0 * tau_closed_form(base, n), rel=1e-12)


def test_hover_at_unit_snr_flight_product():
    # gamma * b == 1 puts the Lambert argument at zero: tau = 2 I exactly
    problem = _single_group(gamma=200.0, a=0.004, b=0.005, I=7.5)
    assert problem.coeffs.gamma[0] * problem.coeffs.b[0] == 1.0
    assert tau_closed_form(problem, 1) == pytest.approx(15.0, rel=1e-12)


def test_hover_shrinks_with_stronger_channel():
    weak = _single_group(gamma=150.0, a=0.004, b=0.006, I=10.0)
    strong = _single_group(gamma=600.0, a=0.004, b=0.006, I=10.0)
    assert tau_closed_form(strong, 1) < tau_closed_form(weak, 1)


def test_credit_factor_shortens_early_hover():
    problem = ttm_instance(5, N=2)
    plain = _single_group(problem.coeffs.gamma[0], problem.coeffs.a[0],
                          problem.coeffs.b[0], I=problem.I[0])
    assert tau_closed_form(problem, 1) > tau_closed_form(plain, 1)


def test_credit_out_of_domain_raises():
    # second group hovers better than it flies: a_2 > b_2
    coeffs = GroupCoefficients(
        a=(0.004, 0.006), b=(0.006, 0.003), gamma=(300.0, 400.0))
    problem = TtmProblem(coeffs=coeffs, D=(25.0, 25.0), v_max=10.0,
                         I=(10.0, 10.0))
    with pytest.raises(NumericDomainError):
        tau_closed_form(problem, 1)
    # the solver sees a_2 >= b_2 and prices group 1's hover at full cost
    alloc, total = solve_ttm(problem)
    assert total > 0.0
    for got, want in zip(delivered_information(coeffs, alloc), problem.I):
        assert got >= want * (1.0 - 1e-9)
    gb = 300.0 * 0.006
    full_cost = 2.0 * 10.0 / (lambertw((gb - 1.0) / math.e).real + 1.0)
    assert alloc.tau[1] == pytest.approx(full_cost, rel=1e-12)


# -------------------------------------------------- flight inversion

def _need(problem, n, tau_prev, tau_n):
    """`flight_need` of leg n of `problem`."""
    c = problem.coeffs
    return flight_need(problem.I[n - 1], c.gamma[n - 1], c.a[n - 1],
                       c.b[n - 1], tau_prev, tau_n)


def test_flight_inverts_rate_exactly():
    problem = ttm_instance(3, N=2)
    taus = [tau_closed_form(problem, n) for n in (1, 2)]
    for n in (1, 2):
        prev = 0.0 if n == 1 else taus[n - 2]
        z = _need(problem, n, prev, taus[n - 1])
        floor = problem.D[n - 1] / problem.v_max
        if z > floor:
            E = (problem.coeffs.a[n - 1] * prev
                 + problem.coeffs.b[n - 1] * z)
            got = 0.5 * taus[n - 1] * math.log1p(
                problem.coeffs.gamma[n - 1] * E / taus[n - 1])
            assert got == pytest.approx(problem.I[n - 1], rel=1e-10)


def test_flight_floored_at_speed_cap():
    # the need falls below the cap, so the solve flies the leg at it
    problem = _single_group(gamma=5e4, a=0.004, b=0.006, I=5.0)
    tau = tau_closed_form(problem, 1)
    assert _need(problem, 1, 0.0, tau) < 2.5
    alloc, _ = solve_ttm(problem)
    assert alloc.zeta == (2.5,)


def test_flight_guards():
    problem = ttm_instance(3, N=2)
    # past exp's range the demand cannot be met by any flight
    assert _need(problem, 1, 0.0, 1e-3 * problem.I[0]) == math.inf
    with pytest.raises(NumericDomainError):
        tau_closed_form(problem, 0)


def test_solve_takes_closed_form_hovers():
    # off the speed cap a hover is the closed form, to the bit: with the
    # downstream credit where the solver grants it, at full cost
    # otherwise; both kinds occur
    kinds = set()
    for seed in range(20):
        problem = ttm_instance(seed, N=3)
        alloc, _ = solve_ttm(problem)
        c = problem.coeffs
        for n in (1, 2, 3):
            floor = problem.D[n - 1] / problem.v_max
            if alloc.zeta[n - 1] <= floor * (1.0 + 1e-12):
                continue
            if n < 3 and alloc.tau[n] == tau_closed_form(problem, n):
                kinds.add("credit")
            else:
                assert alloc.tau[n] == 2.0 * problem.I[n - 1] / _hover_denom(
                    c.gamma[n - 1] * c.b[n - 1], n)
                kinds.add("full")
    assert kinds == {"credit", "full"}


def test_failed_hover_denominator_raises_again_and_is_not_kept():
    # gamma * b = 1e-18 puts the Lambert argument at -1/e to the float,
    # where W + 1 is 0: the error is raised before anything is stored,
    # so each later solve of the same coefficients raises it again
    coeffs = GroupCoefficients(a=(1e-3,), b=(1e-9,), gamma=(1e-9,))
    denoms = {}
    for I_ in (1.0, 1.0, 30.0):
        problem = TtmProblem(coeffs=coeffs, D=(20.0,), v_max=10.0, I=(I_,))
        with pytest.raises(NumericDomainError) as err:
            ttm._ttm_allocation(coeffs.gamma, coeffs.a, coeffs.b, problem.I,
                                problem.floors, denoms)
        assert str(err.value) == ("group 1: hover closed form "
                                  "denominator W+1 = 0")
        assert denoms == {}


# -------------------------------------------------- full solve

@pytest.mark.parametrize("K,N,baseline", [
    (20, 4, False), (45, 9, False), (20, 4, True), (45, 9, True)],
    ids=["N4", "N9", "20-singletons", "45-singletons"])
def test_swept_sizes_meet_ttm_sqp_reference(K, N, baseline):
    # the oracle frees every hover and leg; the package's mission may be
    # longer (its baselines by about 8-18%), never shorter than the
    # oracle's by more than rounding
    for I_nats in (1.0, 10.0, 30.0):
        config = ScenarioConfig(K=K, N=N, I_nats=I_nats)
        for t in range(2):
            geo = generate_trial(config, trial_rng(config.seed, t))
            problem = build_problem(config, geo, "ttm", baseline)
            assert problem.N == (K if baseline else N)
            alloc, total = solve_ttm(problem)
            ref, ref_total = ttm_sqp_reference(problem, alloc)
            tau, zeta = ref.tau, ref.zeta
            for n, want in enumerate(problem.I, start=1):
                got = group_information(problem.coeffs, n, tau[n - 1],
                                        zeta[n - 1], tau[n])
                assert got >= want - 1e-8
            assert all(z >= f for z, f in zip(zeta, problem.floors))
            assert ref_total <= total * (1.0 + 1e-9)


def test_delivery_meets_demand_exactly():
    for seed in range(20):
        problem = ttm_instance(seed, N=3)
        alloc, total = solve_ttm(problem)
        got = delivered_information(problem.coeffs, alloc)
        for g, want in zip(got, problem.I):
            assert g == pytest.approx(want, rel=1e-8)
        assert alloc.tau[0] == 0.0
        assert total == pytest.approx(alloc.total, rel=1e-12)


def test_total_matches_single_group_oracle():
    for gamma, I_ in ((250.0, 12.0), (900.0, 3.0), (4e4, 8.0)):
        problem = _single_group(gamma=gamma, a=0.004, b=0.006, I=I_)
        _, total = solve_ttm(problem)
        assert total == pytest.approx(_single_group_oracle(problem),
                                      rel=1e-6)


def test_total_within_grid_oracle_factor():
    for seed in range(12):
        problem = ttm_instance(seed, N=2)
        _, total = solve_ttm(problem)
        _, oracle = ttm_grid_oracle(problem)
        assert total <= 1.05 * oracle
        assert total >= oracle * (1.0 - 1e-6)


def test_total_monotone_in_power():
    base = ttm_instance(7, N=2)
    _, t1 = solve_ttm(base)
    louder = TtmProblem(
        coeffs=GroupCoefficients(
            a=base.coeffs.a, b=base.coeffs.b,
            gamma=tuple(2.0 * g for g in base.coeffs.gamma)),
        D=base.D, v_max=base.v_max, I=base.I)
    _, t2 = solve_ttm(louder)
    assert t2 <= t1


def test_total_monotone_in_speed():
    base = ttm_instance(7, N=2)
    faster = TtmProblem(coeffs=base.coeffs, D=base.D,
                        v_max=base.v_max * 2.0, I=base.I)
    _, t1 = solve_ttm(base)
    _, t2 = solve_ttm(faster)
    assert t2 <= t1


def test_total_monotone_in_demand():
    base = ttm_instance(9, N=2)
    bigger = TtmProblem(coeffs=base.coeffs, D=base.D, v_max=base.v_max,
                        I=tuple(2.0 * i for i in base.I))
    _, t1 = solve_ttm(base)
    _, t2 = solve_ttm(bigger)
    assert t2 >= t1


def test_tiny_demand_approaches_travel_floor():
    problem = ttm_instance(2, N=3, I_each=1e-8)
    alloc, total = solve_ttm(problem)
    travel = sum(d / problem.v_max for d in problem.D)
    assert _clamped_legs(problem, alloc) == 3
    assert total == pytest.approx(travel, rel=1e-4)


def test_high_power_all_clamped_still_exact():
    coeffs = GroupCoefficients(
        a=(0.004, 0.003), b=(0.006, 0.005), gamma=(8e4, 9e4))
    problem = TtmProblem(coeffs=coeffs, D=(25.0, 30.0), v_max=10.0,
                         I=(6.0, 6.0))
    alloc, _ = solve_ttm(problem)
    assert _clamped_legs(problem, alloc) == 2
    assert alloc.zeta == (2.5, 3.0)
    for got, want in zip(delivered_information(coeffs, alloc), problem.I):
        assert got == pytest.approx(want, rel=1e-9)


def test_clamped_leg_count_low_power():
    problem = ttm_instance(6, N=2, I_each=25.0)
    scaled = TtmProblem(
        coeffs=GroupCoefficients(
            a=problem.coeffs.a, b=problem.coeffs.b,
            gamma=tuple(0.2 * g for g in problem.coeffs.gamma)),
        D=problem.D, v_max=problem.v_max, I=problem.I)
    alloc, _ = solve_ttm(scaled)
    assert _clamped_legs(scaled, alloc) == 0


# Every hover and flight time of 50 trials, grouped and baseline, at the
# ttm-demand points (2 dB; I_nats 1, 10, 30) and at criterion 8's light
# config (30 dB, I_nats 0.02), where every leg of trial 0 is clamped.
# The solves drop a downstream credit 210 times and re-tighten a hover
# 1242 times.  Pinned with glibc's libm on x86-64 Linux under
# CPython 3.11.
PINNED_ALLOCATION_DIGEST = (
    "f6643d7875a1b09869922c49cf3e15d139a0321e919e28012d5128bd2f844299")


def test_solve_allocations_pinned_bitwise():
    digest = hashlib.sha256()
    for config in (ScenarioConfig(pt_db=2.0, I_nats=1.0),
                   ScenarioConfig(pt_db=2.0, I_nats=10.0),
                   ScenarioConfig(pt_db=2.0, I_nats=30.0),
                   ScenarioConfig(pt_db=30.0, I_nats=0.02)):
        for t in range(50):
            geo = generate_trial(config, trial_rng(config.seed, t))
            for baseline in (False, True):
                alloc, _ = solve_ttm(
                    build_problem(config, geo, "ttm", baseline))
                times = (*alloc.tau, *alloc.zeta)
                digest.update(
                    (" ".join(v.hex() for v in times) + "\n").encode())
    assert digest.hexdigest() == PINNED_ALLOCATION_DIGEST


def test_kernel_matches_reference_bitwise(monkeypatch):
    # the kernel computes each leg's flight need inline; a copy calling
    # `flight_need` per group gives every tau and zeta to the last bit,
    # with each plan's denominators kept across its demand points.  At
    # 4 m/s some legs are clamped, so the credit probe drops a credit
    # and hovers are re-tightened
    retightened = []
    tau_for_demand = ttm._tau_for_demand
    monkeypatch.setattr(ttm, "_tau_for_demand",
                        lambda *args: retightened.append(args)
                        or tau_for_demand(*args))
    credits = dropped = 0
    for seed in (1, 9):
        for N in (4, 9):
            config = ScenarioConfig(seed=seed, N=N, K=5 * N, pt_db=2.0)
            for t in range(10):
                geo = generate_trial(config, trial_rng(seed, t))
                for D, counts, sums, radio in (
                        (geo.D, geo.sizes, geo.sums, config.radio),
                        (*geo.baseline, config.baseline_radio)):
                    c = GroupCoefficients.scaled(sums, radio)
                    for v_max in (10.0, 4.0):
                        floors = leg_floors(D, v_max, c.N)
                        kept, ref_kept = {}, {}
                        for I_nats in (1.0, 10.0, 30.0):
                            I = [I_nats * n for n in counts]
                            got = ttm._ttm_allocation(c.gamma, c.a, c.b, I,
                                                      floors, kept)
                            want = ttm_allocation_reference(
                                c.gamma, c.a, c.b, I, floors, ref_kept)
                            assert ([[v.hex() for v in part] for part in got]
                                    == [[v.hex() for v in part]
                                        for part in want])
                        # a group with a credit prices its hover at
                        # full cost only where the probe dropped it
                        credit = [n for n in range(1, c.N) if -n in kept]
                        credits += len(credit)
                        dropped += sum(n in kept for n in credit)
                        assert kept == ref_kept
    assert credits > 0 and dropped > 0 and retightened


# -------------------------------------------------- validation and output

def test_problem_validation():
    coeffs = synthetic_coeffs(np.random.default_rng(0), 2)
    with pytest.raises(ConfigError):
        TtmProblem(coeffs=coeffs, D=(25.0, 25.0), v_max=0.0, I=(1.0, 1.0))
    with pytest.raises(ConfigError):
        TtmProblem(coeffs=coeffs, D=(25.0,), v_max=10.0, I=(1.0, 1.0))
    with pytest.raises(ConfigError):
        TtmProblem(coeffs=coeffs, D=(25.0, -1.0), v_max=10.0, I=(1.0, 1.0))
    with pytest.raises(ConfigError):
        TtmProblem(coeffs=coeffs, D=(25.0, 25.0), v_max=10.0, I=(1.0, 0.0))


def test_retightened_hover_stays_at_hi_when_it_meets_the_demand():
    # a demand equal to what the hover hi delivers on the clamped leg's
    # energy needs no search; a smaller one is met below hi
    gamma, energy, hi = 3.0, 2.0, 5.0
    exact = 0.5 * hi * math.log1p(gamma * energy / hi)
    assert ttm._tau_for_demand(exact, gamma, energy, hi) == hi
    assert ttm._tau_for_demand(0.9 * exact, gamma, energy, hi) < hi


@pytest.mark.parametrize("I, message", [
    ((1.0,), "need one demand per group"),
    ((1.0, 1.0, 1.0), "need one demand per group"),
    ((1.0, 0.0), "group 2 demand must be positive"),
    ((math.nan, 1.0), "group 1 demand must be positive"),
])
def test_problem_demand_guards(I, message):
    coeffs = synthetic_coeffs(np.random.default_rng(0), 2)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        TtmProblem(coeffs=coeffs, D=(25.0, 25.0), v_max=10.0, I=I)


def test_diag_row_matches_header():
    for problem in (ttm_instance(3, N=2),
                    ttm_instance(2, N=3, I_each=1e-8)):
        alloc, total = solve_ttm(problem)
        row = ttm_diag_row(problem, 2.0, alloc).split(",")
        assert len(row) == len(TTM_DIAG_HEADER.split(","))
        demand = 0.0
        for i_n in problem.I:
            demand += i_n
        assert row[:5] == [str(problem.N), "2", f"{problem.v_max:.12g}",
                           f"{demand:.12g}", f"{total:.12g}"]
        # a clamped leg is flown at its floor exactly
        assert row[5] == str(sum(z == fl for z, fl in
                                 zip(alloc.zeta, problem.floors)))


@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.5, max_value=40.0))
def test_solver_invariants_hold(seed, N, I_each):
    problem = ttm_instance(seed, N=N, I_each=I_each)
    alloc, total = solve_ttm(problem)
    floors = [d / problem.v_max for d in problem.D]
    for z, fl in zip(alloc.zeta, floors):
        assert z >= fl * (1.0 - 1e-12)
    got = delivered_information(problem.coeffs, alloc)
    for g, want in zip(got, problem.I):
        assert g >= want * (1.0 - 1e-8)
    assert total >= sum(floors) * (1.0 - 1e-12)
