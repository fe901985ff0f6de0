import dataclasses
import math

import numpy as np
import pytest

import uavwpt.channel as channel
import uavwpt.experiments as experiments
from instance_tools import (coeff_a, coeff_b, group_coefficients,
                            harvested_energy, plan_sums)
from uavwpt.channel import (ChannelParams, GroupCoefficients,
                            leg_average_inverse_sq, overhead_leg_average,
                            point_inverse_sq)
from uavwpt.config import ScenarioConfig
from uavwpt.errors import ConfigError, NumericDomainError, PlanError
from uavwpt.experiments import generate_trial, run_trial, trial_rng
from uavwpt.geometry import GroupPlan
from uavwpt.numerics import integrate_adaptive
from uavwpt.stm import TimeAllocation, delivered_information

PARAMS = ChannelParams(k0=1e-3, sigma2=1e-10, eta=0.5, P_t=2.0, A=10.0,
                       M=3, delta=0.1)
PARAMS_M2 = dataclasses.replace(PARAMS, M=2)   # one receive antenna


def _one_group_plan(sensor, hover, start=(-20.0, 0.0)):
    D = math.hypot(hover[0] - start[0], hover[1] - start[1])
    return GroupPlan(sensors=(sensor,), groups=((1,),), hover_points=(hover,),
                     D=(D,), row_of_group=(1,),
                     start_point=start)


def _leg_average_oracle(p0, p1, w, A):
    """Brute-force arc-length average of the inverse-square gain."""
    D = math.hypot(p1[0] - p0[0], p1[1] - p0[1])

    def f(s):
        x = p0[0] + (p1[0] - p0[0]) * s / D
        y = p0[1] + (p1[1] - p0[1]) * s / D
        return point_inverse_sq((x, y), w, A)

    return integrate_adaptive(f, 0.0, D, rel_tol=1e-11) / D


def _leg_average(p0, p1, w, A):
    """`leg_average_inverse_sq` of the leg p0 -> p1 and sensor w, given
    as the draw gives it: the leg's vector and length, the sensor's
    offset from the leg's start and A^2."""
    lx, ly = p1[0] - p0[0], p1[1] - p0[1]
    return leg_average_inverse_sq(lx, ly, math.hypot(lx, ly),
                                  w[0] - p0[0], w[1] - p0[1], A * A)


SNR_SCALE = PARAMS.energy_scale / PARAMS.sigma2   # 1e7


def _uplink_sum(plan, n):
    """Summed uplink gain of group n: antenna k sits (k-1)*delta above
    the hover point, and each receive antenna k >= 2 contributes
    k0 / (L^2 + A^2) for every member."""
    hx, hy = plan.hover_points[n - 1]
    total = 0.0
    for i in plan.groups[n - 1]:
        x, y = plan.sensors[i - 1]
        for k in range(2, PARAMS.M + 1):
            L = math.hypot(x - hx, y - (hy + (k - 1) * PARAMS.delta))
            total += PARAMS.k0 / (L ** 2 + PARAMS.A ** 2)
    return total


def _gamma(plan, params):
    # one-sensor plans: plan_sums adds that sensor's a and b and its
    # uplink gains, the sum then scaled by the radio's SNR
    sums = plan_sums(plan, params, [coeff_a(plan, params, 1, 1)],
                     [coeff_b(plan, params, 1, 1)])
    return GroupCoefficients.scaled(sums, params).gamma[0]


# ---------------------------------------------------------------- gains

def test_uplink_on_axis_value():
    # sensor right under receive antenna 2, so h_2 = k0/A^2 = 1e-5;
    # antenna 3 is one spacing beyond it
    plan = _one_group_plan(sensor=(5.0, 0.1), hover=(5.0, 0.0))
    expect = SNR_SCALE * (1e-5 + 1e-3 / (0.1 ** 2 + 100.0))
    assert _gamma(plan, PARAMS) == pytest.approx(expect, rel=1e-12)


def test_uplink_inverse_square_law():
    near = _one_group_plan(sensor=(5.0, 0.1), hover=(5.0, 0.0))
    # L = 10 doubles the squared 3D distance (100 + 100 vs 100)
    far = _one_group_plan(sensor=(15.0, 0.1), hover=(5.0, 0.0))
    g_near = _gamma(near, PARAMS_M2)
    g_far = _gamma(far, PARAMS_M2)
    assert g_near == pytest.approx(2.0 * g_far, rel=1e-12)


def test_uplink_matches_distance_module():
    plan = _one_group_plan(sensor=(7.3, 1.9), hover=(5.0, 0.0))
    assert _gamma(plan, PARAMS) == pytest.approx(
        SNR_SCALE * _uplink_sum(plan, 1), rel=1e-12)


# ---------------------------------------------------------------- coefficients

def test_hover_coefficient_overhead():
    plan = _one_group_plan(sensor=(5.0, 0.0), hover=(5.0, 0.0))
    assert coeff_a(plan, PARAMS, 1, 1) == pytest.approx(0.01)


def test_hover_coefficient_offset_ten():
    plan = _one_group_plan(sensor=(15.0, 0.0), hover=(5.0, 0.0))
    assert coeff_a(plan, PARAMS, 1, 1) == pytest.approx(0.005)


def test_hover_coefficient_capped_overall():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        s = (float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
        h = (float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
        plan = _one_group_plan(sensor=s, hover=h,
                               start=(h[0] - 20.0, h[1]))
        assert coeff_a(plan, PARAMS, 1, 1) <= 0.01 + 1e-15


def test_flight_coefficient_midpoint_closed_form():
    # sensor abeam the midpoint of a straight leg
    D, off = 30.0, 3.0
    plan = _one_group_plan(sensor=(0.0, off), hover=(D / 2.0, 0.0),
                           start=(-D / 2.0, 0.0))
    c = math.sqrt(100.0 + off * off)
    expect = (2.0 / (D * c)) * math.atan(D / (2.0 * c))
    got = coeff_b(plan, PARAMS, 1, 1)
    assert got == pytest.approx(expect, rel=1e-12)
    oracle = _leg_average_oracle((-D / 2.0, 0.0), (D / 2.0, 0.0),
                                 (0.0, off), 10.0)
    assert got == pytest.approx(oracle, rel=1e-9)


def test_flight_coefficient_general_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p0 = (float(rng.uniform(-40, 0)), float(rng.uniform(-5, 5)))
        p1 = (float(rng.uniform(5, 40)), float(rng.uniform(-5, 5)))
        w = (float(rng.uniform(-30, 30)), float(rng.uniform(-8, 8)))
        got = _leg_average(p0, p1, w, 10.0)
        assert got == pytest.approx(_leg_average_oracle(p0, p1, w, 10.0),
                                    rel=1e-9)


def test_flight_coefficient_zero_length_leg():
    p0 = (3.0, 1.0)
    assert leg_average_inverse_sq(0.0, 0.0, 0.0, 4.0, 1.0, 100.0) \
        == pytest.approx(point_inverse_sq(p0, (7.0, 2.0), 10.0))


def test_overhead_leg_average_ends_over_its_sensor():
    # the closed form atan(d/A)/(d A) is the leg average of a leg that
    # ends right over its sensor, against quadrature and against the
    # general formula with the sensor at the leg's end; a zero-length
    # leg gives the point value 1/A^2
    for d in (1e-3, 0.7, 5.0, 24.5, 400.0):
        p0, p1 = (-d, 0.0), (0.0, 0.0)
        got = overhead_leg_average(d, 10.0)
        assert got == pytest.approx(_leg_average(p0, p1, p1, 10.0),
                                    rel=1e-14)
        assert got == pytest.approx(_leg_average_oracle(p0, p1, p1, 10.0),
                                    rel=1e-9)
    assert overhead_leg_average(0.0, 10.0) == 1.0 / (10.0 * 10.0)


def test_flight_coefficient_mirror_parity():
    # reflecting the whole geometry about x = 0 swaps traversal direction
    p0, p1, w = (-12.0, 0.0), (14.0, 2.0), (3.0, 4.0)
    mirrored = _leg_average(
        (-p0[0], p0[1]), (-p1[0], p1[1]), (-w[0], w[1]), 10.0)
    assert _leg_average(p0, p1, w, 10.0) == pytest.approx(
        mirrored, rel=1e-14)


# ---------------------------------------------------------------- energy

def _unit_coeffs(a=0.01, b=0.005, gamma=100.0):
    return GroupCoefficients(a=(a,), b=(b,), gamma=(gamma,))


def _overhead_plan():
    # sensor right under the hover point: a = 1/A^2 = 0.01
    return _one_group_plan(sensor=(5.0, 0.0), hover=(5.0, 0.0))


def test_energy_zero_durations():
    assert harvested_energy(_overhead_plan(), PARAMS, 1, 1, 0.0, 0.0) == 0.0


def test_energy_substitution():
    got = harvested_energy(_overhead_plan(), PARAMS, 1, 1, 1.0, 0.0)
    assert got == pytest.approx(1e-5)


def test_energy_negative_duration_rejected():
    with pytest.raises(NumericDomainError):
        harvested_energy(_overhead_plan(), PARAMS, 1, 1, -1.0, 0.0)


def test_energy_rejects_non_member():
    with pytest.raises(PlanError):
        harvested_energy(_overhead_plan(), PARAMS, 1, 2, 1.0, 1.0)


def test_energy_matches_quadrature_total():
    # hover part is algebraic; flight part re-derived by integrating the
    # instantaneous downlink power along the leg at constant speed
    plan = _one_group_plan(sensor=(2.0, 1.5), hover=(10.0, 0.0),
                           start=(-15.0, 0.0))
    coeffs = group_coefficients(plan, PARAMS)
    tau_prev, zeta = 3.7, 4.9
    got = harvested_energy(plan, PARAMS, 1, 1, tau_prev, zeta)

    p0, p1 = plan.leg(1)
    D = plan.D[0]
    v = D / zeta

    def inst_power(t):
        x = p0[0] + (p1[0] - p0[0]) * v * t / D
        y = p0[1] + (p1[1] - p0[1]) * v * t / D
        return PARAMS.energy_scale * point_inverse_sq((x, y), (2.0, 1.5), 10.0)

    flight = integrate_adaptive(inst_power, 0.0, zeta, rel_tol=1e-10)
    hover = PARAMS.energy_scale * coeffs.a[0] * tau_prev
    assert got == pytest.approx(hover + flight, rel=1e-6)


# ---------------------------------------------------------------- SNR and rate

def test_group_gamma_single_antenna_value():
    # h = k0/A^2 = 1e-5 for a sensor right under the receive antenna
    plan = _one_group_plan(sensor=(5.0, 0.1), hover=(5.0, 0.0))
    got = _gamma(plan, PARAMS_M2)
    # eta * P_t * k0 * h / sigma2 = 0.5 * 2 * 1e-3 * 1e-5 / 1e-10
    assert got == pytest.approx(100.0, rel=1e-12)


def test_group_gamma_linear_in_power():
    plan = _one_group_plan(sensor=(6.0, 1.0), hover=(5.0, 0.0))
    base = _gamma(plan, PARAMS)
    doubled = _gamma(plan, dataclasses.replace(PARAMS, P_t=4.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_group_gamma_antenna_additivity():
    plan = _one_group_plan(sensor=(6.0, 1.0), hover=(5.0, 0.0))
    g2 = _gamma(plan, PARAMS_M2)
    g3 = _gamma(plan, PARAMS)
    # antenna 3 sits 2*delta above the hover point (5, 0)
    L = math.hypot(6.0 - 5.0, 1.0 - 2 * 0.1)
    k3_term = SNR_SCALE * PARAMS.k0 / (L ** 2 + PARAMS.A ** 2)
    assert g3 == pytest.approx(g2 + k3_term, rel=1e-12)


def _information(coeffs, tau_prev, zeta_n, tau_n):
    """tau_n R_n of a one-group allocation."""
    alloc = TimeAllocation(tau=(tau_prev, tau_n), zeta=(zeta_n,))
    return delivered_information(coeffs, alloc)[0]


def test_rate_zero_energy():
    assert _information(_unit_coeffs(), 0.0, 0.0, 5.0) == 0.0
    # no hover, no delivery: the tau*R limit
    assert _information(_unit_coeffs(), 1.0, 1.0, 0.0) == 0.0


def test_rate_constructed_inverse():
    # gamma * (a*tau_prev + b*zeta)/tau_n == e^2 - 1  =>  rate of 1
    gamma = (math.e ** 2 - 1.0) / 0.005
    coeffs = _unit_coeffs(a=0.01, b=0.005, gamma=gamma)
    assert _information(coeffs, 0.0, 1.0, 1.0) == pytest.approx(1.0)


def test_rate_monotone_in_harvest_times():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a = float(rng.uniform(1e-4, 0.01))
        b = float(rng.uniform(1e-4, 0.01))
        gamma = float(rng.uniform(1.0, 1e4))
        coeffs = _unit_coeffs(a=a, b=b, gamma=gamma)
        tp, z, tn = (float(v) for v in rng.uniform(0.1, 50.0, 3))
        base = _information(coeffs, tp, z, tn)
        assert _information(coeffs, tp * 1.07, z, tn) > base
        assert _information(coeffs, tp, z * 1.07, tn) > base


# ---------------------------------------------------------------- aggregation

def test_group_coefficients_sums_members():
    sensors = ((2.0, 1.0), (4.0, -1.0), (30.0, 0.5))
    plan = GroupPlan(sensors=sensors, groups=((1, 2), (3,)),
                     hover_points=((5.0, 0.0), (30.0, 0.0)),
                     D=(20.0, 25.0), row_of_group=(1, 1),
                     start_point=(-15.0, 0.0))
    coeffs = group_coefficients(plan, PARAMS)
    assert coeffs.N == 2
    for n, members in ((1, (1, 2)), (2, (3,))):
        assert coeffs.a[n - 1] == pytest.approx(
            sum(coeff_a(plan, PARAMS, n, i) for i in members), rel=1e-15)
        assert coeffs.b[n - 1] == pytest.approx(
            sum(coeff_b(plan, PARAMS, n, i) for i in members), rel=1e-15)
        # M = 3 means two receive antennas (2 and 3) per sensor
        expect_gamma = SNR_SCALE * _uplink_sum(plan, n)
        assert coeffs.gamma[n - 1] == pytest.approx(expect_gamma, rel=1e-12)


def test_group_coefficients_range_checks(monkeypatch):
    # a coefficient above the overhead value 1/A^2 is a fault in the
    # primitive that made it; the error names the group and the phase
    plan = GroupPlan(sensors=((2.0, 1.0), (30.0, 0.5)), groups=((1,), (2,)),
                     hover_points=((5.0, 0.0), (30.0, 0.0)),
                     D=(20.0, 25.0), row_of_group=(1, 1),
                     start_point=(-15.0, 0.0))
    too_big = 2.0 / PARAMS.A ** 2
    a = [coeff_a(plan, PARAMS, n, n) for n in (1, 2)]
    b = [coeff_b(plan, PARAMS, n, n) for n in (1, 2)]
    sums = plan_sums(plan, PARAMS, a, b)
    assert GroupCoefficients.scaled(sums, PARAMS).N == 2
    # fault only group 2's
    for phase, a_i, b_i in (("hover", [a[0], too_big], b),
                            ("flight", a, [b[0], too_big])):
        with pytest.raises(NumericDomainError,
                           match=f"^group 2: {phase} coefficient"):
            plan_sums(plan, PARAMS, a_i, b_i)
    # the first faulty member in plan order is reported, and of one
    # member's two faults its hover one; nan lies outside the range too
    for report, a_i, b_i in (("group 1: flight", [a[0], too_big],
                              [too_big, b[1]]),
                             ("group 1: hover", [too_big, a[1]],
                              [too_big, b[1]]),
                             ("group 1: hover", [math.nan, a[1]], b),
                             ("group 2: flight", a, [b[0], math.nan])):
        with pytest.raises(NumericDomainError,
                           match=f"^{report} coefficient"):
            plan_sums(plan, PARAMS, a_i, b_i)
    # the same faults in the pass that draws a trial, injected through
    # the names it and the one leg-average formula in `channel` read.  A
    # member 1e200 m off the row harvests 0.0 in hover, and a sqrt that
    # reads its infinite offset as 1 gives it a flight coefficient above
    # 1/A^2 too: its hover one is reported.  An atan2 a million times too
    # large faults the flight one alone, and keeps it above the hover
    # one, so no member is redrawn.
    config = ScenarioConfig(A_m=PARAMS.A)
    sqrt, atan2 = math.sqrt, math.atan2
    for phase, patches in (
            ("hover", {(experiments, "Y_JITTER_M"): 1e200,
                       (channel, "sqrt"):
                           lambda v: sqrt(v) if v < math.inf else 1.0}),
            ("flight", {(channel, "atan2"):
                            lambda y, x: 1e6 * atan2(y, x)})):
        with monkeypatch.context() as m:
            for (module, name), value in patches.items():
                m.setattr(module, name, value)
            with pytest.raises(NumericDomainError,
                               match=f"^group 1: {phase} coefficient"):
                generate_trial(config, trial_rng(config.seed, 0))
    # a flight fault in the baseline's closed form alone: its legs each
    # end over their sensor, so only its b reads `atan` (a grouped
    # member's leg average reads `atan2`).  The grouped plan draws, and
    # the baseline's first stop is reported when the baseline is read or
    # solved
    grouped = generate_trial(config, trial_rng(config.seed, 0)).sums
    with monkeypatch.context() as m:
        m.setattr(channel, "atan", lambda x: math.atan(x) + 100.0)
        geo = generate_trial(config, trial_rng(config.seed, 0))
        assert geo.sums == grouped
        with pytest.raises(NumericDomainError,
                           match="^group 1: flight coefficient"):
            geo.baseline
        run_trial(config, 0, "stm", include_baseline=False)
        with pytest.raises(NumericDomainError,
                           match="^group 1: flight coefficient"):
            run_trial(config, 0, "stm")


@pytest.mark.parametrize("a, b, gamma, error, message", [
    ((1.0,), (1.0, 2.0), (1.0,), PlanError,
     "coefficient sequences disagree in length"),
    ((1.0,), (1.0,), (), PlanError, "coefficient sequences disagree in length"),
    ((), (), (), PlanError, "need at least one group"),
    ((1.0, 0.0), (1.0, 1.0), (1.0, 1.0), NumericDomainError,
     "coefficient a must be positive, got 0.0"),
    ((1.0,), (-1.0,), (1.0,), NumericDomainError,
     "coefficient b must be positive, got -1.0"),
    ((1.0,), (1.0,), (math.nan,), NumericDomainError,
     "coefficient gamma must be positive, got nan"),
    ((1.0,), (1.0,), (math.inf,), NumericDomainError,
     "coefficient gamma must be finite, got inf"),
    ((1.0,), (math.inf,), (1.0,), NumericDomainError,
     "coefficient b must be finite, got inf"),
])
def test_group_coefficients_guards(a, b, gamma, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        GroupCoefficients(a=a, b=b, gamma=gamma)


def test_rescaled_refuses_gains_of_another_length():
    # a drawn plan's coefficients rescale to its own gain sums; a gain
    # tuple one group short or long cannot pair with the kept a and b
    config = ScenarioConfig()
    geo = generate_trial(config, trial_rng(config.seed, 0))
    coeffs = GroupCoefficients.scaled(geo.sums, config.radio)
    h = geo.sums[2]
    assert coeffs.rescaled(h, config.radio) == coeffs
    for gains in (h[:-1], (*h, h[0])):
        with pytest.raises(PlanError, match="^coefficient sequences "
                                            "disagree in length$"):
            coeffs.rescaled(gains, config.radio)


def test_params_validation():
    for change in ({"k0": 0.0}, {"eta": 1.5}, {"M": 1}, {"M": 2.5},
                   {"delta": 0.0}, {"k0": math.nan}, {"sigma2": math.inf},
                   {"P_t": math.inf}, {"eta": math.nan}, {"A": math.nan},
                   {"A": math.inf}, {"delta": math.inf}, {"M": math.nan},
                   {"M": math.inf}):
        with pytest.raises(ConfigError):
            dataclasses.replace(PARAMS, **change)


def test_params_from_db():
    p = ChannelParams.from_db(k0_db=-30.0, sigma2_dbm=-70.0, pt_db=4.0,
                              eta=0.5, altitude=10.0, M=3, delta=0.1)
    assert p.k0 == pytest.approx(1e-3)
    assert p.sigma2 == pytest.approx(1e-10)
    assert p.P_t == pytest.approx(10.0 ** 0.4)


@pytest.mark.parametrize("levels, message", [
    pytest.param({"pt_db": 4000.0}, "overflows", id="pt_db"),
    pytest.param({"k0_db": 4000.0}, "overflows", id="k0_db"),
    pytest.param({"sigma2_dbm": 4000.0}, "overflows", id="sigma2_dbm"),
    # each level fits a float, but the SNR scale overflows or underflows
    pytest.param({"pt_db": 3000.0, "sigma2_dbm": -3000.0},
                 r"^SNR scale eta\*P_t\*k0/sigma2=inf must be positive",
                 id="snr-overflow"),
    pytest.param({"pt_db": -3000.0, "sigma2_dbm": 3000.0},
                 r"^SNR scale eta\*P_t\*k0/sigma2=0.0 must be positive",
                 id="snr-underflow"),
])
def test_level_too_large_for_a_float_is_config_error(levels, message):
    # 10 ** 400 overflows a float: the level is refused where it is
    # converted, the SNR scale when the radio is built, and a config
    # holding either is refused when it is built
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(**levels)
