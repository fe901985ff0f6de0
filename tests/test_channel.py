import math

import numpy as np
import pytest

from uavwpt.channel import (ChannelParams, GroupCoefficients, coeff_a,
                            coeff_b, group_coefficients, group_rate,
                            harvested_energy, leg_average_inverse_sq,
                            point_inverse_sq, uplink_gain)
from uavwpt.errors import ConfigError, NumericDomainError, PlanError
from uavwpt.geometry import ArrayConfig, GroupPlan, SensorField
from uavwpt.numerics import integrate_adaptive

PARAMS = ChannelParams(k0=1e-3, sigma2=1e-10, eta=0.5, P_t=2.0, A=10.0)
CFG = ArrayConfig(M=3, delta=0.1, altitude=10.0, d_max=35.0)


def _one_group_plan(sensor, hover, start=(-20.0, 0.0)):
    lo_x = min(sensor[0], hover[0], start[0]) - 1.0
    hi_x = max(sensor[0], hover[0], start[0]) + 1.0
    lo_y = min(sensor[1], hover[1], start[1]) - 1.0
    hi_y = max(sensor[1], hover[1], start[1]) + 1.0
    f = SensorField(sensors=(sensor,), region=((lo_x, lo_y), (hi_x, hi_y)))
    D = math.hypot(hover[0] - start[0], hover[1] - start[1])
    return GroupPlan(field=f, groups=((1,),), hover_points=(hover,),
                     D=(D,), row_of_group=(1,), rows=(hover[1],),
                     start_point=start)


def _leg_average_oracle(p0, p1, w, A):
    """Brute-force arc-length average of the inverse-square gain."""
    D = math.hypot(p1[0] - p0[0], p1[1] - p0[1])

    def f(s):
        x = p0[0] + (p1[0] - p0[0]) * s / D
        y = p0[1] + (p1[1] - p0[1]) * s / D
        return point_inverse_sq((x, y), w, A)

    return integrate_adaptive(f, 0.0, D, rel_tol=1e-11) / D


# ---------------------------------------------------------------- gains

def test_uplink_on_axis_value():
    # sensor right under receive antenna 2
    plan = _one_group_plan(sensor=(5.0, 0.1), hover=(5.0, 0.0))
    assert uplink_gain(plan, CFG, PARAMS, 1, 2, 1) == pytest.approx(1e-5)


def test_uplink_inverse_square_law():
    near = _one_group_plan(sensor=(5.0, 0.1), hover=(5.0, 0.0))
    # L = 10 doubles the squared 3D distance (100 + 100 vs 100)
    far = _one_group_plan(sensor=(15.0, 0.1), hover=(5.0, 0.0))
    g_near = uplink_gain(near, CFG, PARAMS, 1, 2, 1)
    g_far = uplink_gain(far, CFG, PARAMS, 1, 2, 1)
    assert g_near == pytest.approx(2.0 * g_far, rel=1e-12)


def test_uplink_matches_distance_module():
    from uavwpt.geometry import horizontal_distance
    plan = _one_group_plan(sensor=(7.3, 1.9), hover=(5.0, 0.0))
    for k in (2, 3):
        L = horizontal_distance(plan, CFG, 1, k, 1)
        expect = 1e-3 / (L * L + 100.0)
        assert uplink_gain(plan, CFG, PARAMS, 1, k, 1) == pytest.approx(
            expect, rel=1e-12)


def test_uplink_rejects_transmit_antenna():
    plan = _one_group_plan(sensor=(5.0, 0.1), hover=(5.0, 0.0))
    with pytest.raises(PlanError):
        uplink_gain(plan, CFG, PARAMS, 1, 1, 1)


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
        got = leg_average_inverse_sq(p0, p1, w, 10.0)
        assert got == pytest.approx(_leg_average_oracle(p0, p1, w, 10.0),
                                    rel=1e-9)


def test_flight_coefficient_zero_length_leg():
    p0 = (3.0, 1.0)
    assert leg_average_inverse_sq(p0, p0, (7.0, 2.0), 10.0) == pytest.approx(
        point_inverse_sq(p0, (7.0, 2.0), 10.0))


def test_flight_coefficient_mirror_parity():
    # reflecting the whole geometry about x = 0 swaps traversal direction
    p0, p1, w = (-12.0, 0.0), (14.0, 2.0), (3.0, 4.0)
    mirrored = leg_average_inverse_sq(
        (-p0[0], p0[1]), (-p1[0], p1[1]), (-w[0], w[1]), 10.0)
    assert leg_average_inverse_sq(p0, p1, w, 10.0) == pytest.approx(
        mirrored, rel=1e-14)


# ---------------------------------------------------------------- energy

def _unit_coeffs(a=0.01, b=0.005, gamma=100.0):
    return GroupCoefficients(a=(a,), b=(b,), gamma=(gamma,),
                             a_sensor=({1: a},), b_sensor=({1: b},),
                             h=({(2, 1): 1e-5},))


def test_energy_zero_durations():
    assert harvested_energy(PARAMS, _unit_coeffs(), 1, 1, 0.0, 0.0) == 0.0


def test_energy_substitution():
    got = harvested_energy(PARAMS, _unit_coeffs(a=0.01), 1, 1, 1.0, 0.0)
    assert got == pytest.approx(1e-5)


def test_energy_negative_duration_rejected():
    with pytest.raises(NumericDomainError):
        harvested_energy(PARAMS, _unit_coeffs(), 1, 1, -1.0, 0.0)


def test_energy_matches_quadrature_total():
    # hover part is algebraic; flight part re-derived by integrating the
    # instantaneous downlink power along the leg at constant speed
    plan = _one_group_plan(sensor=(2.0, 1.5), hover=(10.0, 0.0),
                           start=(-15.0, 0.0))
    coeffs = group_coefficients(plan, CFG, PARAMS)
    tau_prev, zeta = 3.7, 4.9
    got = harvested_energy(PARAMS, coeffs, 1, 1, tau_prev, zeta)

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

def _gamma(plan, cfg, params):
    return group_coefficients(plan, cfg, params).gamma[0]


def test_group_gamma_single_antenna_value():
    # h = k0/A^2 = 1e-5 for a sensor right under the receive antenna
    cfg2 = ArrayConfig(M=2, delta=0.1, altitude=10.0, d_max=35.0)
    plan = _one_group_plan(sensor=(5.0, 0.1), hover=(5.0, 0.0))
    got = _gamma(plan, cfg2, PARAMS)
    # eta * P_t * k0 * h / sigma2 = 0.5 * 2 * 1e-3 * 1e-5 / 1e-10
    assert got == pytest.approx(100.0, rel=1e-12)


def test_group_gamma_linear_in_power():
    plan = _one_group_plan(sensor=(6.0, 1.0), hover=(5.0, 0.0))
    base = _gamma(plan, CFG, PARAMS)
    doubled = _gamma(
        plan, CFG,
        ChannelParams(k0=1e-3, sigma2=1e-10, eta=0.5, P_t=4.0, A=10.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_group_gamma_antenna_additivity():
    cfg2 = ArrayConfig(M=2, delta=0.1, altitude=10.0, d_max=35.0)
    plan = _one_group_plan(sensor=(6.0, 1.0), hover=(5.0, 0.0))
    g2 = _gamma(plan, cfg2, PARAMS)
    g3 = _gamma(plan, CFG, PARAMS)
    k3_term = (PARAMS.energy_scale / PARAMS.sigma2
               * uplink_gain(plan, CFG, PARAMS, 1, 3, 1))
    assert g3 == pytest.approx(g2 + k3_term, rel=1e-12)


def test_rate_zero_energy():
    assert group_rate(_unit_coeffs(), 1, 0.0, 0.0, 5.0) == 0.0


def test_rate_constructed_inverse():
    # gamma * (a*tau_prev + b*zeta)/tau_n == e^2 - 1  =>  rate of 1
    gamma = (math.e ** 2 - 1.0) / 0.005
    coeffs = _unit_coeffs(a=0.01, b=0.005, gamma=gamma)
    assert group_rate(coeffs, 1, 0.0, 1.0, 1.0) == pytest.approx(1.0)


def test_rate_monotone_in_harvest_times():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a = float(rng.uniform(1e-4, 0.01))
        b = float(rng.uniform(1e-4, 0.01))
        gamma = float(rng.uniform(1.0, 1e4))
        coeffs = _unit_coeffs(a=a, b=b, gamma=gamma)
        tp, z, tn = (float(v) for v in rng.uniform(0.1, 50.0, 3))
        base = group_rate(coeffs, 1, tp, z, tn)
        assert group_rate(coeffs, 1, tp * 1.07, z, tn) > base
        assert group_rate(coeffs, 1, tp, z * 1.07, tn) > base


def test_rate_requires_positive_hover():
    with pytest.raises(NumericDomainError):
        group_rate(_unit_coeffs(), 1, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------- aggregation

def test_group_coefficients_sums_members():
    sensors = ((2.0, 1.0), (4.0, -1.0), (30.0, 0.5))
    f = SensorField(sensors=sensors, region=((-25.0, -2.0), (35.0, 2.0)))
    plan = GroupPlan(field=f, groups=((1, 2), (3,)),
                     hover_points=((5.0, 0.0), (30.0, 0.0)),
                     D=(20.0, 25.0), row_of_group=(1, 1), rows=(0.0,),
                     start_point=(-15.0, 0.0))
    coeffs = group_coefficients(plan, CFG, PARAMS)
    assert coeffs.N == 2
    assert coeffs.a[0] == pytest.approx(sum(coeffs.a_sensor[0].values()))
    assert coeffs.b[0] == pytest.approx(sum(coeffs.b_sensor[0].values()))
    assert set(coeffs.a_sensor[0]) == {1, 2}
    # M = 3 means two receive antennas per sensor
    assert len(coeffs.h[0]) == 4
    assert len(coeffs.h[1]) == 2
    expect_gamma = (PARAMS.energy_scale / PARAMS.sigma2
                    * sum(coeffs.h[0].values()))
    assert coeffs.gamma[0] == pytest.approx(expect_gamma, rel=1e-12)


def test_params_validation():
    with pytest.raises(ConfigError):
        ChannelParams(k0=0.0, sigma2=1e-10, eta=0.5, P_t=2.0, A=10.0)
    with pytest.raises(ConfigError):
        ChannelParams(k0=1e-3, sigma2=1e-10, eta=1.5, P_t=2.0, A=10.0)


def test_params_from_db():
    p = ChannelParams.from_db(k0_db=-30.0, sigma2_dbm=-70.0, pt_db=4.0,
                              eta=0.5, altitude=10.0)
    assert p.k0 == pytest.approx(1e-3)
    assert p.sigma2 == pytest.approx(1e-10)
    assert p.P_t == pytest.approx(10.0 ** 0.4)
