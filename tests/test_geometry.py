import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from instance_tools import group_coefficients
from uavwpt.channel import ChannelParams
from uavwpt.errors import ConfigError, InfeasiblePlanError, PlanError
from uavwpt.geometry import (GroupPlan, check_feasibility, leg_floors,
                             load_field, plan_groups, singleton_plan,
                             write_plan_csv)
from uavwpt.stm import StmProblem

A, D_MAX = 10.0, 35.0   # altitude and power-transfer reach, m


def _row_field(xs, y=0.0):
    return tuple((float(x), y) for x in xs)


def _uniform_sensors(K, x_hi, y_hi, seed):
    """K sensors drawn uniformly in [0, x_hi] x [0, y_hi]."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, x_hi, K)
    ys = rng.uniform(0.0, y_hi, K)
    return tuple((float(x), float(y)) for x, y in zip(xs, ys))


# ---------------------------------------------------------------- fields

def test_field_roundtrip(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("# sensor positions (meters)\n"
                    "1.5 2.25\n"
                    "\n"
                    "-3e1   4  # trailing comment\n"
                    "0.1 -0.7\n")
    assert load_field(path) == ((1.5, 2.25), (-30.0, 4.0), (0.1, -0.7))


def test_load_field_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0 3.0\n")
    with pytest.raises(ConfigError):
        load_field(bad)
    for line in ("inf 0", "nan 0"):
        bad.write_text(f"0 0\n{line}\n")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{bad}:2: coordinates must be "
                                           f"finite")):
            load_field(bad)


@pytest.mark.parametrize("text, message", [
    (None, "cannot read field file {path}: "),
    ("", "field file {path} contains no sensors"),
    ("# no sensors\n\n", "field file {path} contains no sensors"),
    ("0 0\n1.0 north\n",
     "{path}:2: could not convert string to float: 'north'"),
])
def test_load_field_refuses_what_holds_no_positions(text, message, tmp_path):
    path = tmp_path / "field.txt"
    if text is not None:        # None: no file at all
        path.write_text(text)
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(message.format(path=path))}"):
        load_field(path)


_PLAN = dict(sensors=((0.0, 0.0), (5.0, 0.0)), groups=((1,), (2,)),
             hover_points=((0.0, 0.0), (5.0, 0.0)), D=(5.0, 5.0),
             row_of_group=(1, 1), start_point=(-5.0, 0.0))


@pytest.mark.parametrize("change, message", [
    ({"groups": ()}, "plan needs at least one group"),
    ({"D": (5.0,)}, "per-group sequences disagree in length"),
    ({"row_of_group": (1, 1, 1)}, "per-group sequences disagree in length"),
    ({"groups": ((1,), ())}, "group 2 is empty"),
    ({"groups": ((1,), (3,))}, "group 2 references unknown sensor 3"),
    ({"groups": ((0,), (2,))}, "group 1 references unknown sensor 0"),
    ({"groups": ((1,), (1,))}, "sensor 1 appears in more than one group"),
    ({"D": (5.0, 0.0)}, "leg 2 has non-positive length 0.0"),
    ({"D": (math.nan, 5.0)}, "leg 1 has non-positive length nan"),
])
def test_plan_guards(change, message):
    with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
        GroupPlan(**{**_PLAN, **change})


@pytest.mark.parametrize("method", ["members", "hover", "leg", "row_parity"])
def test_group_index_range_checked(method):
    plan = GroupPlan(**_PLAN)
    for n in (0, 3):
        with pytest.raises(PlanError,
                           match=f"^group index {n} out of range 1..2$"):
            getattr(plan, method)(n)


@pytest.mark.parametrize("sensors, N, rows, message", [
    (_row_field([0.0, 5.0]), 0, [0.0], "need at least one group"),
    (_row_field([0.0, 5.0]), 3, [0.0], "cannot form 3 groups from 2 sensors"),
    (_row_field([0.0, 5.0]), 1, [], "need at least one row"),
    (_row_field([0.0, 0.0]), 2, [0.0],
     "group 2: coincident hover points (duplicate sensors?)"),
])
def test_plan_groups_guards(sensors, N, rows, message):
    with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
        plan_groups(sensors, A, D_MAX, N, row_ys=rows)


def test_position_range_checked():
    plan = plan_groups(_row_field([0.0, 1.0]), A, D_MAX, 1, row_ys=[0.0])
    assert plan.position(2) == (1.0, 0.0)
    with pytest.raises(PlanError):
        plan.position(3)
    with pytest.raises(PlanError):
        plan.position(0)


# ---------------------------------------------------------------- grouping

def test_two_cluster_split():
    f = _row_field([0.0, 1.0, 30.0, 31.0])
    plan = plan_groups(f, A, D_MAX, 2, row_ys=[0.0])
    assert plan.groups == ((1, 2), (3, 4))
    assert plan.hover(1)[0] == pytest.approx(0.5)
    assert plan.hover(2)[0] == pytest.approx(30.5)


def test_singleton_groups_at_own_x():
    f = _row_field([0.0, 12.0, 25.0, 40.0])
    plan = plan_groups(f, A, D_MAX, 4, row_ys=[0.0])
    for n in range(1, 5):
        (i,) = plan.members(n)
        assert plan.hover(n)[0] == pytest.approx(plan.position(i)[0])


def test_random_field_coverage():
    f = _uniform_sensors(20, 200.0, 5.0, seed=1)
    plan = plan_groups(f, A, 80.0, 4, row_ys=[2.5])
    radius = math.sqrt(80.0 ** 2 - 10.0 ** 2)
    for n in range(1, 5):
        hx, hy = plan.hover(n)
        for i in plan.members(n):
            x, y = plan.position(i)
            assert math.hypot(x - hx, y - hy) <= radius + 1e-9


def test_plan_partitions_all_sensors():
    f = _uniform_sensors(20, 200.0, 5.0, seed=4)
    plan = plan_groups(f, A, 80.0, 4, row_ys=[2.5])
    served = sorted(i for n in range(1, 5) for i in plan.members(n))
    assert served == list(range(1, 21))


def test_serpentine_direction_by_row_parity():
    # two rows; the lower (odd) row is traversed +x, the upper (even) -x
    sensors = ((0.0, 0.0), (10.0, 0.0), (10.0, 20.0), (0.0, 20.0))
    plan = plan_groups(sensors, A, 30.0, 4, row_ys=[0.0, 20.0])
    xs = [plan.hover(n)[0] for n in range(1, 5)]
    assert xs == [0.0, 10.0, 10.0, 0.0]
    assert plan.row_parity(1) == "odd"
    assert plan.row_parity(4) == "even"


def test_hover_spacing_beyond_dmax_infeasible():
    f = _row_field([0.0, 1.0, 100.0, 101.0])
    with pytest.raises(InfeasiblePlanError):
        plan_groups(f, A, D_MAX, 2, row_ys=[0.0])


def test_uncoverable_sensor_named_in_error():
    # one group, members 80 m apart: no single hover can cover both
    f = _row_field([0.0, 80.0])
    with pytest.raises(InfeasiblePlanError) as exc:
        plan_groups(f, A, D_MAX, 1, row_ys=[0.0])
    assert "sensor" in str(exc.value)


# altitude 20 m and reach 35 m leave a 28.7 m coverage radius; ten
# sensors near x = 0, one at x = 3 and nine near x = 35.1 split 10/10, so
# the one at x = 3 opens the second run, 28.9 m from its hover point
_SHED_XS = ([-0.45 + 0.1 * i for i in range(10)] + [3.0]
            + [35.06 + 0.01 * i for i in range(9)])


@pytest.mark.parametrize("mirrored", [False, True],
                         ids=["to_previous_run", "to_next_run"])
def test_repair_moves_boundary_member(mirrored):
    # mirrored, the stray sensor closes the first run and moves forward
    xs = [35.1 - x for x in reversed(_SHED_XS)] if mirrored else _SHED_XS
    plan = plan_groups(_row_field(xs), 20.0, D_MAX, 2, row_ys=[0.0])
    stray = 10 if mirrored else 11
    assert [len(g) for g in plan.groups] == ([9, 11] if mirrored
                                             else [11, 9])
    assert stray in plan.members(2 if mirrored else 1)
    radius = math.sqrt(D_MAX ** 2 - 20.0 ** 2)
    for n in range(1, 3):
        hx, hy = plan.hover(n)
        for i in plan.members(n):
            x, y = plan.position(i)
            assert math.hypot(x - hx, y - hy) <= radius


def test_repair_that_cannot_settle_is_infeasible():
    # the middle sensor is out of reach of either run's hover point, so
    # the repair hands it back and forth until its moves run out
    f = _row_field([-1.0, 0.0, 1.0, 50.0, 99.0, 100.0, 101.0])
    with pytest.raises(InfeasiblePlanError,
                       match="sensor 4 lies 37.500 m from its hover point"):
        plan_groups(f, A, D_MAX, 2, row_ys=[0.0])


def test_plan_rejects_dmax_not_above_altitude():
    f = _row_field([0.0, 1.0])
    for altitude, d_max in ((10.0, 10.0), (10.0, 9.0), (0.0, 35.0)):
        with pytest.raises(ConfigError):
            plan_groups(f, altitude, d_max, 1, row_ys=[0.0])


# ---------------------------------------------------------------- distances

# k0 = 1e-3, A = 10; eta * P_t * k0 / sigma2 = 1e7
PARAMS = ChannelParams(k0=1e-3, sigma2=1e-10, eta=0.5, P_t=2.0, A=A,
                       M=3, delta=0.1)


def test_antenna_offset_cancels():
    # sensor sits delta above the hover point: antenna 2 is right on top,
    # so its uplink gain is k0/A^2 and gamma = 1e7 * 1e-5
    plan = GroupPlan(sensors=((5.0, 0.1),), groups=((1,),),
                     hover_points=((5.0, 0.0),),
                     D=(20.0,), row_of_group=(1,),
                     start_point=(-15.0, 0.0))
    gamma = group_coefficients(plan, dataclasses.replace(PARAMS, M=2)).gamma[0]
    assert gamma == pytest.approx(100.0, rel=1e-12)


def test_distance_matches_independent_computation():
    # antenna k sits (k-1)*delta above the hover point along +y
    params = dataclasses.replace(PARAMS, M=4, delta=0.37)
    plan = plan_groups(_uniform_sensors(6, 40.0, 5.0, seed=9), A, 60.0, 2,
                       row_ys=[2.5])
    gamma = group_coefficients(plan, params).gamma
    for n in (1, 2):
        hx, hy = plan.hover(n)
        expect = 0.0
        for i in plan.members(n):
            x, y = plan.position(i)
            for k in (2, 3, 4):
                L = math.hypot(x - hx, y - (hy + (k - 1) * 0.37))
                expect += 1e-3 / (L ** 2 + 100.0)
        assert gamma[n - 1] == pytest.approx(1e7 * expect, rel=1e-12)


# ---------------------------------------------------------------- coverage radius

def _covers(r, altitude, d_max):
    """Does one group hovering on row y = 0 cover a sensor at (0, r)?"""
    try:
        plan_groups(((0.0, r),), altitude, d_max, 1, row_ys=[0.0])
    except InfeasiblePlanError:
        return False
    return True


def _assert_coverage_radius(radius, altitude, d_max):
    assert _covers(radius * (1.0 - 1e-9), altitude, d_max)
    assert not _covers(radius * (1.0 + 1e-9), altitude, d_max)


def test_lmax_equals_altitude_at_sqrt2():
    _assert_coverage_radius(10.0, 10.0, 10.0 * math.sqrt(2))


def test_lmax_table_value():
    _assert_coverage_radius(math.sqrt(1125.0), A, D_MAX)


@given(st.floats(min_value=1.0, max_value=100.0),
       st.floats(min_value=1.01, max_value=10.0))
def test_lmax_identity(a, factor):
    # l^2 + A^2 = d_max^2 with d_max = factor * A
    _assert_coverage_radius(a * math.sqrt(factor ** 2 - 1.0), a, a * factor)


# ---------------------------------------------------------------- feasibility

def _simple_plan():
    f = _row_field([0.0, 25.0])
    return plan_groups(f, A, D_MAX, 2, row_ys=[0.0])


def test_feasible_with_huge_budget():
    ok, _ = check_feasibility(_simple_plan(), v_max=10.0, T=1e9)
    assert ok


def test_feasibility_rejects_a_speed_or_budget_that_is_not_positive():
    # nan compares false both ways, so it must fail a test for positive
    for v_max, T in ((math.nan, 100.0), (10.0, math.nan), (0.0, 100.0),
                     (10.0, -1.0)):
        with pytest.raises(ConfigError, match="must be positive"):
            check_feasibility(_simple_plan(), v_max, T)


def test_infeasible_when_travel_exceeds_budget():
    plan = _simple_plan()
    ok, travel = check_feasibility(plan, v_max=10.0, T=1.0)
    assert not ok
    assert travel == math.fsum(leg_floors(plan.D, 10.0, plan.N)) > 1.0


def test_feasibility_boundary_is_closed():
    # the plan check and the throughput problem share one travel time,
    # so they agree on both sides of the boundary to the last bit
    plan = _simple_plan()
    coeffs = group_coefficients(plan, PARAMS)
    travel = math.fsum(leg_floors(plan.D, 10.0, plan.N))
    ok, reported = check_feasibility(plan, v_max=10.0, T=travel)
    assert ok and reported == travel
    assert StmProblem(coeffs=coeffs, D=plan.D, T=travel,
                      v_max=10.0).travel_time == travel
    below = math.nextafter(travel, 0.0)
    ok, _ = check_feasibility(plan, v_max=10.0, T=below)
    assert not ok
    with pytest.raises(InfeasiblePlanError):
        StmProblem(coeffs=coeffs, D=plan.D, T=below, v_max=10.0)


# ---------------------------------------------------------------- baseline plan

def test_singleton_plan_structure():
    f = _row_field([30.0, 0.0, 15.0])  # deliberately unsorted
    plan = singleton_plan(f, start_point=(-15.0, 0.0))
    assert plan.N == 3
    xs = [plan.hover(n)[0] for n in range(1, 4)]
    assert xs == sorted(xs)
    for n in range(1, 4):
        (i,) = plan.members(n)
        assert plan.hover(n) == plan.position(i)
    assert plan.D == pytest.approx((15.0, 15.0, 15.0))


def test_singleton_plan_custom_start():
    f = _row_field([10.0, 20.0])
    plan = singleton_plan(f, start_point=(0.0, 0.0))
    assert plan.start_point == (0.0, 0.0)
    assert plan.D[0] == pytest.approx(10.0)


# ---------------------------------------------------------------- output

def test_plan_csv_layout(tmp_path):
    plan = _simple_plan()
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group", "sensor_id", "x", "y", "hover_x", "hover_y",
                       "D_n", "row_parity"]
    assert len(rows) == 1 + len(plan.sensors)
    assert rows[1][0] == "1"
    assert rows[1][7] in ("odd", "even")
