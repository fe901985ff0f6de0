import csv
import math

import pytest
from hypothesis import given, strategies as st

from uavwpt.errors import ConfigError, InfeasiblePlanError, PlanError
from uavwpt.geometry import (ArrayConfig, GroupPlan, SensorField,
                             check_feasibility, generate_field,
                             horizontal_distance, load_field, plan_groups,
                             save_field, singleton_plan, write_plan_csv)

CFG = ArrayConfig(M=3, delta=0.1, altitude=10.0, d_max=35.0)


def _row_field(xs, y=0.0):
    sensors = tuple((float(x), y) for x in xs)
    lo = min(xs) - 1.0
    hi = max(xs) + 1.0
    return SensorField(sensors=sensors, region=((lo, y - 1.0), (hi, y + 1.0)))


# ---------------------------------------------------------------- fields

def test_generate_single_point_inside_region():
    f = generate_field(1, ((0.0, 0.0), (1.0, 1.0)), seed=7)
    (x, y), = f.sensors
    assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


def test_generate_deterministic_per_seed():
    region = ((0.0, 0.0), (200.0, 5.0))
    assert generate_field(20, region, seed=1) == generate_field(20, region, seed=1)


def test_generate_seeds_differ():
    region = ((0.0, 0.0), (200.0, 5.0))
    a = generate_field(20, region, seed=1)
    b = generate_field(20, region, seed=2)
    assert a.sensors != b.sensors


def test_field_roundtrip(tmp_path):
    f = generate_field(9, ((0.0, 0.0), (50.0, 5.0)), seed=3)
    path = tmp_path / "field.txt"
    save_field(f, path)
    back = load_field(path)
    for i in range(1, 10):
        x0, y0 = f.position(i)
        x1, y1 = back.position(i)
        assert x1 == pytest.approx(x0, rel=1e-10)
        assert y1 == pytest.approx(y0, rel=1e-10)


def test_load_field_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0 3.0\n")
    with pytest.raises(ConfigError):
        load_field(bad)


def test_position_range_checked():
    f = _row_field([0.0, 1.0])
    with pytest.raises(PlanError):
        f.position(3)
    with pytest.raises(PlanError):
        f.position(0)


# ---------------------------------------------------------------- grouping

def test_two_cluster_split():
    f = _row_field([0.0, 1.0, 30.0, 31.0])
    plan = plan_groups(f, CFG, 2, row_ys=[0.0])
    assert plan.groups == ((1, 2), (3, 4))
    assert plan.hover(1)[0] == pytest.approx(0.5)
    assert plan.hover(2)[0] == pytest.approx(30.5)


def test_singleton_groups_at_own_x():
    f = _row_field([0.0, 12.0, 25.0, 40.0])
    plan = plan_groups(f, CFG, 4, row_ys=[0.0])
    for n in range(1, 5):
        (i,) = plan.members(n)
        assert plan.hover(n)[0] == pytest.approx(f.position(i)[0])


def test_random_field_coverage():
    f = generate_field(20, ((0.0, 0.0), (200.0, 5.0)), seed=1)
    plan = plan_groups(f, ArrayConfig(M=3, delta=0.1, altitude=10.0,
                                      d_max=80.0), 4, row_ys=[2.5])
    radius = math.sqrt(80.0 ** 2 - 10.0 ** 2)
    for n in range(1, 5):
        hx, hy = plan.hover(n)
        for i in plan.members(n):
            x, y = f.position(i)
            assert math.hypot(x - hx, y - hy) <= radius + 1e-9


def test_plan_partitions_all_sensors():
    cfg = ArrayConfig(M=3, delta=0.1, altitude=10.0, d_max=80.0)
    f = generate_field(20, ((0.0, 0.0), (200.0, 5.0)), seed=4)
    plan = plan_groups(f, cfg, 4, row_ys=[2.5])
    served = sorted(i for n in range(1, 5) for i in plan.members(n))
    assert served == list(range(1, 21))


def test_serpentine_direction_by_row_parity():
    # two rows; the lower (odd) row is traversed +x, the upper (even) -x
    sensors = ((0.0, 0.0), (10.0, 0.0), (10.0, 20.0), (0.0, 20.0))
    f = SensorField(sensors=sensors, region=((-1.0, -1.0), (11.0, 21.0)))
    plan = plan_groups(f, ArrayConfig(M=3, delta=0.1, altitude=10.0,
                                      d_max=30.0), 4, row_ys=[0.0, 20.0])
    xs = [plan.hover(n)[0] for n in range(1, 5)]
    assert xs == [0.0, 10.0, 10.0, 0.0]
    assert plan.row_parity(1) == "odd"
    assert plan.row_parity(4) == "even"


def test_hover_spacing_beyond_dmax_infeasible():
    f = _row_field([0.0, 1.0, 100.0, 101.0])
    with pytest.raises(InfeasiblePlanError):
        plan_groups(f, CFG, 2, row_ys=[0.0])


def test_uncoverable_sensor_named_in_error():
    # one group, members 80 m apart: no single hover can cover both
    f = _row_field([0.0, 80.0])
    with pytest.raises(InfeasiblePlanError) as exc:
        plan_groups(f, CFG, 1, row_ys=[0.0])
    assert "sensor" in str(exc.value)


def test_spacing_violation_recorded_not_fatal():
    f = _row_field([0.0, 10.0, 20.0, 30.0])
    plan = plan_groups(f, CFG, 4, row_ys=[0.0])
    # dis_n + dis_{n+1} = 20 <= 35 for every adjacent pair
    assert plan.spacing_violations == (2, 3)


# ---------------------------------------------------------------- distances

def test_antenna_one_at_hover_point():
    f = _row_field([5.0])
    plan = plan_groups(f, CFG, 1, row_ys=[0.0])
    assert horizontal_distance(plan, CFG, 1, 1, 1) == pytest.approx(0.0)


def test_antenna_offset_cancels():
    # sensor sits delta above the hover point: antenna 2 is right on top
    sensors = ((5.0, 0.1),)
    f = SensorField(sensors=sensors, region=((0.0, -1.0), (10.0, 1.0)))
    plan = GroupPlan(field=f, groups=((1,),), hover_points=((5.0, 0.0),),
                     D=(20.0,), row_of_group=(1,), rows=(0.0,),
                     start_point=(-15.0, 0.0))
    assert horizontal_distance(plan, CFG, 1, 2, 1) == pytest.approx(0.0, abs=1e-12)


def test_distance_matches_independent_computation():
    f = generate_field(6, ((0.0, 0.0), (40.0, 5.0)), seed=9)
    plan = plan_groups(f, ArrayConfig(M=4, delta=0.37, altitude=10.0,
                                      d_max=60.0), 2, row_ys=[2.5])
    for n in (1, 2):
        hx, hy = plan.hover(n)
        for k in (1, 2, 3, 4):
            for i in plan.members(n):
                x, y = f.position(i)
                expect = math.hypot(x - hx, y - (hy + (k - 1) * 0.37))
                got = horizontal_distance(
                    plan, ArrayConfig(M=4, delta=0.37, altitude=10.0,
                                      d_max=60.0), n, k, i)
                assert got == pytest.approx(expect, rel=1e-12)


def test_bad_antenna_index_rejected():
    f = _row_field([5.0])
    plan = plan_groups(f, CFG, 1, row_ys=[0.0])
    with pytest.raises(PlanError):
        horizontal_distance(plan, CFG, 1, 4, 1)  # M=3 has antennas 1..3


# ---------------------------------------------------------------- coverage radius

def test_lmax_equals_altitude_at_sqrt2():
    cfg = ArrayConfig(M=2, delta=0.1, altitude=10.0, d_max=10.0 * math.sqrt(2))
    assert cfg.l_max == pytest.approx(10.0)


def test_lmax_table_value():
    assert CFG.l_max == pytest.approx(math.sqrt(1125.0))


@given(st.floats(min_value=1.0, max_value=100.0),
       st.floats(min_value=1.01, max_value=10.0))
def test_lmax_identity(a, factor):
    cfg = ArrayConfig(M=2, delta=0.1, altitude=a, d_max=a * factor)
    assert cfg.l_max ** 2 + a ** 2 == pytest.approx(cfg.d_max ** 2, rel=1e-12)


# ---------------------------------------------------------------- feasibility

def _simple_plan():
    f = _row_field([0.0, 25.0])
    return plan_groups(f, CFG, 2, row_ys=[0.0])


def test_feasible_with_huge_budget():
    ok, report = check_feasibility(_simple_plan(), CFG, v_max=10.0, T=1e9)
    assert ok and report.feasible


def test_infeasible_when_travel_exceeds_budget():
    plan = _simple_plan()
    ok, report = check_feasibility(plan, CFG, v_max=10.0, T=1.0)
    assert not ok
    assert report.travel_time > report.budget


def test_feasibility_boundary_is_closed():
    plan = _simple_plan()
    travel = sum(plan.D) / 10.0
    ok, _ = check_feasibility(plan, CFG, v_max=10.0, T=travel)
    assert ok


# ---------------------------------------------------------------- baseline plan

def test_singleton_plan_structure():
    f = _row_field([30.0, 0.0, 15.0])  # deliberately unsorted
    plan = singleton_plan(f, CFG)
    assert plan.N == 3
    xs = [plan.hover(n)[0] for n in range(1, 4)]
    assert xs == sorted(xs)
    for n in range(1, 4):
        (i,) = plan.members(n)
        assert plan.hover(n) == f.position(i)
    assert plan.D[1] == pytest.approx(15.0)
    assert plan.D[2] == pytest.approx(15.0)


def test_singleton_plan_custom_start():
    f = _row_field([10.0, 20.0])
    plan = singleton_plan(f, CFG, start_point=(0.0, 0.0))
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
    assert len(rows) == 1 + plan.field.K
    assert rows[1][0] == "1"
    assert rows[1][7] in ("odd", "even")
