"""Spatial model: sensor fields, serving groups along serpentine rows,
antenna geometry, distances, and mission feasibility checks.

Conventions used throughout the package:

* sensor ids are 1-based and stable for the lifetime of a field;
* group indices n are 1-based; leg n is the straight flight from the
  previous stop (the start point for n = 1) to hover point n;
* antenna indices k are 1-based; antenna 1 transmits energy, antennas
  2..M receive data; the array lies along +y, perpendicular to the
  rows, with spacing delta.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasiblePlanError, PlanError

Point = tuple[float, float]


@dataclass(frozen=True)
class SensorField:
    """K sensor positions inside a bounding rectangle."""

    sensors: tuple[Point, ...]
    region: tuple[Point, Point]  # (min corner, max corner)

    def __post_init__(self):
        if len(self.sensors) < 1:
            raise ConfigError("sensor field needs at least one sensor")
        (x0, y0), (x1, y1) = self.region
        if x1 < x0 or y1 < y0:
            raise ConfigError("field region corners are out of order")
        for i, (x, y) in enumerate(self.sensors, start=1):
            if not (x0 <= x <= x1 and y0 <= y <= y1):
                raise ConfigError(
                    f"sensor {i} at ({x}, {y}) lies outside the region")

    @property
    def K(self) -> int:
        return len(self.sensors)

    def position(self, i: int) -> Point:
        """Position of sensor id i (1-based)."""
        if not 1 <= i <= self.K:
            raise PlanError(f"sensor id {i} out of range 1..{self.K}")
        return self.sensors[i - 1]


@dataclass(frozen=True)
class ArrayConfig:
    """UAV antenna array and power-transfer range parameters."""

    M: int
    delta: float      # inter-antenna spacing, m
    altitude: float   # flight altitude A, m
    d_max: float      # maximum effective power-transfer distance, m

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 2:
            raise ConfigError("need M >= 2 antennas (1 transmit + receive)")
        if self.delta <= 0.0:
            raise ConfigError("antenna spacing must be positive")
        if self.altitude <= 0.0:
            raise ConfigError("altitude must be positive")
        if self.d_max <= self.altitude:
            raise ConfigError(
                f"d_max={self.d_max} must exceed altitude={self.altitude} "
                "for a real ground coverage radius")

    @property
    def l_max(self) -> float:
        """Ground-plane coverage radius sqrt(d_max^2 - A^2)."""
        return math.sqrt(self.d_max ** 2 - self.altitude ** 2)


@dataclass(frozen=True)
class GroupPlan:
    """Ordered partition of sensors into serving groups with hover points.

    D[n-1] is the length of leg n; row_of_group holds the 1-based row
    index of each group, whose parity decides the traversal direction
    (odd rows run +x, even rows -x).  spacing_violations lists groups n
    where dis_n + dis_{n+1} fails to exceed d_max; this is recorded, not
    enforced, because dense single-sensor plans legitimately violate it.
    """

    field: SensorField
    groups: tuple[tuple[int, ...], ...]
    hover_points: tuple[Point, ...]
    D: tuple[float, ...]
    row_of_group: tuple[int, ...]
    rows: tuple[float, ...]
    start_point: Point
    spacing_violations: tuple[int, ...] = ()

    def __post_init__(self):
        n_groups = len(self.groups)
        if n_groups < 1:
            raise PlanError("plan needs at least one group")
        if not (len(self.hover_points) == len(self.D)
                == len(self.row_of_group) == n_groups):
            raise PlanError("per-group sequences disagree in length")
        seen = set()
        for g, members in enumerate(self.groups, start=1):
            if not members:
                raise PlanError(f"group {g} is empty")
            for i in members:
                if not 1 <= i <= self.field.K:
                    raise PlanError(f"group {g} references unknown sensor {i}")
                if i in seen:
                    raise PlanError(f"sensor {i} appears in more than one group")
                seen.add(i)
        for g, d in enumerate(self.D, start=1):
            if not d > 0.0:
                raise PlanError(f"leg {g} has non-positive length {d}")

    @property
    def N(self) -> int:
        return len(self.groups)

    def members(self, n: int) -> tuple[int, ...]:
        self._check_group(n)
        return self.groups[n - 1]

    def hover(self, n: int) -> Point:
        self._check_group(n)
        return self.hover_points[n - 1]

    def leg(self, n: int) -> tuple[Point, Point]:
        """Endpoints of flight leg n (previous stop -> hover point n)."""
        self._check_group(n)
        start = self.start_point if n == 1 else self.hover_points[n - 2]
        return start, self.hover_points[n - 1]

    def row_parity(self, n: int) -> str:
        self._check_group(n)
        return "odd" if self.row_of_group[n - 1] % 2 == 1 else "even"

    def _check_group(self, n: int):
        if not 1 <= n <= self.N:
            raise PlanError(f"group index {n} out of range 1..{self.N}")


def generate_field(K: int, region: tuple[Point, Point], seed: int) -> SensorField:
    """Draw K sensors uniformly in a rectangle, reproducibly for a seed."""
    if K < 1:
        raise ConfigError("need K >= 1 sensors")
    (x0, y0), (x1, y1) = region
    if x1 <= x0 or y1 <= y0:
        raise ConfigError("field region must have positive area")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x0, x1, K)
    ys = rng.uniform(y0, y1, K)
    sensors = tuple((float(x), float(y)) for x, y in zip(xs, ys))
    return SensorField(sensors=sensors, region=((x0, y0), (x1, y1)))


def load_field(path) -> SensorField:
    """Read a field from plain text: one `x y` pair per line, `#` comments."""
    sensors = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'x y', got {raw.strip()!r}")
                try:
                    sensors.append((float(parts[0]), float(parts[1])))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc
    if not sensors:
        raise ConfigError(f"field file {path} contains no sensors")
    xs = [s[0] for s in sensors]
    ys = [s[1] for s in sensors]
    region = ((min(xs), min(ys)), (max(xs), max(ys)))
    return SensorField(sensors=tuple(sensors), region=region)


def save_field(field_: SensorField, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# sensor positions, one 'x y' pair per line (meters)\n")
        for x, y in field_.sensors:
            fh.write(f"{x:.12g} {y:.12g}\n")


def write_plan_csv(plan: GroupPlan, path):
    """Emit one row per sensor: group,sensor_id,x,y,hover_x,hover_y,D_n,row_parity."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("group,sensor_id,x,y,hover_x,hover_y,D_n,row_parity\n")
        for n in range(1, plan.N + 1):
            hx, hy = plan.hover(n)
            d = plan.D[n - 1]
            parity = plan.row_parity(n)
            for i in plan.members(n):
                x, y = plan.field.position(i)
                fh.write(f"{n},{i},{x:.12g},{y:.12g},{hx:.12g},{hy:.12g},"
                         f"{d:.12g},{parity}\n")


def _serpentine_order(field_: SensorField, rows: tuple[float, ...]):
    """Assign sensors to nearest rows and order them along the serpentine
    traversal (rows bottom to top; odd rows +x, even rows -x)."""
    per_row: list[list[int]] = [[] for _ in rows]
    for i in range(1, field_.K + 1):
        _, y = field_.position(i)
        r = min(range(len(rows)), key=lambda j: (abs(rows[j] - y), j))
        per_row[r].append(i)
    order = []
    row_of_sensor = {}
    for r, ids in enumerate(per_row, start=1):
        ids.sort(key=lambda i: field_.position(i)[0], reverse=(r % 2 == 0))
        for i in ids:
            row_of_sensor[i] = r
        order.extend(ids)
    return order, row_of_sensor


def _contiguous_split(order, N):
    """Split a sequence into N contiguous runs with balanced sizes."""
    K = len(order)
    base, extra = divmod(K, N)
    runs = []
    pos = 0
    for g in range(N):
        size = base + (1 if g < extra else 0)
        runs.append(list(order[pos:pos + size]))
        pos += size
    return runs


def _hover_of_run(field_: SensorField, run, row_of_sensor, rows):
    """Hover point of a run: mean member x on the run's dominant row."""
    counts: dict[int, int] = {}
    for i in run:
        counts[row_of_sensor[i]] = counts.get(row_of_sensor[i], 0) + 1
    # majority row; ties resolved toward the later (upper) row
    row = max(sorted(counts), key=lambda r: (counts[r], r))
    x = sum(field_.position(i)[0] for i in run) / len(run)
    return (x, rows[row - 1]), row


def plan_groups(field_: SensorField, cfg: ArrayConfig, N: int,
                row_ys) -> GroupPlan:
    """Partition a field into N ordered serving groups.

    Sensors are ordered by serpentine traversal and split into N
    contiguous runs of balanced size; hover points sit at the mean x of
    each run on its row.  Runs whose members fall outside the coverage
    radius are repaired by shedding their farthest boundary member to a
    neighbouring run; if that cannot restore coverage, or consecutive
    hover points end up farther apart than d_max, the plan is infeasible.
    """
    if N < 1:
        raise PlanError("need at least one group")
    if N > field_.K:
        raise PlanError(f"cannot form {N} groups from {field_.K} sensors")
    rows = tuple(sorted(float(y) for y in row_ys))
    if not rows:
        raise PlanError("need at least one row")

    order, row_of_sensor = _serpentine_order(field_, rows)
    runs = _contiguous_split(order, N)
    radius = cfg.l_max

    def coverage_violation(run):
        """(worst member, worst distance) against the run's hover point."""
        (hx, hy), _ = _hover_of_run(field_, run, row_of_sensor, rows)
        worst_i, worst_d = None, radius
        for i in run:
            x, y = field_.position(i)
            d = math.hypot(x - hx, y - hy)
            if d > worst_d:
                worst_i, worst_d = i, d
        return worst_i, worst_d

    # greedy repair: move an uncovered boundary member to the adjacent run
    for _ in range(field_.K):
        moved = False
        for g, run in enumerate(runs):
            worst_i, _ = coverage_violation(run)
            if worst_i is None:
                continue
            if len(run) > 1 and run[0] == worst_i and g > 0:
                runs[g - 1].append(run.pop(0))
                moved = True
            elif len(run) > 1 and run[-1] == worst_i and g < N - 1:
                runs[g + 1].insert(0, run.pop())
                moved = True
            else:
                raise InfeasiblePlanError(
                    f"group {g + 1}: sensor {worst_i} cannot be covered "
                    f"within the {radius:.3f} m radius of any hover point")
            break
        if not moved:
            break
    for g, run in enumerate(runs):
        worst_i, worst_d = coverage_violation(run)
        if worst_i is not None:
            raise InfeasiblePlanError(
                f"group {g + 1}: sensor {worst_i} lies {worst_d:.3f} m from "
                f"its hover point, beyond the {radius:.3f} m coverage radius")

    hovers = []
    group_rows = []
    for run in runs:
        hover, row = _hover_of_run(field_, run, row_of_sensor, rows)
        hovers.append(hover)
        group_rows.append(row)

    # leg lengths; hover-to-hover spacing doubles as dis_n for n >= 2
    dists = [math.hypot(hovers[g][0] - hovers[g - 1][0],
                        hovers[g][1] - hovers[g - 1][1])
             for g in range(1, N)]
    for g, d in enumerate(dists, start=2):
        if d > cfg.d_max:
            raise InfeasiblePlanError(
                f"group {g}: hover spacing {d:.3f} m exceeds d_max={cfg.d_max} m")
        if d <= 0.0:
            raise PlanError(
                f"group {g}: coincident hover points (duplicate sensors?)")
    shift = (sum(dists) / len(dists)) if dists else cfg.d_max / 2.0
    direction = 1.0 if group_rows[0] % 2 == 1 else -1.0
    start = (hovers[0][0] - direction * shift, hovers[0][1])
    D = [math.hypot(hovers[0][0] - start[0], hovers[0][1] - start[1])] + dists

    violations = tuple(
        n for n in range(2, N)  # pairs (dis_n, dis_{n+1}), n >= 2
        if dists[n - 2] + dists[n - 1] <= cfg.d_max)

    return GroupPlan(
        field=field_,
        groups=tuple(tuple(run) for run in runs),
        hover_points=tuple(hovers),
        D=tuple(D),
        row_of_group=tuple(group_rows),
        rows=rows,
        start_point=start,
        spacing_violations=violations,
    )


def horizontal_distance(plan: GroupPlan, cfg: ArrayConfig, n: int, k: int,
                        i: int) -> float:
    """Ground-plane distance from antenna k at hover point n to sensor i.

    Antenna k sits (k-1)*delta above the hover point along +y.
    """
    if not 1 <= k <= cfg.M:
        raise PlanError(f"antenna index {k} out of range 1..{cfg.M}")
    hx, hy = plan.hover(n)
    x, y = plan.field.position(i)
    return math.hypot(hx - x, hy + (k - 1) * cfg.delta - y)


@dataclass(frozen=True)
class FeasibilityReport:
    """Both feasibility left-hand sides against the mission budget.

    travel_time is the binding check (total flight time at top speed
    must fit in T); antenna_distance_sum reproduces the aggregate
    antenna-to-sensor distance test against v_max*T for reference, even
    though it has no travel-time interpretation.
    """

    travel_time: float
    budget: float
    travel_ok: bool
    antenna_distance_sum: float
    distance_cap: float
    antenna_distance_ok: bool

    @property
    def feasible(self) -> bool:
        return self.travel_ok


def check_feasibility(plan: GroupPlan, cfg: ArrayConfig, v_max: float,
                      T: float) -> tuple[bool, FeasibilityReport]:
    """Can the mission fit in T seconds at top speed v_max?"""
    if v_max <= 0.0 or T <= 0.0:
        raise ConfigError("v_max and T must be positive")
    travel = sum(plan.D) / v_max
    dist_sum = 0.0
    for n in range(1, plan.N + 1):
        for i in plan.members(n):
            for k in range(2, cfg.M + 1):
                dist_sum += horizontal_distance(plan, cfg, n, k, i)
    report = FeasibilityReport(
        travel_time=travel,
        budget=T,
        travel_ok=travel <= T,
        antenna_distance_sum=dist_sum,
        distance_cap=v_max * T,
        antenna_distance_ok=dist_sum <= v_max * T,
    )
    return report.feasible, report


def singleton_plan(field_: SensorField, cfg: ArrayConfig,
                   start_point: Point | None = None) -> GroupPlan:
    """One group per sensor, hovering directly over each sensor, visited
    in x order.  Used by the single-receive-antenna comparison scheme."""
    ids = sorted(range(1, field_.K + 1),
                 key=lambda i: (field_.position(i)[0], i))
    hovers = [field_.position(i) for i in ids]
    if start_point is None:
        spacing = [math.hypot(hovers[g][0] - hovers[g - 1][0],
                              hovers[g][1] - hovers[g - 1][1])
                   for g in range(1, len(hovers))]
        shift = (sum(spacing) / len(spacing)) if spacing else cfg.d_max / 2.0
        start_point = (hovers[0][0] - shift, hovers[0][1])
    D = []
    prev = start_point
    for h in hovers:
        D.append(math.hypot(h[0] - prev[0], h[1] - prev[1]))
        prev = h
    mean_y = sum(h[1] for h in hovers) / len(hovers)
    return GroupPlan(
        field=field_,
        groups=tuple((i,) for i in ids),
        hover_points=tuple(hovers),
        D=tuple(D),
        row_of_group=tuple(1 for _ in ids),
        rows=(mean_y,),
        start_point=start_point,
    )
