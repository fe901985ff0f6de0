"""Spatial model: serving groups of sensors along serpentine rows, and
`leg_floors`, the one leg-time function every feasibility check reads.

Conventions used throughout the package:

* sensor ids are 1-based indices into a plan's sensor positions;
* group indices n are 1-based; leg n is the straight flight from the
  previous stop (the start point for n = 1) to hover point n;
* where the antennas sit relative to a hover point is set out in
  `channel`, which is the only module that places them.
"""

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from .errors import ConfigError, InfeasiblePlanError, PlanError

Point = tuple[float, float]


@dataclass(frozen=True)
class GroupPlan:
    """Sensor positions and their ordered partition into serving groups
    with hover points.

    sensors[i-1] is the position of sensor id i; D[n-1] is the length of
    leg n; row_of_group holds the 1-based row index of each group, whose
    parity decides the traversal direction (odd rows run +x, even rows -x).
    """

    sensors: tuple[Point, ...]
    groups: tuple[tuple[int, ...], ...]
    hover_points: tuple[Point, ...]
    D: tuple[float, ...]
    row_of_group: tuple[int, ...]
    start_point: Point

    def __post_init__(self):
        n_groups = len(self.groups)
        if n_groups < 1:
            raise PlanError("plan needs at least one group")
        if not (len(self.hover_points) == len(self.D)
                == len(self.row_of_group) == n_groups):
            raise PlanError("per-group sequences disagree in length")
        K = len(self.sensors)
        seen = set()
        for g, members in enumerate(self.groups, start=1):
            if not members:
                raise PlanError(f"group {g} is empty")
            for i in members:
                if not 1 <= i <= K:
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

    def position(self, i: int) -> Point:
        """Position of sensor id i (1-based)."""
        if not 1 <= i <= len(self.sensors):
            raise PlanError(
                f"sensor id {i} out of range 1..{len(self.sensors)}")
        return self.sensors[i - 1]

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


def load_field(path) -> tuple[Point, ...]:
    """Read sensor positions from plain text: one `x y` pair per line,
    `#` comments."""
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
                    x, y = float(parts[0]), float(parts[1])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ConfigError(f"{path}:{lineno}: coordinates must "
                                      f"be finite, got {raw.strip()!r}")
                sensors.append((x, y))
    except OSError as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc
    if not sensors:
        raise ConfigError(f"field file {path} contains no sensors")
    return tuple(sensors)


def write_plan_csv(plan: GroupPlan, path):
    """Emit one row per sensor: group,sensor_id,x,y,hover_x,hover_y,D_n,row_parity."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("group,sensor_id,x,y,hover_x,hover_y,D_n,row_parity\n")
        for n in range(1, plan.N + 1):
            hx, hy = plan.hover(n)
            d = plan.D[n - 1]
            parity = plan.row_parity(n)
            for i in plan.members(n):
                x, y = plan.position(i)
                fh.write(f"{n},{i},{x:.12g},{y:.12g},{hx:.12g},{hy:.12g},"
                         f"{d:.12g},{parity}\n")


def _serpentine_order(sensors, rows: tuple[float, ...]):
    """Assign sensors to nearest rows and order them along the serpentine
    traversal (rows bottom to top; odd rows +x, even rows -x)."""
    per_row: list[list[int]] = [[] for _ in rows]
    for i, (_, y) in enumerate(sensors, start=1):
        r = min(range(len(rows)), key=lambda j: (abs(rows[j] - y), j))
        per_row[r].append(i)
    order = []
    row_of_sensor = {}
    for r, ids in enumerate(per_row, start=1):
        ids.sort(key=lambda i: sensors[i - 1][0], reverse=(r % 2 == 0))
        for i in ids:
            row_of_sensor[i] = r
        order.extend(ids)
    return order, row_of_sensor


def group_sizes(K: int, N: int) -> list[int]:
    """Balanced sizes of N groups of K sensors: the first K mod N groups
    take one extra."""
    base, extra = divmod(K, N)
    return [base + (1 if g < extra else 0) for g in range(N)]


def _contiguous_split(order, N):
    """Split a sequence into N contiguous runs of `group_sizes`."""
    runs = []
    pos = 0
    for size in group_sizes(len(order), N):
        runs.append(list(order[pos:pos + size]))
        pos += size
    return runs


def _hover_of_run(sensors, run, row_of_sensor, rows):
    """Hover point of a run: mean member x on the run's dominant row."""
    counts: dict[int, int] = {}
    for i in run:
        counts[row_of_sensor[i]] = counts.get(row_of_sensor[i], 0) + 1
    # majority row; ties resolved toward the later (upper) row
    row = max(sorted(counts), key=lambda r: (counts[r], r))
    # left folds (reduce) where sum() would do: from CPython 3.12 sum()
    # of floats is compensated and rounds differently
    x = reduce(add, (sensors[i - 1][0] for i in run), 0.0) / len(run)
    return (x, rows[row - 1]), row


def plan_groups(sensors: tuple[Point, ...], altitude: float, d_max: float,
                N: int, row_ys) -> GroupPlan:
    """Partition sensors (id i at sensors[i-1]) into N ordered serving
    groups, for a UAV at `altitude` whose power transfer reaches d_max.

    The coverage radius on the ground is sqrt(d_max^2 - altitude^2).
    Sensors are ordered by serpentine traversal and split into N
    contiguous runs of balanced size; hover points sit at the mean x of
    each run on its row.  Runs whose members fall outside the coverage
    radius are repaired by shedding their farthest boundary member to a
    neighbouring run; if that cannot restore coverage, or consecutive
    hover points end up farther apart than d_max, the plan is infeasible.
    """
    if not 0.0 < altitude < d_max:
        raise ConfigError(
            f"need 0 < altitude < d_max for a real ground coverage "
            f"radius, got altitude={altitude}, d_max={d_max}")
    if N < 1:
        raise PlanError("need at least one group")
    K = len(sensors)
    if N > K:
        raise PlanError(f"cannot form {N} groups from {K} sensors")
    rows = tuple(sorted(float(y) for y in row_ys))
    if not rows:
        raise PlanError("need at least one row")

    order, row_of_sensor = _serpentine_order(sensors, rows)
    runs = _contiguous_split(order, N)
    radius = math.sqrt(d_max ** 2 - altitude ** 2)

    def coverage_violation(run):
        """(worst member, worst distance) against the run's hover point."""
        (hx, hy), _ = _hover_of_run(sensors, run, row_of_sensor, rows)
        worst_i, worst_d = None, radius
        for i in run:
            x, y = sensors[i - 1]
            d = math.hypot(x - hx, y - hy)
            if d > worst_d:
                worst_i, worst_d = i, d
        return worst_i, worst_d

    # greedy repair: move an uncovered boundary member to the adjacent run
    for _ in range(K):
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
        hover, row = _hover_of_run(sensors, run, row_of_sensor, rows)
        hovers.append(hover)
        group_rows.append(row)

    # leg lengths; hover-to-hover spacing doubles as dis_n for n >= 2
    dists = [math.hypot(hovers[g][0] - hovers[g - 1][0],
                        hovers[g][1] - hovers[g - 1][1])
             for g in range(1, N)]
    for g, d in enumerate(dists, start=2):
        if d > d_max:
            raise InfeasiblePlanError(
                f"group {g}: hover spacing {d:.3f} m exceeds d_max={d_max} m")
        if d <= 0.0:
            raise PlanError(
                f"group {g}: coincident hover points (duplicate sensors?)")
    shift = (reduce(add, dists, 0.0) / len(dists)) if dists else d_max / 2.0
    direction = 1.0 if group_rows[0] % 2 == 1 else -1.0
    start = (hovers[0][0] - direction * shift, hovers[0][1])
    D = [math.hypot(hovers[0][0] - start[0], hovers[0][1] - start[1])] + dists

    return GroupPlan(
        sensors=tuple(sensors),
        groups=tuple(tuple(run) for run in runs),
        hover_points=tuple(hovers),
        D=tuple(D),
        row_of_group=tuple(group_rows),
        start_point=start,
    )


def leg_floors(D, v_max: float, N: int) -> tuple:
    """Each leg's flight time at the speed cap, D_n / v_max, after
    checking v_max, then one leg per group of N, then every leg."""
    if not v_max > 0.0:
        raise ConfigError("v_max must be positive")
    if len(D) != N:
        raise ConfigError("need one leg length per group")
    for n, d in enumerate(D, start=1):
        if not d > 0.0:
            raise ConfigError(f"leg {n} has non-positive length")
    return tuple([d / v_max for d in D])


def check_feasibility(plan: GroupPlan, v_max: float,
                      T: float) -> tuple[bool, float]:
    """Can the mission fit in T seconds at top speed v_max?  Returns
    (feasible, travel time at top speed): the fsum of `leg_floors`."""
    if not v_max > 0.0 or not T > 0.0:
        raise ConfigError("v_max and T must be positive")
    travel = math.fsum(leg_floors(plan.D, v_max, plan.N))
    return travel <= T, travel


def singleton_legs(sensors: tuple[Point, ...], start_point: Point):
    """The one-sensor stops of the comparison scheme, visited in x order
    after flying in from start_point: (sensor ids, stops, leg lengths),
    each stop directly over its sensor."""
    order = sorted(zip([w[0] for w in sensors], range(1, len(sensors) + 1)))
    ids = [i for _, i in order]
    stops = [sensors[i - 1] for i in ids]
    # dist(h, prev) is hypot(h[0] - prev[0], h[1] - prev[1]), to the bit
    return ids, stops, tuple(map(math.dist, stops, [start_point] + stops))


def singleton_plan(sensors: tuple[Point, ...],
                   start_point: Point) -> GroupPlan:
    """One group per sensor, hovering directly over each sensor
    (`singleton_legs`).  Used by the single-receive-antenna comparison
    scheme."""
    ids, stops, D = singleton_legs(sensors, start_point)
    return GroupPlan(
        sensors=tuple(sensors),
        groups=tuple(zip(ids)),
        hover_points=tuple(stops),
        D=D,
        row_of_group=(1,) * len(ids),
        start_point=start_point,
    )
