"""Channel gains, harvested-energy coefficients, and the group uplink rate.

The downlink (power) and uplink (data) channels follow a free-space
inverse-square law with gain k0 at 1 m: gain = k0 / (dist^2 + A^2) for a
UAV at altitude A and horizontal distance dist.  Harvested energy for a
sensor splits into a hover part (fixed position, coefficient a) and a
flight part (leg-averaged, coefficient b), so that

    E_i = eta * P_t * k0 * (a_i * tau_prev + b_i * zeta_n)

and the group uplink rate during its hover is

    R_n = 0.5 * ln(1 + gamma_n * (a_n * tau_prev + b_n * zeta_n) / tau_n)

in nats/s/Hz.  Everything here is a pure function of immutable inputs.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError, NumericDomainError, PlanError
from .geometry import ArrayConfig, GroupPlan, Point, horizontal_distance


@dataclass(frozen=True)
class ChannelParams:
    """Radio and energy-harvesting parameters.

    k0      linear channel power gain at 1 m reference distance
    sigma2  receiver noise power, watts
    eta     energy-harvesting efficiency, in (0, 1]
    P_t     UAV transmit power, watts
    A       flight altitude, meters
    """

    k0: float
    sigma2: float
    eta: float
    P_t: float
    A: float

    def __post_init__(self):
        if self.k0 <= 0.0 or self.sigma2 <= 0.0 or self.P_t <= 0.0:
            raise ConfigError("k0, sigma2 and P_t must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta={self.eta} must lie in (0, 1]")
        if self.A <= 0.0:
            raise ConfigError("altitude must be positive")

    @classmethod
    def from_db(cls, k0_db: float, sigma2_dbm: float, pt_db: float,
                eta: float, altitude: float) -> "ChannelParams":
        """Build from the usual logarithmic units.

        k0_db is dB relative to unity, sigma2_dbm is dBm, pt_db is dBW.
        """
        return cls(
            k0=10.0 ** (k0_db / 10.0),
            sigma2=10.0 ** (sigma2_dbm / 10.0) * 1e-3,
            eta=eta,
            P_t=10.0 ** (pt_db / 10.0),
            A=altitude,
        )

    @property
    def energy_scale(self) -> float:
        """eta * P_t * k0, the joules-per-(coefficient*second) factor."""
        return self.eta * self.P_t * self.k0


def point_inverse_sq(p: Point, w: Point, A: float) -> float:
    """1 / (|p - w|^2 + A^2) for ground points p (UAV) and w (sensor)."""
    dx = p[0] - w[0]
    dy = p[1] - w[1]
    return 1.0 / (dx * dx + dy * dy + A * A)


def leg_average_inverse_sq(p0: Point, p1: Point, w: Point, A: float) -> float:
    """Average of 1/(dist^2 + A^2) over a straight leg p0 -> p1.

    With s the arc length along the leg, s_w the projection of the
    sensor onto the leg, and c^2 = A^2 + (perpendicular offset)^2, the
    integrand is 1/((s - s_w)^2 + c^2), whose average over [0, D] is

        [arctan((D - s_w)/c) - arctan(-s_w/c)] / (D * c).

    A zero-length leg degenerates to the point value at p0.
    """
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    D = math.hypot(dx, dy)
    if D == 0.0:
        return point_inverse_sq(p0, w, A)
    wx = w[0] - p0[0]
    wy = w[1] - p0[1]
    s_w = (wx * dx + wy * dy) / D
    perp_sq = max(wx * wx + wy * wy - s_w * s_w, 0.0)
    c = math.sqrt(A * A + perp_sq)
    return (math.atan2(D - s_w, c) - math.atan2(-s_w, c)) / (D * c)


def uplink_gain(plan: GroupPlan, cfg: ArrayConfig, params: ChannelParams,
                n: int, k: int, i: int) -> float:
    """Power gain from sensor i to receive antenna k at hover point n."""
    if k == 1:
        raise PlanError("antenna 1 is transmit-only; uplink needs k >= 2")
    if i not in plan.members(n):
        raise PlanError(f"sensor {i} is not served by group {n}")
    L = horizontal_distance(plan, cfg, n, k, i)
    return params.k0 / (L * L + params.A * params.A)


def coeff_a(plan: GroupPlan, params: ChannelParams, n: int, i: int) -> float:
    """Hover-phase harvesting coefficient of sensor i for hover point n."""
    w = plan.field.position(i)
    return point_inverse_sq(plan.hover(n), w, params.A)


def coeff_b(plan: GroupPlan, params: ChannelParams, n: int, i: int) -> float:
    """Flight-phase harvesting coefficient of sensor i over leg n."""
    p0, p1 = plan.leg(n)
    w = plan.field.position(i)
    return leg_average_inverse_sq(p0, p1, w, params.A)


def harvested_energy(params: ChannelParams, coeffs: "GroupCoefficients",
                     n: int, i: int, tau_prev: float, zeta_n: float) -> float:
    """Energy (joules) sensor i collects before its group's hover n:
    tau_prev seconds of hover at the previous stop plus zeta_n seconds of
    inbound flight."""
    if tau_prev < 0.0 or zeta_n < 0.0:
        raise NumericDomainError("durations must be nonnegative")
    a_i = coeffs.a_sensor[n - 1][i]
    b_i = coeffs.b_sensor[n - 1][i]
    return params.energy_scale * (a_i * tau_prev + b_i * zeta_n)


def group_rate(coeffs: "GroupCoefficients", n: int, tau_prev: float,
               zeta_n: float, tau_n: float) -> float:
    """Uplink rate of group n (nats/s/Hz) during a hover of length tau_n,
    after harvesting for tau_prev (hover) and zeta_n (flight) seconds."""
    if tau_n <= 0.0:
        raise NumericDomainError(f"tau_n={tau_n} must be positive")
    energy = (coeffs.a[n - 1] * tau_prev + coeffs.b[n - 1] * zeta_n)
    if energy < 0.0:
        raise NumericDomainError("negative harvested-energy term")
    return 0.5 * math.log1p(coeffs.gamma[n - 1] * energy / tau_n)


@dataclass(frozen=True)
class GroupCoefficients:
    """Per-group aggregates (a_n, b_n, gamma_n) plus the per-sensor
    breakdown they were summed from.

    a, b, gamma  length-N tuples; a_n = sum of member a_i, likewise b_n
    a_sensor     tuple of {sensor_id: a_i} per group
    b_sensor     tuple of {sensor_id: b_i} per group
    h            tuple of {(k, sensor_id): uplink gain} per group
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    gamma: tuple[float, ...]
    a_sensor: tuple[dict, ...]
    b_sensor: tuple[dict, ...]
    h: tuple[dict, ...]

    def __post_init__(self):
        n = len(self.a)
        if not (len(self.b) == len(self.gamma) == len(self.a_sensor)
                == len(self.b_sensor) == len(self.h) == n):
            raise PlanError("coefficient sequences disagree in length")
        if n < 1:
            raise PlanError("need at least one group")
        for seq, name in ((self.a, "a"), (self.b, "b"), (self.gamma, "gamma")):
            for v in seq:
                if not v > 0.0:
                    raise NumericDomainError(
                        f"coefficient {name} must be positive, got {v}")

    @property
    def N(self) -> int:
        return len(self.a)


def group_coefficients(plan: GroupPlan, cfg: ArrayConfig,
                       params: ChannelParams) -> GroupCoefficients:
    """Compute every coefficient the solvers need for a plan."""
    cap = 1.0 / (params.A * params.A)
    a, b, gamma = [], [], []
    a_sensor, b_sensor, h = [], [], []
    for n in range(1, plan.N + 1):
        ai = {}
        bi = {}
        hi = {}
        for i in plan.members(n):
            av = coeff_a(plan, params, n, i)
            bv = coeff_b(plan, params, n, i)
            if not 0.0 < av <= cap * (1.0 + 1e-12):
                raise NumericDomainError(
                    f"group {n}: hover coefficient {av} outside (0, 1/A^2]")
            if not 0.0 < bv <= cap * (1.0 + 1e-12):
                raise NumericDomainError(
                    f"group {n}: flight coefficient {bv} outside (0, 1/A^2]")
            ai[i] = av
            bi[i] = bv
            for k in range(2, cfg.M + 1):
                hi[(k, i)] = uplink_gain(plan, cfg, params, n, k, i)
        a.append(sum(ai.values()))
        b.append(sum(bi.values()))
        gamma.append(params.energy_scale / params.sigma2 * sum(hi.values()))
        a_sensor.append(ai)
        b_sensor.append(bi)
        h.append(hi)
    return GroupCoefficients(
        a=tuple(a), b=tuple(b), gamma=tuple(gamma),
        a_sensor=tuple(a_sensor), b_sensor=tuple(b_sensor), h=tuple(h))
