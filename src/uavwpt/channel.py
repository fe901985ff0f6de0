"""Channel gains and harvested-energy coefficients.

The downlink (power) and uplink (data) channels follow a free-space
inverse-square law with gain k0 at 1 m: gain = k0 / (dist^2 + A^2) for a
UAV at altitude A and horizontal distance dist.  Harvested energy for a
sensor splits into a hover part (fixed position, coefficient a) and a
flight part (leg-averaged, coefficient b), so that

    E_i = eta * P_t * k0 * (a_i * tau_prev + b_i * zeta_n)

and the group uplink rate during its hover is

    R_n = 0.5 * ln(1 + gamma_n * (a_n * tau_prev + b_n * zeta_n) / tau_n)

in nats/s/Hz (`stm.delivered_information` evaluates it), where a_n
and b_n sum the members' a_i and b_i and gamma_n sums their uplink
gains.  The solvers see a group only through
these three aggregates.  `leg_average_inverse_sq` is the one formula
for b_i: `experiments.generate_trial` calls it once per grouped member
attempt, with a_i computed inline as `point_inverse_sq` computes it,
and a trial's baseline calls it once per stop when it is first read
(each a_i is 1/A^2, right overhead); each accepted member's pair is
range-checked and added, with the member's uplink gains, to its group's
running sums (a_n, b_n, h_n), and `GroupCoefficients.scaled` forms
gamma_n = snr * h_n at a radio's transmit power and noise.  Everything
here is a pure function of immutable inputs.

Antenna k of M (1-based) sits (k-1)*delta from the hover point along
+y, perpendicular to the rows; antenna 1 transmits energy and antennas
2..M receive data, so the uplink gain from a sensor at horizontal
distance L_k to antenna k is k0 / (L_k^2 + A^2).  `ChannelParams`
holds the whole radio: the array's M and delta, the altitude and the
power-transfer constants.
"""

from dataclasses import dataclass
from functools import cached_property
from math import atan2, inf, sqrt

from .errors import ConfigError, NumericDomainError, PlanError
from .geometry import Point


@dataclass(frozen=True)
class ChannelParams:
    """The UAV's radio: its antenna array and the energy-harvesting
    link parameters.

    k0      linear channel power gain at 1 m reference distance
    sigma2  receiver noise power, watts
    eta     energy-harvesting efficiency, in (0, 1]
    P_t     UAV transmit power, watts
    A       flight altitude, meters
    M       antennas: 1 transmit + M-1 receive
    delta   inter-antenna spacing, meters
    """

    k0: float
    sigma2: float
    eta: float
    P_t: float
    A: float
    M: int
    delta: float

    def __post_init__(self):
        for name in ("k0", "sigma2", "P_t", "A", "delta"):
            value = getattr(self, name)
            if not 0.0 < value < inf:
                raise ConfigError(
                    f"{name}={value} must be positive and finite")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta={self.eta} must lie in (0, 1]")
        # nan fails the first test; inf % 1 is nan, which fails the second
        if not (self.M >= 2 and self.M % 1 == 0):
            raise ConfigError(f"need an integer M >= 2 antennas "
                              f"(1 transmit + receive), got {self.M}")
        if not 0.0 < self.snr < inf:
            raise ConfigError(f"SNR scale eta*P_t*k0/sigma2={self.snr} "
                              f"must be positive and finite")

    @classmethod
    def from_db(cls, k0_db: float, sigma2_dbm: float, pt_db: float,
                eta: float, altitude: float, M: int,
                delta: float) -> "ChannelParams":
        """Build from the usual logarithmic units.

        k0_db is dB relative to unity, sigma2_dbm is dBm, pt_db is dBW.
        A level too large for a float is a ConfigError.
        """
        try:
            k0, sigma2_mw, P_t = [10.0 ** (x / 10.0)
                                  for x in (k0_db, sigma2_dbm, pt_db)]
        except OverflowError:
            raise ConfigError(
                f"a level overflows a float: k0_db={k0_db}, "
                f"sigma2_dbm={sigma2_dbm}, pt_db={pt_db}") from None
        return cls(
            k0=k0,
            sigma2=sigma2_mw * 1e-3,
            eta=eta,
            P_t=P_t,
            A=altitude,
            M=M,
            delta=delta,
        )

    @property
    def energy_scale(self) -> float:
        """eta * P_t * k0, the joules-per-(coefficient*second) factor."""
        return self.eta * self.P_t * self.k0

    @cached_property
    def snr(self) -> float:
        """energy_scale / sigma2, the SNR scale of every uplink gain."""
        return self.energy_scale / self.sigma2


def point_inverse_sq(p: Point, w: Point, A: float) -> float:
    """1 / (|p - w|^2 + A^2) for ground points p (UAV) and w (sensor)."""
    dx = p[0] - w[0]
    dy = p[1] - w[1]
    return 1.0 / (dx * dx + dy * dy + A * A)


def leg_average_inverse_sq(lx: float, ly: float, d: float, wx: float,
                           wy: float, A2: float) -> float:
    """Average of 1/(dist^2 + A^2) over a straight leg of vector
    (lx, ly) and length d, for a sensor offset (wx, wy) from its start.

    With s the arc length along the leg, s_w the projection of the
    sensor onto the leg, and c^2 = A2 + (perpendicular offset)^2, the
    integrand is 1/((s - s_w)^2 + c^2), whose average over [0, d] is

        [arctan((d - s_w)/c) - arctan(-s_w/c)] / (d * c).

    A zero-length leg gives the point value 1/(wx^2 + wy^2 + A2).
    """
    if d == 0.0:
        return 1.0 / (wx * wx + wy * wy + A2)
    s_w = (wx * lx + wy * ly) / d
    perp_sq = wx * wx + wy * wy - s_w * s_w
    if perp_sq < 0.0:
        perp_sq = 0.0
    c = sqrt(A2 + perp_sq)
    return (atan2(d - s_w, c) - atan2(-s_w, c)) / (d * c)


@dataclass(frozen=True)
class GroupCoefficients:
    """Per-group aggregates, length-N tuples: a_n and b_n sum the
    members' hover and flight harvesting coefficients, gamma_n is the
    SNR scale eta P_t k0 / sigma2 times the members' summed uplink
    gains over receive antennas 2..M."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self):
        n = len(self.a)
        if not len(self.b) == len(self.gamma) == n:
            raise PlanError("coefficient sequences disagree in length")
        if n < 1:
            raise PlanError("need at least one group")
        for seq, name in ((self.a, "a"), (self.b, "b"), (self.gamma, "gamma")):
            _check_coefficients(seq, name)

    @property
    def N(self) -> int:
        return len(self.a)

    @classmethod
    def scaled(cls, sums, params: ChannelParams) -> "GroupCoefficients":
        """A plan's per-group sums (a, b, h) (see the module) under radio
        `params`: gamma_n = snr * h_n, with snr = eta P_t k0 / sigma2."""
        a, b, h = sums
        snr = params.snr
        return cls(a=a, b=b, gamma=tuple([snr * h_n for h_n in h]))

    def rescaled(self, h, params: ChannelParams) -> "GroupCoefficients":
        """`scaled` of the sums (self.a, self.b, h), which checks only the
        new gamma: a and b were checked when `self` was built."""
        snr = params.snr
        gamma = tuple([snr * h_n for h_n in h])
        if len(gamma) != self.N:
            raise PlanError("coefficient sequences disagree in length")
        _check_coefficients(gamma, "gamma")
        out = object.__new__(GroupCoefficients)
        out.__dict__.update(a=self.a, b=self.b, gamma=gamma)
        return out


def _check_coefficients(seq, name: str) -> None:
    for v in seq:
        if not 0.0 < v < inf:
            raise NumericDomainError(
                f"coefficient {name} must be "
                f"{'finite' if v == inf else 'positive'}, got {v}")
