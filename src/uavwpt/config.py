"""Scenario configuration: the single source of every physical and
experimental parameter, loadable from an INI file.

Key names in the file must match the dataclass fields exactly; unknown
keys or sections are hard errors because a silently ignored typo in a
physics parameter is the worst failure mode this tool has.  Values take
their field's annotated type; a config checks itself when it is built
and derives its two radios then, its own and the baseline's.
"""

import configparser
import functools
import math
from dataclasses import dataclass, fields, replace
from numbers import Real

from .channel import ChannelParams
from .errors import ConfigError


@dataclass(frozen=True)
class ScenarioConfig:
    """All tunables of a simulated mission.

    Units are embedded in the names: _db/_dbm logarithmic powers, _m
    meters, _s seconds, _mps meters/second, _nats information.
    """

    k0_db: float = -30.0          # channel gain at 1 m
    sigma2_dbm: float = -70.0     # receiver noise power
    A_m: float = 10.0             # flight altitude
    eta: float = 0.5              # energy-harvesting efficiency
    M: int = 3                    # antennas (1 transmit + M-1 receive)
    delta_m: float = 0.1          # antenna spacing
    v_max_mps: float = 10.0       # top speed
    T_s: float = 1000.0           # mission time budget (throughput mode)
    D_range_m: tuple = (20.0, 30.0)     # leg-length draw range [lo, hi)
    ytilde_range_m: tuple = (0.0, 5.0)  # flight-row offset draw range
    K: int = 20                   # sensors
    N: int = 4                    # serving groups
    pt_db: float = 4.0            # transmit power, dBW
    I_nats: float = 10.0          # per-sensor information demand
    d_max_m: float = 35.0         # max effective power-transfer distance
    trials: int = 1000
    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # type(...) is int: a bool is an int, but not a count
            if f.type is int:
                ok, kind = type(value) is int, "an integer"
            elif f.type is tuple:
                ok = isinstance(value, tuple) and all(map(_finite, value))
                kind = "a tuple of finite numbers"
            else:
                ok, kind = _finite(value), "a finite number"
            if not ok:
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")

        def positive(name, value):
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")

        positive("v_max_mps", self.v_max_mps)
        positive("T_s", self.T_s)
        positive("I_nats", self.I_nats)
        if self.K < 1 or self.N < 1:
            raise ConfigError("K and N must be at least 1")
        if self.N > self.K:
            raise ConfigError(f"cannot serve K={self.K} sensors in "
                              f"N={self.N} groups")
        if self.d_max_m <= self.A_m:
            raise ConfigError("d_max_m must exceed the altitude A_m")
        for name in ("D_range_m", "ytilde_range_m"):
            rng = getattr(self, name)
            if len(rng) != 2 or not rng[1] > rng[0]:
                raise ConfigError(f"{name} must be a nonempty (lo, hi) range")
        if self.D_range_m[0] <= 0.0:
            raise ConfigError("leg lengths must be positive")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        self.baseline_radio  # builds, and so checks, both radios

    @functools.cached_property
    def radio(self) -> ChannelParams:
        """The UAV's radio: its M-antenna array at this power and altitude."""
        return ChannelParams.from_db(self.k0_db, self.sigma2_dbm, self.pt_db,
                                     self.eta, self.A_m, self.M, self.delta_m)

    @functools.cached_property
    def baseline_radio(self) -> ChannelParams:
        """The hover-and-fly baseline's radio: this config's, with a single
        receive antenna."""
        return replace(self.radio, M=2)

    def validate(self) -> "ScenarioConfig":
        """The config, which was checked when it was built.  Kept for
        bench/run.py, which calls it on every config it builds."""
        return self


def _finite(value) -> bool:
    """A finite real number; a bool is not one."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _parse_range(raw: str) -> tuple:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"must be 'lo,hi', got {raw!r}")
    return (float(parts[0]), float(parts[1]))


_PARSERS = {float: float, int: int, tuple: _parse_range}


def load_config(path) -> ScenarioConfig:
    """Read a ScenarioConfig from an INI file with one [scenario] section."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # field names are case-sensitive (K vs k0_db)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    sections = parser.sections()
    if sections != ["scenario"]:
        raise ConfigError(
            f"config must contain exactly one [scenario] section, "
            f"found {sections or 'none'}")

    types = {f.name: f.type for f in fields(ScenarioConfig)}
    values = {}
    for key, raw in parser.items("scenario"):
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = _PARSERS[types[key]](raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return ScenarioConfig(**values)
