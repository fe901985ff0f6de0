"""Monte-Carlo experiment harness: randomized mission realizations,
proposed-scheme and hover-and-fly baseline solves, sweeps, CSV output.

Each trial draws leg lengths and the flight-row offset, scatters group
members behind their hover points along the corridor, and solves the
selected problem twice: once for the proposed grouped full-duplex
scheme and once for a hover-and-fly baseline that visits every sensor
individually with a single receive antenna.  Trials are independent
and seeded from (master seed, trial index), so results do not depend
on scheduling or worker count.  A trial takes its numbers from
standard-uniform blocks, mapped to their ranges the way
`Generator.uniform` maps them, so each trial's stream, and every
number drawn from it, is the one per-number `uniform` calls would give.
The pass that draws a trial keeps the grouped plan's legs, group sizes,
sensors and start point, and adds each member's coefficients, b_i from
`channel`'s leg average, to its group's sums as it places it; the
baseline's sums come from its leg lengths alone on first read, and
each `GroupPlan` only when read.
No sum depends on the transmit power or the noise, and trial t draws
the same stream at every sweep point (common random numbers).  So a drawn
trial takes one path to its values: each plan becomes a `_KeptPlan`
(legs, member counts, sums, radio), whose `solve` calls its solver's
kept entry at a sweep point, building no problem or result, and keeps
what it derived for the next: the coefficients and `ttm`'s hover
denominators while the SNR is unchanged (v_max, T_s, I_nats points),
and the floors while v_max is; `solve_*` on `build_problem`'s problem
gives its bits.
`run_trial` keeps both plans of each trial it draws in its one store,
`_DRAWS`, so a pt_db, v_max or I_nats sweep draws each trial once.  It
keeps only the latest (seed, `_draw_fields`) key's trials and no failed
draw; past `_TRIAL_MEMO` trials each new one evicts the oldest.
`run_sweep` runs every sweep as whole-trial blocks no larger than that
store, in one process or a pool, and reads each trial's `TrialResult`
or typed error.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace
from math import hypot

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .channel import (GroupCoefficients, leg_average_inverse_sq,
                      overhead_leg_average)
from .config import ScenarioConfig, _finite
from .errors import ConfigError, NumericDomainError, UavWptError
from .geometry import (GroupPlan, group_sizes, leg_floors, singleton_legs,
                       singleton_plan)
from .stm import LeadPrice, StmProblem, _kept_throughput
from .ttm import TtmProblem, _kept_total

# Group members sit behind their hover point along the inbound leg, at
# this fraction of the leg length, with a little cross-row jitter.  The
# band keeps every member's flight-phase harvesting coefficient above
# its hover-phase one (the UAV flies almost directly overhead on the
# way in) while leaving the hover-phase uplink lively enough that the
# last group's SNR-times-flight-gain product stays above one down to
# 0 dB transmit power.
SCATTER_SPAN = (0.58, 1.08)
Y_JITTER_M = 2.0
REDRAW_CAP = 25
# trials and baseline price slots run_trial keeps: a default-config
# sweep's per-point count, and 16 sweep points
_TRIAL_MEMO = 1000
_PRICE_SLOTS = 16

SWEEP_HEADER = ("param,value,trials,mean_ours,se_ours,"
                "mean_baseline,se_baseline,improvement")
# sweep parameter: (config field it sets, default objective)
SWEEP_PARAMS = {
    "pt_db": ("pt_db", "stm"),
    "N": ("N", "stm"),
    "v_max": ("v_max_mps", "ttm"),
    "I_nats": ("I_nats", "ttm"),
}


@dataclass(frozen=True)
class TrialGeometry:
    """One realization drawn under `config`: the proposed plan's leg
    lengths D, group sizes, sensors, start point and coefficient sums;
    the baseline's legs and sums (`baseline`) and each `GroupPlan`
    (`plan`, `baseline_plan`) are built on first read."""

    D: tuple
    sizes: tuple
    sensors: tuple
    start_point: tuple
    sums: tuple
    config: ScenarioConfig

    @functools.cached_property
    def plan(self) -> GroupPlan:
        ids, y = itertools.count(1), self.start_point[1]
        return GroupPlan(
            self.sensors, tuple(tuple(itertools.islice(ids, n))
                                for n in self.sizes),
            tuple((x, y) for x in itertools.accumulate(self.D)), self.D,
            (1,) * len(self.D), self.start_point)

    @functools.cached_property
    def baseline_plan(self) -> GroupPlan:
        return singleton_plan(self.sensors, self.start_point)

    @functools.cached_property
    def baseline(self) -> tuple:
        """(D, member counts, sums) of the baseline plan: each leg ends
        right over its sensor, so every stop has a = 1/A^2, h = the
        radio's `overhead_gain` and b = `overhead_leg_average` of d."""
        A = self.config.A_m
        a = 1.0 / (A * A)
        bound = a * (1.0 + 1e-12)
        D = singleton_legs(self.sensors, self.start_point)[2]
        b = tuple([overhead_leg_average(d, A) for d in D])
        for n, b_n in enumerate(b, 1):
            if not 0.0 < b_n <= bound:
                raise _coefficient_error(n, a, b_n, bound)
        h = self.config.baseline_radio.overhead_gain
        return D, (1,) * len(D), ((a,) * len(D), b, (h,) * len(D))


class _KeptPlan:
    """What a plan's problems read of a trial (leg lengths D, member
    counts, sums, and `baseline` for the radio), and what they derived
    at the last point: the coefficients at one SNR scale with `ttm`'s
    hover denominators for them, and the speed-cap floors and their sum
    at one v_max.  Each is derived again only when its input changes (a
    and b are checked at the first scaling, gamma at each)."""

    __slots__ = ("D", "counts", "sums", "baseline", "snr", "coeffs",
                 "denoms", "v_max", "floors", "travel")

    def __init__(self, D, counts, sums, baseline: bool):
        self.D, self.counts, self.sums = D, counts, sums
        self.baseline = baseline
        self.snr = self.coeffs = self.v_max = None

    def solve(self, config: ScenarioConfig, objective: str,
              price: LeadPrice | None = None) -> float:
        """The plan's throughput ("stm", `price` as in `_kept_throughput`)
        or total time ("ttm") under `config`, as `solve_stm` or `solve_ttm`
        gives it on `build_problem`'s problem, building neither."""
        params = config.baseline_radio if self.baseline else config.radio
        if params.snr != self.snr:
            self.coeffs = (GroupCoefficients.scaled(self.sums, params)
                           if self.coeffs is None
                           else self.coeffs.rescaled(self.sums[2], params))
            self.snr, self.denoms = params.snr, {}
        c = self.coeffs
        if config.v_max_mps != self.v_max:
            self.floors = leg_floors(self.D, config.v_max_mps, c.N)
            self.travel = math.fsum(self.floors)
            self.v_max = config.v_max_mps
        if objective == "stm":
            return _kept_throughput(c.gamma, c.a, c.b, self.floors,
                                    config.T_s, self.travel, price)
        if objective == "ttm":
            I_nats = config.I_nats
            return _kept_total(c.gamma, c.a, c.b,
                               [I_nats * n for n in self.counts],
                               self.floors, self.denoms)
        raise ConfigError(f"unknown objective {objective!r}")


class _TrialStore:
    """`run_trial`'s store.  `trials` maps a trial index to its (ours,
    baseline) `_KeptPlan`s (baseline None until first solved) for one
    seed and `_draw_fields`, never a failed draw.  `prices` holds the
    `LeadPrice` slots of the baselines, at any seed, keyed by what their
    price search reads (`_price_fields`), up to `_PRICE_SLOTS` of them,
    least recently entered evicted first.  `config` is the last point's
    config and `price` its slot."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.config = self.seed = self.fields = self.price = None
        self.trials, self.prices = {}, {}

    def enter(self, config: ScenarioConfig):
        fields = _draw_fields(config)
        if config.seed != self.seed or fields != self.fields:
            self.seed, self.fields, self.trials = config.seed, fields, {}
        key = _price_fields(config)
        price = self.prices.pop(key, None)
        if price is None:
            price = LeadPrice()
            if len(self.prices) >= _PRICE_SLOTS:
                del self.prices[next(iter(self.prices))]
        self.prices[key] = price
        self.config, self.price = config, price


_DRAWS = _TrialStore()


@dataclass(frozen=True)
class TrialResult:
    ours: float
    baseline: float | None


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter sweep: which knob, which values, how many trials
    per point, and which objective ("stm" throughput or "ttm" time)."""

    param: str
    values: tuple
    trials: int
    objective: str

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ConfigError(
                f"sweep parameter must be one of {tuple(SWEEP_PARAMS)}, "
                f"got {self.param!r}")
        if len(self.values) < 1:
            raise ConfigError("sweep needs at least one value")
        for v in self.values:
            if not _finite(v):
                raise ConfigError(f"sweep values must be finite numbers, "
                                  f"got {v!r}")
        for lo, hi in zip(self.values, self.values[1:]):
            if not hi > lo:
                raise ConfigError("sweep values must be strictly increasing")
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError(f"per-point trial count must be an integer "
                              f"of at least 1, got {self.trials!r}")
        if self.objective not in ("stm", "ttm"):
            raise ConfigError(f"unknown objective {self.objective!r}")


@dataclass(frozen=True)
class AggregateResult:
    """One sweep point: means and standard errors over successful
    trials, plus how many trials were excluded by solver errors."""

    param: str
    value: float
    trials: int
    mean_ours: float
    se_ours: float
    mean_baseline: float
    se_baseline: float
    improvement: float
    exclusions: int


def _check_index(name: str, value) -> None:
    if type(value) is not int or value < 0:
        raise ConfigError(f"{name} must be a nonnegative integer, "
                          f"got {value!r}")


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    _check_index("master seed", master_seed)
    _check_index("trial index", trial_index)
    # the uint32 words SeedSequence makes of [master_seed, trial_index]
    words = [n >> s & 0xFFFFFFFF for n in (master_seed, trial_index)
             for s in range(0, max(n.bit_length(), 1), 32)]
    return Generator(PCG64(SeedSequence(np.array(words, dtype=np.uint32))))


def generate_trial(config: ScenarioConfig, rng) -> TrialGeometry:
    """Draw one mission realization.

    Hover points are spaced by the drawn leg lengths along one row at
    offset ytilde; each group's members are scattered behind its hover
    point.  Members are redrawn (rarely) if the flight-phase coefficient
    fails to dominate the hover-phase one; only the accepted pair is
    added to the group's sums.  Both plans fly in from (0, ytilde); the
    baseline visits the same sensors one at a time (`singleton_legs`)
    with the config's `baseline_radio`.

    The draws come from standard-uniform blocks (`rng.random`), each
    value mapped to its range as lo + (hi - lo) * u, the two float
    operations `Generator.uniform` makes.  One block holds the N leg
    lengths, ytilde and one (u, yj) pair per member; a redraw takes the
    next pair, and only when the block runs out is another drawn, sized
    for the members still to place.  So a trial reads the same stream
    and gets the same bits as one `rng.uniform` call per number would,
    and a successful draw leaves `rng` where those calls would.
    """
    N, K = config.N, config.K
    params = config.radio
    A = params.A
    A2 = A * A
    bound = 1.0 / A2 * (1.0 + 1e-12)
    k0 = params.k0
    offsets = [(k - 1) * params.delta for k in range(2, params.M + 1)]
    block = rng.random(N + 1 + 2 * K).tolist()
    d_lo, d_hi = config.D_range_m
    D = [d_lo + (d_hi - d_lo) * v for v in block[:N]]
    y_lo, y_hi = config.ytilde_range_m
    ytilde = y_lo + (y_hi - y_lo) * block[N]
    pos = N + 1
    s_lo, s_hi = SCATTER_SPAN
    s_span = s_hi - s_lo
    j_lo = -Y_JITTER_M
    j_span = Y_JITTER_M - j_lo

    sizes = tuple(group_sizes(K, N))
    sensors = []
    sums = []
    px, py = start = (0.0, ytilde)
    for g, (hx, d_g, size) in enumerate(
            zip(itertools.accumulate(D), D, sizes), 1):
        # the inbound leg (px, py) -> (hx, ytilde), of length d
        lx = hx - px
        ly = ytilde - py
        d = hypot(lx, ly)
        a_n = b_n = h_n = 0.0
        for _ in range(size):
            for attempt in range(REDRAW_CAP + 1):
                if pos == len(block):
                    block = rng.random(2 * (K - len(sensors))).tolist()
                    pos = 0
                u = s_lo + s_span * block[pos]
                yj = j_lo + j_span * block[pos + 1]
                pos += 2
                x = hx - u * d_g
                y = ytilde + yj
                dx = hx - x
                dy = ytilde - y
                a_i = 1.0 / (dx * dx + dy * dy + A2)
                b_i = leg_average_inverse_sq(lx, ly, d, x - px, y - py, A2)
                if b_i > a_i:
                    break
            else:
                raise NumericDomainError(
                    f"group {g}: could not place a member with "
                    f"flight-dominant harvesting in {REDRAW_CAP} redraws")
            if not (0.0 < a_i <= bound and 0.0 < b_i <= bound):
                raise _coefficient_error(g, a_i, b_i, bound)
            sensors.append((x, y))
            a_n += a_i
            b_n += b_i
            for off in offsets:
                L = hypot(dx, ytilde + off - y)
                h_n += k0 / (L * L + A2)
        sums.append((a_n, b_n, h_n))
        px, py = hx, ytilde

    return TrialGeometry(tuple(D), sizes, tuple(sensors), start,
                         tuple(map(tuple, zip(*sums))), config)


def _coefficient_error(n: int, a_i: float, b_i: float,
                       bound: float) -> NumericDomainError:
    """The error for a member of group n whose hover or flight coefficient
    lies outside (0, bound], 1/A^2 to within 1e-12: its hover one first."""
    phase, v = ("flight", b_i) if 0.0 < a_i <= bound else ("hover", a_i)
    return NumericDomainError(
        f"group {n}: {phase} coefficient {v} outside (0, 1/A^2]")


def _price_fields(config: ScenarioConfig) -> tuple:
    """What a baseline's lead-price search reads: K stops, each with
    a = 1/A_m^2 and the baseline radio's gamma = snr * overhead_gain."""
    radio = config.baseline_radio
    return config.K, config.A_m, radio.snr * radio.overhead_gain


def _draw_fields(config: ScenarioConfig) -> tuple:
    """The fields a trial's draw and coefficient sums read, besides the
    seed that `trial_rng` takes."""
    return (config.N, config.K, config.A_m, config.D_range_m,
            config.ytilde_range_m, config.k0_db, config.M, config.delta_m)


def build_problem(config: ScenarioConfig, geo: TrialGeometry,
                  objective: str, baseline: bool = False):
    """Trial `geo`'s grouped plan, or with `baseline` its baseline plan, as
    an StmProblem under the config's budget ("stm") or a TtmProblem
    demanding I_nats per member sensor ("ttm"), its sums scaled at the
    config's radio or baseline radio.  `config` may differ from the one
    `geo` was drawn under in any field the draw does not read
    (`_draw_fields`); a config that would draw another trial raises
    `ConfigError`."""
    if _draw_fields(config) != _draw_fields(geo.config):
        raise ConfigError("the trial was drawn under another N, K, A_m, "
                          "D_range_m, ytilde_range_m, k0_db, M or delta_m")
    D, counts, sums = (geo.baseline if baseline
                       else (geo.D, geo.sizes, geo.sums))
    coeffs = GroupCoefficients.scaled(
        sums, config.baseline_radio if baseline else config.radio)
    if objective == "stm":
        return StmProblem(coeffs=coeffs, D=D, T=config.T_s,
                          v_max=config.v_max_mps)
    if objective == "ttm":
        return TtmProblem(coeffs=coeffs, D=D, v_max=config.v_max_mps,
                          I=tuple([config.I_nats * n for n in counts]))
    raise ConfigError(f"unknown objective {objective!r}")


def run_trial(config: ScenarioConfig, trial_index: int,
              objective: str = "stm",
              include_baseline: bool = True) -> TrialResult:
    """Solve one realization for the proposed scheme and the baseline,
    drawn now or kept from an earlier call (see the module docstring)."""
    _check_index("trial index", trial_index)
    if config is not _DRAWS.config:
        _DRAWS.enter(config)
    draws = _DRAWS.trials
    ours, base = draws.get(trial_index, (None, None))
    if ours is None or (include_baseline and base is None):
        geo = generate_trial(config, trial_rng(config.seed, trial_index))
        ours = _KeptPlan(geo.D, geo.sizes, geo.sums, False)
        if include_baseline:
            base = _KeptPlan(*geo.baseline, True)
        if len(draws) >= _TRIAL_MEMO and trial_index not in draws:
            del draws[next(iter(draws))]    # the oldest kept trial
        draws[trial_index] = ours, base
    return TrialResult(
        ours=ours.solve(config, objective),
        baseline=(base.solve(config, objective, _DRAWS.price)
                  if include_baseline else None))


def _outcome(config, trial_index, objective, include_baseline):
    """`run_trial`'s `TrialResult`, or its typed error (no traceback)."""
    try:
        return run_trial(config, trial_index, objective, include_baseline)
    except UavWptError as exc:
        return exc.with_traceback(None)


def _trial_task(args):
    """A block of trial indices solved at every sweep point, point by
    point, as each point's list of `_outcome`s: each trial is drawn at
    the first point and reused at the later ones (no block outgrows
    `run_trial`'s store), and a point's baselines share its price slot,
    which a trial-by-trial order would evict past `_PRICE_SLOTS` points."""
    point_configs, trials, objective, include_baseline = args
    return [[_outcome(pc, t, objective, include_baseline) for t in trials]
            for pc in point_configs]


def apply_sweep_value(config: ScenarioConfig, param: str,
                      value) -> ScenarioConfig:
    """Derive the config for one sweep point.

    Sweeping N keeps the per-group sensor count of the base config, so
    K scales with N.
    """
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    if param == "N":
        if value % 1 != 0:
            raise ConfigError(f"an N sweep value must be an integer, "
                              f"got {value}")
        per_group = max(1, config.K // config.N)
        return replace(config, N=int(value), K=int(value) * per_group)
    return replace(config, **{SWEEP_PARAMS[param][0]: float(value)})


def run_sweep(config: ScenarioConfig, sweep: SweepSpec, workers: int = 1,
              baseline: str = "hf-eh"):
    """Run every sweep point and aggregate.

    Returns (list of AggregateResult, list of failure messages).  A
    point where every trial fails raises its first failure's error type;
    isolated failures are excluded and counted.
    """
    if baseline not in ("hf-eh", "none"):
        raise ConfigError(f"unknown baseline mode {baseline!r}")
    if type(workers) is not int or workers < 1:
        raise ConfigError(f"need an integer count of at least 1 worker, "
                          f"got {workers!r}")
    include_baseline = baseline == "hf-eh"
    point_configs = [apply_sweep_value(config, sweep.param, v)
                     for v in sweep.values]
    # whole-trial blocks that fit run_trial's store, so each is drawn once
    block = min(_TRIAL_MEMO, sweep.trials if workers == 1
                else max(1, sweep.trials // (8 * workers)))
    tasks = [(point_configs, range(t, min(t + block, sweep.trials)),
              sweep.objective, include_baseline)
             for t in range(0, sweep.trials, block)]
    if workers > 1:
        # imported here: a one-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_trial_task, tasks))
    else:
        blocks = map(_trial_task, tasks)
    # each block's outcomes per point, joined point by point
    outcomes = [list(itertools.chain.from_iterable(parts))
                for parts in zip(*blocks)]

    results = []
    failures = []
    for value, chunk in zip(sweep.values, outcomes):
        solved = [o for o in chunk if isinstance(o, TrialResult)]
        failures.extend(f"{sweep.param}={value}: {type(e).__name__}: {e}"
                        for e in chunk if not isinstance(e, TrialResult))
        if not solved:
            raise type(chunk[0])(
                f"sweep point {sweep.param}={value}: all "
                f"{sweep.trials} trials failed") from chunk[0]
        n = len(solved)
        mean_ours, se_ours = _mean_se([r.ours for r in solved])
        if include_baseline:
            mean_base, se_base = _mean_se([r.baseline for r in solved])
            improvement = (mean_ours - mean_base) / mean_base
        else:
            mean_base = se_base = improvement = math.nan
        results.append(AggregateResult(
            param=sweep.param, value=float(value), trials=n,
            mean_ours=mean_ours, se_ours=se_ours,
            mean_baseline=mean_base, se_baseline=se_base,
            improvement=improvement, exclusions=sweep.trials - n))
    return results, failures


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def write_sweep_csv(path, results, metadata=()):
    """Sweep CSV: '#'-prefixed metadata lines, a fixed header, then one
    row per sweep point.  Data rows are deterministic for a seed."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in metadata:
            fh.write(f"# {line}\n")
        fh.write(SWEEP_HEADER + "\n")
        for r in results:
            fh.write(",".join((
                r.param,
                f"{r.value:.12g}",
                str(r.trials),
                f"{r.mean_ours:.12g}",
                f"{r.se_ours:.12g}",
                f"{r.mean_baseline:.12g}",
                f"{r.se_baseline:.12g}",
                f"{r.improvement:.12g}",
            )) + "\n")
