import concurrent.futures
import dataclasses
import hashlib
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

import uavwpt.channel as channel
import uavwpt.experiments as experiments
import uavwpt.geometry as geometry
import uavwpt.ttm as ttm
from conftest import fail_draws
from instance_tools import (coeff_a, coeff_b, group_coefficients,
                            harvested_energy, leg_average_inverse_sq)
from uavwpt.channel import GroupCoefficients
from uavwpt.config import ScenarioConfig
from uavwpt.errors import (ConfigError, InfeasiblePlanError,
                           NumericDomainError)
from uavwpt.geometry import GroupPlan, leg_floors, singleton_plan
from uavwpt.experiments import (AggregateResult, SweepSpec, SWEEP_HEADER,
                                apply_sweep_value, build_problem,
                                generate_trial, run_sweep, run_trial,
                                trial_rng, write_sweep_csv)
from uavwpt.cli import main
from uavwpt.stm import StmDiagnostics, StmProblem, TimeAllocation, solve_stm
from uavwpt.ttm import TtmProblem, solve_ttm

CFG = ScenarioConfig(K=20, N=4, pt_db=4.0, T_s=1000.0, seed=1)
SMALL = ScenarioConfig(K=8, N=2, pt_db=4.0, T_s=800.0, seed=3)


# -------------------------------------------------- geometry draws

def test_trial_geometry_deterministic():
    a = generate_trial(CFG, trial_rng(CFG.seed, 5))
    b = generate_trial(CFG, trial_rng(CFG.seed, 5))
    c = generate_trial(CFG, trial_rng(CFG.seed, 6))
    assert a.plan.sensors == b.plan.sensors
    assert a.plan.hover_points == b.plan.hover_points
    assert a.plan.sensors != c.plan.sensors


def test_trial_structure():
    geo = generate_trial(CFG, trial_rng(1, 0))
    assert geo.plan.N == 4
    assert len(geo.plan.sensors) == 20
    assert [len(g) for g in geo.plan.groups] == [5, 5, 5, 5]
    lo, hi = CFG.D_range_m
    for d in geo.plan.D:
        assert lo <= d < hi
    # one shared flight row for every hover point
    ys = {p[1] for p in geo.plan.hover_points}
    assert ys == {geo.plan.start_point[1]}


def test_uneven_group_sizes():
    cfg = dataclasses.replace(CFG, K=10, N=4).validate()
    geo = generate_trial(cfg, trial_rng(1, 0))
    assert [len(g) for g in geo.plan.groups] == [3, 3, 2, 2]


def test_flight_harvest_dominates_hover_harvest():
    params = CFG.radio
    for t in range(5):
        plan = generate_trial(CFG, trial_rng(1, t)).plan
        for n in range(1, 5):
            for i in plan.members(n):
                assert (coeff_b(plan, params, n, i)
                        > coeff_a(plan, params, n, i))


def test_sensor_energies_sum_to_group_aggregates():
    geo = generate_trial(CFG, trial_rng(1, 3))
    for params, plan, baseline in (
            (CFG.radio, geo.plan, False),
            (CFG.baseline_radio, geo.baseline_plan, True)):
        coeffs = build_problem(CFG, geo, "stm", baseline).coeffs
        tau_prev, zeta = 7.25, 3.5
        for n in range(1, plan.N + 1):
            total = sum(harvested_energy(plan, params, n, i, tau_prev, zeta)
                        for i in plan.members(n))
            expect = params.energy_scale * (coeffs.a[n - 1] * tau_prev
                                            + coeffs.b[n - 1] * zeta)
            assert total == pytest.approx(expect, rel=1e-12)


def test_baseline_plan_structure():
    geo = generate_trial(CFG, trial_rng(1, 2))
    plan = geo.baseline_plan
    assert plan.N == 20
    assert all(len(g) == 1 for g in plan.groups)
    # hover directly over each sensor, visited left to right
    xs = [p[0] for p in plan.hover_points]
    assert xs == sorted(xs)
    params = CFG.baseline_radio
    coeffs = build_problem(CFG, geo, "stm", baseline=True).coeffs
    for n in range(20):
        assert coeffs.a[n] == pytest.approx(1.0 / CFG.A_m ** 2, rel=1e-12)
        # single receive antenna: gamma_n is antenna 2's gain alone
        (i,) = plan.groups[n]
        hx, hy = plan.hover_points[n]
        x, y = plan.sensors[i - 1]
        L = math.hypot(x - hx, y - (hy + CFG.delta_m))
        h = params.k0 / (L ** 2 + CFG.A_m ** 2)
        assert coeffs.gamma[n] == pytest.approx(
            params.energy_scale / params.sigma2 * h, rel=1e-12)


def _scalar_trial(config, rng):
    """generate_trial as one `rng.uniform` call per number: the stream
    the block draws must reproduce.  Returns (the trial's plans and
    coefficients, redraws)."""
    N, K, A = config.N, config.K, config.A_m
    D = [float(d) for d in rng.uniform(*config.D_range_m, size=N)]
    ytilde = float(rng.uniform(*config.ytilde_range_m))
    anchors = np.cumsum(D)
    base, extra = divmod(K, N)
    sensors, groups, redraws = [], [], 0
    for g in range(N):
        hover = (float(anchors[g]), ytilde)
        leg_start = (float(anchors[g - 1]) if g > 0 else 0.0, ytilde)
        ids = []
        for _ in range(base + (1 if g < extra else 0)):
            for attempt in range(experiments.REDRAW_CAP + 1):
                u = float(rng.uniform(*experiments.SCATTER_SPAN))
                yj = float(rng.uniform(-experiments.Y_JITTER_M,
                                       experiments.Y_JITTER_M))
                w = (hover[0] - u * D[g], ytilde + yj)
                if (leg_average_inverse_sq(leg_start, hover, w, A)
                        > channel.point_inverse_sq(hover, w, A)):
                    break
                redraws += 1
            else:
                raise NumericDomainError(
                    f"group {g + 1}: could not place a member with "
                    f"flight-dominant harvesting in "
                    f"{experiments.REDRAW_CAP} redraws")
            sensors.append(w)
            ids.append(len(sensors))
        groups.append(tuple(ids))
    sensors = tuple(sensors)
    start = (0.0, ytilde)
    plan = GroupPlan(sensors=sensors, groups=tuple(groups),
                     hover_points=tuple((float(x), ytilde) for x in anchors),
                     D=tuple(D), row_of_group=(1,) * N, start_point=start)
    baseline_plan = singleton_plan(sensors, start)
    expect = SimpleNamespace(
        plan=plan, coeffs=group_coefficients(plan, config.radio),
        baseline_plan=baseline_plan,
        baseline_coeffs=group_coefficients(
            baseline_plan, config.baseline_radio))
    return expect, redraws


_STREAM_CASES = {
    "defaults": (ScenarioConfig(), None),
    "N9_K45": (ScenarioConfig(N=9, K=45), None),
    "odd_ranges": (ScenarioConfig(D_range_m=(20.3, 31.7),
                                  ytilde_range_m=(-1.3, 4.9)), None),
    "forced_redraws": (ScenarioConfig(), (0.0, 0.4)),
    # five receive antennas, 3 m apart, on the grouped plan
    "M6_delta3": (ScenarioConfig(M=6, delta_m=3.0), None),
}


@pytest.mark.parametrize("case", sorted(_STREAM_CASES))
def test_block_draw_matches_scalar_stream(case, monkeypatch):
    config, span = _STREAM_CASES[case]
    config = config.validate()
    if span is not None:
        monkeypatch.setattr(experiments, "SCATTER_SPAN", span)
    total_redraws = 0
    for t in range(12):
        block_rng = trial_rng(config.seed, t)
        scalar_rng = trial_rng(config.seed, t)
        geo = generate_trial(config, block_rng)
        expect, redraws = _scalar_trial(config, scalar_rng)
        total_redraws += redraws
        assert geo.plan == expect.plan
        assert geo.baseline_plan == expect.baseline_plan
        # redrawn members leave no trace in the coefficients
        assert build_problem(config, geo, "stm").coeffs == expect.coeffs
        assert (build_problem(config, geo, "stm", baseline=True).coeffs
                == expect.baseline_coeffs)
        # the block draws leave the generator where scalar calls would
        assert (block_rng.bit_generator.state
                == scalar_rng.bit_generator.state)
    # the forced case runs past the first block and refills it
    assert (total_redraws > 0) == (span is not None)


def test_block_draw_exhausted_redraws_same_error(monkeypatch):
    monkeypatch.setattr(experiments, "SCATTER_SPAN", (0.0, 0.05))
    config = ScenarioConfig()
    with pytest.raises(NumericDomainError) as scalar:
        _scalar_trial(config, trial_rng(config.seed, 0))
    with pytest.raises(NumericDomainError) as block:
        generate_trial(config, trial_rng(config.seed, 0))
    assert "redraws" in str(scalar.value)
    assert str(block.value) == str(scalar.value)


def _plan_bits(plan):
    """Every field of `plan`, with each float as its hex string."""
    def bits(v):
        if isinstance(v, float):
            return v.hex()
        return tuple(map(bits, v)) if isinstance(v, tuple) else v

    return {f.name: bits(getattr(plan, f.name))
            for f in dataclasses.fields(plan)}


def test_fresh_trials_build_no_group_plan(monkeypatch):
    # run_trial reads a draw's legs, group sizes, sensors and start point;
    # its GroupPlan is built, and checked, only when read, and is then the
    # plan the scalar stream gives, to the bit
    config = ScenarioConfig()
    geos = []
    real_draw = experiments.generate_trial

    def recorded(*args):
        geos.append(real_draw(*args))
        return geos[-1]

    monkeypatch.setattr(experiments, "generate_trial", recorded)
    built = _count_builds(monkeypatch, GroupPlan)
    for t in range(5):
        run_trial(config, t, "stm")
    assert built == [] and len(geos) == 5
    for t, geo in enumerate(geos):
        expect, _ = _scalar_trial(config, trial_rng(config.seed, t))
        built.clear()
        assert _plan_bits(geo.plan) == _plan_bits(expect.plan)
        assert built == ["GroupPlan"]


class _CountingRng:
    """A Generator stand-in that counts each method call it forwards."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


def test_trial_draw_and_coefficient_counts(monkeypatch):
    # guards the lean trial path: a fresh draw makes one block draw and
    # no scalar uniform draw when no member is redrawn, and computes each
    # coefficient once, counted through the math functions the draw
    # reads (atan2 in `channel`'s one leg-average formula): two atan2
    # calls per flight coefficient, one per grouped member and one per
    # baseline member (its hover one is 1/A^2), and one hypot call per
    # grouped leg and per uplink gain, M - 1 of them per grouped member
    # and one per baseline member (whose leg lengths the stops give);
    # none of the baseline's when it is not solved.
    # Every later call at the same trial, under either objective, reads
    # the kept draw and draws nothing, until a call first asks for the
    # baseline the kept draw lacks.
    config = ScenarioConfig()
    N, K, M = config.N, config.K, config.M
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def primitive(*args):
            calls[name] += 1
            return real(*args)

        return primitive

    rngs = []

    def counted_rng(*args):
        rngs.append(_CountingRng(trial_rng(*args)))
        return rngs[-1]

    monkeypatch.setattr(experiments, "trial_rng", counted_rng)
    for module, name in ((channel, "atan2"), (experiments, "hypot")):
        monkeypatch.setattr(module, name, counted(module, name))
    for include_baseline, flights, gains in ((False, K, (M - 1) * K),
                                             (True, 2 * K, M * K)):
        for t in range(5):
            for repeat, objective in enumerate(("stm", "ttm", "stm", "ttm")):
                calls.update(atan2=0, hypot=0)
                drawn = len(rngs)
                run_trial(config, t, objective, include_baseline)
                if repeat == 0:
                    assert len(rngs) == drawn + 1
                    assert rngs[-1].calls == {"random": 1}
                    assert calls == {"atan2": 2 * flights,
                                     "hypot": N + gains}
                else:
                    assert len(rngs) == drawn
                    assert calls == {"atan2": 0, "hypot": 0}
    # the kept draws with their baselines serve calls without one
    drawn = len(rngs)
    for t in range(5):
        run_trial(config, t, "ttm", include_baseline=False)
    assert len(rngs) == drawn
    # the baseline's legs and sums come from one walk over its stops, and
    # no fresh draw builds its GroupPlan; one built afterwards flies the
    # same legs, to the bit
    experiments._DRAWS.clear()
    plans = []
    for module in (experiments, geometry):
        monkeypatch.setattr(module, "singleton_plan",
                            lambda *args: plans.append(args))
    for t in range(5):
        run_trial(config, t, "stm", include_baseline=True)
    assert plans == []
    monkeypatch.undo()
    for t in range(5):
        geo = generate_trial(config, trial_rng(config.seed, t))
        kept = experiments._DRAWS.trials[t][1]
        assert ([d.hex() for d in geo.baseline_plan.D]
                == [d.hex() for d in kept.D])


def _bits(result):
    return (result.ours.hex(),
            None if result.baseline is None else result.baseline.hex())


def _kept_plan(N):
    return experiments._KeptPlan(
        (20.0,) * N, (1,) * N,
        ((0.005,) * N, (0.008,) * N, (1e-6,) * N), False)


@pytest.mark.parametrize("tau, zeta", [
    ((0.0, 1.0, math.inf), (2.0, 3.0)),
    ((0.0, math.nan, 1.0), (2.0, 3.0)),
    ((0.0, 1.0, 2.0), (math.nan, math.inf)),
    # a hover out of range is reported before an earlier leg
    ((0.0, 1.0, math.inf), (math.nan, 3.0)),
    # the finite hovers' partial sums overflow before the infinite one
    ((0.0, 1e308, 1e308, math.inf), (1.0, 2.0, 3.0)),
    # every time finite, their sum too large
    ((0.0, 1e308, 1e308), (1.0, 2.0)),
    ((0.0, 1.0, 2.0), (3.0, 4.0)),
])
def test_kept_time_solve_checks_times_as_its_constructor(tau, zeta,
                                                         monkeypatch):
    # a kept plan checks the time kernel's result through its total: it
    # raises what TimeAllocation's checks and then the fsum total raise,
    # and otherwise returns that total
    def outcome(f):
        try:
            return f()
        except Exception as exc:
            return type(exc), str(exc)

    def constructor():
        TimeAllocation(tau, zeta)
        return math.fsum(tau) + math.fsum(zeta)

    monkeypatch.setattr(ttm, "_ttm_allocation", lambda *args: (tau, zeta))
    got = outcome(lambda: _kept_plan(len(zeta)).solve(CFG, "ttm"))
    assert got == outcome(constructor)


@pytest.mark.parametrize("param,values", [("pt_db", (0.0, 4.0, 8.0)),
                                          ("v_max", (8.0, 10.0, 14.0)),
                                          ("I_nats", (1.0, 10.0, 30.0))])
def test_kept_draws_give_the_bits_of_fresh_ones(param, values):
    # a sweep's later points read the draws, coefficients and prices its
    # first point kept; each result must be the one a fresh solve with
    # every memo empty gives, to the last bit
    points = [apply_sweep_value(ScenarioConfig(), param, v) for v in values]
    for objective in ("stm", "ttm"):
        for include_baseline in (True, False):
            calls = [(pc, t, objective, include_baseline)
                     for pc in points for t in range(30)]
            warm = [_bits(run_trial(*c)) for c in calls]
            cold = []
            for c in calls:
                experiments._DRAWS.clear()
                cold.append(_bits(run_trial(*c)))
            assert warm == cold


def _solve_bits(problem):
    if isinstance(problem, StmProblem):
        return solve_stm(problem)[1].objective.hex()
    return solve_ttm(problem)[1].hex()


def _coeff_bits(problem):
    c = problem.coeffs
    return [v.hex() for v in (*c.a, *c.b, *c.gamma, *problem.D)]


@pytest.mark.parametrize("objective", ["stm", "ttm"])
def test_run_trial_agrees_with_build_problem(objective, monkeypatch):
    # the contract the memo relies on: a trial drawn once under the
    # defaults, built under another point's config, is the problem
    # run_trial solves there, and the one a fresh draw at that point gives
    monkeypatch.setattr(experiments, "_DRAWS", experiments._TrialStore())
    base = ScenarioConfig()
    geos = [generate_trial(base, trial_rng(base.seed, t)) for t in range(5)]
    points = [dataclasses.replace(base, pt_db=v) for v in (0.0, 8.0)]
    points += [dataclasses.replace(base, I_nats=v) for v in (1.0, 30.0)]
    for pc in points:
        for t, geo in enumerate(geos):
            ours = _solve_bits(build_problem(pc, geo, objective))
            base_bits = _solve_bits(
                build_problem(pc, geo, objective, baseline=True))
            assert _bits(run_trial(pc, t, objective, False)) == (ours, None)
            assert _bits(run_trial(pc, t, objective)) == (ours, base_bits)
    for pc in points[:2]:
        for t, geo in enumerate(geos):
            fresh = generate_trial(pc, trial_rng(pc.seed, t))
            for baseline in (False, True):
                assert (_coeff_bits(build_problem(pc, geo, objective,
                                                  baseline))
                        == _coeff_bits(build_problem(pc, fresh, objective,
                                                     baseline)))


@pytest.mark.parametrize("field,values", [
    ("v_max_mps", (8.0, 10.0, 14.0, 10.0)),
    ("I_nats", (1.0, 10.0, 30.0)),
    ("T_s", (1000.0, 700.0))])
def test_kept_state_matches_fresh_problems(field, values):
    # a kept plan re-derives its floors only when v_max changes and keeps
    # its coefficients and hover denominators at one SNR: each solve must
    # be the one build_problem gives at that point, to the bit
    base = ScenarioConfig()
    geos = [generate_trial(base, trial_rng(base.seed, t)) for t in range(8)]
    for objective in ("stm", "ttm"):
        experiments._DRAWS.clear()
        for value in values:
            pc = dataclasses.replace(base, **{field: value})
            for t, geo in enumerate(geos):
                fresh = [build_problem(pc, geo, objective, baseline)
                         for baseline in (False, True)]
                assert (_bits(run_trial(pc, t, objective))
                        == tuple(map(_solve_bits, fresh)))
                for kept, problem in zip(experiments._DRAWS.trials[t],
                                         fresh):
                    assert kept.floors == problem.floors == leg_floors(
                        problem.D, pc.v_max_mps, problem.N)


def _count_builds(monkeypatch, *classes):
    """Record the class of every instance of `classes` built from now on."""
    built = []
    for cls in classes:
        def counted(self, *args, real=cls.__post_init__):
            built.append(type(self).__name__)
            return real(self, *args)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


@pytest.mark.parametrize("param,values", [("I_nats", (1.0, 30.0)),
                                          ("pt_db", (0.0, 8.0))])
def test_kept_point_builds_no_problem_or_result(param, values, monkeypatch):
    # at a kept point run_trial solves on the kept plan's tuples: it
    # builds no problem, allocation or diagnostics, and gives the bits of
    # solve_stm or solve_ttm on build_problem's problems
    first, later = (apply_sweep_value(ScenarioConfig(), param, v)
                    for v in values)
    for objective in ("stm", "ttm"):
        experiments._DRAWS.clear()
        for t in range(5):
            run_trial(first, t, objective)
        with monkeypatch.context() as m:
            built = _count_builds(m, StmProblem, TtmProblem, TimeAllocation,
                                  StmDiagnostics)
            results = [_bits(run_trial(later, t, objective))
                       for t in range(5)]
            assert built == []
        for t, result in enumerate(results):
            geo = generate_trial(later, trial_rng(later.seed, t))
            assert result == tuple(
                _solve_bits(build_problem(later, geo, objective, baseline))
                for baseline in (False, True))


def test_problem_floors_come_only_from_leg_floors():
    # the constructors take no floors, so no caller can give a problem
    # floors that disagree with its D and v_max
    cfg = ScenarioConfig()
    geo = generate_trial(cfg, trial_rng(cfg.seed, 0))
    problem = build_problem(cfg, geo, "stm")
    with pytest.raises(TypeError):
        StmProblem(coeffs=problem.coeffs, D=problem.D, T=100.0, v_max=-5.0,
                   floors=problem.floors)


@pytest.mark.parametrize("field,value", [("T_s", 10.0),
                                         ("v_max_mps", 0.05)])
def test_kept_plan_still_refuses_an_infeasible_point(field, value, tmp_path,
                                                     capsys):
    # a budget the mission cannot fly, reached after a feasible point,
    # raises as a fresh problem does; the point after it solves as fresh
    base = ScenarioConfig()
    tight = dataclasses.replace(base, **{field: value})
    geo = generate_trial(base, trial_rng(base.seed, 0))
    run_trial(base, 0)
    with pytest.raises(InfeasiblePlanError):
        run_trial(tight, 0)
    with pytest.raises(InfeasiblePlanError):
        build_problem(tight, geo, "stm")
    assert _bits(run_trial(base, 0)) == tuple(
        _solve_bits(build_problem(base, geo, "stm", baseline))
        for baseline in (False, True))
    with pytest.raises(ConfigError):
        dataclasses.replace(base, **{field: 0.0})
    if field == "v_max_mps":
        # `sweep` on plans kept at the default speed: exit 2
        for t in range(3):
            run_trial(base, t)
        path = tmp_path / "s.ini"
        path.write_text("[scenario]\n", encoding="utf-8")
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path),
                   "--param", "v_max", "--values", f"{value},10",
                   "--objective", "stm", "--trials", "3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"infeasible: sweep point v_max={value}: all 3 trials failed\n")


# one other valid value of every ScenarioConfig field; moving the flight
# row changes results only through rounding, so it moves far
_FIELD_CHANGES = {
    "k0_db": -29.0, "sigma2_dbm": -69.0, "A_m": 11.0, "eta": 0.6, "M": 4,
    "delta_m": 0.2, "v_max_mps": 12.0, "T_s": 900.0,
    "D_range_m": (21.0, 31.0), "ytilde_range_m": (100.0, 105.0), "K": 24,
    "N": 5, "pt_db": 5.0, "I_nats": 12.0, "d_max_m": 40.0, "trials": 10,
    "seed": 2,
}


def test_a_kept_draw_serves_only_configs_that_draw_it():
    # warm the memo under the defaults, then change one field: the
    # result must be a fresh draw's, so a field the draw reads that the
    # memo's key misses fails here
    assert set(_FIELD_CHANGES) == {
        f.name for f in dataclasses.fields(ScenarioConfig)}
    base = ScenarioConfig()
    for name, value in _FIELD_CHANGES.items():
        changed = dataclasses.replace(base, **{name: value})
        for objective in ("stm", "ttm"):
            for t in range(3):
                experiments._DRAWS.clear()
                cold = _bits(run_trial(changed, t, objective))
                experiments._DRAWS.clear()
                run_trial(base, t, objective)
                assert _bits(run_trial(changed, t, objective)) == cold, name


# the fields a trial's draw reads, besides the seed its rng takes
_DRAW_FIELDS = {"N", "K", "A_m", "D_range_m", "ytilde_range_m", "k0_db",
                "M", "delta_m"}


def test_build_problem_refuses_an_unknown_objective():
    geo = generate_trial(CFG, trial_rng(CFG.seed, 0))
    for baseline in (False, True):
        with pytest.raises(ConfigError, match="^unknown objective 'tpm'$"):
            build_problem(CFG, geo, "tpm", baseline)


def test_build_problem_refuses_a_config_that_draws_another_trial():
    # a trial drawn under the defaults builds under a changed config only
    # when the change leaves the draw alone; the seed is not compared,
    # since the rng comes from outside the config
    base = ScenarioConfig()
    geo = generate_trial(base, trial_rng(base.seed, 0))
    for name, value in _FIELD_CHANGES.items():
        changed = dataclasses.replace(base, **{name: value})
        for objective in ("stm", "ttm"):
            for baseline in (False, True):
                if name in _DRAW_FIELDS:
                    with pytest.raises(ConfigError, match="drawn under"):
                        build_problem(changed, geo, objective, baseline)
                else:
                    build_problem(changed, geo, objective, baseline)


def test_kept_trial_still_checks_its_index():
    run_trial(SMALL, 1)
    for t in (1.0, -1):
        with pytest.raises(ConfigError, match="trial index"):
            run_trial(SMALL, t)


def test_failed_draw_excluded_at_every_point(monkeypatch):
    # a draw that runs out of redraws is not kept: each point draws the
    # trial again and excludes it, while the other trials are drawn once
    drawn = fail_draws(monkeypatch, {2})
    sweep = SweepSpec(param="pt_db", values=(0.0, 4.0, 8.0), trials=4,
                      objective="stm")
    results, failures = run_sweep(SMALL, sweep)
    assert [r.exclusions for r in results] == [1, 1, 1]
    assert [r.trials for r in results] == [3, 3, 3]
    assert len(failures) == 3
    assert all("redraws" in f for f in failures)
    assert drawn == [0, 1, 2, 3, 2, 2]


def test_memo_keeps_the_latest_key_only_up_to_its_cap(monkeypatch):
    # a full store evicts its oldest kept trial for each new one
    monkeypatch.setattr(experiments, "_TRIAL_MEMO", 3)
    for t in range(5):
        run_trial(SMALL, t)
    assert list(experiments._DRAWS.trials) == [2, 3, 4]
    run_trial(dataclasses.replace(SMALL, seed=4), 7)
    assert list(experiments._DRAWS.trials) == [7]


def test_trial_coefficients_match_reference_bitwise():
    # each trial's coefficients, computed in the pass that draws it, are
    # the ones the plan alone gives, to the last bit; a baseline gamma
    # reads (y + off) - y, which need not equal off, so it must come
    # from the baseline radio's own antenna loop (M = 6 and a 3 m
    # spacing make the grouped and baseline radios far apart)
    for config in (ScenarioConfig(), ScenarioConfig(N=9, K=45),
                   ScenarioConfig(M=6, delta_m=3.0),
                   ScenarioConfig(A_m=20.0, d_max_m=40.0)):
        config = config.validate()
        params = config.radio
        base_params = config.baseline_radio
        for t in range(1000):
            geo = generate_trial(config, trial_rng(config.seed, t))
            assert (build_problem(config, geo, "stm").coeffs
                    == group_coefficients(geo.plan, params))
            assert (build_problem(config, geo, "stm", baseline=True).coeffs
                    == group_coefficients(geo.baseline_plan, base_params))


def test_trial_draw_matches_reference_bitwise_seed_9():
    # the pass that draws a trial against its per-number reference on a
    # seed no pin reads: leg lengths, sensors and both plans' sums, each
    # compared by float.hex
    def hexes(values):
        return [v.hex() for v in values]

    for config in (ScenarioConfig(seed=9), ScenarioConfig(seed=9, N=9, K=45),
                   ScenarioConfig(seed=9, M=6, delta_m=3.0),
                   ScenarioConfig(seed=9, A_m=20.0, d_max_m=40.0)):
        params = config.radio
        base_params = config.baseline_radio
        for t in range(200):
            geo = generate_trial(config, trial_rng(config.seed, t))
            expect, _ = _scalar_trial(config, trial_rng(config.seed, t))
            assert hexes(geo.D) == hexes(expect.plan.D)
            assert ([hexes(w) for w in geo.sensors]
                    == [hexes(w) for w in expect.plan.sensors])
            D, counts, sums = geo.baseline
            assert hexes(D) == hexes(expect.baseline_plan.D)
            assert counts == (1,) * config.K
            for got, radio, want in (
                    (geo.sums, params, expect.coeffs),
                    (sums, base_params, expect.baseline_coeffs)):
                got = GroupCoefficients.scaled(got, radio)
                for name in ("a", "b", "gamma"):
                    assert (hexes(getattr(got, name))
                            == hexes(getattr(want, name)))


def test_sweep_rejects_fewer_than_one_worker(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial was run")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(experiments, "run_trial", no_trial)
    sweep = SweepSpec(param="pt_db", values=(4.0,), trials=2,
                      objective="stm")
    for workers in (0, -1, 1.5, "2", True):
        with pytest.raises(ConfigError, match="at least 1 worker"):
            run_sweep(SMALL, sweep, workers=workers)


def test_import_loads_no_process_pool():
    # a one-process sweep, and every `solve`, never needs multiprocessing,
    # whose import slows the start of every fresh process
    src = str(Path(experiments.__file__).resolve().parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import uavwpt; "
             "print(sorted(m for m in ('multiprocessing', "
             "'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, src],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


def test_baseline_scenario_derivation(monkeypatch):
    # the baseline radio is the config's with one receive antenna: the
    # floats a whole M = 2 scenario's radio has; a config builds both
    # radios when it is built, so no trial builds one
    assert CFG.baseline_radio.M == 2
    assert CFG.baseline_radio == dataclasses.replace(CFG, M=2).radio
    built = []
    check = channel.ChannelParams.__post_init__

    def counted(params):
        built.append(params)
        check(params)

    monkeypatch.setattr(channel.ChannelParams, "__post_init__", counted)
    config = dataclasses.replace(CFG, pt_db=3.0)
    assert built == [config.radio, config.baseline_radio]
    for t in range(3):
        run_trial(config, t, "stm")
    assert len(built) == 2


# -------------------------------------------------- single trials

# SHA-256 over float.hex of both results of every trial below, so the
# last bit of any result shows (the sweep pins print 12 digits of
# means).  Pinned with glibc's libm on x86-64 Linux under CPython 3.11.
# generate_trial adds with explicit left folds, not sum(), which is
# compensated from 3.12 (sum([0.1] * 10) == 1.0 there,
# 0.9999999999999999 on 3.11), so no CPython version should move the
# pin; only 3.11 has been run.
PINNED_TRIAL_DIGEST = (
    "105eb1bc17ecda89646c3d891c565570c3a1a40d5cece7fd8e124839d3b90115")


def test_trial_results_pinned_bitwise():
    digest = hashlib.sha256()
    for config in (ScenarioConfig(), ScenarioConfig(N=9, K=45),
                   ScenarioConfig(M=6, delta_m=3.0),
                   ScenarioConfig(pt_db=0.0)):
        config = config.validate()
        for objective in ("stm", "ttm"):
            for t in range(100):
                r = run_trial(config, t, objective)
                digest.update(
                    f"{r.ours.hex()} {r.baseline.hex()}\n".encode())
    assert digest.hexdigest() == PINNED_TRIAL_DIGEST


def test_run_trial_deterministic():
    r1 = run_trial(SMALL, 0, "stm")
    r2 = run_trial(SMALL, 0, "stm")
    assert r1 == r2


def test_run_trial_rejects_unknown_objective():
    with pytest.raises(ConfigError):
        run_trial(SMALL, 0, "latency")


def test_run_trial_rejects_bad_trial_index():
    for t in (-1, 1.5):
        with pytest.raises(ConfigError, match="trial index"):
            run_trial(SMALL, t, "stm")


def test_trial_rng_rejects_bad_master_seed():
    for seed in (-1, 1.5, None):
        with pytest.raises(ConfigError, match="master seed"):
            trial_rng(seed, 0)


@pytest.mark.parametrize("seed,index", [(0, 0), (2**32 - 1, 7), (2**32, 3),
                                        (2**70 + 5, 2**33 + 1)])
def test_trial_rng_draws_numpys_stream_for_the_pair(seed, index):
    # the seed words trial_rng hands SeedSequence are those numpy makes
    # of the list [seed, index], one or more 32-bit words per int
    got = trial_rng(seed, index)
    want = Generator(PCG64(SeedSequence([seed, index])))
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(64).tobytes() == want.random(64).tobytes()


def test_throughput_monotone_in_power_per_trial():
    # common random numbers: geometry is identical across power levels
    for t in range(3):
        vals = []
        for pt in (0.0, 4.0, 8.0):
            cfg = dataclasses.replace(SMALL, pt_db=pt).validate()
            vals.append(run_trial(cfg, t, "stm",
                                  include_baseline=False).ours)
        assert vals[0] < vals[1] < vals[2]


def test_grouped_scheme_beats_baseline_per_trial():
    for t in range(25):
        r = run_trial(CFG, t, "stm")
        assert r.ours > r.baseline


def test_grouped_scheme_faster_than_baseline_per_trial():
    cfg = dataclasses.replace(CFG, pt_db=2.0, I_nats=30.0).validate()
    for t in range(25):
        r = run_trial(cfg, t, "ttm")
        assert r.ours < r.baseline


def test_baseline_skippable():
    r = run_trial(SMALL, 1, "stm", include_baseline=False)
    assert r.baseline is None


# -------------------------------------------------- sweep plumbing

def test_apply_sweep_value():
    assert apply_sweep_value(CFG, "pt_db", 7).pt_db == 7.0
    scaled = apply_sweep_value(CFG, "N", 6)
    assert scaled.N == 6 and scaled.K == 30  # keeps 5 sensors per group
    assert apply_sweep_value(CFG, "v_max", 20).v_max_mps == 20.0
    assert apply_sweep_value(CFG, "I_nats", 5).I_nats == 5.0
    with pytest.raises(ConfigError):
        apply_sweep_value(CFG, "altitude", 30)
    with pytest.raises(ConfigError):
        apply_sweep_value(CFG, "N", 0)
    # integral floats, as the CLI parses them, set N; fractions are
    # refused rather than solved at their integer part
    assert apply_sweep_value(CFG, "N", 9.0).N == 9
    with pytest.raises(ConfigError):
        apply_sweep_value(CFG, "N", 2.5)
    with pytest.raises(ConfigError):
        run_sweep(SMALL, SweepSpec("N", (2.2, 2.7), 2, "stm"))


def test_sweep_spec_validation():
    good = dict(param="pt_db", values=(0.0, 2.0), trials=4, objective="stm")
    SweepSpec(**good)
    for kw in ({"param": "k0_db"}, {"values": ()},
               {"values": (2.0, 2.0)}, {"values": (4.0, 2.0)},
               {"trials": 0}, {"trials": 1.5}, {"objective": "both"},
               {"values": ("a", "b")}, {"values": (False, True)},
               {"values": (math.nan,)}, {"values": (0.0, math.inf)},
               {"values": (-math.inf,)}, {"values": (None,)}):
        with pytest.raises(ConfigError):
            SweepSpec(**{**good, **kw})


def test_sweep_results_and_csv(tmp_path):
    sweep = SweepSpec(param="pt_db", values=(0.0, 4.0), trials=6,
                      objective="stm")
    results, failures = run_sweep(SMALL, sweep)
    assert failures == []
    assert [r.value for r in results] == [0.0, 4.0]
    for r in results:
        assert r.trials == 6 and r.exclusions == 0
        assert r.improvement > 0.0
        assert r.se_ours >= 0.0
    assert results[1].mean_ours > results[0].mean_ours

    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, results, metadata=("objective=stm", "seed=3"))
    lines = path.read_text().splitlines()
    assert lines[0] == "# objective=stm"
    assert lines[2] == SWEEP_HEADER
    assert len(lines) == 5
    assert lines[3].split(",")[0] == "pt_db"


def test_sweep_deterministic_and_worker_invariant():
    sweep = SweepSpec(param="pt_db", values=(2.0, 6.0), trials=4,
                      objective="stm")
    first, _ = run_sweep(SMALL, sweep, workers=1)
    again, _ = run_sweep(SMALL, sweep, workers=1)
    pooled, _ = run_sweep(SMALL, sweep, workers=2)
    assert first == again
    assert first == pooled


def test_sweep_past_the_store_draws_each_trial_once(monkeypatch):
    # one process runs a sweep longer than run_trial's store as blocks
    # that fit it, so each trial is drawn once, not again at each point
    monkeypatch.setattr(experiments, "_TRIAL_MEMO", 8)
    real_rng = experiments.trial_rng
    drawn = []

    def recorded_rng(seed, t):
        drawn.append(t)
        return real_rng(seed, t)

    monkeypatch.setattr(experiments, "trial_rng", recorded_rng)
    sweep = SweepSpec(param="pt_db", values=(0.0, 4.0, 8.0), trials=20,
                      objective="stm")
    results, failures = run_sweep(SMALL, sweep, workers=1)
    assert drawn == list(range(20))
    assert failures == []
    assert [r.trials for r in results] == [20, 20, 20]


@pytest.mark.parametrize("param,values,reuse", [
    ("I_nats", (1.0, 10.0, 30.0), True),
    ("v_max", (8.0, 10.0, 14.0), True),
    ("pt_db", (0.0, 4.0, 8.0), False)], ids=["I_nats", "v_max", "pt_db"])
def test_ttm_sweep_prices_each_radio_once(param, values, reuse,
                                          monkeypatch):
    # a plan's coefficients and hover denominators read the radio only
    # through its SNR scale: a demand or speed sweep scales each plan's
    # sums once per trial and makes its Lambert calls at the first point
    # only; a power sweep moves the SNR, so each point computes its own
    lambert, scaled = [], []
    real_w = ttm.lambert_w0
    real_scaled = GroupCoefficients.scaled
    real_rescaled = GroupCoefficients.rescaled

    def counted_w(x):
        lambert.append(x)
        return real_w(x)

    def counted_scaled(cls, sums, params):
        scaled.append(sums)
        return real_scaled(sums, params)

    def counted_rescaled(self, h, params):
        scaled.append(h)
        return real_rescaled(self, h, params)

    monkeypatch.setattr(ttm, "lambert_w0", counted_w)
    monkeypatch.setattr(GroupCoefficients, "scaled",
                        classmethod(counted_scaled))
    monkeypatch.setattr(GroupCoefficients, "rescaled", counted_rescaled)
    trials = 10

    def counts(vals):
        experiments._DRAWS.clear()
        lambert.clear()
        scaled.clear()
        _, failures = run_sweep(CFG, SweepSpec(param=param, values=vals,
                                               trials=trials,
                                               objective="ttm"))
        assert failures == []
        return len(lambert), len(scaled)

    alone = [counts(values[p:p + 1]) for p in range(len(values))]
    assert all(w > 0 and s == 2 * trials for w, s in alone)
    if reuse:
        assert counts(values) == alone[0]
    else:
        assert counts(values) == (sum(w for w, _ in alone),
                                  2 * trials * len(values))


@pytest.mark.parametrize("memo", [None, 4], ids=["store", "store-of-4"])
def test_pooled_sweep_keeps_failures_in_order(memo, monkeypatch):
    # half the drawn missions outfly a 10 s budget: real exclusions,
    # which the pool must report as one process does, in the same order,
    # also when the store is smaller than the sweep (forked pool workers
    # see the patched store size too)
    if memo is not None:
        monkeypatch.setattr(experiments, "_TRIAL_MEMO", memo)
    sweep = SweepSpec(param="pt_db", values=(0.0, 8.0), trials=12,
                      objective="stm")
    config = ScenarioConfig(T_s=10.0)
    results, failures = run_sweep(config, sweep, workers=1)
    assert [r.exclusions for r in results] == [6, 6]
    assert len(failures) == 12
    assert all("InfeasiblePlanError" in f for f in failures)
    assert run_sweep(config, sweep, workers=2) == (results, failures)


def test_sweep_without_baseline():
    sweep = SweepSpec(param="pt_db", values=(4.0,), trials=3,
                      objective="stm")
    results, _ = run_sweep(SMALL, sweep, baseline="none")
    assert math.isnan(results[0].mean_baseline)
    assert math.isnan(results[0].improvement)
    with pytest.raises(ConfigError):
        run_sweep(SMALL, sweep, baseline="mystery")


def test_time_objective_sweep():
    sweep = SweepSpec(param="I_nats", values=(10.0, 30.0), trials=4,
                      objective="ttm")
    results, failures = run_sweep(SMALL, sweep)
    assert failures == []
    assert results[1].mean_ours > results[0].mean_ours  # more nats, more time
    for r in results:
        assert r.improvement < 0.0  # grouped scheme finishes sooner


def test_failed_trials_are_excluded(monkeypatch):
    import uavwpt.experiments as ex
    real = ex.run_trial

    def flaky(config, trial_index, objective="stm", include_baseline=True):
        if trial_index == 1:
            raise NumericDomainError("synthetic failure")
        return real(config, trial_index, objective, include_baseline)

    monkeypatch.setattr(ex, "run_trial", flaky)
    sweep = SweepSpec(param="pt_db", values=(4.0,), trials=4,
                      objective="stm")
    results, failures = run_sweep(SMALL, sweep, workers=1)
    assert results[0].trials == 3
    assert results[0].exclusions == 1
    assert len(failures) == 1
    assert "synthetic failure" in failures[0]


def test_all_failed_point_raises(monkeypatch):
    import uavwpt.experiments as ex

    def broken(*args, **kwargs):
        raise NumericDomainError("synthetic failure")

    monkeypatch.setattr(ex, "run_trial", broken)
    sweep = SweepSpec(param="pt_db", values=(4.0,), trials=3,
                      objective="stm")
    with pytest.raises(NumericDomainError) as exc:
        run_sweep(SMALL, sweep, workers=1)
    assert "all 3 trials failed" in str(exc.value)


# -------------------------------------------------- pinned sweep rows

# Data rows of two default-config sweeps, pinned as literal strings so a
# refactor that moves any printed digit fails here.  The pt_db sweep at
# seed 1 solves 20 grouped plans with a free zeta_1 (two of them once went
# to an SQP fallback) and 20 baselines with a free tau_0.
PINNED_STM_ROWS = [
    "pt_db,0,10,416.990368492,18.1684203022,199.912069665,"
    "0.0247872828215,1.08586889822",
    "pt_db,8,10,966.258278874,26.9248677483,697.657246486,"
    "0.0939137663975,0.385004289343",
]
PINNED_TTM_ROWS = [
    "I_nats,1,10,33.5714930697,0.825886886011,61.6576472849,"
    "0.189142680119,-0.455517773577",
    "I_nats,10,10,330.184988184,8.8509797657,601.230119054,"
    "0.179539218682,-0.450817619212",
    "I_nats,30,10,990.554964551,26.5529392971,1803.69035716,"
    "0.538617656045,-0.450817619212",
]


def test_sweep_rows_pinned(tmp_path):
    cases = (
        (SweepSpec(param="pt_db", values=(0.0, 8.0), trials=10,
                   objective="stm"), PINNED_STM_ROWS),
        (SweepSpec(param="I_nats", values=(1.0, 10.0, 30.0), trials=10,
                   objective="ttm"), PINNED_TTM_ROWS),
    )
    for sweep, expected in cases:
        results, failures = run_sweep(ScenarioConfig(), sweep)
        assert failures == []
        path = tmp_path / f"sweep_{sweep.param}.csv"
        write_sweep_csv(path, results)
        assert path.read_text().splitlines()[1:] == expected
