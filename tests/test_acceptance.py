"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test prints a single `[criterion N] PASS/FAIL` verdict line with
its measured numbers, then asserts.  Criteria with a stated runtime
budget include the elapsed time in the verdict.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from instance_tools import stm_grid_oracle
from uavwpt.channel import leg_average_inverse_sq
from uavwpt.cli import main
from uavwpt.config import ScenarioConfig
from uavwpt.experiments import (SweepSpec, build_problem, generate_trial,
                                run_sweep, run_trial, trial_rng)
from uavwpt.geometry import plan_groups
from uavwpt.stm import delivered_information, solve_stm
from uavwpt.ttm import solve_ttm
from uavwpt.verification import (concavity_suite, flight_energy_numeric,
                                 ttm_grid_oracle)

DEFAULTS = ScenarioConfig()  # physical defaults used throughout


def _verdict(num: int, ok: bool, detail: str):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _desk(N: int) -> ScenarioConfig:
    per_group = DEFAULTS.K // DEFAULTS.N
    return dataclasses.replace(DEFAULTS, N=N, K=N * per_group).validate()


def _desk_instance(inst_seed: int, objective: str):
    desk = _desk(2)
    geo = generate_trial(desk, trial_rng(inst_seed, 0))
    return build_problem(desk, geo, objective)


def _serpentine_plan(rng):
    """Two-row, four-group plan whose later groups sit on an even row."""
    rows = (0.0, 20.0)
    centers = ((10.0, rows[0]), (60.0, rows[0]),
               (60.0, rows[1]), (10.0, rows[1]))
    sensors = []
    for cx, cy in centers:
        for _ in range(2):
            sensors.append((cx + rng.uniform(-4.0, 4.0),
                            cy + rng.uniform(-2.0, 2.0)))
    return plan_groups(tuple(sensors), DEFAULTS.A_m, 80.0, 4, rows)


def _flight_sums(plan, A):
    """Each group's b_n of a plan, from the one leg-average formula."""
    b = []
    for n in range(1, plan.N + 1):
        p0, p1 = plan.leg(n)
        lx, ly = p1[0] - p0[0], p1[1] - p0[1]
        d = math.hypot(lx, ly)
        b.append(math.fsum(
            leg_average_inverse_sq(lx, ly, d, x - p0[0], y - p0[1], A * A)
            for x, y in map(plan.position, plan.members(n))))
    return b


def test_criterion_1_flight_energy_vs_quadrature():
    # half the geometries are drawn trials, read as the sweep solves
    # them (their grouped plan or their baseline, with the b_n of the
    # trial's sums); the serpentine half flies even rows
    t0 = time.monotonic()
    worst = 0.0
    parities = {"odd": 0, "even": 0}
    for j in range(1000):
        rng = np.random.default_rng(90_000 + j)
        if j % 2 == 0:
            desk = _desk(2)
            geo = generate_trial(desk, trial_rng(90_000 + j, 0))
            if j % 4 == 0:
                plan, params, b = geo.plan, desk.radio, geo.sums[1]
            else:
                plan, params = geo.baseline_plan, desk.baseline_radio
                b = geo.baseline[2][1]
        else:
            plan, params = _serpentine_plan(rng), DEFAULTS.radio
            b = _flight_sums(plan, params.A)
        n = int(rng.integers(1, plan.N + 1))
        zeta = float(rng.uniform(0.5, 10.0))
        parities[plan.row_parity(n)] += 1
        closed = params.energy_scale * b[n - 1] * zeta
        numeric = flight_energy_numeric(plan, params, n, zeta)
        worst = max(worst, abs(closed - numeric) / abs(numeric))
    dt = time.monotonic() - t0
    ok = worst <= 1e-6 and dt <= 30.0 and min(parities.values()) >= 100
    _verdict(1, ok,
             f"flight energy closed form vs quadrature on 1000 geometries "
             f"(odd/even rows {parities['odd']}/{parities['even']}): "
             f"worst rel err {worst:.3g} <= 1e-06, {dt:.1f}s <= 30s")


def test_criterion_2_stm_matches_grid_oracle():
    t0 = time.monotonic()
    worst_gap = -math.inf
    worst_resid = 0.0
    for j in range(50):
        problem = _desk_instance(3000 + j, "stm")
        _, diag = solve_stm(problem)
        _, oracle_val = stm_grid_oracle(problem)
        worst_gap = max(worst_gap, (oracle_val - diag.objective)
                        / max(oracle_val, 1e-12))
        worst_resid = max(worst_resid, diag.budget_residual)
    dt = time.monotonic() - t0
    ok = worst_gap <= 1e-3 and worst_resid <= 1e-8 and dt <= 180.0
    _verdict(2, ok,
             f"throughput solver vs grid oracle on 50 two-group instances: "
             f"worst shortfall {worst_gap:.3g} <= 0.1%, worst budget "
             f"residual {worst_resid:.3g} <= 1e-08, {dt:.1f}s <= 180s")


def test_criterion_3_ttm_constraints_and_oracle():
    t0 = time.monotonic()
    worst_short = 0.0
    worst_eq = 0.0
    worst_factor = 0.0
    for j in range(50):
        problem = _desk_instance(5000 + j, "ttm")
        alloc, total = solve_ttm(problem)
        info = delivered_information(problem.coeffs, alloc)
        for n in range(problem.N):
            worst_short = max(worst_short, problem.I[n] - info[n])
            floor = problem.D[n] / problem.v_max
            if alloc.zeta[n] > floor * (1.0 + 1e-9):  # clamp inactive
                worst_eq = max(worst_eq, abs(info[n] - problem.I[n]))
        _, oracle_total = ttm_grid_oracle(problem)
        worst_factor = max(worst_factor, total / oracle_total)
    dt = time.monotonic() - t0
    ok = (worst_short <= 1e-8 and worst_eq <= 1e-8
          and worst_factor <= 1.05 and dt <= 180.0)
    _verdict(3, ok,
             f"time-min solver on 50 two-group instances: worst demand "
             f"shortfall {worst_short:.3g} <= 1e-08, worst unclamped "
             f"equality gap {worst_eq:.3g} <= 1e-08, worst total/oracle "
             f"{worst_factor:.5f} <= 1.05, {dt:.1f}s <= 180s")


def test_criterion_4_concavity_suite():
    t0 = time.monotonic()
    coeffs = _desk_instance(7000, "stm").coeffs
    report = concavity_suite(coeffs, trials=100_000, seed=DEFAULTS.seed)
    dt = time.monotonic() - t0
    ok = report.violations == 0 and dt <= 30.0
    _verdict(4, ok,
             f"hover-throughput concavity: {report.violations} violations "
             f"in {report.trials} midpoint tests (min slack "
             f"{report.min_slack:.3g} >= -1e-09), {dt:.1f}s <= 30s")


def test_criterion_5_throughput_power_trend():
    sweep = SweepSpec(param="pt_db", values=(0.0, 2.0, 4.0, 6.0, 8.0),
                      trials=1000, objective="stm")
    results, _ = run_sweep(DEFAULTS, sweep)
    means = [r.mean_ours for r in results]
    monotone = all(hi >= lo for lo, hi in zip(means, means[1:]))
    beats = all(r.mean_ours > r.mean_baseline for r in results)
    ratio4 = results[2].mean_ours / results[2].mean_baseline
    excluded = sum(r.exclusions for r in results)
    ok = monotone and beats and ratio4 >= 1.5
    _verdict(5, ok,
             f"K=20 N=4 throughput over 0..8 dB (1000 trials/point, "
             f"{excluded} excluded): means {'rise' if monotone else 'DIP'} "
             f"{means[0]:.1f}->{means[-1]:.1f}, proposed>baseline "
             f"everywhere={beats}, ratio@4dB {ratio4:.3f} >= 1.5")


def test_criterion_6_group_count_improvement():
    t0 = time.monotonic()
    sweep = SweepSpec(param="N", values=(6.0, 9.0), trials=1000,
                      objective="stm")
    results, _ = run_sweep(DEFAULTS, sweep)
    imps = [r.improvement for r in results]
    dt = time.monotonic() - t0
    ok = all(0.60 <= imp <= 0.90 for imp in imps) and dt <= 600.0
    _verdict(6, ok,
             f"throughput improvement over baseline at 4 dB: N=6 "
             f"{imps[0]:.1%}, N=9 {imps[1]:.1%}, both in 75%+-15pp "
             f"(1000 trials/point), {dt:.0f}s <= 600s")


def test_criterion_7_time_halving_ratio():
    cfg = dataclasses.replace(DEFAULTS, pt_db=2.0, I_nats=30.0).validate()
    sweep = SweepSpec(param="I_nats", values=(30.0,), trials=1000,
                      objective="ttm")
    results, _ = run_sweep(cfg, sweep)
    r = results[0]
    ratio = r.mean_baseline / r.mean_ours
    ok = 1.7 <= ratio <= 2.3
    _verdict(7, ok,
             f"total-time ratio baseline/proposed at I=30 nats, 2 dB: "
             f"{ratio:.3f} in [1.7, 2.3] (1000 trials, means "
             f"{r.mean_baseline:.0f}s vs {r.mean_ours:.0f}s)")


def test_criterion_8_time_floors():
    cfg30 = dataclasses.replace(DEFAULTS, I_nats=30.0).validate()
    pt_sweep = SweepSpec(param="pt_db", values=(0.0, 10.0, 20.0, 30.0),
                         trials=300, objective="ttm")
    pt_means = [r.mean_ours for r in
                run_sweep(cfg30, pt_sweep, baseline="none")[0]]
    pt_mono = all(hi <= lo for lo, hi in zip(pt_means, pt_means[1:]))

    # light demands make the speed cap bind, so v_max actually moves
    # the total instead of the check passing on ties
    cfg2 = dataclasses.replace(cfg30, pt_db=2.0, I_nats=1.0).validate()
    v_sweep = SweepSpec(param="v_max", values=(5.0, 10.0, 15.0, 20.0),
                        trials=300, objective="ttm")
    v_means = [r.mean_ours for r in
               run_sweep(cfg2, v_sweep, baseline="none")[0]]
    v_mono = all(hi <= lo for lo, hi in zip(v_means, v_means[1:]))

    # at high power with light demands the mission collapses to pure
    # travel; totals must sit within 2% of the distance/speed floor
    light = dataclasses.replace(DEFAULTS, pt_db=30.0,
                                I_nats=0.02).validate()
    totals = []
    floors = []
    for t in range(300):
        totals.append(run_trial(light, t, "ttm",
                                include_baseline=False).ours)
        geo = generate_trial(light, trial_rng(light.seed, t))
        floors.append(sum(geo.plan.D) / light.v_max_mps)
    overhead = sum(totals) / sum(floors) - 1.0
    ok = pt_mono and v_mono and overhead <= 0.02
    _verdict(8, ok,
             f"total time non-increasing in power "
             f"({pt_means[0]:.0f}->{pt_means[-1]:.0f}s: {pt_mono}) and "
             f"speed ({v_means[0]:.0f}->{v_means[-1]:.0f}s: {v_mono}); "
             f"travel-floor overhead at 30 dB {overhead:.2%} <= 2%")


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "scn.ini"
    cfg.write_text("[scenario]\nK = 8\nN = 2\ntrials = 20\nseed = 5\n")

    def sweep_rows(out, workers):
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--param", "pt_db", "--values", "0,4",
                   "--workers", str(workers)])
        assert rc == 0
        return [l for l in (out / "sweep_pt_db.csv").read_text().splitlines()
                if not l.startswith("#")]

    rows = [sweep_rows(tmp_path / d, w)
            for d, w in (("s1", 1), ("s2", 1), ("s3", 2))]
    sweep_ok = rows[0] == rows[1] == rows[2]

    def verify_bytes(out):
        rc = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        return (out / "verification.csv").read_bytes()

    blobs = [verify_bytes(tmp_path / d) for d in ("v1", "v2")]
    verify_ok = blobs[0] == blobs[1]
    ok = sweep_ok and verify_ok
    _verdict(9, ok,
             f"byte-identical data rows across reruns and worker counts: "
             f"sweep={sweep_ok}, verify={verify_ok}")
