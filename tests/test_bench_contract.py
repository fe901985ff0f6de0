"""The benchmark's correctness check, run against the package in the
unit suite.

bench/run.py replays sweep 0 of its recorded seeds and compares the
sweep means with bench/reference.json at 1e-9 relative.  This test
imports that script (reading it only) and makes the same replay for
the stm-power and ttm-demand workloads and for stm-groups, the N sweep,
whose solves include pinned ones, so a change that moves a sweep
mean, or removes a name the benchmark calls, fails here first.  It also
counts the trial draws of one stm-power sweep, the work `run_trial`
saves by keeping each trial's draw across the sweep's points.
"""

import importlib.util
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload",
                         ["stm-power", "ttm-demand", "stm-groups"])
@pytest.mark.parametrize("seed", [1, 9])
def test_sweep_zero_matches_bench_reference(bench, workload, seed):
    uv = bench.load_uavwpt()
    expected = bench.load_reference(workload)[seed][0]
    got = bench.Sweeps(uv, bench.WORKLOADS[workload], seed).run(0)
    assert bench.sweep_mismatches(got, expected, f"seed {seed}") == []


def test_stm_power_sweep_draws_each_trial_once(bench, monkeypatch):
    # five pt_db points of 20 trials: one draw per trial index, where
    # drawing at every point would make 100
    uv = bench.load_uavwpt()
    real = uv.experiments.trial_rng
    drawn = []

    def counted(seed, t):
        drawn.append(t)
        return real(seed, t)

    monkeypatch.setattr(uv.experiments, "trial_rng", counted)
    got = bench.Sweeps(uv, bench.WORKLOADS["stm-power"], 1).run(0)
    assert sorted(drawn) == list(range(20))
    expected = bench.load_reference("stm-power")[1][0]
    assert bench.sweep_mismatches(got, expected, "seed 1") == []
