"""The benchmark's correctness check, run against the package in the
unit suite.

bench/run.py replays sweep 0 of its recorded seeds and compares the
sweep means with bench/reference.json at 1e-9 relative.  This test
imports that script (reading it only) and makes the same replay for
the stm-power and ttm-demand workloads, so a change that moves a sweep
mean, or removes a name the benchmark calls, fails here first.
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


@pytest.mark.parametrize("workload", ["stm-power", "ttm-demand"])
@pytest.mark.parametrize("seed", [1, 9])
def test_sweep_zero_matches_bench_reference(bench, workload, seed):
    uv = bench.load_uavwpt()
    expected = bench.load_reference(workload)[seed][0]
    got = bench.Sweeps(uv, bench.WORKLOADS[workload], seed).run(0)
    assert bench.sweep_mismatches(got, expected, f"seed {seed}") == []
