"""Smoke test of the benchmark harness at its smallest run length.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = ["--workload", "ttm-demand", "--seed", str(run.DEFAULT_SEED),
        "--seconds", "1"]


def _run(capsys, argv):
    code = run.main(argv)
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def test_every_named_metric_prints_with_its_unit(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, out, result = _run(capsys, TINY + ["--trace", str(trace)])
        assert code == 0 and result["correct"], out
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            value = result["metrics"][m["name"]]
            assert value["unit"] == m["unit"]
            assert isinstance(value["value"], float)
            assert f"  {m['name']} " in out


def test_reference_check_tolerance():
    expected = run.load_reference("ttm-demand")[run.DEFAULT_SEED][0]
    same = [tuple(p) for p in expected]
    assert run.sweep_mismatches(same, expected, "s") == []
    nudged = [(mo * (1 + 1e-12), mb, ex) for mo, mb, ex in same]
    assert run.sweep_mismatches(nudged, expected, "s") == []
    moved = [(mo, mb * (1 + 1e-7), ex) for mo, mb, ex in same]
    assert len(run.sweep_mismatches(moved, expected, "s")) == len(same)
    excluded = [(mo, mb, ex + 1) for mo, mb, ex in same]
    assert len(run.sweep_mismatches(excluded, expected, "s")) == len(same)


def test_perturbed_reference_fails_the_run(capsys, monkeypatch):
    real = run.load_reference

    def perturbed(name):
        ref = real(name)
        mo, mb, ex = ref[run.DEFAULT_SEED][0][0]
        ref[run.DEFAULT_SEED][0][0] = [mo * (1 + 1e-6), mb, ex]
        return ref

    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "load_reference", perturbed)
    code, out, result = _run(capsys, TINY + ["--trace", "0"])
    assert code == 1 and result["correct"] is False
    assert "mean_ours" in out
