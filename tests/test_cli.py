import hashlib
import platform
import re

import numpy as np
import pytest

import uavwpt
from conftest import fail_draws
from uavwpt.cli import main
from uavwpt.config import load_config
from uavwpt.experiments import (SWEEP_PARAMS, SweepSpec, run_sweep,
                                write_sweep_csv)

BASE_INI = """\
[scenario]
K = 8
N = 2
pt_db = 4
T_s = 800
trials = 3
seed = 3
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(BASE_INI, encoding="utf-8")
    return path


def _line(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line
    raise AssertionError(f"no line starting with {prefix!r} in:\n{out}")


# -------------------------------------------------- plan

def test_plan_runs(cfg_path, tmp_path, capsys):
    rc = main(["plan", "--config", str(cfg_path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert _line(out, "groups:").startswith("groups: 2  sensors: 8")
    rows = (tmp_path / "plan.csv").read_text().splitlines()
    assert rows[0].startswith("group,")
    assert len(rows) == 9  # header + one row per sensor


def test_plan_reads_field_file(cfg_path, tmp_path, capsys):
    field = tmp_path / "field.txt"
    field.write_text("".join(f"{x} {y}\n" for x, y in
                             [(0, 1), (2, 0), (4, 2), (30, 1),
                              (32, 0), (34, 2), (36, 1), (38, 0)]))
    rc = main(["plan", "--config", str(cfg_path), "--out", str(tmp_path),
               "--field", str(field)])
    assert rc == 0
    assert "groups: 2" in capsys.readouterr().out


def test_plan_default_scenario(tmp_path, capsys):
    # default keys only: the plan is the drawn trial-0 realization that
    # `solve` solves, which keeps every hover within d_max
    path = tmp_path / "default.ini"
    path.write_text("[scenario]\ntrials = 40\n")
    rc = main(["plan", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert _line(capsys.readouterr().out, "groups:").startswith(
        "groups: 4  sensors: 20")


def test_plan_flags_infeasible_budget(tmp_path, capsys):
    path = tmp_path / "tight.ini"
    path.write_text(BASE_INI.replace("T_s = 800", "T_s = 2"))
    rc = main(["plan", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "INFEASIBLE" in capsys.readouterr().out


# `plan` output pinned byte for byte: the default scenario's trial-0
# realization, and a hand-written field grouped under BASE_INI.
FIELD_TEXT = "0 1\n2 0\n4 2\n30 1\n32 0\n34 2\n36 1\n38 0\n"
PINNED_PLAN = {
    "default": (
        "groups: 4  sensors: 20\n"
        "travel time at top speed: 10.5550943809 s (budget 1000 s)\n",
        "group,sensor_id,x,y,hover_x,hover_y,D_n,row_parity\n"
        "1,1,5.23304817956,2.86996763533,25.118216247,1.55915726005,"
        "25.118216247,odd\n"
        "1,2,5.41047462604,1.75753201074,25.118216247,1.55915726005,"
        "25.118216247,odd\n"
        "1,3,10.2035329407,2.57320969475,25.118216247,1.55915726005,"
        "25.118216247,odd\n"
        "1,4,3.79105076708,0.878084126049,25.118216247,1.55915726005,"
        "25.118216247,odd\n"
        "1,5,0.647689489712,0.771936577219,25.118216247,1.55915726005,"
        "25.118216247,odd\n"
        "2,6,30.8200184752,0.0953240490411,54.6228532103,1.55915726005,"
        "29.5046369633,odd\n"
        "2,7,31.5633126114,0.372978222757,54.6228532103,1.55915726005,"
        "29.5046369633,odd\n"
        "2,8,33.6404338314,2.56061595057,54.6228532103,1.55915726005,"
        "29.5046369633,odd\n"
        "2,9,33.3734844687,1.49992115778,54.6228532103,1.55915726005,"
        "29.5046369633,odd\n"
        "2,10,23.0420162533,3.40578603471,54.6228532103,1.55915726005,"
        "29.5046369633,odd\n"
        "3,11,55.8579969901,1.72406468224,76.0644493375,1.55915726005,"
        "21.4415961272,odd\n"
        "3,12,60.6598288995,0.201765295153,76.0644493375,1.55915726005,"
        "21.4415961272,odd\n"
        "3,13,53.2299490918,1.62343160224,76.0644493375,1.55915726005,"
        "21.4415961272,odd\n"
        "3,14,62.3861517499,2.0531162822,76.0644493375,1.55915726005,"
        "21.4415961272,odd\n"
        "3,15,55.3016607554,2.01117046426,76.0644493375,1.55915726005,"
        "21.4415961272,odd\n"
        "4,16,74.924830165,-0.282471233291,105.550943809,1.55915726005,"
        "29.4864944714,odd\n"
        "4,17,80.6556548211,1.39650079159,105.550943809,1.55915726005,"
        "29.4864944714,odd\n"
        "4,18,87.529541755,2.12446993661,105.550943809,1.55915726005,"
        "29.4864944714,odd\n"
        "4,19,75.8782002764,1.93092133247,105.550943809,1.55915726005,"
        "29.4864944714,odd\n"
        "4,20,84.6140960381,2.91868334418,105.550943809,1.55915726005,"
        "29.4864944714,odd\n"),
    "field": (
        "groups: 2  sensors: 8\n"
        "travel time at top speed: 5.2 s (budget 800 s)\n",
        "group,sensor_id,x,y,hover_x,hover_y,D_n,row_parity\n"
        "1,1,0,1,9,2.5,26,odd\n"
        "1,2,2,0,9,2.5,26,odd\n"
        "1,3,4,2,9,2.5,26,odd\n"
        "1,4,30,1,9,2.5,26,odd\n"
        "2,5,32,0,35,2.5,26,odd\n"
        "2,6,34,2,35,2.5,26,odd\n"
        "2,7,36,1,35,2.5,26,odd\n"
        "2,8,38,0,35,2.5,26,odd\n"),
}


@pytest.mark.parametrize("case", sorted(PINNED_PLAN))
def test_plan_output_pinned(case, cfg_path, tmp_path, capsys):
    if case == "default":
        config = tmp_path / "default.ini"
        config.write_text("[scenario]\ntrials = 40\n")
        extra = []
    else:
        config = cfg_path
        field = tmp_path / "field.txt"
        field.write_text(FIELD_TEXT)
        extra = ["--field", str(field)]
    out_dir = tmp_path / "out"
    rc = main(["plan", "--config", str(config), "--out", str(out_dir),
               *extra])
    assert rc == 0
    stdout, csv_text = PINNED_PLAN[case]
    assert capsys.readouterr().out == (
        stdout + f"plan written to {out_dir / 'plan.csv'}\n")
    assert (out_dir / "plan.csv").read_bytes() == csv_text.encode()


# Default-config budgets within one rounding of the trial-0 travel time:
# seed 7's budget sits just below it and seed 12's just above it.
@pytest.mark.parametrize("seed,T_s", [(7, "10.523202147810027"),
                                      (12, "9.56618919592574")])
def test_plan_and_solve_agree_on_feasibility(seed, T_s, tmp_path, capsys):
    path = tmp_path / "edge.ini"
    path.write_text(f"[scenario]\nT_s = {T_s}\nseed = {seed}\n")
    codes = [main([*command, "--config", str(path), "--out", str(tmp_path)])
             for command in (["plan"], ["solve", "stm"])]
    capsys.readouterr()
    assert codes[0] == codes[1]
    assert codes[0] in (0, 2)


# -------------------------------------------------- solve

def test_solve_stm(cfg_path, tmp_path, capsys):
    rc = main(["solve", "stm", "--config", str(cfg_path),
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    taus = _line(out, "tau:").split()[1:]
    zetas = _line(out, "zeta:").split()[1:]
    assert len(taus) == 3 and len(zetas) == 2
    assert float(_line(out, "objective:").split()[1]) > 0.0
    assert abs(float(_line(out, "budget residual:").split()[2])) <= 1e-8
    rows = (tmp_path / "stm_diag.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[0].startswith("N,")
    # the optimality gap is computed when the row is written
    assert (tmp_path / "stm_diag.csv").read_bytes() == (
        b"N,T,v_max,mu,objective,budget_residual,optimality_gap\n"
        b"2,800,10,0.62278884184,497.436244841,0,1.05329500307e-11\n")


def test_solve_ttm(cfg_path, tmp_path, capsys):
    rc = main(["solve", "ttm", "--config", str(cfg_path),
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert float(_line(out, "total time:").split()[2]) > 0.0
    taus = _line(out, "tau:").split()[1:]
    assert float(taus[0]) == 0.0  # no start hover when minimizing time
    assert _line(out, "tau:") == "tau: 0 44.9571366831 48.1485693671"
    assert _line(out, "zeta:") == "zeta: 26.1157698237 30.649334213"
    assert (tmp_path / "ttm_diag.csv").read_bytes() == (
        b"N,Pt_dB,v_max,I_total,total_time,clamped_legs\n"
        b"2,4,10,80,149.870810087,0\n")


def test_solve_seed_override_changes_draw(cfg_path, tmp_path, capsys):
    main(["solve", "stm", "--config", str(cfg_path), "--out", str(tmp_path)])
    first = _line(capsys.readouterr().out, "objective:")
    main(["solve", "stm", "--config", str(cfg_path), "--out", str(tmp_path),
          "--seed", "12"])
    second = _line(capsys.readouterr().out, "objective:")
    assert first != second


def test_solve_low_power_exit_code(cfg_path, tmp_path, capsys):
    # the last group cannot reach a positive rate on flight harvesting
    # alone, which the budget-price chain does not need
    path = tmp_path / "low.ini"
    path.write_text(BASE_INI.replace("pt_db = 4", "pt_db = -25"))
    rc = main(["solve", "stm", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert _line(capsys.readouterr().out, "method:") == "method: free-zeta1"


def test_solve_stm_falls_back_like_sweep(cfg_path, tmp_path, capsys):
    # seed 0 is a draw that once went to the SQP fallback in both
    rc = main(["solve", "stm", "--config", str(cfg_path),
               "--out", str(tmp_path), "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert _line(out, "method:") == "method: free-zeta1"
    assert float(_line(out, "objective:").split()[1]) > 0.0


# -------------------------------------------------- sweep

def test_sweep_writes_deterministic_rows(cfg_path, tmp_path, capsys):
    def run(out_dir, extra=()):
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(out_dir),
                   "--param", "pt_db", "--values", "0,4", "--trials", "3",
                   *extra])
        assert rc == 0
        text = (out_dir / "sweep_pt_db.csv").read_text()
        return [l for l in text.splitlines() if not l.startswith("#")]

    rows_a = run(tmp_path / "a")
    rows_b = run(tmp_path / "b")
    rows_c = run(tmp_path / "c", ("--workers", "2"))
    capsys.readouterr()
    assert rows_a == rows_b == rows_c
    assert rows_a[0].startswith("param,")
    assert len(rows_a) == 3
    assert rows_a[1].split(",")[0] == "pt_db"


def test_sweep_reports_points(cfg_path, tmp_path, capsys):
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
               "--param", "I_nats", "--values", "5,15", "--trials", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"I_nats=5: ours ", out)
    assert (tmp_path / "sweep_I_nats.csv").exists()


def test_sweep_default_objectives_come_from_the_table(cfg_path, tmp_path,
                                                     capsys):
    values = {"pt_db": "4", "N": "2", "v_max": "10", "I_nats": "10"}
    assert set(values) == set(SWEEP_PARAMS)
    for param, (_, objective) in SWEEP_PARAMS.items():
        assert main(["sweep", "--config", str(cfg_path), "--out",
                     str(tmp_path), "--param", param, "--values",
                     values[param], "--trials", "1", "--baseline",
                     "none"]) == 0
        text = (tmp_path / f"sweep_{param}.csv").read_text()
        assert f"# objective {objective}  baseline none" in text
    capsys.readouterr()


def test_sweep_rejects_bad_values(cfg_path, tmp_path, capsys):
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
               "--param", "pt_db", "--values", "1,banana"])
    assert rc == 4
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
               "--param", "pt_db", "--values", "4,0"])
    assert rc == 4
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
               "--param", "N", "--values", "0.5"])
    assert rc == 4
    # a fractional N is refused, not solved at its integer part
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
               "--param", "N", "--values", "2.5"])
    assert rc == 4
    assert not (tmp_path / "sweep_N.csv").exists()
    for workers in ("0", "-3"):
        rc = main(["sweep", "--config", str(cfg_path), "--out",
                   str(tmp_path), "--param", "pt_db", "--values", "4",
                   "--workers", workers])
        assert rc == 4
        assert "at least 1 worker" in capsys.readouterr().err
    assert not (tmp_path / "sweep_pt_db.csv").exists()
    capsys.readouterr()


def test_sweep_excludes_a_failed_draw(cfg_path, tmp_path, capsys,
                                      monkeypatch):
    fail_draws(monkeypatch, {1})
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
               "--param", "pt_db", "--values", "4", "--trials", "3"])
    assert rc == 0
    assert "1 trial(s) excluded" in capsys.readouterr().err.splitlines()
    text = (tmp_path / "sweep_pt_db.csv").read_text()
    assert "# excluded trials: 1" in text.splitlines()
    assert text.splitlines()[-1].split(",")[2] == "2"   # trials kept


def test_sweep_exits_numeric_when_every_draw_fails(cfg_path, tmp_path, capsys,
                                                   monkeypatch):
    fail_draws(monkeypatch, range(3))
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
               "--param", "pt_db", "--values", "4", "--trials", "3"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: sweep point pt_db=4.0: all 3 "
                          "trials failed")
    assert not (tmp_path / "sweep_pt_db.csv").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_exits_infeasible_when_no_mission_fits(tmp_path, capsys,
                                                     workers):
    # a 5 s budget is shorter than every drawn mission's travel time:
    # exit 2 as `plan` and `solve` do, with the trials' own error type
    path = tmp_path / "tight.ini"
    path.write_text("[scenario]\nT_s = 5\n", encoding="utf-8")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path),
               "--param", "pt_db", "--values", "0", "--trials", "5",
               "--workers", workers])
    assert rc == 2
    assert capsys.readouterr().err == (
        "infeasible: sweep point pt_db=0.0: all 5 trials failed\n")
    assert not (tmp_path / "sweep_pt_db.csv").exists()


@pytest.mark.parametrize("command", [
    ["plan"], ["solve", "stm"], ["solve", "ttm"],
    ["sweep", "--param", "pt_db", "--values", "0"], ["verify"]])
def test_every_command_refuses_an_snr_scale_beyond_a_float(
        command, tmp_path, capsys):
    path = tmp_path / "loud.ini"
    path.write_text("[scenario]\npt_db = 3000\nsigma2_dbm = -3000\n",
                    encoding="utf-8")
    rc = main([*command, "--config", str(path), "--out", str(tmp_path)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("config error: SNR scale")


@pytest.mark.parametrize("command", [
    ["solve", "stm"], ["solve", "ttm"],
    ["sweep", "--param", "pt_db", "--values", "1530", "--trials", "5"],
    ["verify"]])
def test_an_snr_scale_near_the_float_limit_gives_finite_numbers(
        command, tmp_path, capsys):
    # a scale of about 5e307 fits a float, but gamma E / tau overflows
    # inside the rate although the rate itself is finite: every command
    # prints and writes finite numbers only, and exits 0 (verify's
    # oracles all pass there)
    path = tmp_path / "near.ini"
    path.write_text("[scenario]\nk0_db = 20\npt_db = 1530\n"
                    "sigma2_dbm = -1500\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = main([*command, "--config", str(path), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    written = [p.read_text() for p in sorted(out_dir.glob("*.csv"))]
    assert written
    for text in (out, *written):
        assert not re.search(r"\b(inf|nan)\b", text, re.IGNORECASE), text


def test_solve_rejects_level_too_large_for_a_float(tmp_path, capsys):
    path = tmp_path / "loud.ini"
    path.write_text(BASE_INI.replace("pt_db = 4", "pt_db = 4000"),
                    encoding="utf-8")
    rc = main(["solve", "stm", "--config", str(path), "--out",
               str(tmp_path)])
    assert rc == 4
    assert "overflows" in capsys.readouterr().err
    assert not (tmp_path / "stm_diag.csv").exists()


# -------------------------------------------------- verify

def test_verify_passes_and_is_reproducible(cfg_path, tmp_path, capsys):
    a = tmp_path / "r1"
    b = tmp_path / "r2"
    assert main(["verify", "--config", str(cfg_path),
                 "--out", str(a)]) == 0
    assert main(["verify", "--config", str(cfg_path),
                 "--out", str(b)]) == 0
    out = capsys.readouterr().out
    assert "flight_energy: 200/200 passed" in out
    assert ((a / "verification.csv").read_bytes()
            == (b / "verification.csv").read_bytes())
    # pinned with glibc's libm on x86-64 Linux under CPython 3.11
    assert hashlib.sha256((a / "verification.csv").read_bytes()).hexdigest() \
        == "0c116249ee12227bf7cb19cb3b440dd87fe163d1a8053f3f345c486c12744c5c"


def test_outputs_record_versions(cfg_path, tmp_path, capsys):
    versions = (f"python {platform.python_version()}  numpy "
                f"{np.__version__}  uavwpt {uavwpt.__version__}")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--param", "pt_db", "--values", "0,4"]) == 0
    lines = (tmp_path / "sweep_pt_db.csv").read_text().splitlines()
    assert f"# {versions}" in lines
    # the metadata adds a comment line and leaves every data row alone
    results, _ = run_sweep(load_config(cfg_path), SweepSpec(
        param="pt_db", values=(0.0, 4.0), trials=3, objective="stm"))
    bare = tmp_path / "bare.csv"
    write_sweep_csv(bare, results)
    assert [l for l in lines if not l.startswith("#")] \
        == bare.read_text().splitlines()
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 0
    assert versions in capsys.readouterr().out.splitlines()


def test_verify_catches_tampering(cfg_path, tmp_path, capsys, monkeypatch):
    # the leg-average formula the draw calls, 0.9 times too small
    import uavwpt.experiments as experiments
    real = experiments.leg_average_inverse_sq
    monkeypatch.setattr(experiments, "leg_average_inverse_sq",
                        lambda *a: 0.9 * real(*a))
    rc = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "flight_energy" in err


# -------------------------------------------------- argument handling

def test_bad_invocations(cfg_path, tmp_path, capsys):
    assert main(["solve", "stm", "--config",
                 str(tmp_path / "missing.ini")]) == 4
    assert main(["solve", "stm", "--config", str(cfg_path),
                 "--frobnicate"]) == 4
    assert main(["launch", "--config", str(cfg_path)]) == 4
    assert main([]) == 4
    assert main(["solve", "stm", "--config", str(cfg_path),
                 "--seed", "-1"]) == 4
    # a field coordinate of inf or nan is a configuration error
    field = tmp_path / "field.txt"
    for line in ("inf 0", "nan 0"):
        field.write_text(f"0 1\n{line}\n")
        assert main(["plan", "--config", str(cfg_path), "--out",
                     str(tmp_path), "--field", str(field)]) == 4
    err = capsys.readouterr().err
    assert "config error" in err
    assert err.count(f"{field}:2: coordinates must be finite") == 2


def test_workers_only_where_trials_run(cfg_path, tmp_path, capsys):
    # only sweep runs a trial pool, so no other command takes --workers
    for command in (["plan"], ["solve", "stm"], ["solve", "ttm"],
                    ["verify"]):
        assert main([*command, "--config", str(cfg_path), "--out",
                     str(tmp_path), "--workers", "2"]) == 4
    assert "--workers" in capsys.readouterr().err


def test_invalid_scenario_value(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    for bad in ("pt_db = 4\nI_nats = 0", "pt_db = nan"):
        path.write_text(BASE_INI.replace("pt_db = 4", bad))
        rc = main(["solve", "ttm", "--config", str(path), "--out",
                   str(tmp_path)])
        assert rc == 4
        assert "config error" in capsys.readouterr().err
