import re

import pytest

from uavwpt.cli import main

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


def test_solve_ttm(cfg_path, tmp_path, capsys):
    rc = main(["solve", "ttm", "--config", str(cfg_path),
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert float(_line(out, "total time:").split()[2]) > 0.0
    taus = _line(out, "tau:").split()[1:]
    assert float(taus[0]) == 0.0  # no start hover when minimizing time
    assert (tmp_path / "ttm_diag.csv").exists()


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
    capsys.readouterr()


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


def test_verify_catches_tampering(cfg_path, tmp_path, capsys, monkeypatch):
    import uavwpt.channel as ch
    real = ch.coeff_b
    monkeypatch.setattr(ch, "coeff_b",
                        lambda *a, **k: 0.9 * real(*a, **k))
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
    err = capsys.readouterr().err
    assert "config error" in err


def test_workers_only_where_trials_run(cfg_path, tmp_path, capsys):
    # only sweep runs a trial pool, so no other command takes --workers
    for command in (["plan"], ["solve", "stm"], ["solve", "ttm"],
                    ["verify"]):
        assert main([*command, "--config", str(cfg_path), "--out",
                     str(tmp_path), "--workers", "2"]) == 4
    assert "--workers" in capsys.readouterr().err


def test_invalid_scenario_value(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_INI.replace("pt_db = 4",
                                     "pt_db = 4\nI_nats = 0"))
    rc = main(["solve", "ttm", "--config", str(path), "--out",
               str(tmp_path)])
    assert rc == 4
    assert "config error" in capsys.readouterr().err
