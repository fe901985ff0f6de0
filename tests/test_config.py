import dataclasses
import math
import pickle

import pytest

from uavwpt.config import ScenarioConfig, load_config
from uavwpt.errors import ConfigError
from uavwpt.experiments import SweepSpec, run_trial, trial_rng

# one bad value each; every entry must be refused wherever a config is
# built, so no library call can solve what `load_config` rejects (a
# negative seed would otherwise reach numpy's SeedSequence, a ValueError)
BAD = [
    {"eta": 0.0}, {"eta": 1.2}, {"M": 1}, {"K": 0},
    {"N": 30}, {"T_s": 0.0}, {"I_nats": -1.0}, {"trials": 0},
    {"seed": -1}, {"d_max_m": 5.0}, {"D_range_m": (30.0, 20.0)},
    {"D_range_m": (0.0, 10.0)}, {"ytilde_range_m": (2.0, 2.0)},
    {"v_max_mps": 0.0},
    # integer fields hold integers, and every float is finite
    {"K": 20.5}, {"seed": 1.5}, {"trials": 1.5}, {"M": 2.5},
    {"pt_db": math.nan}, {"pt_db": math.inf}, {"T_s": math.inf},
    {"I_nats": math.inf}, {"D_range_m": (20.0, math.inf)},
    {"d_max_m": math.inf},
]


def _write(tmp_path, text, name="scn.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_validate():
    cfg = ScenarioConfig().validate()
    assert cfg.K == 20 and cfg.N == 4
    assert cfg.D_range_m == (20.0, 30.0)


def test_load_roundtrip(tmp_path):
    path = _write(tmp_path, """\
[scenario]
k0_db = -30
sigma2_dbm = -70
A_m = 12.5
eta = 0.6
M = 4
K = 12
N = 3
pt_db = 2
T_s = 600
I_nats = 15
D_range_m = 18, 28
ytilde_range_m = 0, 4
trials = 50
seed = 7
""")
    cfg = load_config(path)
    assert cfg.A_m == 12.5
    assert cfg.M == 4 and isinstance(cfg.M, int)
    assert cfg.D_range_m == (18.0, 28.0)
    assert cfg.seed == 7
    # untouched keys keep their defaults
    assert cfg.v_max_mps == 10.0


def test_keys_are_case_sensitive(tmp_path):
    cfg = load_config(_write(tmp_path, "[scenario]\nK = 9\nN = 3\n"))
    assert cfg.K == 9


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "[scenario]\nk_0db = -30\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "k_0db" in str(exc.value)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_wrong_section_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[mission]\nK = 5\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path,
                           "[scenario]\nK = 5\n[extra]\nx = 1\n"))


def test_malformed_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "K = 5\n"))  # key before any section
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[scenario]\nK = five\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[scenario]\nD_range_m = 20\n"))


def test_validation_failures():
    good = ScenarioConfig()
    for kw in BAD:
        with pytest.raises(ConfigError):
            ScenarioConfig(**kw)
        with pytest.raises(ConfigError):
            dataclasses.replace(good, **kw)


# a non-numeric value or a bool, where a number or a count belongs
_NOT_A_NUMBER = {
    "pt_db_str": lambda: ScenarioConfig(pt_db="4"),
    "pt_db_none": lambda: ScenarioConfig(pt_db=None),
    "pt_db_bool": lambda: ScenarioConfig(pt_db=True),
    "range_scalar": lambda: ScenarioConfig(D_range_m=5.0),
    "range_str": lambda: ScenarioConfig(D_range_m=("a", "b")),
    "range_bool": lambda: ScenarioConfig(ytilde_range_m=(False, True)),
    "seed_bool": lambda: ScenarioConfig(seed=True),
    "K_bool": lambda: ScenarioConfig(K=True),
    "M_str": lambda: ScenarioConfig(M="3"),
    "sweep_trials_bool": lambda: SweepSpec(param="pt_db", values=(4.0,),
                                           trials=True, objective="stm"),
    "sweep_trials_str": lambda: SweepSpec(param="pt_db", values=(4.0,),
                                          trials="3", objective="stm"),
    "trial_index_bool": lambda: run_trial(ScenarioConfig(), True),
    "rng_seed_bool": lambda: trial_rng(True, 0),
    "rng_index_str": lambda: trial_rng(1, "0"),
}


@pytest.mark.parametrize("case", sorted(_NOT_A_NUMBER))
def test_non_numeric_values_raise_config_error(case):
    with pytest.raises(ConfigError, match="must be"):
        _NOT_A_NUMBER[case]()


@pytest.mark.parametrize("include_baseline", [True, False])
@pytest.mark.parametrize("objective", ["stm", "ttm"])
def test_run_trial_refuses_bad_config(objective, include_baseline):
    good = ScenarioConfig()
    for kw in BAD:
        with pytest.raises(ConfigError):
            run_trial(dataclasses.replace(good, **kw), 0, objective,
                      include_baseline)


def _ini_text(config):
    """Every field of `config`, floats exactly (repr), ranges as lo, hi."""
    lines = ["[scenario]"]
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        text = (", ".join(map(repr, value)) if isinstance(value, tuple)
                else repr(value))
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("config", [
    ScenarioConfig(),
    ScenarioConfig(k0_db=-31.5, sigma2_dbm=-72.25, A_m=12.5, eta=0.625,
                   M=5, delta_m=0.2, v_max_mps=7.5, T_s=640.0,
                   D_range_m=(18.0, 28.5), ytilde_range_m=(-1.5, 4.25),
                   K=12, N=3, pt_db=2.5, I_nats=15.0, d_max_m=40.0,
                   trials=50, seed=7),
], ids=["defaults", "every_field_moved"])
def test_every_field_roundtrips_through_ini(config, tmp_path):
    loaded = load_config(_write(tmp_path, _ini_text(config)))
    assert loaded == config
    for f in dataclasses.fields(config):
        assert type(getattr(loaded, f.name)) is type(getattr(config, f.name))


def test_config_pickles_with_its_radios():
    # the process pool ships each config to its workers pickled
    config = ScenarioConfig(M=5, pt_db=2.5)
    loaded = pickle.loads(pickle.dumps(config))
    assert loaded == config
    assert loaded.radio == config.radio
    assert loaded.baseline_radio == config.baseline_radio


def test_config_is_immutable():
    cfg = ScenarioConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.K = 5
