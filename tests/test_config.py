import json

import pytest

from colorcut import config, embedding, instances
from colorcut.config import ENV_CONFIG_PATH, RunConfig, load_config


def test_defaults_track_module_constants():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert cfg.trials == 100
    assert cfg.cap_cmc_vertices == instances.DEFAULT_CMC_VERTEX_CAP
    assert cfg.cap_dual_combinations == instances.DEFAULT_COMBINATION_CAP
    assert cfg.cap_psi_assignments == instances.DEFAULT_ASSIGNMENT_CAP
    assert cfg.cap_csp_assignments == instances.DEFAULT_ASSIGNMENT_CAP
    assert cfg.cap_sat_variables == instances.DEFAULT_SAT_VARIABLE_CAP
    assert cfg.expander_exhaustive_cap == config.DEFAULT_EXHAUSTIVE_CAP
    assert cfg.expander_target == embedding.DEFAULT_EXPANSION_TARGET
    assert cfg.expander_seed == config.DEFAULT_EXPANDER_SEED
    assert cfg.expander_retries == config.DEFAULT_EXPANDER_RETRIES
    assert cfg.embed_retries == embedding.DEFAULT_EMBED_RETRIES
    assert cfg.c_hat == embedding.DEFAULT_C_HAT
    assert cfg.big_c_hat == embedding.DEFAULT_BIG_C_HAT


def test_load_config_plain_defaults():
    assert load_config() == RunConfig()


def test_load_config_file(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"seed": 9, "trials": 17}))
    cfg = load_config(str(path))
    assert cfg.seed == 9
    assert cfg.trials == 17
    assert cfg.c_hat == RunConfig().c_hat


def test_load_config_env_var(tmp_path, monkeypatch):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"trials": 5}))
    monkeypatch.setenv(ENV_CONFIG_PATH, str(path))
    assert load_config().trials == 5


def test_explicit_path_wins_over_env(tmp_path, monkeypatch):
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps({"trials": 5}))
    arg_path = tmp_path / "arg.json"
    arg_path.write_text(json.dumps({"trials": 6}))
    monkeypatch.setenv(ENV_CONFIG_PATH, str(env_path))
    assert load_config(str(arg_path)).trials == 6


def test_overrides_beat_file_and_skip_none(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"trials": 5, "seed": 3}))
    cfg = load_config(str(path), trials=11, seed=None)
    assert cfg.trials == 11
    assert cfg.seed == 3


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(str(path))
    with pytest.raises(ValueError, match="unknown config overrides"):
        load_config(nope=1)


def test_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_config(str(tmp_path / "absent.json"))


def test_validation():
    with pytest.raises(ValueError, match="trials"):
        RunConfig(trials=0)
    with pytest.raises(ValueError, match="embed_retries"):
        RunConfig(embed_retries=0)
    with pytest.raises(ValueError, match="expander_target"):
        RunConfig(expander_target=0.0)
    with pytest.raises(ValueError, match="expander_target"):
        RunConfig(expander_target=1.5)
    with pytest.raises(ValueError, match="calibrated"):
        RunConfig(c_hat=0.0)
    with pytest.raises(ValueError, match="calibrated"):
        RunConfig(big_c_hat=-1.0)
