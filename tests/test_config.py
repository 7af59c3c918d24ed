import json
from pathlib import Path

import pytest

from strandseg.config import (ConfigError, RunConfig, load_run_config,
                              run_config_from_dict, run_config_to_dict)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_defaults_round_trip():
    cfg = RunConfig()
    doc = run_config_to_dict(cfg)
    back = run_config_from_dict(doc)
    assert back == cfg
    # the JSON layout keeps one section per stage, with the pipeline's
    # mean_shift and resolve parts at top level
    assert set(doc) == {"seed", "scene", "loss", "optim", "mean_shift",
                        "resolve", "pipeline", "augment"}
    assert doc["pipeline"] == {"seg_threshold": 0.5}
    desk = load_run_config(CONFIGS / "desk64.json")
    assert run_config_from_dict(run_config_to_dict(desk)) == desk


def test_partial_overrides():
    cfg = run_config_from_dict({
        "seed": 11,
        "scene": {"curves_max": 3, "noise_sigma": 0.0},
        "optim": {"epochs": 5, "learning_rate": 0.001},
        "pipeline": {"seg_threshold": 0.6},
    })
    assert cfg.seed == 11
    assert cfg.scene.curves_max == 3
    assert cfg.scene.noise_sigma == 0.0
    assert cfg.scene.height == 64  # untouched default
    assert cfg.optim.epochs == 5
    assert cfg.pipeline.seg_threshold == 0.6


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        run_config_from_dict({"sceen": {}})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="curves_mx"):
        run_config_from_dict({"scene": {"curves_mx": 3}})


def test_non_scalar_value_rejected():
    with pytest.raises(ConfigError):
        run_config_from_dict({"optim": {"epochs": "ten"}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"scene": {"curves_max": [3]}})


def test_invalid_value_surfaces_as_config_error():
    with pytest.raises(ConfigError):
        run_config_from_dict({"optim": {"learning_rate": -1.0}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"pipeline": {"seg_threshold": 2.0}})


def test_augment_section_nullable():
    cfg = run_config_from_dict({"augment": None})
    assert cfg.augment is None
    doc = run_config_to_dict(cfg)
    assert doc["augment"] is None
    assert run_config_from_dict(doc) == cfg


def test_pipeline_config_wiring():
    cfg = run_config_from_dict({
        "pipeline": {"seg_threshold": 0.62},
        "mean_shift": {"bandwidth": 0.9, "merge_radius": 0.4},
        "resolve": {"threshold_a": 0.8},
    })
    pc = cfg.pipeline_config()
    assert pc.seg_threshold == 0.62
    assert pc.mean_shift.bandwidth == 0.9
    assert pc.resolve.threshold_a == 0.8


def test_load_run_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 4, "loss": {"w_dice": 0.5}}))
    cfg = load_run_config(path)
    assert cfg.seed == 4
    assert cfg.loss.w_dice == 0.5


def test_load_run_config_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="run.json"):
        load_run_config(path)


def test_load_run_config_non_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_run_config(path)
