import json
import math
import typing
from pathlib import Path

import pytest

from strandseg.config import (_SECTIONS, ConfigError, RunConfig, load_run_config,
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


# One out-of-range value per range check of the seven settings dataclasses.
RANGE_CASES = [
    ("scene", "height", 7), ("scene", "width", 7), ("scene", "height", 33),
    ("scene", "width", 9), ("scene", "curves_min", 0),
    ("scene", "curves_max", 1), ("scene", "stroke_min", 0.0), ("scene", "stroke_max", 1.0),
    ("scene", "intensity_min", -0.1), ("scene", "intensity_max", 0.5),
    ("scene", "intensity_max", 1.5), ("scene", "noise_sigma", -0.1),
    ("scene", "control_points", 1), ("scene", "max_attempts", 0),
    ("loss", "delta_v", 0.0), ("loss", "delta_d", 1.0), ("loss", "w_var", -1.0),
    ("loss", "w_dist", -1.0), ("loss", "w_dice", -1.0), ("loss", "w_disc", -1.0),
    ("optim", "learning_rate", 0.0), ("optim", "beta1", 1.0), ("optim", "beta2", -0.1),
    ("optim", "weight_decay", -1.0), ("optim", "batch_size", 0), ("optim", "epochs", -1),
    ("optim", "eps", 0.0),
    ("mean_shift", "bandwidth", 0.0), ("mean_shift", "merge_radius", 0.0),
    ("mean_shift", "convergence_tol", 0.0), ("mean_shift", "seed_cap", 0),
    ("mean_shift", "max_iterations", 0), ("mean_shift", "rng_seed", -1),
    ("resolve", "beta", 0.0), ("resolve", "threshold_a", 0.5),
    ("pipeline", "seg_threshold", 1.0),
    ("augment", "rotation_degrees", -1.0), ("augment", "brightness_delta", -1.0),
    ("augment", "contrast_delta", -1.0), ("augment", "per_transform_probability", 1.5),
]


@pytest.mark.parametrize("section,key,value", RANGE_CASES)
def test_range_error_names_section_and_key(section, key, value):
    # the one key a check rejects comes first, so the loader prints section.key
    with pytest.raises(ConfigError) as info:
        run_config_from_dict({section: {key: value}})
    assert str(info.value).startswith(f"{section}.{key} ")


@pytest.mark.parametrize("section,key", sorted({
    (section, key) for section, key, _ in RANGE_CASES
    if typing.get_type_hints(_SECTIONS[section])[key] is float}))
def test_range_checks_reject_nan(section, key):
    # each check states the condition that must hold, so NaN fails it
    with pytest.raises(ValueError) as info:
        _SECTIONS[section](**{key: math.nan})
    assert str(info.value).startswith(f"{key} ")


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
