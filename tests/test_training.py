import numpy as np
import pytest

import strandseg.network
from strandseg.grids import AugmentParams
from strandseg.network import LossConfig, init_params
from strandseg.optim import OptimConfig
from strandseg.synth import SceneSpec, generate_scene, scene_seeds
from strandseg.training import TrainResult, downsample_labels, train

SPEC = SceneSpec(height=32, width=32)


def _scenes(master_seed, count):
    seeds = scene_seeds(master_seed, count)
    return [generate_scene(SPEC, int(s)) for s in seeds]


def test_downsample_labels_majority_vote():
    labels = np.zeros((4, 4), int)
    labels[0, 0] = labels[0, 1] = labels[1, 0] = 1  # 3 votes for 1
    labels[0, 2] = 2                                # single fg vote wins over bg
    labels[2, 2] = 1
    labels[2, 3] = labels[3, 2] = labels[3, 3] = 2  # 3 votes for 2
    out = downsample_labels(labels)
    assert out.shape == (2, 2)
    assert out[0, 0] == 1
    assert out[0, 1] == 2
    assert out[1, 0] == 0  # all-background block stays background
    assert out[1, 1] == 2


def test_downsample_labels_foreground_beats_background():
    # one foreground pixel in an otherwise background block still claims it:
    # thin strokes must not vanish at half resolution
    labels = np.zeros((2, 2), int)
    labels[1, 1] = 3
    assert downsample_labels(labels)[0, 0] == 3


def test_downsample_tie_prefers_lower_instance_id():
    labels = np.zeros((2, 2), int)
    labels[0, 0] = labels[0, 1] = 2
    labels[1, 0] = labels[1, 1] = 1
    assert downsample_labels(labels)[0, 0] == 1


def test_zero_epochs_returns_initial_params():
    scenes = _scenes(0, 3)
    initial = init_params(5)
    result = train(scenes[:2], scenes[2:], LossConfig(),
                   OptimConfig(epochs=0, batch_size=2), None, rng_seed=1,
                   initial_params=initial)
    assert isinstance(result, TrainResult)
    assert result.log == []
    assert result.best_epoch == 0
    for k in initial:
        np.testing.assert_array_equal(result.params[k], initial[k])


def test_training_is_deterministic():
    scenes = _scenes(1, 4)
    kwargs = dict(loss_cfg=LossConfig(),
                  optim_cfg=OptimConfig(epochs=3, batch_size=2,
                                        learning_rate=1e-3),
                  augment_params=AugmentParams(), rng_seed=7)
    one = train(scenes[:3], scenes[3:], **kwargs)
    two = train(scenes[:3], scenes[3:], **kwargs)
    assert one.log == two.log
    assert one.best_epoch == two.best_epoch
    for k in one.params:
        np.testing.assert_array_equal(one.params[k], two.params[k])


def test_validation_runs_no_backward(monkeypatch):
    calls = []
    backward = strandseg.network.backward

    def counting(*args, **kwargs):
        calls.append(1)
        return backward(*args, **kwargs)

    monkeypatch.setattr(strandseg.network, "backward", counting)
    scenes = _scenes(7, 4)
    train(scenes[:3], scenes[3:], LossConfig(), OptimConfig(epochs=2, batch_size=2),
          None, rng_seed=0)
    # one backward per training sample and epoch (3 x 2); none for validation
    assert len(calls) == 6


def test_training_seed_changes_trajectory():
    scenes = _scenes(2, 3)
    cfg = OptimConfig(epochs=2, batch_size=2, learning_rate=1e-3)
    one = train(scenes[:2], scenes[2:], LossConfig(), cfg, None, rng_seed=0)
    two = train(scenes[:2], scenes[2:], LossConfig(), cfg, None, rng_seed=1)
    assert one.log != two.log


def test_loss_log_shape_and_best_epoch():
    scenes = _scenes(3, 4)
    result = train(scenes[:3], scenes[3:], LossConfig(),
                   OptimConfig(epochs=5, batch_size=2, learning_rate=1e-3),
                   None, rng_seed=0)
    assert [row["epoch"] for row in result.log] == [1, 2, 3, 4, 5]
    vals = [row["val_loss"] for row in result.log]
    assert result.best_epoch == int(np.argmin(vals)) + 1
    assert all(np.isfinite(row["train_loss"]) for row in result.log)


def test_training_reduces_loss():
    scenes = _scenes(4, 4)
    result = train(scenes[:3], scenes[3:], LossConfig(),
                   OptimConfig(epochs=15, batch_size=3, learning_rate=2e-3),
                   None, rng_seed=0)
    first = result.log[0]["train_loss"]
    last_five = [row["train_loss"] for row in result.log[-5:]]
    assert min(last_five) < first


def test_best_params_match_best_val_epoch():
    # retrain to the best epoch only: parameters must agree exactly, since
    # the batch schedule is derived per epoch from the same master seed
    scenes = _scenes(5, 4)
    loss_cfg = LossConfig()
    full = train(scenes[:3], scenes[3:], loss_cfg,
                 OptimConfig(epochs=6, batch_size=2, learning_rate=2e-3),
                 None, rng_seed=3)
    partial = train(scenes[:3], scenes[3:], loss_cfg,
                    OptimConfig(epochs=full.best_epoch, batch_size=2,
                                learning_rate=2e-3),
                    None, rng_seed=3)
    for k in full.params:
        np.testing.assert_array_equal(full.params[k], partial.params[k])


def test_empty_train_set_raises():
    scenes = _scenes(6, 1)
    with pytest.raises(ValueError):
        train([], scenes, LossConfig(), OptimConfig(epochs=1), None, 0)
