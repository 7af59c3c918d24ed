"""Training loop: batched AdamW on the joint Dice + discriminative objective.

Each epoch reshuffles the training scenes, re-randomizes which instance
claims each crossing pixel (so intersection pixels alternate between their
owners across epochs), optionally augments, and steps the optimizer once
per batch. Validation runs unaugmented with per-sample fixed label draws so
epoch-to-epoch val losses are comparable, so its inputs are built once per
`train` call. It evaluates the objective with `total_loss`, which runs no
backward pass, so validation computes no parameter gradients. The parameters
returned are those of the epoch with the lowest validation loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import AugmentParams, augment
from .network import LossConfig, init_params, total_loss, total_loss_and_grad
from .optim import DivergenceError, OptimConfig, adamw_step, init_adam_state
from .synth import Scene, make_training_labels


@dataclass
class TrainResult:
    params: dict
    log: list = field(default_factory=list)  # dicts: epoch, train_loss, val_loss
    best_epoch: int = 0  # 1-based; 0 means no epochs ran


def downsample_labels(labels: np.ndarray) -> np.ndarray:
    """Majority-vote 2x2 pooling of an instance label map.

    Background votes only when a block is entirely background, which keeps
    thin strokes connected at head resolution instead of dashing them the
    way strided subsampling would. Ties go to the smaller label.
    """
    labels = np.asarray(labels)
    h, w = labels.shape
    if h % 2 or w % 2:
        raise ValueError(f"label dims must be even, got {h}x{w}")
    blocks = labels.reshape(h // 2, 2, w // 2, 2).transpose(0, 2, 1, 3).reshape(h // 2, w // 2, 4)
    n_labels = int(labels.max())
    out = np.zeros((h // 2, w // 2), dtype=np.int32)
    if n_labels == 0:
        return out
    counts = np.stack([(blocks == k).sum(axis=-1) for k in range(1, n_labels + 1)], axis=-1)
    hits = counts.max(axis=-1)
    winner = counts.argmax(axis=-1).astype(np.int32) + 1
    out[hits > 0] = winner[hits > 0]
    return out


def _sample_inputs(scene: Scene, label_seed: int, augment_params=None, augment_seed: int = 0):
    """(image, labels_half): one scene as the objective takes it."""
    image, instances = scene.image, scene.instances
    if augment_params is not None:
        image, instances = augment(image, instances, augment_params, augment_seed)
    labels = make_training_labels(instances, np.random.default_rng(label_seed))
    return image, downsample_labels(labels)


def train(train_scenes, val_scenes, loss_cfg: LossConfig, optim_cfg: OptimConfig,
          augment_params: AugmentParams | None, rng_seed: int,
          initial_params: dict | None = None, progress=None) -> TrainResult:
    """Fit the network; deterministic per (inputs, rng_seed).

    Returns the best-validation-epoch parameters and a per-epoch loss log
    (epochs numbered from 1). epochs == 0 returns the initial parameters with
    an empty log and best_epoch 0. Raises DivergenceError if any loss or
    gradient goes non-finite.
    """
    if len(train_scenes) < 1 or len(val_scenes) < 1:
        raise ValueError("need at least one training and one validation scene")
    rng = np.random.default_rng(rng_seed)
    params = initial_params if initial_params is not None else init_params(
        seed=int(rng.integers(2**31)))
    state = init_adam_state(params)
    val_label_seeds = rng.integers(0, 2**63 - 1, size=len(val_scenes))
    val_inputs = [_sample_inputs(scene, int(seed))
                  for scene, seed in zip(val_scenes, val_label_seeds)]

    result = TrainResult(params={k: v.copy() for k, v in params.items()})
    best_val = np.inf
    for epoch in range(optim_cfg.epochs):
        order = rng.permutation(len(train_scenes))
        seeds = rng.integers(0, 2**63 - 1, size=(len(train_scenes), 2))
        epoch_loss = 0.0
        for start in range(0, len(order), optim_cfg.batch_size):
            batch = order[start : start + optim_cfg.batch_size]
            batch_loss = 0.0
            batch_grads = None
            for j, idx in enumerate(batch):
                inputs = _sample_inputs(train_scenes[idx], label_seed=int(seeds[start + j, 0]),
                                        augment_params=augment_params,
                                        augment_seed=int(seeds[start + j, 1]))
                loss, grads, _ = total_loss_and_grad(params, *inputs, loss_cfg)
                batch_loss += loss
                if batch_grads is None:
                    batch_grads = grads
                else:
                    for k in grads:
                        batch_grads[k] += grads[k]
            scale = 1.0 / len(batch)
            if not np.isfinite(batch_loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch + 1}")
            for k in batch_grads:
                batch_grads[k] *= scale
            params, state = adamw_step(params, batch_grads, state, optim_cfg)
            epoch_loss += batch_loss
        train_loss = epoch_loss / len(order)

        val_loss = 0.0
        for inputs in val_inputs:
            loss, _ = total_loss(params, *inputs, loss_cfg)
            val_loss += loss
        val_loss /= len(val_scenes)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch + 1}")

        result.log.append({"epoch": epoch + 1, "train_loss": float(train_loss),
                           "val_loss": float(val_loss)})
        if val_loss < best_val:
            best_val = val_loss
            result.best_epoch = epoch + 1
            result.params = {k: v.copy() for k, v in params.items()}
        if progress is not None:
            progress(epoch + 1, float(train_loss), float(val_loss))
    return result
