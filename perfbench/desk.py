"""The desk recipe shared by the eval checkpoint and the workloads.

These are the settings of `configs/desk64.json`, copied here so that the
benchmark's inputs stay fixed when the repository's example config changes.
"""

import os

HERE = os.path.dirname(os.path.abspath(__file__))

# strandseg run config: lr 1e-3, batch 8, no augmentation, and the tuned
# 64 px pipeline (threshold 0.6, merge radius 1.6, coordinate scale 0.25).
DESK_CONFIG = {
    "seed": 7,
    "optim": {"epochs": 30, "learning_rate": 0.001, "batch_size": 8},
    "mean_shift": {"merge_radius": 1.6, "coord_scale": 0.25, "seed_cap": 4096},
    "pipeline": {"seg_threshold": 0.6},
    "augment": None,
}

# The eval checkpoint is trained on the scenes `strandseg synth --seed 7
# --count 250` writes; eval64's held-out scenes avoid exactly these seeds.
CHECKPOINT_MASTER_SEED = 7
CHECKPOINT_SCENES = 250
CHECKPOINT_DIR = os.path.join(HERE, "data")
CHECKPOINT_PATH = os.path.join(CHECKPOINT_DIR, "desk64.segt")
