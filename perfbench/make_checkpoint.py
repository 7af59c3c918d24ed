#!/usr/bin/env python3
"""Train the checkpoint the eval64 workload runs, with the desk recipe.

Runs `strandseg synth --count 250 --seed 7` and `strandseg train` (30 epochs,
lr 1e-3, batch 8, no augmentation) in a temporary directory and copies the
float32 checkpoint, its metadata and the loss log into `perfbench/data/`.
The checkpoint is committed so that eval64's inputs stay fixed when training
numerics change. Run from the repository root:

    python3 perfbench/make_checkpoint.py

Takes about two minutes on a 2-core laptop CPU.
"""

import json
import os
import shutil
import sys
import tempfile

import env

env.pin_blas_threads()
env.add_sources()

from desk import (CHECKPOINT_DIR, CHECKPOINT_MASTER_SEED, CHECKPOINT_PATH,  # noqa: E402
                  CHECKPOINT_SCENES, DESK_CONFIG)
from strandseg.cli import main as strandseg_main  # noqa: E402


def main() -> int:
    os.makedirs(CHECKPOINT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=CHECKPOINT_DIR, prefix=".tmp-") as work:
        config = os.path.join(work, "desk64.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(DESK_CONFIG, fh)
        data, run = os.path.join(work, "data"), os.path.join(work, "run")
        code = strandseg_main(["synth", "--config", config, "--seed", str(CHECKPOINT_MASTER_SEED),
                               "--count", str(CHECKPOINT_SCENES), "--out", data])
        if code == 0:
            code = strandseg_main(["train", "--config", config, "--dataset", data, "--out", run])
        if code != 0:
            return code
        shutil.copyfile(os.path.join(run, "checkpoint.segt"), CHECKPOINT_PATH)
        stem = os.path.splitext(CHECKPOINT_PATH)[0]
        shutil.copyfile(os.path.join(run, "checkpoint.json"), stem + ".json")
        shutil.copyfile(os.path.join(run, "loss_log.csv"), stem + "_loss_log.csv")
    with open(stem + "_provenance.json", "w", encoding="utf-8") as fh:
        json.dump(env.provenance(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"checkpoint written to {CHECKPOINT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
