"""Reproduce the headline ordering: embeddings beat connected components.

Trains the full desk-scale configuration (200 scenes, 30 epochs — expect a
minute or two), then scores both post-processing routes on 50 held-out
scenes. Both routes start from the foreground of one forward pass per image;
they differ only in how it is split into instances, so the AP gap isolates the
contribution of the embedding clustering.
"""

import time

import numpy as np

import strandseg as ss

spec = ss.SceneSpec()  # 64x64, two crossing curves per scene
train_scenes = [ss.generate_scene(spec, int(s)) for s in ss.scene_seeds(101, 200)]
held_out = [ss.generate_scene(spec, int(s)) for s in ss.scene_seeds(202, 50)]

rng = np.random.default_rng(0)
perm = rng.permutation(len(train_scenes))
val = [train_scenes[i] for i in perm[:40]]
tr = [train_scenes[i] for i in perm[40:]]

t0 = time.perf_counter()
result = ss.train(tr, val, ss.LossConfig(),
                  ss.OptimConfig(learning_rate=1e-3, epochs=30),
                  augment_params=None, rng_seed=0)
print(f"trained 30 epochs in {time.perf_counter() - t0:.0f}s "
      f"(best epoch {result.best_epoch})")

pipe = ss.PipelineConfig(
    seg_threshold=0.6,
    mean_shift=ss.MeanShiftConfig(bandwidth=0.75, merge_radius=1.6,
                                  coord_scale=0.25),
    resolve=ss.ResolveConfig(),
)


# One forward pass per image: the components baseline splits the very
# foreground that `infer` thresholded.
ours_preds, cc_preds, gts, pfg, gfg = [], [], [], [], []
for scene in held_out:
    inst, fg, _ = ss.infer(result.params, scene.image, pipe)
    ours_preds.append(inst)
    cc_preds.append(ss.connected_components(fg))
    gts.append(scene.instances)
    pfg.append(fg)
    gfg.append(scene.instances.union())
ours = ss.evaluate_dataset(ours_preds, gts, pfg, gfg)
cc = ss.evaluate_dataset(cc_preds, gts, pfg, gfg)

print(f"\n{'':14s}{'IoU':>8s}{'Dice':>8s}{'AP':>8s}{'AR':>8s}")
print(f"{'embedding':14s}{ours.iou:8.3f}{ours.dice:8.3f}{ours.ap:8.3f}{ours.ar:8.3f}")
print(f"{'components':14s}{cc.iou:8.3f}{cc.dice:8.3f}{cc.ap:8.3f}{cc.ar:8.3f}")
print(f"\nsame semantic masks, AP gap {ours.ap - cc.ap:+.3f} — crossings are "
      "exactly where component analysis merges instances")
