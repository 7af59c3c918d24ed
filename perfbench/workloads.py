"""The four benchmark workloads: train64, eval64, maps512 and gradcheck16.

A workload object builds its inputs from the benchmark seed in its
constructor; that is the set-up `setup_s` times. `warm_up` runs the code
once untimed. `unit(k)` runs the k-th unit of timed work and returns a Unit:
the latency of each operation in it by operation id, the work items done
and the timed wall time. An operation id names the same work in every unit
that repeats it (an image, an epoch), so that the run can take the median of
its repeats. `check(k, outputs)` counts the failed operations of a unit and
gives its quality figures, `digest(outputs)` fingerprints its outputs, and
`named(e2e, tail_q, quality)` gives the workload's end-to-end figures under
the names users know them by. Units with equal `key(k)` must give equal
digests, and the traced run must reproduce the untraced digests.

The program is always called through module attributes (`pipeline.infer`,
not a name imported from it), so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from desk import CHECKPOINT_MASTER_SEED, CHECKPOINT_PATH, CHECKPOINT_SCENES, DESK_CONFIG, HERE
from strandseg import gradcheck, metrics, pipeline, training
from strandseg.config import run_config_from_dict
from strandseg.formats import read_pgm, read_tensors, write_pgm, write_tensors
from strandseg.network import forward_full, init_params, param_shapes, validate_params
from strandseg.optim import DivergenceError
from strandseg.synth import (GenerationError, InstanceSet, PolylineAnnotation, Scene, SceneSpec,
                             annotations_to_instances, generate_scene, scene_seeds)


@dataclass
class Unit:
    op_ms: dict          # latency of each operation, ms, by operation id
    items: int           # work items done, for items_per_s
    wall_s: float        # timed wall time of the unit
    attempted: int       # operations attempted
    outputs: object = None  # what check() and digest() read


def _rng(seed: int, workload_tag: int):
    return np.random.default_rng([seed, workload_tag])


def _scenes(spec: SceneSpec, rng, count: int, exclude=frozenset()) -> list:
    """`count` scenes from seeds drawn off `rng`, skipping seeds in `exclude`."""
    scenes = []
    while len(scenes) < count:
        seed = int(rng.integers(0, 2**63 - 1))
        if seed in exclude:
            continue
        try:
            scenes.append(generate_scene(spec, seed))
        except GenerationError:
            continue
    return scenes


def _round_trip(scenes: list) -> list:
    """Scenes as `strandseg train`/`eval` read them: PGM images and SEGT masks."""
    out = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".tmp-") as work:
        for i, scene in enumerate(scenes):
            image_path = os.path.join(work, f"scene_{i:04d}.pgm")
            masks_path = os.path.join(work, f"scene_{i:04d}_masks.segt")
            write_pgm(image_path, scene.image)
            write_tensors(masks_path, {f"mask_{k:03d}": m.astype(np.float32)
                                       for k, m in enumerate(scene.instances.masks)})
            image = read_pgm(image_path)
            entries = read_tensors(masks_path)
            masks = [entries[name] >= 0.5 for name in sorted(entries)]
            out.append(Scene(image, InstanceSet(*image.shape, masks)))
    return out


def _mean(quality: dict, field: str) -> float:
    """Mean of one quality figure over the distinct units of a run."""
    return float(np.mean([info[field] for info in quality.values()]))


def _hash_masks(h, instances: InstanceSet):
    h.update(len(instances).to_bytes(4, "little"))
    for m in instances.masks:
        h.update(np.packbits(m).tobytes())


class Train64:
    """Desk training: 128 train + 32 val scenes, 3 epochs from a fixed init.

    One unit is one `training.train` call; an operation is one epoch.
    """

    name = "train64"
    SCENES = 160
    EPOCHS = 3
    INIT_SEED = 0

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        scenes = _round_trip(_scenes(SceneSpec(), rng, self.SCENES))
        cfg = run_config_from_dict(DESK_CONFIG)
        perm = rng.permutation(len(scenes))
        n_val = round(0.2 * len(scenes))
        self.val = [scenes[i] for i in perm[:n_val]]
        self.train = [scenes[i] for i in perm[n_val:]]
        self.loss_cfg = cfg.loss
        self.optim_cfg = dataclasses.replace(cfg.optim, epochs=self.EPOCHS)
        self.rng_seed = int(rng.integers(2**31))
        self.init = init_params(self.INIT_SEED)

    def key(self, k):
        return 0

    def warm_up(self):
        one = dataclasses.replace(self.optim_cfg, epochs=1)
        training.train(self.train[:8], self.val[:2], self.loss_cfg, one, None, 0,
                       initial_params=dict(self.init))

    def unit(self, k) -> Unit:
        marks = []
        start = time.perf_counter()
        try:
            result = training.train(self.train, self.val, self.loss_cfg, self.optim_cfg, None,
                                    self.rng_seed, initial_params=dict(self.init),
                                    progress=lambda *_: marks.append(time.perf_counter()))
        except DivergenceError:
            result = None
        wall = time.perf_counter() - start
        epoch_ms = list(np.diff([start] + marks) * 1e3)
        per_epoch = len(self.train) + len(self.val)
        return Unit(op_ms=dict(enumerate(epoch_ms)), items=per_epoch * len(marks), wall_s=wall,
                    attempted=self.EPOCHS, outputs=result)

    def check(self, k, result):
        # train raises DivergenceError on any non-finite loss, so a returned
        # log is finite; what is left to check is that validation improved.
        if result is None:
            return self.EPOCHS, {"val_loss_epoch1": float("nan"), "best_val_loss": float("nan")}
        first = result.log[0]["val_loss"]
        best = min(row["val_loss"] for row in result.log)
        return int(not best < first), {"val_loss_epoch1": first, "best_val_loss": best}

    def named(self, e2e, tail_q, quality):
        return {"train_samples_per_s": (e2e["items_per_s"], "1/s"),
                "train_val_loss": (_mean(quality, "best_val_loss"), "1")}

    def digest(self, result):
        h = hashlib.sha256()
        if result is not None:
            h.update(repr(result.log).encode())
            for name in sorted(result.params):
                h.update(result.params[name].tobytes())
        return h.hexdigest()


class Eval64:
    """`strandseg eval` on held-out desk scenes with the committed checkpoint.

    The run's 100 images form 4 datasets of 25. One unit evaluates one of
    them as `strandseg eval` does: both methods on every image, then
    `evaluate_dataset` for each; units cycle over the datasets. An operation
    is one image; its latency is that of `pipeline.infer`. 100 images let
    p90 have 10 images beyond it, and a run passes over each 4 or 5 times.
    """

    name = "eval64"
    IMAGES = 100
    DATASET = 25

    def __init__(self, seed: int):
        trained_on = frozenset(map(int, scene_seeds(CHECKPOINT_MASTER_SEED, CHECKPOINT_SCENES)))
        self.scenes = _round_trip(_scenes(SceneSpec(), _rng(seed, 2), self.IMAGES, trained_on))
        self.gt_fgs = [s.instances.union() for s in self.scenes]
        self.params = {k: np.asarray(v, dtype=np.float64)
                       for k, v in read_tensors(CHECKPOINT_PATH).items()}
        validate_params(self.params)
        self.pipe = run_config_from_dict(DESK_CONFIG).pipeline_config()

    def key(self, k):
        return k % (self.IMAGES // self.DATASET)

    def warm_up(self):
        for scene in self.scenes[:4]:
            pipeline.infer(self.params, scene.image, self.pipe)
            pipeline.infer_cc_baseline(self.params, scene.image, self.pipe.seg_threshold)

    def unit(self, k) -> Unit:
        first = self.key(k) * self.DATASET
        scenes = self.scenes[first : first + self.DATASET]
        gt_fgs = self.gt_fgs[first : first + self.DATASET]
        infer_ms, emb, cc = {}, [], []
        start = time.perf_counter()
        for i, scene in enumerate(scenes, start=first):
            t0 = time.perf_counter()
            instances, fg, diag = pipeline.infer(self.params, scene.image, self.pipe)
            infer_ms[i] = (time.perf_counter() - t0) * 1e3
            emb.append((instances, fg, diag.clusters))
            cc.append(pipeline.infer_cc_baseline(self.params, scene.image, self.pipe.seg_threshold))
        gts = [s.instances for s in scenes]
        emb_report = metrics.evaluate_dataset([e[0] for e in emb], gts, [e[1] for e in emb], gt_fgs)
        cc_report = metrics.evaluate_dataset([c[0] for c in cc], gts, [c[1] for c in cc], gt_fgs)
        wall = time.perf_counter() - start
        return Unit(op_ms=infer_ms, items=len(scenes), wall_s=wall,
                    attempted=len(scenes), outputs=(emb, cc, emb_report, cc_report))

    def check(self, k, outputs):
        emb, cc, emb_report, cc_report = outputs
        failed = sum(1 for (_, fg, clusters), (_, cc_fg) in zip(emb, cc)
                     if not fg.any() or clusters < 2 or not np.array_equal(fg, cc_fg))
        if emb_report.ap < 0.70 or emb_report.dice < 0.80:
            failed += 1  # below the desk-scale quality floor
        info = {"ap": emb_report.ap, "dice": emb_report.dice, "cc_ap": cc_report.ap,
                "fg_px_mean": float(np.mean([fg.sum() for _, fg, _ in emb])),
                "clusters_min": min(c for _, _, c in emb)}
        return failed, info

    def named(self, e2e, tail_q, quality):
        return {"infer_ms_p50": (e2e["op_ms_p50"], "ms"),
                f"infer_ms_p{tail_q}": (e2e["op_ms_tail"], "ms"),
                "eval_images_per_s": (e2e["items_per_s"], "1/s"),
                "ap": (_mean(quality, "ap"), "1"), "dice": (_mean(quality, "dice"), "1")}

    def digest(self, outputs):
        emb, cc, emb_report, cc_report = outputs
        h = hashlib.sha256()
        for (instances, fg, _), (cc_instances, _) in zip(emb, cc):
            _hash_masks(h, instances)
            _hash_masks(h, cc_instances)
            h.update(np.packbits(fg).tobytes())
        h.update(repr((emb_report.to_dict(), cc_report.to_dict())).encode())
        return h.hexdigest()


# Vertices of a regular tetrahedron with side 3: every pair of strand
# embeddings is 3 apart, and the mean of two sits 1.5 from each, inside
# merge_radius, so crossing pixels do not form clusters of their own.
TETRAHEDRON = 3.0 / (2.0 * np.sqrt(2.0)) * np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64)


def oracle_maps(instances: InstanceSet, rng, noise_sigma: float = 0.15):
    """Ideal network outputs: probability 0.9 on strands, tetrahedral embeddings
    averaged on crossings, plus Gaussian noise."""
    masks = np.stack(instances.masks)
    counts = masks.sum(axis=0)
    emb = np.einsum("khw,kd->hwd", masks.astype(np.float64), TETRAHEDRON[: len(masks)])
    emb /= np.maximum(counts, 1)[:, :, None]
    emb += rng.normal(0.0, noise_sigma, size=emb.shape)
    return np.where(counts > 0, 0.9, 0.1), emb


class Maps512:
    """Oracle maps of 512 px scenes with 3 crossing strands, no network.

    One unit, and one operation, is one `pipeline.instances_from_maps` call;
    units cycle over the run's images.
    """

    name = "maps512"
    IMAGES = 5
    SIZE = 512
    # One strand of each width in every image, so that foreground size (and
    # with it mean-shift time and memory) varies with strand geometry only.
    STROKES = (4.0, 5.0, 6.0)
    SPEC = SceneSpec(height=SIZE, width=SIZE, curves_min=3, curves_max=3,
                     stroke_min=5.0, stroke_max=5.0)

    def __init__(self, seed: int):
        rng = _rng(seed, 3)
        self.truths, self.maps = [], []
        for scene in _scenes(self.SPEC, rng, self.IMAGES):
            strands = [PolylineAnnotation(a.points, width)
                       for a, width in zip(scene.annotations, rng.permutation(self.STROKES))]
            truth = annotations_to_instances(self.SIZE, self.SIZE, strands)
            self.truths.append(truth)
            self.maps.append(oracle_maps(truth, rng))
        self.pipe = run_config_from_dict(DESK_CONFIG).pipeline_config()

    def key(self, k):
        return k % self.IMAGES

    def warm_up(self):
        small = _scenes(SceneSpec(), np.random.default_rng(0), 1)[0]
        seg_prob, emb = oracle_maps(small.instances, np.random.default_rng(0))
        pipeline.instances_from_maps(seg_prob, emb, self.pipe)

    def unit(self, k) -> Unit:
        seg_prob, emb = self.maps[self.key(k)]
        start = time.perf_counter()
        instances, fg, diag = pipeline.instances_from_maps(seg_prob, emb, self.pipe)
        wall = time.perf_counter() - start
        return Unit(op_ms={self.key(k): wall * 1e3}, items=1, wall_s=wall, attempted=1,
                    outputs=(instances, diag.fg_pixels))

    def check(self, k, outputs):
        instances, fg_pixels = outputs
        truth = self.truths[self.key(k)]
        ap = metrics.instance_ap_ar(instances, truth)["ap"]
        failed = int(len(instances) != len(truth) or ap != 1.0)
        return failed, {"ap": ap, "clusters": len(instances), "fg_px": fg_pixels}

    def named(self, e2e, tail_q, quality):
        return {"maps_ms_p50": (e2e["op_ms_p50"], "ms"), "ap": (_mean(quality, "ap"), "1")}

    def digest(self, outputs):
        h = hashlib.sha256()
        _hash_masks(h, outputs[0])
        return h.hexdigest()


class Gradcheck16:
    """`gradcheck.run_suite` on 16x16 fixtures, one fixture per unit and operation.

    About 10k tiny `forward_full` calls per fixture, so per-call overhead
    dominates; this is where the 120 s gradient-fidelity budget lives. It is
    not listed in BENCHMARK.json: on a 2-vCPU host shared with other
    machines its fixture time drifted by 23-38% between sets of ten runs of
    the same code (the other workloads by at most 13.4%), more than any bound
    a regression check can use, and a run holds only 2-3 fixtures.
    """

    name = "gradcheck16"

    def __init__(self, seed: int):
        # The inputs are run_suite's seeds; it builds each fixture inside the
        # timed operation, as `strandseg gradcheck` does.
        self.seeds = [int(s) for s in _rng(seed, 4).integers(0, 2**31, size=64)]
        self.entries = sum(int(np.prod(shape)) for shape in param_shapes().values())

    def key(self, k):
        return k

    def warm_up(self):
        params, image, _ = gradcheck.make_fixture(0)
        for _ in range(50):
            forward_full(params, image)

    def unit(self, k) -> Unit:
        start = time.perf_counter()
        report = gradcheck.run_suite(seed=self.seeds[k], fixtures=1)
        wall = time.perf_counter() - start
        return Unit(op_ms={k: wall * 1e3}, items=self.entries, wall_s=wall, attempted=1,
                    outputs=report)

    def check(self, k, report):
        return int(not report["passed"]), {"max_rel_err_total": report["max_rel_err_total"],
                                           "max_rel_err_disc": report["max_rel_err_disc"]}

    def named(self, e2e, tail_q, quality):
        return {"gradcheck_s_per_fixture": (e2e["op_ms_p50"] / 1e3, "s")}

    def digest(self, report):
        return hashlib.sha256(repr(sorted(report.items())).encode()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (Train64, Eval64, Maps512, Gradcheck16)}
