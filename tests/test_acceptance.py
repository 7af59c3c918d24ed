"""Acceptance suite: the ten product-level checks, one test per criterion.

Each test is self-contained apart from the trained-model fixture shared by
the training-quality and baseline-ordering criteria (training once keeps the
whole file within a desk-scale time budget). Expected runtime is a few
minutes on a laptop CPU, dominated by the gradient check and the training
run.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from strandseg.clustering import MeanShiftConfig, mean_shift
from strandseg.cli import main
from strandseg.gradcheck import run_suite
from strandseg.intersections import ResolveConfig, similarity_scores
from strandseg.metrics import (THRESHOLDS, evaluate_dataset, instance_ap_ar,
                               mask_dice, mask_iou)
from strandseg.network import LossConfig, _discriminative_flat
from strandseg.optim import OptimConfig
from strandseg.pipeline import (PipelineConfig, infer, infer_cc_baseline,
                                instances_from_maps)
from strandseg.synth import (InstanceSet, SceneSpec, generate_scene,
                             polyline_distance_within, rasterize_polyline,
                             scene_seeds)
from strandseg.training import train

# Tuned inference settings for 64x64 synthetic scenes: a slightly raised
# foreground threshold counters the dilation introduced by majority-vote
# label pooling at the half-resolution heads, and the merge radius absorbs
# the bridge modes that crossing pixels form between two instance clusters.
DESK_PIPELINE = PipelineConfig(
    seg_threshold=0.60,
    mean_shift=MeanShiftConfig(bandwidth=0.75, merge_radius=1.6,
                               coord_scale=0.25, seed_cap=4096),
    resolve=ResolveConfig(beta=2.0, threshold_a=0.7),
)


@pytest.fixture(scope="module")
def trained():
    """Train once on 200 scenes; returns (params, held-out scenes, seconds)."""
    spec = SceneSpec()  # 64x64, two crossing curves
    train_scenes = [generate_scene(spec, int(s)) for s in scene_seeds(101, 200)]
    held_out = [generate_scene(spec, int(s)) for s in scene_seeds(202, 50)]
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(train_scenes))
    val = [train_scenes[i] for i in perm[:40]]
    tr = [train_scenes[i] for i in perm[40:]]
    start = time.perf_counter()
    result = train(tr, val, LossConfig(),
                   OptimConfig(learning_rate=1e-3, epochs=30),
                   augment_params=None, rng_seed=0)
    elapsed = time.perf_counter() - start
    return result.params, held_out, elapsed


def _evaluate(params, scenes, method):
    preds, gts, pred_fgs, gt_fgs = [], [], [], []
    for scene in scenes:
        if method == "cc":
            inst, fg = infer_cc_baseline(params, scene.image,
                                         DESK_PIPELINE.seg_threshold)
        else:
            inst, fg, _ = infer(params, scene.image, DESK_PIPELINE)
        preds.append(inst)
        gts.append(scene.instances)
        pred_fgs.append(fg)
        gt_fgs.append(scene.instances.union())
    return evaluate_dataset(preds, gts, pred_fgs, gt_fgs)


def test_criterion_01_gradient_fidelity():
    start = time.perf_counter()
    report = run_suite(seed=0, fixtures=10)
    elapsed = time.perf_counter() - start
    assert report["fixtures"] == 10
    assert report["max_rel_err_disc"] <= 1e-4
    assert report["max_rel_err_total"] <= 1e-4
    assert report["passed"] is True
    assert elapsed < 120.0


def test_criterion_02_loss_oracles():
    cfg = LossConfig()  # delta_v 0.5, delta_d 3.0, unit term weights

    # push-only: two singleton clusters 1 apart -> 2*(3-1)^2 / (2*1) = 4
    push = np.array([[0.0, 0, 0], [0, 0, 0], [1.0, 0, 0]])
    loss, _ = _discriminative_flat(push, np.array([1, 1, 2]), cfg)
    assert loss == pytest.approx(4.0, abs=1e-9)

    # pull-only: one cluster, both points 1 from the mean -> (1-0.5)^2 = 0.25
    pull = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    loss, _ = _discriminative_flat(pull, np.array([1, 1]), cfg)
    assert loss == pytest.approx(0.25, abs=1e-9)

    # zero-loss construction: intra radii <= delta_v, means >= delta_d apart
    rng = np.random.default_rng(0)
    a = rng.uniform(-0.25, 0.25, size=(10, 3))
    a -= a.mean(axis=0)
    vectors = np.concatenate([a, a + np.array([5.0, 0, 0])])
    ids = np.array([1] * 10 + [2] * 10)
    loss, grad = _discriminative_flat(vectors, ids, cfg)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_criterion_03_similarity_equivalence():
    s = similarity_scores(np.array([1.0, 2.0]), beta=2.0)
    assert s[0] == pytest.approx(0.880797, abs=1e-6)
    s = similarity_scores(np.array([0.5, 0.7]), beta=2.0)
    assert s[0] == pytest.approx(0.598688, abs=1e-6)

    rng = np.random.default_rng(42)
    disagreements = 0
    for _ in range(10_000):
        d = np.sort(rng.uniform(0.0, 8.0, size=rng.integers(2, 6)))
        beta = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.5, 1.0)
        if a in (0.5, 1.0):  # open interval
            continue
        cutoff = math.log(a / (1.0 - a)) / beta
        scores = similarity_scores(d, beta=beta)
        gaps = d[1:] - d[0]
        if np.any((scores < a) != (gaps < cutoff)):
            disagreements += 1
    assert disagreements == 0


def test_criterion_04_clustering_oracle():
    def adjusted_rand_index(x, y):
        _, xi = np.unique(x, return_inverse=True)
        _, yi = np.unique(y, return_inverse=True)
        table = np.zeros((xi.max() + 1, yi.max() + 1), dtype=np.int64)
        np.add.at(table, (xi, yi), 1)
        comb2 = lambda v: v * (v - 1) // 2  # noqa: E731
        sum_ij = comb2(table).sum()
        sum_a = comb2(table.sum(axis=1)).sum()
        sum_b = comb2(table.sum(axis=0)).sum()
        total = comb2(len(x))
        expected = sum_a * sum_b / total
        max_index = (sum_a + sum_b) / 2
        if max_index == expected:
            return 1.0
        return (sum_ij - expected) / (max_index - expected)

    cfg = MeanShiftConfig(seed_cap=4096)  # bandwidth 0.75
    separation = 10 * cfg.bandwidth
    perfect = 0
    for trial in range(100):
        rng = np.random.default_rng(10_000 + trial)
        k = 2 + trial % 3  # cycles K through 2, 3, 4
        # random centers, rejection-sampled to pairwise separation >= 7.5
        while True:
            centers = rng.uniform(-12, 12, size=(k, 5))
            diffs = centers[:, None, :] - centers[None, :, :]
            dists = np.linalg.norm(diffs, axis=2)
            if np.all(dists[np.triu_indices(k, 1)] >= separation):
                break
        points = np.concatenate([
            c + rng.normal(scale=0.15, size=(30, 5)) for c in centers])
        oracle = np.argmin(
            np.linalg.norm(points[:, None, :] - centers[None], axis=2), axis=1)
        model = mean_shift(points, cfg)
        if model.k == k and adjusted_rand_index(model.assignment, oracle) == 1.0:
            perfect += 1
    assert perfect == 100


def test_criterion_05_oracle_end_to_end():
    # two synthetic strands crossing at a 3x3 block; embeddings are exact
    # cluster constants a push-margin (3.0) apart, crossing pixels sit at
    # the midpoint and must come back assigned to both instances
    h = w = 48
    strand_a = np.zeros((h, w), bool)
    strand_b = np.zeros((h, w), bool)
    strand_a[22:25, 4:44] = True   # horizontal bar
    strand_b[4:44, 22:25] = True   # vertical bar
    crossing = strand_a & strand_b
    assert crossing.sum() == 9

    seg = np.where(strand_a | strand_b, 0.9, 0.1)
    emb = np.zeros((h, w, 3))
    emb[strand_a] = [0.0, 0.0, 0.0]
    emb[strand_b] = [3.0, 0.0, 0.0]
    emb[crossing] = [1.5, 0.0, 0.0]

    cfg = PipelineConfig(
        seg_threshold=0.5,
        mean_shift=MeanShiftConfig(bandwidth=0.75, merge_radius=1.6,
                                   coord_scale=0.25, seed_cap=10_000),
        resolve=ResolveConfig(beta=2.0, threshold_a=0.7))
    inst, fg, diag = instances_from_maps(seg, emb, cfg)

    assert diag.clusters == 2
    got = {m.tobytes() for m in inst.masks}
    assert got == {strand_a.tobytes(), strand_b.tobytes()}
    assert diag.multi_assigned_pixels == 9

    gt = InstanceSet(height=h, width=w, masks=[strand_a, strand_b])
    scores = instance_ap_ar(inst, gt)
    assert len(scores["per_threshold"]) == 9
    for row in scores["per_threshold"]:
        assert row["ap"] == 1.0
        assert row["ar"] == 1.0


def test_criterion_06_desk_scale_training(trained):
    params, held_out, elapsed = trained
    assert elapsed < 15 * 60
    report = _evaluate(params, held_out, method="embedding")
    assert report.dice >= 0.80, f"held-out semantic dice {report.dice:.3f}"
    assert report.ap >= 0.70, f"held-out AP@[0.2:0.6] {report.ap:.3f}"


def test_criterion_07_baseline_ordering(trained):
    params, held_out, _ = trained
    ours = _evaluate(params, held_out, method="embedding")
    cc = _evaluate(params, held_out, method="cc")
    # both methods split the very same thresholded foreground
    assert cc.iou == ours.iou
    assert cc.dice == ours.dice
    assert ours.ap - cc.ap >= 0.2, (
        f"embedding AP {ours.ap:.3f} vs connected-components AP {cc.ap:.3f}")


def test_criterion_08_metric_identities():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a = rng.random((8, 8)) > rng.uniform(0.2, 0.8)
        b = rng.random((8, 8)) > rng.uniform(0.2, 0.8)
        iou = mask_iou(a, b)
        assert abs(mask_dice(a, b) - 2 * iou / (1 + iou)) <= 1e-12

    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        pred = InstanceSet(height=8, width=8,
                           masks=[rng.random((8, 8)) > 0.5 for _ in range(3)])
        gt = InstanceSet(height=8, width=8,
                         masks=[rng.random((8, 8)) > 0.5 for _ in range(3)])
        rows = instance_ap_ar(pred, gt)["per_threshold"]
        aps = [r["ap"] for r in rows]
        ars = [r["ar"] for r in rows]
        assert all(x >= y for x, y in zip(aps, aps[1:]))
        assert all(x >= y for x, y in zip(ars, ars[1:]))
        perm = rng.permutation(3)
        shuffled = InstanceSet(height=8, width=8,
                               masks=[pred.masks[i] for i in perm])
        again = instance_ap_ar(shuffled, gt)
        assert again["ap"] == pytest.approx(
            instance_ap_ar(pred, gt)["ap"], abs=1e-12)
        assert again["ar"] == pytest.approx(
            instance_ap_ar(pred, gt)["ar"], abs=1e-12)


def test_criterion_09_rasterizer_exactness():
    def brute_force_distances(h, w, points):
        # full-grid distance to every segment, no bounding-box shortcuts
        ys, xs = np.mgrid[0:h, 0:w]
        best = np.full((h, w), np.inf)
        for p, q in zip(points[:-1], points[1:]):
            p = np.asarray(p, float)
            q = np.asarray(q, float)
            d = q - p
            denom = float(d @ d)
            px = xs - p[0]
            py = ys - p[1]
            if denom == 0.0:
                dist = np.hypot(px, py)
            else:
                t = np.clip((px * d[0] + py * d[1]) / denom, 0.0, 1.0)
                dist = np.hypot(px - t * d[0], py - t * d[1])
            best = np.minimum(best, dist)
        return best

    rng = np.random.default_rng(0)
    for trial in range(100):
        h = int(rng.integers(16, 48))
        w = int(rng.integers(16, 48))
        n = int(rng.integers(2, 7))
        points = np.column_stack([rng.uniform(-4, w + 4, n),
                                  rng.uniform(-4, h + 4, n)])
        width = float(rng.uniform(0.5, 6.0))
        mine = rasterize_polyline(h, w, points, width)
        best = brute_force_distances(h, w, points)
        oracle = best <= width / 2.0
        np.testing.assert_array_equal(mine, oracle)
        # the distance helper is exact everywhere it reports a value <= reach
        dist = polyline_distance_within(h, w, points, width / 2.0)
        np.testing.assert_array_equal(dist <= width / 2.0, oracle)
        np.testing.assert_allclose(dist[oracle], best[oracle], atol=1e-9)


def test_criterion_10_reproducibility(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "seed": 5,
        "scene": {"height": 32, "width": 32},
        "optim": {"epochs": 2, "batch_size": 2, "learning_rate": 0.001},
    }))

    def run_all(tag):
        data = str(tmp_path / f"data_{tag}")
        run = str(tmp_path / f"run_{tag}")
        ev = str(tmp_path / f"ev_{tag}")
        assert main(["synth", "--config", str(cfg_path), "--count", "6",
                     "--out", data]) == 0
        assert main(["train", "--config", str(cfg_path), "--dataset", data,
                     "--out", run]) == 0
        assert main(["eval", "--config", str(cfg_path), "--dataset", data,
                     "--checkpoint", os.path.join(run, "checkpoint.segt"),
                     "--out", ev]) == 0
        digests = {}
        for root in (data, run, ev):
            for base, _, names in os.walk(root):
                for name in names:
                    path = os.path.join(base, name)
                    rel = os.path.relpath(path, str(tmp_path))
                    rel = rel.replace(f"_{tag}", "")
                    with open(path, "rb") as fh:
                        digests[rel] = fh.read()
        return digests

    first = run_all("a")
    second = run_all("b")
    assert set(first) == set(second)
    mismatched = [k for k in first if first[k] != second[k]]
    assert mismatched == []
