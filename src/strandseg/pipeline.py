"""End-to-end inference: image -> network -> upsample -> cluster -> resolve.

`instances_from_maps` is the post-network half on full-resolution maps; it
exists separately so ideal (oracle) probability/embedding maps can be pushed
through clustering and intersection resolution without a trained network.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .clustering import MeanShiftConfig, MeanShiftCounters, augment_coordinates, mean_shift
from .grids import upsample_bilinear
from .intersections import ResolveConfig, build_instances, crossing_scores, min_similarity
from .metrics import connected_components
from .network import forward
from .synth import InstanceSet


@dataclass(frozen=True)
class PipelineConfig:
    seg_threshold: float = 0.5
    mean_shift: MeanShiftConfig = field(default_factory=MeanShiftConfig)
    resolve: ResolveConfig = field(default_factory=ResolveConfig)

    def __post_init__(self):
        if not 0.0 < self.seg_threshold < 1.0:
            raise ValueError("seg_threshold must lie in (0, 1)")


@dataclass
class Diagnostics:
    clusters: int = 0
    fg_pixels: int = 0
    multi_assigned_pixels: int = 0
    min_similarity: np.ndarray | None = None
    centers: np.ndarray | None = None
    mean_shift: MeanShiftCounters = field(default_factory=MeanShiftCounters)
    timings_ms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "clusters": self.clusters,
            "fg_pixels": self.fg_pixels,
            "multi_assigned_pixels": self.multi_assigned_pixels,
            "mean_shift": asdict(self.mean_shift),
            "timings_ms": {k: float(v) for k, v in self.timings_ms.items()},
        }
        if self.centers is not None:
            out["centers"] = [[float(x) for x in c] for c in self.centers]
        return out


def instances_from_maps(seg_prob: np.ndarray, emb: np.ndarray,
                        cfg: PipelineConfig):
    """Threshold, cluster and resolve full-resolution maps.

    Returns (InstanceSet, foreground mask, Diagnostics). Empty foreground is
    not an error: it yields an empty InstanceSet.
    """
    seg_prob = np.asarray(seg_prob, dtype=np.float64)
    emb = np.asarray(emb, dtype=np.float64)
    if emb.shape[:2] != seg_prob.shape:
        raise ValueError(f"seg_prob {seg_prob.shape} and emb {emb.shape} dims disagree")
    diag = Diagnostics()
    fg = seg_prob >= cfg.seg_threshold
    diag.fg_pixels = int(fg.sum())
    if not fg.any():
        diag.min_similarity = np.ones(fg.shape)
        diag.centers = np.zeros((0, 5))
        return InstanceSet(fg.shape[0], fg.shape[1], []), fg, diag

    t0 = time.perf_counter()
    vectors = augment_coordinates(emb, fg, cfg.mean_shift.coord_scale)
    cm = mean_shift(vectors, cfg.mean_shift)
    t1 = time.perf_counter()
    scores = crossing_scores(cm.distances, cfg.resolve.beta)
    instances = build_instances(fg, scores, cfg.resolve)
    t2 = time.perf_counter()

    diag.clusters = cm.k
    diag.centers = cm.centers
    diag.mean_shift = cm.counters
    diag.multi_assigned_pixels = int(instances.overlap().sum())
    diag.min_similarity = min_similarity(fg, scores)
    diag.timings_ms["cluster"] = (t1 - t0) * 1e3
    diag.timings_ms["resolve"] = (t2 - t1) * 1e3
    return instances, fg, diag


def infer(params: dict, image: np.ndarray, cfg: PipelineConfig):
    """Full pipeline on one image; returns (InstanceSet, fg mask, Diagnostics)."""
    t0 = time.perf_counter()
    seg_half, emb_half = forward(params, image)
    t1 = time.perf_counter()
    h, w = image.shape
    seg_prob = upsample_bilinear(seg_half, h, w)
    emb = upsample_bilinear(emb_half, h, w)
    t2 = time.perf_counter()
    instances, fg, diag = instances_from_maps(seg_prob, emb, cfg)
    diag.timings_ms["forward"] = (t1 - t0) * 1e3
    diag.timings_ms["upsample"] = (t2 - t1) * 1e3
    return instances, fg, diag


def infer_cc_baseline(params: dict, image: np.ndarray, seg_threshold: float):
    """Baseline: the foreground `infer` thresholds, instances = 8-connected components."""
    seg_half, _ = forward(params, image)
    h, w = image.shape
    fg = upsample_bilinear(seg_half, h, w) >= seg_threshold
    return connected_components(fg), fg
