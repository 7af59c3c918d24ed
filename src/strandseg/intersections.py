"""Assigning crossing pixels to every strand they belong to.

A pixel whose embedding sits between two cluster centers is ambiguous: its
distance d_1 to the nearest center barely beats the distance d_i to the
runner-up. The similarity score

    s_i = exp(-beta*d_1) / (exp(-beta*d_1) + exp(-beta*d_i))
        = 1 / (1 + exp(-beta*(d_i - d_1)))

is 0.5 when the two distances tie and approaches 1 as the gap grows. Any
cluster whose score falls below the threshold `a` is considered a co-owner
of the pixel, so the pixel lands in multiple instance masks. Distances are
measured in the same 5-d space used for clustering, so spatial proximity
gates membership too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterModel, ForegroundEmbeddings
from .synth import InstanceSet


@dataclass(frozen=True)
class ResolveConfig:
    beta: float = 2.0
    threshold_a: float = 0.7

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and > 0")
        # s_i >= 0.5 always, so thresholds at or below 0.5 could never fire
        if not 0.5 < self.threshold_a < 1.0:
            raise ValueError("threshold_a must lie in (0.5, 1)")


def similarity_scores(distances: np.ndarray, beta: float) -> np.ndarray:
    """Scores s_2..s_n for an ascending-sorted distance vector d_1..d_n.

    Evaluated in the overflow-safe logistic form 1/(1 + exp(-beta*(d_i - d_1))).
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or len(d) < 2:
        raise ValueError("need at least two sorted distances")
    if (d < 0).any():
        raise ValueError("distances must be nonnegative")
    if (np.diff(d) < 0).any():
        raise ValueError("distances must be sorted ascending")
    gaps = d[1:] - d[0]
    return 1.0 / (1.0 + np.exp(-beta * gaps))


def resolve_pixel(embedding: np.ndarray, centers: np.ndarray, cfg: ResolveConfig) -> set:
    """Cluster indices owning one 5-d embedding.

    Always contains the nearest center; every other center whose similarity
    score against the nearest falls below cfg.threshold_a joins it.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or len(centers) < 1:
        raise ValueError("need at least one cluster center")
    d = np.linalg.norm(centers - np.asarray(embedding, dtype=np.float64), axis=1)
    nearest = int(d.argmin())
    if len(centers) == 1:
        return {nearest}
    owners = {nearest}
    scores = 1.0 / (1.0 + np.exp(-cfg.beta * (d - d[nearest])))
    for i in np.flatnonzero(scores < cfg.threshold_a):
        owners.add(int(i))
    return owners


def _scores(cm: ClusterModel, beta: float):
    """(N, K) score of every center against each pixel's nearest, and the nearest index."""
    d = cm.distances
    nearest = cm.assignment
    d1 = d[np.arange(len(d)), nearest]
    return 1.0 / (1.0 + np.exp(-beta * (d - d1[:, None]))), nearest


def min_similarity(fe: ForegroundEmbeddings, cm: ClusterModel, cfg: ResolveConfig) -> np.ndarray:
    """Per-foreground-pixel min_i s_i, as an (H, W) map (1.0 off-foreground).

    Low values flag intersection candidates; useful for visualization and
    exported alongside instance masks.
    """
    out = np.ones((fe.height, fe.width))
    if len(fe) == 0 or cm.k == 1:
        return out
    scores, nearest = _scores(cm, cfg.beta)
    # the nearest cluster scores exactly 0.5 against itself; ignore it
    scores[np.arange(len(scores)), nearest] = np.inf
    out[fe.pixels[:, 0], fe.pixels[:, 1]] = scores.min(axis=1)
    return out


def build_instances(fe: ForegroundEmbeddings, cm: ClusterModel,
                    cfg: ResolveConfig) -> InstanceSet:
    """One mask per cluster; crossing pixels may appear in several masks.

    Pixel p joins mask c iff c is in resolve_pixel(p), so the union of all
    masks is exactly the foreground pixel set and overlaps mark resolved
    intersections.
    """
    masks = [np.zeros((fe.height, fe.width), dtype=bool) for _ in range(cm.k)]
    if len(fe) == 0:
        return InstanceSet(fe.height, fe.width, [])
    scores, nearest = _scores(cm, cfg.beta)
    member = scores < cfg.threshold_a
    member[np.arange(len(member)), nearest] = True
    rows, cols = fe.pixels[:, 0], fe.pixels[:, 1]
    for c in range(cm.k):
        masks[c][rows[member[:, c]], cols[member[:, c]]] = True
    return InstanceSet(fe.height, fe.width, masks)
