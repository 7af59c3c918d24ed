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


def crossing_scores(distances: np.ndarray, beta: float) -> np.ndarray:
    """(N, K) score s_i of every center against each row's nearest center.

    Evaluated in the overflow-safe logistic form 1/(1 + exp(-beta*(d_i - d_1)));
    the nearest center scores exactly 0.5.
    """
    nearest = distances.min(axis=1, keepdims=True)
    return 1.0 / (1.0 + np.exp(-beta * (distances - nearest)))


def similarity_scores(distances: np.ndarray, beta: float) -> np.ndarray:
    """Scores s_2..s_n for an ascending-sorted distance vector d_1..d_n."""
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or len(d) < 2:
        raise ValueError("need at least two sorted distances")
    if (d < 0).any():
        raise ValueError("distances must be nonnegative")
    if (np.diff(d) < 0).any():
        raise ValueError("distances must be sorted ascending")
    return crossing_scores(d[None, :], beta)[0, 1:]


def resolve_pixel(embedding: np.ndarray, centers: np.ndarray, cfg: ResolveConfig) -> set:
    """Cluster indices owning one 5-d embedding.

    Always contains the nearest center; every other center whose similarity
    score against the nearest falls below cfg.threshold_a joins it.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or len(centers) < 1:
        raise ValueError("need at least one cluster center")
    d = np.linalg.norm(centers - np.asarray(embedding, dtype=np.float64), axis=1)
    owners = {int(d.argmin())}
    scores = crossing_scores(d[None, :], cfg.beta)[0]
    owners.update(int(i) for i in np.flatnonzero(scores < cfg.threshold_a))
    return owners


def min_similarity(fg: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """(H, W) map of each foreground pixel's lowest non-nearest score; 1.0 elsewhere.

    `fg` is the (H, W) bool foreground mask and `scores` the (N, K)
    `crossing_scores` matrix, one row per foreground pixel in raster order.
    The nearest center's 0.5 is each row's smallest entry, so the map takes
    the second-smallest; it is all 1.0 when K < 2. Low values flag
    intersection candidates.
    """
    out = np.ones(fg.shape)
    if scores.shape[1] < 2:
        return out
    out[fg] = np.partition(scores, 1, axis=1)[:, 1]
    return out


def build_instances(fg: np.ndarray, scores: np.ndarray, cfg: ResolveConfig) -> InstanceSet:
    """One mask per cluster; crossing pixels may appear in several masks.

    `fg` is the (H, W) bool foreground mask and `scores` the (N, K)
    `crossing_scores` matrix, one row per foreground pixel in raster order.
    Pixel p joins mask c iff c is in resolve_pixel(p): its nearest center
    scores 0.5 and ResolveConfig keeps threshold_a > 0.5, so
    `scores < threshold_a` always holds the nearest. The union of all masks is
    therefore exactly `fg`, and overlaps mark resolved intersections.
    """
    masks = np.zeros((scores.shape[1], *fg.shape), dtype=bool)
    masks[:, fg] = (scores < cfg.threshold_a).T
    return InstanceSet(*fg.shape, masks)
