"""Mean-shift clustering of foreground pixel embeddings.

Foreground embeddings are lifted to 5-d by appending normalized image
coordinates, so two strands with similar learned embeddings can still be
separated spatially (and vice versa). Clustering uses a flat-kernel mean
shift: every seed point repeatedly jumps to the mean of all points within
`bandwidth` of it, which reaches an exact fixed point once the in-window
set stops changing.

Converged modes are reduced to final centers in a canonical order: modes
are ranked by in-window support (ties broken lexicographically on the mode
vector), and each not-yet-claimed mode in rank order anchors a group that
absorbs all unclaimed modes within `merge_radius` of it. The group centroids
are then re-iterated to convergence so every returned center is itself a
mode. This ordering makes the result independent of input permutation when
all points are used as seeds.

One window rule (`_windows`) decides in-window membership everywhere: for
the update steps, for support, and for the merged centroids. One batched
convergence loop (`_converge`) serves both the seeds and the merged
centroids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MeanShiftConfig:
    """Settings for mean shift over 5-d embeddings.

    bandwidth defaults to 1.5x the discriminative pull margin so a cluster
    trained to radius delta_v fits inside one window; merge_radius collapses
    near-duplicate modes. coord_scale weights the two appended coordinate
    dimensions against the three learned ones.
    """

    bandwidth: float = 0.75
    max_iterations: int = 300
    convergence_tol: float = 1e-4
    merge_radius: float = 0.375
    seed_cap: int = 1024
    rng_seed: int = 0
    coord_scale: float = 1.0

    def __post_init__(self):
        for name in ("bandwidth", "merge_radius", "convergence_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not -math.inf < self.coord_scale < math.inf:
            raise ValueError("coord_scale must be finite")
        if self.seed_cap < 1:
            raise ValueError("seed_cap must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class ForegroundEmbeddings:
    """Per-foreground-pixel 5-d vectors, in raster order.

    pixels : (N, 2) int array of (row, col)
    vectors : (N, 5) float array — 3 learned dims + 2 scaled coordinates
    height, width : dims of the source grid
    """

    pixels: np.ndarray
    vectors: np.ndarray
    height: int
    width: int

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.int64).reshape(-1, 2)
        self.vectors = np.asarray(self.vectors, dtype=np.float64).reshape(-1, 5)
        if len(self.pixels) != len(self.vectors):
            raise ValueError("pixels and vectors must have equal length")
        if not np.isfinite(self.vectors).all():
            raise ValueError("embedding vectors must be finite")

    def __len__(self):
        return len(self.vectors)


def augment_coordinates(emb: np.ndarray, fg_mask: np.ndarray,
                        coord_scale: float = 1.0) -> ForegroundEmbeddings:
    """Gather foreground embeddings and append scaled normalized coordinates.

    The appended pair is (row/(H-1), col/(W-1)) * coord_scale, so corners map
    to (0, 0) and (coord_scale, coord_scale). Raster (row-major) order is
    preserved. An empty mask yields an empty result.
    """
    emb = np.asarray(emb, dtype=np.float64)
    fg_mask = np.asarray(fg_mask, dtype=bool)
    if emb.ndim != 3 or emb.shape[:2] != fg_mask.shape:
        raise ValueError(f"emb {emb.shape} and mask {fg_mask.shape} dims disagree")
    h, w = fg_mask.shape
    pixels = np.argwhere(fg_mask)  # raster order
    learned = emb[fg_mask]
    denom_r = max(h - 1, 1)
    denom_c = max(w - 1, 1)
    coords = np.stack([pixels[:, 0] / denom_r, pixels[:, 1] / denom_c], axis=1)
    vectors = np.concatenate([learned, coords * coord_scale], axis=1)
    return ForegroundEmbeddings(pixels=pixels, vectors=vectors, height=h, width=w)


@dataclass
class ClusterModel:
    """K cluster centers plus the distance from every pixel to each of them.

    `distances` is computed once, by `mean_shift`, and read by everything
    downstream: the nearest-center assignment and the crossing scores.
    """

    centers: np.ndarray  # (K, 5)
    distances: np.ndarray  # (N, K) center_distances(vectors, centers)

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def assignment(self) -> np.ndarray:
        """(N,) index of each pixel's nearest center."""
        return self.distances.argmin(axis=1)


def _windows(points: np.ndarray, queries: np.ndarray, cfg: MeanShiftConfig) -> np.ndarray:
    """(Q, N) bool: point n lies within `bandwidth` of query q (the flat kernel).

    Squared distances come from the dot-product identity, so memory stays
    O(Q*N) with no (Q, N, 5) difference tensor.
    """
    d_sq = ((queries * queries).sum(axis=1)[:, None] + (points * points).sum(axis=1)[None, :]
            - 2.0 * (queries @ points.T))
    return d_sq <= cfg.bandwidth * cfg.bandwidth + 1e-12


def _converge(points: np.ndarray, starts: np.ndarray, cfg: MeanShiftConfig) -> np.ndarray:
    """Evolve every start in parallel to its flat-kernel mode.

    Each step jumps to the mean of the in-window points; a start stops once it
    moves less than `convergence_tol` (flat-kernel updates hit exact fixed
    points once window membership stabilizes). A start whose window is empty
    stays where it is.
    """
    modes = np.array(starts, dtype=np.float64)
    active = np.ones(len(modes), dtype=bool)
    for _ in range(cfg.max_iterations):
        if not active.any():
            break
        cur = modes[active]
        inside = _windows(points, cur, cfg)
        counts = inside.sum(axis=1)
        nxt = inside.astype(np.float64) @ points / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        nxt[empty] = cur[empty]
        shift = np.linalg.norm(nxt - cur, axis=1)
        modes[active] = nxt
        active[np.flatnonzero(active)] = shift >= cfg.convergence_tol
    return modes


def mean_shift(fe: ForegroundEmbeddings, cfg: MeanShiftConfig) -> ClusterModel:
    """Cluster foreground embeddings; deterministic per (input, cfg).

    Seeds are all points when N <= seed_cap, otherwise a seeded random
    subsample of seed_cap points. Raises ValueError on empty input.
    """
    points = fe.vectors
    n = len(points)
    if n == 0:
        raise ValueError("mean_shift requires at least one foreground pixel")

    if n <= cfg.seed_cap:
        seed_idx = np.arange(n)
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        seed_idx = rng.choice(n, size=cfg.seed_cap, replace=False)
    modes = _converge(points, points[seed_idx], cfg)

    # Canonical processing order: strongest support first, then lexicographic.
    support = _windows(points, modes, cfg).sum(axis=1)
    order = np.lexsort(tuple(modes[:, dim] for dim in reversed(range(modes.shape[1])))
                       + (-support,))

    claimed = np.zeros(len(modes), dtype=bool)
    centroids = []
    for i in order:
        if claimed[i]:
            continue
        near = np.linalg.norm(modes - modes[i], axis=1) <= cfg.merge_radius
        group = ~claimed & near
        claimed |= group
        # Centroid over member modes in canonical order.
        members = order[group[order]]
        centroids.append(modes[members].mean(axis=0))
    # Re-converge so every returned center is itself a fixed point of the update.
    centers = _converge(points, np.asarray(centroids), cfg)

    return ClusterModel(centers=centers, distances=center_distances(points, centers))


def center_distances(vectors: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, K) Euclidean distances from each of N vectors to each of K centers."""
    return np.linalg.norm(vectors[:, None, :] - centers[None, :, :], axis=2)
