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
absorbs all unclaimed modes within `merge_radius` of it. The group centroid
is then re-iterated to convergence so every returned center is itself a
mode. This ordering makes the result independent of input permutation when
all points are used as seeds.
"""

from __future__ import annotations

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
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.merge_radius <= 0:
            raise ValueError("merge_radius must be > 0")
        if self.seed_cap < 1:
            raise ValueError("seed_cap must be >= 1")
        if self.max_iterations < 1 or self.convergence_tol <= 0:
            raise ValueError("max_iterations >= 1 and convergence_tol > 0 required")


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
    """K cluster centers plus the nearest-center assignment of every pixel."""

    centers: np.ndarray  # (K, 5)
    assignment: np.ndarray  # (N,) ints in [0, K)

    @property
    def k(self) -> int:
        return len(self.centers)


def _iterate_mode(points: np.ndarray, start: np.ndarray, cfg: MeanShiftConfig):
    """Run the flat-kernel update from one start; returns the converged mode."""
    z = start.astype(np.float64).copy()
    for _ in range(cfg.max_iterations):
        d = np.linalg.norm(points - z, axis=1)
        inside = d <= cfg.bandwidth
        if not inside.any():
            break
        z_new = points[inside].mean(axis=0)
        shift = float(np.linalg.norm(z_new - z))
        z = z_new
        if shift < cfg.convergence_tol:
            break
    return z


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

    # Evolve all seeds in parallel until every one has converged (flat-kernel
    # updates hit exact fixed points once window membership stabilizes).
    # Squared distances via the dot-product identity keep memory at O(S*N).
    modes = points[seed_idx].astype(np.float64).copy()
    pts_sq = (points * points).sum(axis=1)
    bw_sq = cfg.bandwidth * cfg.bandwidth
    active = np.ones(len(modes), dtype=bool)
    for _ in range(cfg.max_iterations):
        if not active.any():
            break
        cur = modes[active]
        d_sq = (cur * cur).sum(axis=1)[:, None] + pts_sq[None, :] - 2.0 * (cur @ points.T)
        inside = d_sq <= bw_sq + 1e-12
        counts = inside.sum(axis=1)
        counts[counts == 0] = 1  # empty window: stay put, will deactivate
        nxt = inside.astype(np.float64) @ points / counts[:, None]
        shift = np.linalg.norm(nxt - cur, axis=1)
        modes[active] = nxt
        still = shift >= cfg.convergence_tol
        active[np.flatnonzero(active)] = still

    # Canonical processing order: strongest support first, then lexicographic.
    support = np.empty(len(modes), dtype=np.int64)
    for i, m in enumerate(modes):
        support[i] = int((np.linalg.norm(points - m, axis=1) <= cfg.bandwidth).sum())
    order = np.lexsort(tuple(modes[:, dim] for dim in reversed(range(modes.shape[1])))
                       + (-support,))

    claimed = np.zeros(len(modes), dtype=bool)
    centers = []
    for i in order:
        if claimed[i]:
            continue
        near = np.linalg.norm(modes - modes[i], axis=1) <= cfg.merge_radius
        group = ~claimed & near
        claimed |= group
        # Centroid over member modes in canonical order, re-converged so the
        # returned center is itself a fixed point of the update.
        members = order[group[order]]
        centroid = modes[members].mean(axis=0)
        centers.append(_iterate_mode(points, centroid, cfg))
    centers = np.asarray(centers)

    assignment = center_distances(points, centers).argmin(axis=1)
    return ClusterModel(centers=centers, assignment=assignment)


def center_distances(vectors: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, K) Euclidean distances from each of N vectors to each of K centers."""
    return np.linalg.norm(vectors[:, None, :] - centers[None, :, :], axis=2)
