"""Mean-shift clustering of foreground pixel embeddings.

Foreground embeddings are lifted to 5-d by appending normalized image
coordinates, so two strands with similar learned embeddings can still be
separated spatially (and vice versa). `augment_coordinates` returns them as
one (N, 5) array whose rows follow the raster order of the foreground mask:
the mask alone says which pixel each row belongs to, and `mean_shift` never
needs to know. Clustering uses a flat-kernel mean shift: every seed point
repeatedly jumps to the mean of all points within `bandwidth` of it, which
reaches an exact fixed point once the in-window set stops changing.

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
centroids. Both it and the support count go through `_window_sums`, which
evaluates each bitwise-distinct query row once (many seeds reach the same
mode after a few steps) and builds the (rows, N) window matrix in blocks of
at most `WINDOW_BLOCK_BYTES`, so memory stays bounded whatever the seed
count. `MeanShiftCounters` records the work done, deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Byte budget of one float64 (query rows, N) window block in `_window_sums`.
# Measured on a 2-vCPU SkylakeX host with one BLAS thread, 1 MiB blocks beat
# both smaller ones and 32 MiB ones, at 64 px and at 512 px.
WINDOW_BLOCK_BYTES = 2**20


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not -math.inf < self.coord_scale < math.inf:
            raise ValueError("coord_scale must be finite")
        if not self.seed_cap >= 1:
            raise ValueError("seed_cap must be >= 1")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.rng_seed >= 0:
            raise ValueError("rng_seed must be >= 0")


def augment_coordinates(emb: np.ndarray, fg_mask: np.ndarray,
                        coord_scale: float = 1.0) -> np.ndarray:
    """(N, 5) float64 vectors of the N foreground pixels: 3 learned dims + 2 coordinates.

    The appended pair is (row/(H-1), col/(W-1)) * coord_scale, so corners map
    to (0, 0) and (coord_scale, coord_scale). Rows follow the raster order in
    which `emb[fg_mask]` visits the pixels, so `fg_mask` maps them back onto
    the grid. An empty mask yields a (0, 5) array.
    """
    emb = np.asarray(emb, dtype=np.float64)
    fg_mask = np.asarray(fg_mask, dtype=bool)
    if emb.ndim != 3 or emb.shape[:2] != fg_mask.shape:
        raise ValueError(f"emb {emb.shape} and mask {fg_mask.shape} dims disagree")
    h, w = fg_mask.shape
    rows, cols = np.nonzero(fg_mask)
    coords = np.stack([rows / max(h - 1, 1), cols / max(w - 1, 1)], axis=1)
    return np.concatenate([emb[fg_mask], coords * coord_scale], axis=1)


@dataclass
class MeanShiftCounters:
    """Deterministic counts of the work one `mean_shift` call did.

    iterations : update steps taken by each `_converge` call, the seeds'
        first and then the merged centroids'
    hit_max_iterations : some `_converge` call stopped at `max_iterations`
        with starts still moving
    rows : query rows passed to `_window_sums` (update steps and support)
    distinct_rows : of those, the bitwise-distinct rows actually evaluated
    max_block_bytes : the largest float64 (rows, N) window block built
    """

    iterations: list = field(default_factory=list)
    hit_max_iterations: bool = False
    rows: int = 0
    distinct_rows: int = 0
    max_block_bytes: int = 0


@dataclass
class ClusterModel:
    """K cluster centers plus the distance from every clustered row to each of them.

    `distances` is computed once, by `mean_shift`; its rows are the rows of
    the vectors it clustered, so for `augment_coordinates` output they follow
    the foreground mask's raster order. `assignment` reads it, and so does
    `intersections.crossing_scores`, whose (N, K) matrix
    `pipeline.instances_from_maps` hands, with the mask, to both
    `build_instances` and `min_similarity`.
    """

    centers: np.ndarray  # (K, D)
    distances: np.ndarray  # (N, K) center_distances(vectors, centers)
    counters: MeanShiftCounters = field(default_factory=MeanShiftCounters)

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


def _window_sums(points: np.ndarray, queries: np.ndarray, cfg: MeanShiftConfig,
                 counters: MeanShiftCounters) -> tuple[np.ndarray, np.ndarray]:
    """In-window point counts (Q,) and point sums (Q, 5) of every query row.

    Each bitwise-distinct row is evaluated once and its results are scattered
    back to its copies. Rows that are equal in value but not in bits (-0.0 and
    0.0) stay apart, so an empty-window row keeps its own bits. The distinct
    rows go through `_windows` in blocks whose float64 (rows, N) matrix fits
    in WINDOW_BLOCK_BYTES; a block holds at least one row.
    """
    queries = np.ascontiguousarray(queries)
    keys = queries.view(np.dtype((np.void, queries.itemsize * queries.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = queries[first]
    n = len(points)
    step = max(1, WINDOW_BLOCK_BYTES // (8 * n))
    counts = np.empty(len(distinct), dtype=np.int64)
    sums = np.empty(distinct.shape)
    for lo in range(0, len(distinct), step):
        inside = _windows(points, distinct[lo : lo + step], cfg)
        counts[lo : lo + step] = inside.sum(axis=1)
        sums[lo : lo + step] = inside.astype(np.float64) @ points
    counters.rows += len(queries)
    counters.distinct_rows += len(distinct)
    counters.max_block_bytes = max(counters.max_block_bytes, min(step, len(distinct)) * n * 8)
    return counts[inverse], sums[inverse]


def _converge(points: np.ndarray, starts: np.ndarray, cfg: MeanShiftConfig,
              counters: MeanShiftCounters) -> np.ndarray:
    """Evolve every start in parallel to its flat-kernel mode.

    Each step jumps to the mean of the in-window points; a start stops once it
    moves less than `convergence_tol` (flat-kernel updates hit exact fixed
    points once window membership stabilizes). A start whose window is empty
    stays where it is. Records its step count, and whether starts were still
    moving at `max_iterations`, in `counters`.
    """
    modes = np.array(starts, dtype=np.float64)
    active = np.ones(len(modes), dtype=bool)
    steps = 0
    while steps < cfg.max_iterations and active.any():
        cur = modes[active]
        counts, sums = _window_sums(points, cur, cfg, counters)
        nxt = sums / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        nxt[empty] = cur[empty]
        shift = np.linalg.norm(nxt - cur, axis=1)
        modes[active] = nxt
        active[np.flatnonzero(active)] = shift >= cfg.convergence_tol
        steps += 1
    counters.iterations.append(steps)
    counters.hit_max_iterations |= bool(active.any())
    return modes


def mean_shift(vectors: np.ndarray, cfg: MeanShiftConfig) -> ClusterModel:
    """Cluster the (N, D) rows of `vectors`; deterministic per (input, cfg).

    Seeds are all points when N <= seed_cap, otherwise a seeded random
    subsample of seed_cap points. Raises ValueError on empty, non-2-d or
    non-finite input.
    """
    points = np.asarray(vectors, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"vectors must be an (N, D) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("embedding vectors must be finite")
    n = len(points)
    if n == 0:
        raise ValueError("mean_shift requires at least one foreground pixel")

    if n <= cfg.seed_cap:
        seed_idx = np.arange(n)
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        seed_idx = rng.choice(n, size=cfg.seed_cap, replace=False)
    counters = MeanShiftCounters()
    modes = _converge(points, points[seed_idx], cfg, counters)

    # Canonical processing order: strongest support first, then lexicographic.
    support, _ = _window_sums(points, modes, cfg, counters)
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
    centers = _converge(points, np.asarray(centroids), cfg, counters)

    return ClusterModel(centers=centers, distances=center_distances(points, centers),
                        counters=counters)


def center_distances(vectors: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, K) Euclidean distances from each of N vectors to each of K centers."""
    return np.linalg.norm(vectors[:, None, :] - centers[None, :, :], axis=2)
