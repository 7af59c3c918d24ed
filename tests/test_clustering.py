import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandseg import clustering
from strandseg.clustering import (MeanShiftConfig, MeanShiftCounters, _converge,
                                  augment_coordinates, mean_shift)


def adjusted_rand_index(a, b):
    """ARI from the pair-counting contingency table (1.0 = identical split)."""
    a = np.asarray(a)
    b = np.asarray(b)
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)

    def comb2(x):
        return x * (x - 1) // 2

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(len(a))
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def _fe_from_vectors(vectors):
    return np.asarray(vectors, dtype=np.float64)


def _blobs(rng, centers, per, spread=0.05):
    chunks, labels = [], []
    for i, c in enumerate(centers):
        chunks.append(np.asarray(c) + rng.normal(scale=spread, size=(per, 5)))
        labels.extend([i] * per)
    return np.concatenate(chunks), np.array(labels)


# --- coordinate augmentation ---------------------------------------------


def test_augment_corner_values_and_order():
    emb = np.zeros((4, 6, 3))
    mask = np.zeros((4, 6), bool)
    mask[0, 0] = mask[3, 5] = mask[1, 2] = True
    vectors = augment_coordinates(emb, mask, coord_scale=2.0)
    assert vectors.shape == (3, 5) and vectors.dtype == np.float64
    # raster order: (0,0), (1,2), (3,5)
    np.testing.assert_allclose(vectors[0, 3:], [0.0, 0.0])
    np.testing.assert_allclose(vectors[2, 3:], [2.0, 2.0])
    np.testing.assert_allclose(vectors[1, 3:], [2.0 * 1 / 3, 2.0 * 2 / 5])


def test_augment_zero_scale_drops_spatial_information():
    emb = np.random.default_rng(0).normal(size=(4, 4, 3))
    mask = np.ones((4, 4), bool)
    vectors = augment_coordinates(emb, mask, coord_scale=0.0)
    assert np.all(vectors[:, 3:] == 0.0)
    np.testing.assert_array_equal(vectors[:, :3], emb.reshape(-1, 3))


def test_augment_empty_mask():
    vectors = augment_coordinates(np.zeros((4, 4, 3)), np.zeros((4, 4), bool))
    assert vectors.shape == (0, 5)


def test_augment_shape_mismatch_raises():
    with pytest.raises(ValueError):
        augment_coordinates(np.zeros((4, 4, 3)), np.zeros((4, 5), bool))


# --- mean shift -----------------------------------------------------------


def test_mean_shift_empty_input_raises():
    vectors = augment_coordinates(np.zeros((4, 4, 3)), np.zeros((4, 4), bool))
    with pytest.raises(ValueError):
        mean_shift(vectors, MeanShiftConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mean_shift_rejects_non_finite_vectors(bad):
    vectors = np.zeros((6, 5))
    vectors[3, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        mean_shift(vectors, MeanShiftConfig())


@pytest.mark.parametrize("shape", [(5,), (2, 3, 5)])
def test_mean_shift_rejects_non_2d_vectors(shape):
    with pytest.raises(ValueError, match="shape"):
        mean_shift(np.zeros(shape), MeanShiftConfig())


def test_two_blob_oracle():
    rng = np.random.default_rng(1)
    vectors, truth = _blobs(rng, [np.zeros(5), np.r_[3.0, 0, 0, 0, 0]], per=40)
    model = mean_shift(_fe_from_vectors(vectors), MeanShiftConfig(seed_cap=4096))
    assert model.k == 2
    assert adjusted_rand_index(model.assignment, truth) == 1.0
    # centers sit on the blob means to within the scatter
    got = sorted(model.centers[:, 0].tolist())
    assert got[0] == pytest.approx(0.0, abs=0.05)
    assert got[1] == pytest.approx(3.0, abs=0.05)


def test_three_blob_oracle():
    rng = np.random.default_rng(2)
    centers = [np.zeros(5), np.r_[3.0, 0, 0, 0, 0], np.r_[0.0, 3, 0, 0, 0]]
    vectors, truth = _blobs(rng, centers, per=30)
    model = mean_shift(_fe_from_vectors(vectors), MeanShiftConfig(seed_cap=4096))
    assert model.k == 3
    assert adjusted_rand_index(model.assignment, truth) == 1.0


def test_single_blob_collapses_to_one_cluster():
    rng = np.random.default_rng(3)
    vectors = rng.normal(scale=0.1, size=(60, 5))
    model = mean_shift(_fe_from_vectors(vectors), MeanShiftConfig())
    assert model.k == 1
    np.testing.assert_allclose(model.centers[0], vectors.mean(axis=0), atol=1e-6)


def test_centers_are_fixed_points():
    rng = np.random.default_rng(4)
    vectors, _ = _blobs(rng, [np.zeros(5), np.r_[4.0, 0, 0, 0, 0]], per=35,
                        spread=0.2)
    cfg = MeanShiftConfig(seed_cap=4096)
    model = mean_shift(_fe_from_vectors(vectors), cfg)
    for center in model.centers:
        # one flat-kernel step, written out: the mean of the in-window points
        inside = np.linalg.norm(vectors - center, axis=1) <= cfg.bandwidth
        assert inside.any()
        again = vectors[inside].mean(axis=0)
        assert np.linalg.norm(again - center) < cfg.convergence_tol


def test_assignment_is_argmin_distance():
    rng = np.random.default_rng(5)
    vectors, _ = _blobs(rng, [np.zeros(5), np.r_[3.0, 0, 0, 0, 0]], per=25)
    model = mean_shift(_fe_from_vectors(vectors), MeanShiftConfig(seed_cap=4096))
    d = np.linalg.norm(vectors[:, None, :] - model.centers[None], axis=2)
    np.testing.assert_array_equal(model.assignment, d.argmin(axis=1))


def test_permutation_invariance_with_full_seeding():
    rng = np.random.default_rng(6)
    vectors, _ = _blobs(rng, [np.zeros(5), np.r_[3.0, 0, 0, 0, 0],
                              np.r_[0.0, 0, 3, 0, 0]], per=20, spread=0.15)
    cfg = MeanShiftConfig(seed_cap=10_000)
    base = mean_shift(_fe_from_vectors(vectors), cfg)
    perm = rng.permutation(len(vectors))
    permuted = mean_shift(_fe_from_vectors(vectors[perm]), cfg)
    assert permuted.k == base.k
    # same centers (set equality) and consistently permuted assignment
    order = np.lexsort(base.centers.T)
    order_p = np.lexsort(permuted.centers.T)
    np.testing.assert_allclose(permuted.centers[order_p],
                               base.centers[order], atol=1e-8)
    relabel = {int(order_p[i]): int(order[i]) for i in range(base.k)}
    mapped = np.array([relabel[int(c)] for c in permuted.assignment])
    np.testing.assert_array_equal(mapped, base.assignment[perm])


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 4.0), st.integers(0, 10**6))
def test_scaling_invariance(scale, seed):
    # scaling data, bandwidth, merge radius, tol together scales centers and
    # preserves the clustering
    rng = np.random.default_rng(seed)
    vectors, _ = _blobs(rng, [np.zeros(5), np.r_[3.0, 0, 0, 0, 0]], per=15,
                        spread=0.1)
    base_cfg = MeanShiftConfig(seed_cap=4096)
    scaled_cfg = MeanShiftConfig(
        bandwidth=base_cfg.bandwidth * scale,
        merge_radius=base_cfg.merge_radius * scale,
        convergence_tol=base_cfg.convergence_tol * scale,
        seed_cap=4096,
    )
    base = mean_shift(_fe_from_vectors(vectors), base_cfg)
    scaled = mean_shift(_fe_from_vectors(vectors * scale), scaled_cfg)
    assert scaled.k == base.k
    np.testing.assert_array_equal(scaled.assignment, base.assignment)
    np.testing.assert_allclose(scaled.centers, base.centers * scale,
                               rtol=1e-6, atol=1e-6)


def test_tie_breaks_to_lowest_center_index():
    # two heavy blobs at 0 and 2 plus one stray point exactly between them;
    # merge_radius folds the stray's mode into the stronger blob, whose
    # re-converged center returns to the blob mean, leaving the stray point
    # exactly equidistant from both centers
    vectors = np.concatenate([
        np.tile([0.0, 0, 0, 0, 0], (30, 1)),
        np.tile([2.0, 0, 0, 0, 0], (30, 1)),
        [[1.0, 0, 0, 0, 0]],
    ])
    got = mean_shift(_fe_from_vectors(vectors),
                     MeanShiftConfig(bandwidth=0.5, merge_radius=1.2,
                                     seed_cap=4096))
    assert got.k == 2
    np.testing.assert_allclose(sorted(got.centers[:, 0]), [0.0, 2.0], atol=1e-9)
    d = np.abs(got.centers[:, 0] - 1.0)
    assert d[0] == d[1]  # genuine tie
    assert got.assignment[-1] == 0


def test_empty_window_centroid_stays_put():
    # two lone points 2 apart: each is its own mode, merge_radius folds them
    # into one group, and the centroid between them has an empty window, so
    # re-convergence must leave it where it is
    vectors = np.array([[1.0, 0, 0, 0, 0], [3.0, 0, 0, 0, 0]])
    got = mean_shift(_fe_from_vectors(vectors),
                     MeanShiftConfig(bandwidth=0.5, merge_radius=2.5))
    assert got.k == 1
    np.testing.assert_array_equal(got.centers, [[2.0, 0, 0, 0, 0]])
    np.testing.assert_array_equal(got.assignment, [0, 0])


def _reference_mean_shift(points, cfg):
    """The algorithm one start at a time: norm-based windows, per-mode support,
    the canonical merge and a scalar re-convergence of each group centroid."""

    def iterate(z):
        for _ in range(cfg.max_iterations):
            inside = np.linalg.norm(points - z, axis=1) <= cfg.bandwidth
            if not inside.any():
                break
            z_new = points[inside].mean(axis=0)
            shift = np.linalg.norm(z_new - z)
            z = z_new
            if shift < cfg.convergence_tol:
                break
        return z

    n = len(points)
    if n <= cfg.seed_cap:
        seed_idx = np.arange(n)
    else:
        seed_idx = np.random.default_rng(cfg.rng_seed).choice(n, size=cfg.seed_cap,
                                                              replace=False)
    modes = np.array([iterate(points[i]) for i in seed_idx])
    support = np.array([(np.linalg.norm(points - m, axis=1) <= cfg.bandwidth).sum()
                        for m in modes])
    order = np.lexsort(tuple(modes[:, dim] for dim in reversed(range(5))) + (-support,))
    claimed = np.zeros(len(modes), dtype=bool)
    centers = []
    for i in order:
        if claimed[i]:
            continue
        group = ~claimed & (np.linalg.norm(modes - modes[i], axis=1) <= cfg.merge_radius)
        claimed |= group
        centers.append(iterate(modes[order[group[order]]].mean(axis=0)))
    centers = np.array(centers)
    d = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    return centers, d.argmin(axis=1)


def _blob_chain(rng):
    """A chain of 2-4 blobs 1-2.5 apart (so merge_radius 1.6 joins some) with
    enough scatter for several modes per blob, the blob index of each point,
    and 10 stray points (index -1) after them."""
    steps = rng.normal(size=(int(rng.integers(2, 5)), 5))
    steps *= rng.uniform(1.0, 2.5, size=(len(steps), 1)) / np.linalg.norm(steps, axis=1,
                                                                        keepdims=True)
    vectors, labels = _blobs(rng, np.cumsum(steps, axis=0), per=int(rng.integers(25, 40)),
                             spread=0.3)
    strays = rng.uniform(vectors.min(axis=0), vectors.max(axis=0), size=(10, 5))
    return np.concatenate([vectors, strays]), np.concatenate([labels, np.full(10, -1)])


def _assert_matches_reference(vectors, cfg):
    want_centers, want_assignment = _reference_mean_shift(vectors, cfg)
    got = mean_shift(_fe_from_vectors(vectors), cfg)
    assert got.k == len(want_centers)
    np.testing.assert_array_equal(got.assignment, want_assignment)
    np.testing.assert_allclose(got.centers, want_centers, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("seed_cap,merge_radius", [(4096, 0.375), (48, 0.375),
                                                   (4096, 1.6), (48, 1.6)])
def test_matches_scalar_reference(seed, seed_cap, merge_radius):
    vectors, _ = _blob_chain(np.random.default_rng(100 + seed))
    cfg = MeanShiftConfig(seed_cap=seed_cap, merge_radius=merge_radius, rng_seed=seed)
    _assert_matches_reference(vectors, cfg)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("layout", ["repeated", "collapsed"])
@pytest.mark.parametrize("seed_cap,merge_radius", [(4096, 0.375), (48, 1.6)])
def test_matches_scalar_reference_with_duplicate_points(seed, layout, seed_cap, merge_radius):
    # many bitwise-equal points, so starts share windows from the first step:
    # "repeated" copies every point 1-4 times, "collapsed" moves each blob's
    # points onto the nearest of 3 of them; the result is shuffled
    rng = np.random.default_rng(200 + seed)
    vectors, labels = _blob_chain(rng)
    if layout == "repeated":
        vectors = np.repeat(vectors, rng.integers(1, 5, size=len(vectors)), axis=0)
    else:
        for blob in np.unique(labels[labels >= 0]):
            idx = np.flatnonzero(labels == blob)
            anchors = vectors[rng.choice(idx, size=3, replace=False)]
            near = np.linalg.norm(vectors[idx, None] - anchors[None], axis=2).argmin(axis=1)
            vectors[idx] = anchors[near]
    vectors = vectors[rng.permutation(len(vectors))]
    assert len(np.unique(vectors, axis=0)) < 0.7 * len(vectors)
    cfg = MeanShiftConfig(seed_cap=seed_cap, merge_radius=merge_radius, rng_seed=seed)
    _assert_matches_reference(vectors, cfg)


def test_empty_window_starts_keep_their_bits():
    # -0.0 and 0.0 are equal in value but not in bits: each empty-window start
    # must come back with its own sign bit, not its twin's
    starts = np.array([[-0.0, 0, 0, 0, 0], [0.0, 0, 0, 0, 0],
                       [-0.0, 0, 0, 0, 0], [0.0, 0, 0, 0, 0]])
    counters = MeanShiftCounters()
    modes = _converge(np.array([[5.0, 0, 0, 0, 0]]), starts, MeanShiftConfig(bandwidth=0.5),
                      counters)
    assert modes.tobytes() == starts.tobytes()
    assert np.signbit(modes[:, 0]).tolist() == [True, False, True, False]
    assert (counters.rows, counters.distinct_rows) == (4, 2)


def test_window_blocks_stay_within_budget(monkeypatch):
    rng = np.random.default_rng(11)
    vectors, _ = _blobs(rng, [np.zeros(5), np.r_[3.0, 0, 0, 0, 0]], per=60, spread=0.3)
    fe = _fe_from_vectors(vectors)
    cfg = MeanShiftConfig(seed_cap=4096)
    want = mean_shift(fe, cfg)

    n = len(vectors)
    budget = 40 * n * 8  # 40 query rows per block
    shapes = []
    windows = clustering._windows

    def recording(points, queries, cfg):
        shapes.append(queries.shape[:1] + points.shape[:1])
        return windows(points, queries, cfg)

    monkeypatch.setattr(clustering, "WINDOW_BLOCK_BYTES", budget)
    monkeypatch.setattr(clustering, "_windows", recording)
    got = mean_shift(fe, cfg)
    # the first step evaluates all 120 distinct seeds, in three blocks
    assert shapes[:3] == [(40, n)] * 3
    assert all(q * m * 8 <= budget for q, m in shapes)
    assert got.counters.max_block_bytes == budget
    assert want.counters.max_block_bytes == n * n * 8
    # Equal to the bit at this size. With thousands of points, a row's sums
    # can differ in the last bit with the row count of its BLAS call.
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()
    assert ((got.counters.iterations, got.counters.rows, got.counters.distinct_rows)
            == (want.counters.iterations, want.counters.rows, want.counters.distinct_rows))


def test_counters_record_the_work():
    rng = np.random.default_rng(12)
    vectors, _ = _blobs(rng, [np.zeros(5), np.r_[3.0, 0, 0, 0, 0]], per=40)
    fe = _fe_from_vectors(vectors)
    done = mean_shift(fe, MeanShiftConfig(seed_cap=4096)).counters
    assert len(done.iterations) == 2  # the seeds, then the merged centroids
    assert not done.hit_max_iterations
    assert done.iterations[0] > 1
    assert done.distinct_rows < done.rows
    assert done == mean_shift(fe, MeanShiftConfig(seed_cap=4096)).counters

    capped = mean_shift(fe, MeanShiftConfig(seed_cap=4096, max_iterations=1)).counters
    assert capped.hit_max_iterations
    assert capped.iterations[0] == 1


def test_seed_cap_subsampling_still_finds_blobs():
    rng = np.random.default_rng(8)
    vectors, truth = _blobs(rng, [np.zeros(5), np.r_[3.0, 0, 0, 0, 0]], per=400)
    model = mean_shift(_fe_from_vectors(vectors),
                       MeanShiftConfig(seed_cap=64, rng_seed=0))
    assert model.k == 2
    assert adjusted_rand_index(model.assignment, truth) == 1.0


def test_mean_shift_determinism():
    rng = np.random.default_rng(9)
    vectors, _ = _blobs(rng, [np.zeros(5), np.r_[3.0, 0, 0, 0, 0]], per=300)
    cfg = MeanShiftConfig(seed_cap=128, rng_seed=7)
    one = mean_shift(_fe_from_vectors(vectors), cfg)
    two = mean_shift(_fe_from_vectors(vectors), cfg)
    np.testing.assert_array_equal(one.assignment, two.assignment)
    np.testing.assert_array_equal(one.centers, two.centers)


def test_config_validation():
    with pytest.raises(ValueError):
        MeanShiftConfig(bandwidth=0.0)
    with pytest.raises(ValueError):
        MeanShiftConfig(merge_radius=-1.0)
    with pytest.raises(ValueError):
        MeanShiftConfig(seed_cap=0)
    for field in ("bandwidth", "merge_radius", "convergence_tol", "coord_scale"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                MeanShiftConfig(**{field: value})
