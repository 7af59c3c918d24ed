import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandseg.clustering import ClusterModel, center_distances
from strandseg.intersections import (ResolveConfig, build_instances, crossing_scores,
                                     min_similarity, resolve_pixel,
                                     similarity_scores)


def test_similarity_point_values():
    # gap of 1 at beta=2 -> 1/(1+e^-2); equal distances -> exactly 0.5
    s = similarity_scores(np.array([1.0, 2.0]), beta=2.0)
    assert s[0] == pytest.approx(0.8807970779778823, abs=1e-6)
    s = similarity_scores(np.array([0.5, 0.7]), beta=2.0)
    assert s[0] == pytest.approx(0.598687660112452, abs=1e-6)
    s = similarity_scores(np.array([1.3, 1.3]), beta=2.0)
    assert s[0] == 0.5


def test_similarity_multiple_candidates_use_common_reference():
    d = np.array([1.0, 1.5, 4.0])
    s = similarity_scores(d, beta=2.0)
    assert s.shape == (2,)
    expected = 1.0 / (1.0 + np.exp(-2.0 * (d[1:] - d[0])))
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_similarity_validation():
    with pytest.raises(ValueError):
        similarity_scores(np.array([2.0, 1.0]), beta=2.0)  # not sorted
    with pytest.raises(ValueError):
        similarity_scores(np.array([-0.1, 1.0]), beta=2.0)
    with pytest.raises(ValueError):
        similarity_scores(np.array([1.0]), beta=2.0)  # need >= 2 entries


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.5, 4.0),
       st.floats(0.55, 0.95))
def test_gap_threshold_equivalence(d1, gap, beta, a):
    # s < a  <=>  d_i - d_1 < ln(a/(1-a)) / beta
    d = np.array([d1, d1 + gap])
    s = float(similarity_scores(d, beta=beta)[0])
    cutoff = math.log(a / (1 - a)) / beta
    assert (s < a) == (gap < cutoff)


def test_similarity_in_half_open_interval():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = np.sort(rng.uniform(0, 6, size=4))
        s = similarity_scores(d, beta=2.0)
        assert np.all(s >= 0.5) and np.all(s < 1.0)


# --- per-pixel resolution -------------------------------------------------


def test_resolve_single_cluster_is_nearest_only():
    centers = np.array([[0.0, 0, 0, 0, 0]])
    got = resolve_pixel(np.array([5.0, 0, 0, 0, 0]), centers, ResolveConfig())
    assert got == {0}


def test_resolve_midpoint_claims_both():
    centers = np.array([[0.0, 0, 0, 0, 0], [3.0, 0, 0, 0, 0]])
    got = resolve_pixel(np.array([1.5, 0, 0, 0, 0]), centers,
                        ResolveConfig(beta=2.0, threshold_a=0.7))
    assert got == {0, 1}


def test_resolve_clear_pixel_single_owner():
    # gap 3.0 - 0.0 far above the ~0.42 cutoff: only the nearest claims it
    centers = np.array([[0, 0, 0, 0, 0], [3.0, 0, 0, 0, 0]], dtype=float)
    got = resolve_pixel(np.array([0.0, 0, 0, 0, 0]), centers,
                        ResolveConfig())
    assert got == {0}


def test_resolve_monotone_in_threshold():
    # raising a admits more co-owners, never fewer
    centers = np.array([[0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0], [2.0, 0, 0, 0, 0]], dtype=float)
    pixel = np.array([0.3, 0, 0, 0, 0])
    sizes = []
    for a in (0.55, 0.7, 0.85, 0.99):
        got = resolve_pixel(pixel, centers,
                            ResolveConfig(beta=2.0, threshold_a=a))
        sizes.append(len(got))
        assert 0 in got  # nearest always included
    assert sizes == sorted(sizes)


def test_resolve_constant_shift_invariance():
    centers = np.array([[0, 0, 0, 0, 0], [1.2, 0, 0, 0, 0]], dtype=float)
    pixel = np.array([0.5, 0, 0, 0, 0])
    base = resolve_pixel(pixel, centers, ResolveConfig())
    shift = np.full(5, 7.25)
    moved = resolve_pixel(pixel + shift, centers + shift, ResolveConfig())
    assert moved == base


def test_resolve_config_validation():
    with pytest.raises(ValueError):
        ResolveConfig(threshold_a=0.5)
    with pytest.raises(ValueError):
        ResolveConfig(threshold_a=1.0)
    with pytest.raises(ValueError):
        ResolveConfig(beta=0.0)


# --- whole-frame assembly ---------------------------------------------------


def _model(vectors, centers):
    """The ClusterModel mean_shift would return for these centers."""
    centers = np.asarray(centers, dtype=float)
    return ClusterModel(centers=centers, distances=center_distances(vectors, centers))


def _scores(model, cfg):
    """The score matrix instances_from_maps passes to both consumers."""
    return crossing_scores(model.distances, cfg.beta)


def _frame_fixture():
    """4x4 frame, two clusters; pixel (1,1) exactly between them."""
    fg = np.zeros((4, 4), bool)
    fg[0, 0] = fg[0, 1] = fg[1, 1] = fg[2, 2] = fg[2, 3] = True
    vectors = np.zeros((5, 5))  # rows in raster order of fg
    vectors[0, 0] = 0.0
    vectors[1, 0] = 0.0
    vectors[2, 0] = 1.5  # midpoint
    vectors[3, 0] = 3.0
    vectors[4, 0] = 3.0
    return fg, vectors, _model(vectors, [[0.0, 0, 0, 0, 0], [3.0, 0, 0, 0, 0]])


def test_build_instances_oracle():
    fg, _, model = _frame_fixture()
    inst = build_instances(fg, _scores(model, ResolveConfig()), ResolveConfig())
    assert len(inst) == 2
    a = np.zeros((4, 4), bool)
    a[0, 0] = a[0, 1] = a[1, 1] = True
    b = np.zeros((4, 4), bool)
    b[2, 2] = b[2, 3] = b[1, 1] = True  # midpoint double-assigned
    np.testing.assert_array_equal(inst.masks[0], a)
    np.testing.assert_array_equal(inst.masks[1], b)


def test_build_instances_union_covers_foreground():
    fg, _, model = _frame_fixture()
    inst = build_instances(fg, _scores(model, ResolveConfig()), ResolveConfig())
    np.testing.assert_array_equal(inst.union(), fg)


def test_build_instances_tight_threshold_no_sharing():
    # a near-midpoint pixel (gap 0.2) is shared at the default threshold but
    # not once the allowed gap shrinks below it
    fg, vectors, model = _frame_fixture()
    vectors[2, 0] = 1.4  # distances 1.4 vs 1.6
    model = _model(vectors, model.centers)
    shared = build_instances(fg, _scores(model, ResolveConfig()), ResolveConfig())
    assert shared.overlap()[1, 1]
    cfg = ResolveConfig(threshold_a=0.501)
    tight = build_instances(fg, _scores(model, cfg), cfg)
    assert not tight.overlap().any()
    np.testing.assert_array_equal(tight.union(), shared.union())


def test_min_similarity_map():
    fg, _, model = _frame_fixture()
    sim = min_similarity(fg, _scores(model, ResolveConfig()))
    assert sim.shape == (4, 4)
    # background stays at the no-ambiguity value
    assert sim[3, 3] == 1.0
    # the midpoint pixel carries an exact 0.5 tie
    assert sim[1, 1] == pytest.approx(0.5)
    # clear pixels: gap 3.0 at beta 2 -> sigmoid(6)
    assert sim[0, 0] == pytest.approx(1 / (1 + math.exp(-6.0)), abs=1e-9)


def test_min_similarity_single_cluster_all_one():
    fg = np.eye(2, dtype=bool)
    model = _model(np.zeros((2, 5)), np.zeros((1, 5)))
    sim = min_similarity(fg, _scores(model, ResolveConfig()))
    assert np.all(sim == 1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_overlap_matches_min_similarity(k):
    # build_instances and min_similarity read one score matrix: a pixel is
    # shared exactly when its lowest non-nearest score is below threshold_a
    rng = np.random.default_rng(k)
    h = w = 8
    n = 40
    centers = rng.integers(-3, 4, size=(k, 5)).astype(float)
    fg = np.zeros(h * w, dtype=bool)
    fg[rng.choice(h * w, size=n, replace=False)] = True
    fg = fg.reshape(h, w)
    vectors = centers[rng.integers(0, k, size=n)] + rng.normal(scale=1.0, size=(n, 5))
    # exact midpoints: integer centers give both distances bit-equal
    for p in range(0, n, 3):
        vectors[p] = (centers[p % k] + centers[(p + 1) % k]) / 2
    model = _model(vectors, centers)
    for a in (0.55, 0.7, 0.9):
        cfg = ResolveConfig(beta=2.0, threshold_a=a)
        scores = _scores(model, cfg)
        overlap = build_instances(fg, scores, cfg).overlap()
        sim = min_similarity(fg, scores)
        np.testing.assert_array_equal(overlap[fg], sim[fg] < a)
        assert not overlap[~fg].any()
    if k > 1:
        assert (sim[fg] == 0.5).any() and overlap.any()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_build_instances_matches_resolve_pixel(data):
    # pixel p lies in mask c exactly when c is in resolve_pixel(p), exact
    # midpoints between centers included
    k = data.draw(st.integers(1, 4))
    centers = np.array(data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                                          min_size=k, max_size=k)), dtype=float)
    n = data.draw(st.integers(1, 30))
    vectors = np.array(data.draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=5,
                                                   max_size=5), min_size=n, max_size=n)))
    for p in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        vectors[p] = (centers[i] + centers[j]) / 2
    cfg = ResolveConfig(beta=data.draw(st.floats(0.5, 4.0)),
                        threshold_a=data.draw(st.floats(0.5, 1.0, exclude_min=True,
                                                        exclude_max=True)))
    w = 8
    pixels = np.stack([np.arange(n) // w, np.arange(n) % w], axis=1)  # raster order
    fg = np.zeros((4, w), dtype=bool)
    fg[pixels[:, 0], pixels[:, 1]] = True
    model = _model(vectors, centers)
    inst = build_instances(fg, _scores(model, cfg), cfg)
    assert len(inst) == k
    for (r, c), v in zip(pixels, vectors):
        owners = {m for m in range(k) if inst.masks[m][r, c]}
        assert owners == resolve_pixel(v, centers, cfg)
