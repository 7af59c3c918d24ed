import numpy as np
import pytest

from strandseg import clustering, intersections, pipeline
from strandseg.clustering import MeanShiftConfig
from strandseg.intersections import ResolveConfig
from strandseg.network import init_params, param_shapes
from strandseg.pipeline import (Diagnostics, PipelineConfig, infer,
                                infer_cc_baseline, instances_from_maps)
from strandseg.render import MULTI_COLOR, PALETTE, render_overlay
from strandseg.synth import InstanceSet


def _oracle_maps(h=16, w=16):
    """Two horizontal bands whose embeddings sit a push-margin apart."""
    seg = np.full((h, w), 0.05)
    emb = np.zeros((h, w, 3))
    top = np.zeros((h, w), bool)
    bottom = np.zeros((h, w), bool)
    top[3:5, :] = True
    bottom[10:12, :] = True
    seg[top] = 0.95
    seg[bottom] = 0.95
    emb[top] = [0.0, 0, 0]
    emb[bottom] = [3.0, 0, 0]
    return seg, emb, top, bottom


def _cfg(**kw):
    ms = MeanShiftConfig(coord_scale=0.0, seed_cap=4096)
    return PipelineConfig(mean_shift=ms, resolve=ResolveConfig(), **kw)


def test_instances_from_injected_maps():
    seg, emb, top, bottom = _oracle_maps()
    inst, fg, diag = instances_from_maps(seg, emb, _cfg())
    assert isinstance(diag, Diagnostics)
    assert diag.clusters == 2
    assert len(inst) == 2
    got = {m.tobytes() for m in inst.masks}
    assert got == {top.tobytes(), bottom.tobytes()}
    np.testing.assert_array_equal(fg, top | bottom)


def test_union_equals_thresholded_mask():
    seg, emb, top, bottom = _oracle_maps()
    inst, fg, _ = instances_from_maps(seg, emb, _cfg())
    np.testing.assert_array_equal(inst.union(), fg)
    np.testing.assert_array_equal(fg, seg >= 0.5)


def test_crossing_pixels_double_assigned_and_counted():
    # midpoint embeddings in one column of the top band mimic a crossing;
    # a merge radius above the bridge-mode distance folds their mode back
    # into the dominant cluster, and resolution then shares the pixels
    seg, emb, top, bottom = _oracle_maps()
    emb[3:5, 7] = [1.5, 0, 0]
    cfg = PipelineConfig(
        mean_shift=MeanShiftConfig(coord_scale=0.0, seed_cap=4096,
                                   merge_radius=1.6),
        resolve=ResolveConfig())
    inst, _, diag = instances_from_maps(seg, emb, cfg)
    assert diag.clusters == 2
    assert diag.multi_assigned_pixels == 2
    overlap = inst.overlap()
    assert overlap[3, 7] and overlap[4, 7]
    assert overlap.sum() == 2


def test_center_distances_computed_once(monkeypatch):
    # mean shift owns the pixel-to-center distances; the crossing scores
    # of build_instances and min_similarity read them from the ClusterModel
    calls = []
    original = clustering.center_distances

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(clustering, "center_distances", counted)
    seg, emb, _, _ = _oracle_maps()
    _, _, diag = instances_from_maps(seg, emb, _cfg())
    assert diag.clusters == 2
    assert len(calls) == 1


def test_crossing_scores_computed_once(monkeypatch):
    # one (N, K) score matrix per image feeds both the masks and the
    # min-similarity map
    calls = []
    original = pipeline.crossing_scores

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(pipeline, "crossing_scores", counted)
    monkeypatch.setattr(intersections, "crossing_scores", counted)
    seg, emb, _, _ = _oracle_maps()
    _, _, diag = instances_from_maps(seg, emb, _cfg())
    assert diag.clusters == 2
    assert len(calls) == 1


def test_empty_foreground_is_not_an_error():
    seg = np.zeros((8, 8))
    emb = np.zeros((8, 8, 3))
    inst, fg, diag = instances_from_maps(seg, emb, _cfg())
    assert len(inst) == 0
    assert not fg.any()
    assert diag.clusters == 0
    assert diag.fg_pixels == 0


def test_non_finite_foreground_embedding_raises():
    # a NaN under a background pixel is never read; one under a foreground
    # pixel reaches mean shift, which rejects it
    seg, emb, top, _ = _oracle_maps()
    emb[0, 0] = np.nan
    inst, _, _ = instances_from_maps(seg, emb, _cfg())
    assert len(inst) == 2
    emb[3, 5, 1] = np.nan
    assert top[3, 5]
    with pytest.raises(ValueError, match="must be finite"):
        instances_from_maps(seg, emb, _cfg())


def test_zero_network_degenerates_to_full_frame():
    zero = {k: np.zeros(s) for k, s in param_shapes().items()}
    image = np.random.default_rng(0).random((16, 16))
    inst, fg, _ = infer(zero, image, _cfg())
    assert fg.all()  # seg == 0.5 everywhere and the threshold is inclusive
    np.testing.assert_array_equal(inst.union(), fg)


def test_infer_shapes_and_determinism():
    params = init_params(0)
    image = np.random.default_rng(1).random((16, 16))
    cfg = _cfg(seg_threshold=0.45)
    a_inst, a_fg, a_diag = infer(params, image, cfg)
    b_inst, b_fg, b_diag = infer(params, image, cfg)
    assert a_fg.shape == image.shape
    np.testing.assert_array_equal(a_fg, b_fg)
    assert len(a_inst) == len(b_inst)
    for ma, mb in zip(a_inst.masks, b_inst.masks):
        np.testing.assert_array_equal(ma, mb)
    assert a_diag.clusters == b_diag.clusters
    assert set(a_diag.timings_ms) == {"forward", "upsample", "cluster",
                                      "resolve"}
    # the mean-shift counters are deterministic, unlike the timings
    counters = a_diag.to_dict()["mean_shift"]
    assert counters == b_diag.to_dict()["mean_shift"]
    assert len(counters["iterations"]) == 2
    assert 0 < counters["distinct_rows"] <= counters["rows"]


def test_semantic_mask_identical_between_methods():
    params = init_params(2)
    image = np.random.default_rng(3).random((16, 16))
    for thr in (0.45, 0.5, 0.55):
        _, fg, _ = infer(params, image, _cfg(seg_threshold=thr))
        cc_inst, fg_cc = infer_cc_baseline(params, image, thr)
        np.testing.assert_array_equal(fg_cc, fg)
        np.testing.assert_array_equal(cc_inst.union(), fg)


def test_cc_baseline_fuses_crossings():
    # oracle maps via the CC path: the two bands are separate, but add a
    # bridge column of foreground and they fuse into one component
    seg, emb, top, bottom = _oracle_maps()
    fg = seg >= 0.5
    from strandseg.metrics import connected_components
    assert len(connected_components(fg)) == 2
    seg[:, 8] = 0.95
    assert len(connected_components(seg >= 0.5)) == 1


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(seg_threshold=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(seg_threshold=1.0)


def test_infer_rejects_odd_input():
    params = init_params(0)
    with pytest.raises(ValueError):
        infer(params, np.zeros((15, 16)), _cfg())


# --- overlay rendering -------------------------------------------------------


def test_render_overlay_colors():
    image = np.zeros((6, 6))
    a = np.zeros((6, 6), bool)
    b = np.zeros((6, 6), bool)
    a[1, :] = True
    b[:, 2] = True  # crosses a at (1, 2)
    inst = InstanceSet(height=6, width=6, masks=[a, b])
    out = render_overlay(image, inst)
    assert out.shape == (6, 6, 3) and out.dtype == np.uint8
    assert tuple(out[1, 0]) == PALETTE[0]
    assert tuple(out[3, 2]) == PALETTE[1]
    assert tuple(out[1, 2]) == MULTI_COLOR
    assert tuple(out[5, 5]) == (0, 0, 0)  # grayscale background


def test_render_overlay_empty_is_grayscale():
    image = np.linspace(0, 1, 36).reshape(6, 6)
    out = render_overlay(image, InstanceSet(height=6, width=6, masks=[]))
    expected = np.round(image * 255).astype(np.uint8)
    for c in range(3):
        np.testing.assert_array_equal(out[:, :, c], expected)


def test_render_overlay_palette_cycles():
    image = np.zeros((4, 4))
    masks = []
    for i in range(len(PALETTE) + 1):
        m = np.zeros((4, 4), bool)
        m[i % 4, (i // 4) % 4] = True
        masks.append(m)
    # more instances than palette entries must still render
    out = render_overlay(image, InstanceSet(height=4, width=4, masks=masks))
    assert out.shape == (4, 4, 3)


def test_render_overlay_shape_mismatch():
    inst = InstanceSet(height=4, width=4, masks=[])
    with pytest.raises(ValueError):
        render_overlay(np.zeros((5, 5)), inst)
