import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandseg.synth import (GenerationError, InstanceSet, PolylineAnnotation,
                             SceneSpec, annotations_to_document,
                             annotations_to_instances, generate_scene,
                             make_training_labels, rasterize_polyline,
                             scene_seeds)


def brute_force_raster(height, width, points, stroke_width):
    """Reference rasterizer: full-grid point-to-segment distances."""
    pts = np.asarray(points, dtype=np.float64)
    mask = np.zeros((height, width), dtype=bool)
    r = stroke_width / 2.0
    for row in range(height):
        for col in range(width):
            best = np.inf
            for a, b in zip(pts[:-1], pts[1:]):
                ab = b - a
                denom = float(ab @ ab)
                if denom == 0.0:
                    t = 0.0
                else:
                    t = np.clip(((col - a[0]) * ab[0] + (row - a[1]) * ab[1]) / denom, 0, 1)
                proj = a + t * ab
                best = min(best, float(np.hypot(col - proj[0], row - proj[1])))
            mask[row, col] = best <= r
    return mask


def test_rasterize_horizontal_segment_hand_count():
    # width 3 about y=5: rows 4,5,6 within the x span plus round caps
    mask = rasterize_polyline(12, 12, [(2, 5), (9, 5)], 3.0)
    assert mask[5, 2:10].all()
    assert mask[4, 2:10].all() and mask[6, 2:10].all()
    assert not mask[3, 2:10].any() and not mask[7, 2:10].any()
    # round cap: (1,5) is 1.0 < 1.5 away from the endpoint
    assert mask[5, 1] and not mask[5, 0]


def test_rasterize_single_disk_from_degenerate_polyline():
    mask = rasterize_polyline(9, 9, [(4, 4), (4, 4)], 4.0)
    ys, xs = np.mgrid[0:9, 0:9]
    assert np.array_equal(mask, np.hypot(xs - 4, ys - 4) <= 2.0)


def test_rasterize_matches_brute_force_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        pts = rng.uniform(-3, 34, size=(k, 2))
        width = float(rng.uniform(0.8, 5.0))
        got = rasterize_polyline(32, 32, pts, width)
        want = brute_force_raster(32, 32, pts, width)
        assert np.array_equal(got, want)


def test_rasterize_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        rasterize_polyline(8, 8, [(1, 1), (5, 5)], 0.0)


def test_polyline_annotation_validation():
    with pytest.raises(ValueError):
        PolylineAnnotation(points=[[1.0, 2.0]], width=3.0)  # single vertex
    with pytest.raises(ValueError):
        PolylineAnnotation(points=[[0, 0], [1, np.nan]], width=3.0)
    with pytest.raises(ValueError):
        PolylineAnnotation(points=[[0, 0], [1, 1]], width=-1.0)


def test_annotation_document_round_trip():
    anns = [PolylineAnnotation(points=[[1.0, 2.0], [10.0, 12.5]], width=3.0),
            PolylineAnnotation(points=[[0.0, 8.0], [4.0, 4.0], [9.0, 9.0]], width=2.0)]
    doc = annotations_to_document(16, 16, anns)
    blob = json.dumps(doc)  # must be JSON-serializable as-is
    doc = json.loads(blob)
    h, w = doc["height"], doc["width"]
    parsed = [PolylineAnnotation(**entry) for entry in doc["instances"]]
    assert (h, w) == (16, 16)
    assert len(parsed) == 2
    for a, b in zip(anns, parsed):
        assert np.allclose(a.points, b.points)
        assert a.width == b.width


def test_annotations_to_instances_matches_rasterizer():
    ann = PolylineAnnotation(points=[[1.0, 1.0], [10.0, 10.0]], width=3.0)
    inst = annotations_to_instances(12, 12, [ann])
    assert len(inst) == 1
    assert np.array_equal(inst.masks[0], rasterize_polyline(12, 12, ann.points, 3.0))


def test_instance_set_validation_and_helpers():
    with pytest.raises(ValueError):
        InstanceSet(8, 8, [np.zeros((4, 4), bool)])
    a = np.zeros((4, 4), bool); a[0, :] = True
    b = np.zeros((4, 4), bool); b[:, 0] = True
    inst = InstanceSet(4, 4, [a, b])
    assert inst.union().sum() == 7
    assert inst.overlap().sum() == 1  # the (0,0) crossing


_MASK_INPUTS = {
    "array": lambda stack: stack,
    "list": list,
    "uint8 list": lambda stack: list(stack.astype(np.uint8)),
    "float list": lambda stack: [m.astype(np.float64) for m in stack],
}


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), k=st.integers(0, 4),
       form=st.sampled_from(sorted(_MASK_INPUTS)), data=st.data())
def test_instance_set_stores_one_mask_stack(h, w, k, form, data):
    bits = data.draw(st.lists(st.booleans(), min_size=k * h * w, max_size=k * h * w))
    stack = np.array(bits, dtype=bool).reshape(k, h, w)
    inst = InstanceSet(h, w, _MASK_INPUTS[form](stack))
    assert inst.masks.dtype == bool and inst.masks.flags.c_contiguous
    assert inst.masks.shape == (k, h, w) and len(inst) == k
    assert np.array_equal(inst.masks, stack)
    # union and overlap against a per-mask loop
    union = np.zeros((h, w), dtype=bool)
    counts = np.zeros((h, w), dtype=np.int64)
    for mask in stack:
        union |= mask
        counts += mask
    assert np.array_equal(inst.union(), union)
    assert np.array_equal(inst.overlap(), counts >= 2)

    wrong = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(
        lambda shape: shape != (h, w)))
    with pytest.raises(ValueError):
        InstanceSet(h, w, [np.zeros(wrong, dtype=bool)] * max(k, 1))
    with pytest.raises(ValueError):
        InstanceSet(h, w, np.zeros((max(k, 1), *wrong), dtype=bool))
    with pytest.raises(ValueError):  # masks of two shapes
        InstanceSet(h, w, [np.zeros((h, w), dtype=bool), np.zeros(wrong, dtype=bool)])


def test_instance_set_empty_and_unstacked_inputs():
    assert InstanceSet(3, 5, []).masks.shape == (0, 3, 5)
    assert not InstanceSet(3, 5, []).union().any()
    with pytest.raises(ValueError):  # one (H, W) mask is not a stack
        InstanceSet(3, 5, np.zeros((3, 5), dtype=bool))
    flipped = np.flip(np.eye(4, dtype=bool)[None], axis=2)
    inst = InstanceSet(4, 4, flipped)
    assert inst.masks.flags.c_contiguous and np.array_equal(inst.masks, flipped)


def test_generate_scene_deterministic():
    spec = SceneSpec()
    a = generate_scene(spec, 7)
    b = generate_scene(spec, 7)
    assert np.array_equal(a.image, b.image)
    assert len(a.instances) == len(b.instances)
    for m1, m2 in zip(a.instances.masks, b.instances.masks):
        assert np.array_equal(m1, m2)


def test_generate_scene_seeds_differ():
    spec = SceneSpec()
    a = generate_scene(spec, 1)
    b = generate_scene(spec, 2)
    assert not np.array_equal(a.image, b.image)


def test_generate_scene_guarantees_pairwise_crossing():
    spec = SceneSpec(curves_min=2, curves_max=3)
    for seed in range(24):
        scene = generate_scene(spec, seed)
        masks = scene.instances.masks
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert (masks[i] & masks[j]).any()


def test_generate_scene_image_range_and_annotations():
    scene = generate_scene(SceneSpec(), 3)
    assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
    assert len(scene.annotations) == len(scene.instances)
    # annotations re-rasterize to the ground-truth masks
    rebuilt = annotations_to_instances(64, 64, scene.annotations)
    for m1, m2 in zip(rebuilt.masks, scene.instances.masks):
        assert np.array_equal(m1, m2)


def test_generate_scene_unsatisfiable_raises():
    # hairline strokes on a tiny grid cover fewer than the minimum pixels,
    # so every attempt is rejected and the sampler gives up
    spec = SceneSpec(height=8, width=8, curves_min=6, curves_max=6,
                     stroke_min=0.1, stroke_max=0.1, max_attempts=1)
    with pytest.raises(GenerationError):
        generate_scene(spec, 0)


def test_scene_seeds_deterministic_and_distinct():
    a = scene_seeds(9, 16)
    b = scene_seeds(9, 16)
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 16


def test_make_training_labels_partitions_foreground():
    scene = generate_scene(SceneSpec(), 11)
    rng = np.random.default_rng(0)
    labels = make_training_labels(scene.instances, rng)
    fg = scene.instances.union()
    assert ((labels > 0) == fg).all()
    # single-owner pixels keep their owner
    for k, mask in enumerate(scene.instances.masks):
        only = mask & ~scene.instances.overlap()
        assert (labels[only] == k + 1).all()


def test_make_training_labels_randomizes_crossings():
    scene = generate_scene(SceneSpec(), 11)
    overlap = scene.instances.overlap()
    assert overlap.any()
    draws = {make_training_labels(scene.instances, np.random.default_rng(s))[overlap].tobytes()
             for s in range(16)}
    assert len(draws) > 1  # crossing owners vary across draws


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_training_labels_only_claim_owned_pixels(seed):
    scene = generate_scene(SceneSpec(curves_min=2, curves_max=3), seed % 100)
    labels = make_training_labels(scene.instances, np.random.default_rng(seed))
    for k, mask in enumerate(scene.instances.masks):
        claimed = labels == k + 1
        assert (claimed <= mask).all()  # subset: never claims outside the mask


def _per_pixel_owner_labels(instances, rng):
    """Oracle for make_training_labels: one `rng.choice` over each crossing
    pixel's claimants, pixel by pixel in raster order."""
    masks = instances.masks
    labels = np.zeros((instances.height, instances.width), dtype=np.int32)
    counts = masks.sum(axis=0)
    labels[counts == 1] = masks[:, counts == 1].argmax(axis=0) + 1
    for y, x in np.argwhere(counts >= 2):
        claimants = np.flatnonzero(masks[:, y, x])
        labels[y, x] = int(rng.choice(claimants)) + 1
    return labels


def _assert_same_draws(instances, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = make_training_labels(instances, rng)
    want = _per_pixel_owner_labels(instances, oracle_rng)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # training draws its next labels from the same generator, so its state
    # must match too
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("curves", [1, 2, 3])
def test_owner_draw_matches_per_pixel_choice(curves):
    spec = SceneSpec(curves_min=curves, curves_max=curves)
    for seed in range(10):
        _assert_same_draws(generate_scene(spec, seed).instances, seed)


def test_owner_draw_matches_per_pixel_choice_with_four_claimants():
    masks = np.zeros((4, 5, 5), dtype=bool)
    masks[0, 2, :] = True
    masks[1, :, 2] = True
    masks[2, 1:4, 1:4] = True
    masks[3, [0, 2, 4], [0, 2, 4]] = True
    instances = InstanceSet(5, 5, masks)
    assert instances.masks[:, 2, 2].all()  # four claimants at the center
    owners = set()
    for seed in range(40):
        _assert_same_draws(instances, seed)
        owners.add(int(make_training_labels(instances, np.random.default_rng(seed))[2, 2]))
    assert owners == {1, 2, 3, 4}
