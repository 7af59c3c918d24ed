import math

import numpy as np
import pytest

from strandseg.grids import (AugmentParams, adjust_brightness, adjust_contrast,
                             augment, rotate_grid, upsample_bilinear)
from strandseg.synth import InstanceSet, rasterize_polyline


def test_upsample_ramp_midpoint():
    # align-corners: corners map to corners, so a [0, 1] ramp upsampled to
    # three columns exposes its exact midpoint
    out = upsample_bilinear(np.array([[0.0, 1.0]]), 1, 3)
    assert np.allclose(out, [[0.0, 0.5, 1.0]])


def test_upsample_2x2_to_3x3_hand_values():
    src = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = upsample_bilinear(src, 3, 3)
    expected = np.array([[0.0, 0.5, 1.0],
                         [1.0, 1.5, 2.0],
                         [2.0, 2.5, 3.0]])
    assert np.allclose(out, expected)


def test_upsample_constant_stays_constant():
    out = upsample_bilinear(np.full((5, 7), 3.25), 13, 29)
    assert out.shape == (13, 29)
    assert np.allclose(out, 3.25)


def test_upsample_identity_when_same_size():
    rng = np.random.default_rng(0)
    src = rng.random((6, 9))
    assert np.allclose(upsample_bilinear(src, 6, 9), src)


def test_upsample_preserves_corners():
    rng = np.random.default_rng(1)
    src = rng.random((4, 5))
    out = upsample_bilinear(src, 11, 17)
    for (r, c), (rr, cc) in [((0, 0), (0, 0)), ((0, 4), (0, 16)),
                             ((3, 0), (10, 0)), ((3, 4), (10, 16))]:
        assert out[rr, cc] == pytest.approx(src[r, c])


def test_upsample_vector_field_per_channel():
    rng = np.random.default_rng(2)
    field = rng.random((4, 4, 3))
    out = upsample_bilinear(field, 8, 8)
    for d in range(3):
        assert np.allclose(out[:, :, d], upsample_bilinear(field[:, :, d], 8, 8))


def test_upsample_rejects_downsampling():
    with pytest.raises(ValueError):
        upsample_bilinear(np.zeros((4, 4)), 2, 4)


def test_rotate_zero_degrees_is_identity():
    rng = np.random.default_rng(4)
    img = rng.random((9, 9))
    assert np.allclose(rotate_grid(img, 0.0), img)


def test_rotate_90_matches_numpy_rot():
    rng = np.random.default_rng(5)
    img = rng.random((11, 11))
    # a quarter turn lands on the grid exactly (odd dims keep the center on
    # a pixel), so it must agree with np.rot90
    assert np.allclose(rotate_grid(img, 90.0), np.rot90(img))


def test_rotate_round_trip_mask_iou():
    mask = rasterize_polyline(48, 48, [(6, 24), (42, 24)], 5.0)
    rot = rotate_grid(mask.astype(float), 9.0, nearest=True) >= 0.5
    back = rotate_grid(rot.astype(float), -9.0, nearest=True) >= 0.5
    inter = (mask & back).sum()
    union = (mask | back).sum()
    assert inter / union > 0.85


def _rotate_oracle(arr, degrees, nearest):
    """rotate_grid one output pixel at a time, reading only inside the grid."""
    h, w = arr.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(degrees)
    cos_t, sin_t = float(np.cos(theta)), float(np.sin(theta))
    out = np.zeros(arr.shape, dtype=arr.dtype if nearest else np.float64)
    for r in range(h):
        for c in range(w):
            sy = cos_t * (r - cy) + sin_t * (c - cx) + cy
            sx = -sin_t * (r - cy) + cos_t * (c - cx) + cx
            if nearest:
                ry, rx = round(sy), round(sx)  # half to even, like np.rint
                if 0 <= ry < h and 0 <= rx < w:
                    out[r, c] = arr[ry, rx]
                continue
            y0, x0 = math.floor(sy), math.floor(sx)
            fy, fx = sy - y0, sx - x0
            for yi, xi, weight in ((y0, x0, (1 - fy) * (1 - fx)), (y0, x0 + 1, (1 - fy) * fx),
                                   (y0 + 1, x0, fy * (1 - fx)), (y0 + 1, x0 + 1, fy * fx)):
                if 0 <= yi < h and 0 <= xi < w:
                    out[r, c] += weight * arr[yi, xi]
    return out


@pytest.mark.parametrize("degrees", [0.0, 9.0, -9.0, 45.0, 90.0, 180.0])
@pytest.mark.parametrize("shape", [(9, 12), (10, 7, 2), (11, 11, 3)])
def test_rotate_matches_per_pixel_oracle(shape, degrees):
    rng = np.random.default_rng(len(shape))
    img = rng.random(shape)
    assert np.array_equal(rotate_grid(img, degrees, nearest=True),
                          _rotate_oracle(img, degrees, nearest=True))
    assert np.allclose(rotate_grid(img, degrees), _rotate_oracle(img, degrees, nearest=False),
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.float32])
def test_rotate_nearest_keeps_dtype(dtype):
    rng = np.random.default_rng(6)
    arr = rng.integers(0, 3, size=(10, 13, 2)).astype(dtype)
    out = rotate_grid(arr, 25.0, nearest=True)
    assert out.dtype == arr.dtype
    assert np.array_equal(out, _rotate_oracle(arr, 25.0, nearest=True))


def test_rotate_fills_uncovered_with_zero():
    img = np.ones((8, 8))
    out = rotate_grid(img, 45.0)
    assert out.min() == 0.0  # corners rotate out of frame
    assert out.max() <= 1.0 + 1e-12


def test_brightness_and_contrast_clamp():
    img = np.array([[0.1, 0.9]])
    assert np.allclose(adjust_brightness(img, 0.3), [[0.4, 1.0]])
    assert np.allclose(adjust_brightness(img, -0.3), [[0.0, 0.6]])
    out = adjust_contrast(img, 2.0)
    mean = img.mean()
    assert np.allclose(out, np.clip(mean + 2.0 * (img - mean), 0, 1))


def test_contrast_fixed_point_at_mean():
    img = np.full((4, 4), 0.37)
    assert np.allclose(adjust_contrast(img, 1.9), img)


def _scene(seed=0):
    rng = np.random.default_rng(seed)
    img = rng.random((16, 16))
    masks = [rasterize_polyline(16, 16, [(2, 3), (13, 12)], 3.0),
             rasterize_polyline(16, 16, [(13, 3), (2, 12)], 3.0)]
    return img, InstanceSet(16, 16, masks)


def test_augment_deterministic_per_seed():
    img, inst = _scene()
    params = AugmentParams(per_transform_probability=1.0)
    a_img, a_inst = augment(img, inst, params, rng_seed=123)
    b_img, b_inst = augment(img, inst, params, rng_seed=123)
    assert np.array_equal(a_img, b_img)
    for m1, m2 in zip(a_inst.masks, b_inst.masks):
        assert np.array_equal(m1, m2)


def test_augment_different_seeds_differ():
    img, inst = _scene()
    params = AugmentParams(per_transform_probability=1.0)
    a_img, _ = augment(img, inst, params, rng_seed=1)
    b_img, _ = augment(img, inst, params, rng_seed=2)
    assert not np.array_equal(a_img, b_img)


def test_augment_zero_probability_is_identity():
    img, inst = _scene()
    params = AugmentParams(per_transform_probability=0.0)
    out_img, out_inst = augment(img, inst, params, rng_seed=7)
    assert np.array_equal(out_img, img)
    for m1, m2 in zip(out_inst.masks, inst.masks):
        assert np.array_equal(m1, m2)


def test_augment_geometry_hits_image_and_masks_alike():
    # flip-only params: the flipped mask of the flipped image must equal
    # flipping the original mask
    img, inst = _scene()
    params = AugmentParams(rotation_degrees=0.0, brightness_delta=0.0,
                           contrast_delta=0.0, per_transform_probability=1.0)
    out_img, out_inst = augment(img, inst, params, rng_seed=3)
    assert np.array_equal(out_img, np.flip(img, axis=1))
    for m_out, m_in in zip(out_inst.masks, inst.masks):
        assert np.array_equal(m_out, np.flip(m_in, axis=1))


@pytest.mark.parametrize("degrees,flip,k", [(0.0, True, 2), (25.0, False, 3),
                                             (25.0, True, 3), (25.0, True, 0)])
def test_augment_transforms_the_mask_stack_as_each_mask(degrees, flip, k):
    # A non-square stack, so that flipping H instead of W would show.
    rng = np.random.default_rng(5)
    masks = rng.random((k, 14, 19)) < 0.4
    inst = InstanceSet(14, 19, masks)
    params = AugmentParams(rotation_degrees=degrees, flip=flip, brightness_delta=0.0,
                           contrast_delta=0.0, per_transform_probability=1.0)
    _, out_inst = augment(rng.random((14, 19)), inst, params, rng_seed=1)
    draws = np.random.default_rng(1)  # augment's draw order: rotate?, angle, ...
    draws.random()
    angle = draws.uniform(-degrees, degrees)
    assert angle == 0.0 or abs(angle) > 20.0  # seed 1 draws a rotation that moves pixels
    want = []
    for mask in masks:
        if angle != 0.0:
            mask = rotate_grid(mask.astype(np.float64), angle, nearest=True) >= 0.5
        want.append(np.flip(mask, axis=1) if flip else mask)
    assert out_inst.masks.shape == (k, 14, 19) and out_inst.masks.dtype == bool
    assert np.array_equal(out_inst.masks, np.array(want, dtype=bool).reshape(k, 14, 19))


def test_augment_outputs_stay_in_range():
    img, inst = _scene()
    params = AugmentParams(per_transform_probability=1.0)
    for seed in range(12):
        out_img, out_inst = augment(img, inst, params, rng_seed=seed)
        assert out_img.min() >= 0.0 and out_img.max() <= 1.0
        assert len(out_inst) == len(inst)


def test_augment_params_validation():
    with pytest.raises(ValueError):
        AugmentParams(per_transform_probability=1.5)
    with pytest.raises(ValueError):
        AugmentParams(rotation_degrees=-1.0)
