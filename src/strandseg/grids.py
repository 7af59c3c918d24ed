"""Dense grid primitives: bilinear resampling and training-time augmentations.

Grids are plain numpy arrays. A grayscale image or probability map is an
(H, W) float array with values in [0, 1]; an embedding field is (H, W, D).
Binary masks are (H, W) bool. All functions here are pure; randomness enters
only through an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synth import InstanceSet


def validate_image(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.shape[0] < 1 or image.shape[1] < 1:
        raise ValueError(f"image must be a nonempty 2-d grid, got shape {image.shape}")
    return image


def upsample_bilinear(src: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Resample a grid or embedding field to a larger size.

    Uses the align-corners convention: source corners map exactly onto
    target corners, so a 1x2 ramp [0, 1] upsampled to 1x3 gives its exact
    midpoint [0, 0.5, 1]. Works on (H, W) grids and (H, W, D) fields alike.
    """
    src = np.asarray(src, dtype=np.float64)
    if src.ndim not in (2, 3):
        raise ValueError(f"expected (H, W) or (H, W, D) input, got shape {src.shape}")
    h, w = src.shape[:2]
    if target_h < 1 or target_w < 1:
        raise ValueError(f"target size must be positive, got {target_h}x{target_w}")
    if target_h < h or target_w < w:
        raise ValueError(
            f"target {target_h}x{target_w} smaller than source {h}x{w}"
        )

    def positions(n_src, n_dst):
        if n_dst == 1:
            return np.zeros(1)
        return np.arange(n_dst) * ((n_src - 1) / (n_dst - 1))

    ys = positions(h, target_h)
    xs = positions(w, target_w)
    return _bilinear(src, ys[:, None], xs[None, :])


def _bilinear(src: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample `src` bilinearly at broadcastable positions `ys`, `xs` inside the grid."""
    h, w = src.shape[:2]
    y0 = np.minimum(np.floor(ys).astype(int), h - 1)
    x0 = np.minimum(np.floor(xs).astype(int), w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    if src.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]

    top = src[y0, x0] * (1 - fx) + src[y0, x1] * fx
    bot = src[y1, x0] * (1 - fx) + src[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def rotate_grid(arr: np.ndarray, degrees: float, nearest: bool = False) -> np.ndarray:
    """Rotate about the grid center, filling uncovered pixels with 0.

    Bilinear sampling by default; `nearest` keeps the input's dtype, so
    binary masks stay binary. Implemented as an inverse mapping so
    rotate(x, a) followed by rotate(., -a) round-trips up to resampling loss.
    """
    arr = np.asarray(arr)
    h, w = arr.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy = rows - cy
    dx = cols - cx
    # Inverse rotation of output coordinates into the source frame.
    src_y = cos_t * dy + sin_t * dx + cy
    src_x = -sin_t * dy + cos_t * dx + cx

    # A one-pixel zero border: every position beyond the grid reads it.
    padded = np.pad(arr, [(1, 1), (1, 1)] + [(0, 0)] * (arr.ndim - 2))
    if nearest:
        return padded[np.rint(np.clip(src_y, -1, h)).astype(int) + 1,
                      np.rint(np.clip(src_x, -1, w)).astype(int) + 1]
    return _bilinear(padded, np.clip(src_y + 1, 0, h + 1), np.clip(src_x + 1, 0, w + 1))


def adjust_brightness(image: np.ndarray, delta: float) -> np.ndarray:
    return np.clip(image + delta, 0.0, 1.0)


def adjust_contrast(image: np.ndarray, factor: float) -> np.ndarray:
    """Scale deviations from the image mean by `factor`, then clamp."""
    mean = float(image.mean())
    return np.clip(mean + factor * (image - mean), 0.0, 1.0)


@dataclass(frozen=True)
class AugmentParams:
    """Training augmentation settings.

    Each transform is drawn independently with `per_transform_probability`;
    rotation angle is uniform in +-rotation_degrees, brightness shift uniform
    in +-brightness_delta, contrast scale uniform in 1 +- contrast_delta.
    """

    rotation_degrees: float = 10.0
    flip: bool = True
    brightness_delta: float = 0.3
    contrast_delta: float = 0.3
    per_transform_probability: float = 0.2

    def __post_init__(self):
        for name in ("rotation_degrees", "brightness_delta", "contrast_delta"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.per_transform_probability <= 1.0:
            raise ValueError("per_transform_probability must be in [0, 1]")


def augment(image, instances, params: AugmentParams, rng_seed: int):
    """Apply one random augmentation draw to an image and its instance masks.

    Geometric transforms (rotation, horizontal flip) hit the image and every
    mask identically, with nearest-neighbor resampling for masks; photometric
    transforms (brightness, contrast) hit the image only. Deterministic for a
    fixed seed. Returns a new (image, instances) pair.
    """
    image = validate_image(image)
    if (instances.height, instances.width) != image.shape:
        raise ValueError(
            f"image {image.shape} and instance masks "
            f"{(instances.height, instances.width)} disagree on dimensions"
        )

    rng = np.random.default_rng(rng_seed)
    # Draw every random in a fixed order so decisions are reproducible.
    do_rotate = rng.random() < params.per_transform_probability
    angle = rng.uniform(-params.rotation_degrees, params.rotation_degrees)
    do_flip = params.flip and rng.random() < params.per_transform_probability
    do_brightness = rng.random() < params.per_transform_probability
    brightness = rng.uniform(-params.brightness_delta, params.brightness_delta)
    do_contrast = rng.random() < params.per_transform_probability
    contrast = 1.0 + rng.uniform(-params.contrast_delta, params.contrast_delta)

    out_image = image
    masks = instances.masks.copy()
    if do_rotate and angle != 0.0:
        out_image = rotate_grid(out_image, angle)
        # rotate_grid turns the first two axes, so the stack goes in as (H, W, K).
        masks = rotate_grid(masks.transpose(1, 2, 0), angle, nearest=True).transpose(2, 0, 1)
    if do_flip:
        out_image = np.flip(out_image, axis=1)
        masks = np.flip(masks, axis=2)
    if do_brightness:
        out_image = adjust_brightness(out_image, brightness)
    if do_contrast:
        out_image = adjust_contrast(out_image, contrast)

    out_image = np.clip(out_image, 0.0, 1.0)
    return out_image, InstanceSet(instances.height, instances.width, masks)
