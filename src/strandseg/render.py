"""Instance overlay rendering.

Background pixels show the grayscale image; pixels owned by exactly one
instance get that instance's palette color; pixels owned by two or more get
a single dedicated creamy color so resolved crossings stand out.
"""

from __future__ import annotations

import numpy as np

from .synth import InstanceSet

# Saturated, never-gray instance colors (cycled when instances outnumber them).
PALETTE = (
    (230, 60, 60),    # red
    (60, 120, 230),   # blue
    (60, 200, 90),    # green
    (240, 180, 40),   # amber
    (170, 80, 220),   # purple
    (40, 200, 200),   # teal
    (240, 110, 180),  # pink
    (130, 160, 40),   # olive
)
MULTI_COLOR = (255, 250, 205)  # creamy


def render_overlay(image: np.ndarray, instances: InstanceSet) -> np.ndarray:
    """(H, W, 3) uint8 overlay; empty InstanceSet is a grayscale passthrough."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (instances.height, instances.width):
        raise ValueError(
            f"image {image.shape} and instances "
            f"{(instances.height, instances.width)} dims disagree")
    gray = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    out = np.repeat(gray[:, :, None], 3, axis=2)
    if len(instances) == 0:
        return out
    counts = instances.masks.sum(axis=0)
    single = counts == 1
    owner = instances.masks[:, single].argmax(axis=0)
    out[single] = np.asarray(PALETTE, dtype=np.uint8)[owner % len(PALETTE)]
    out[counts >= 2] = MULTI_COLOR
    return out
