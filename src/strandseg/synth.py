"""Synthetic scenes of thin, mutually crossing curvilinear strands.

A scene is a grayscale image plus per-strand ground-truth masks. Strands are
random smooth polylines rendered with a fixed stroke width; where strands
overlap, image intensity is the max of the contributors, so crossings carry
no brightness cue about ordering.

Annotations use image coordinates with `points` as (x, y) = (column, row)
pairs, matching the JSON annotation documents this package writes:

    {"height": H, "width": W,
     "instances": [{"points": [[x0, y0], [x1, y1], ...], "width": w}, ...]}
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GenerationError(RuntimeError):
    """Scene sampling failed to satisfy the requested constraints."""


@dataclass(frozen=True)
class PolylineAnnotation:
    """One strand: an open polyline with a constant stroke width.

    points : (K, 2) float array of (x, y) vertices, K >= 2
    width : stroke width in pixels (full width, not radius)
    """

    points: np.ndarray
    width: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError(f"points must be (K>=2, 2), got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValueError(f"width must be positive, got {self.width}")
        object.__setattr__(self, "points", pts)


@dataclass
class InstanceSet:
    """The instances of one image as one (K, H, W) bool array of masks.

    Mask k is instance k; a pixel set in several masks is a crossing. Any
    sequence of (H, W) masks is accepted and stored as one C-contiguous
    array; an empty sequence gives shape (0, H, W).
    """

    height: int
    width: int
    masks: np.ndarray

    def __post_init__(self):
        shape = (self.height, self.width)
        try:
            masks = np.asarray(self.masks, dtype=bool)
        except ValueError as exc:
            raise ValueError(f"every mask must have shape {shape}") from exc
        if masks.shape == (0,):
            masks = masks.reshape(0, *shape)
        if masks.ndim != 3 or masks.shape[1:] != shape:
            raise ValueError(f"masks shape {masks.shape} != (K, {self.height}, {self.width})")
        self.masks = np.ascontiguousarray(masks)

    def __len__(self):
        return len(self.masks)

    def union(self) -> np.ndarray:
        """Foreground mask: pixels claimed by at least one instance."""
        return self.masks.any(axis=0)

    def overlap(self) -> np.ndarray:
        """Pixels claimed by two or more instances (the crossings)."""
        return self.masks.sum(axis=0) >= 2


def polyline_distance_within(height, width, points, reach):
    """Distance from each pixel center to a polyline, exact up to `reach`.

    Returns an (H, W) float array holding the Euclidean distance to the
    nearest segment for every pixel whose distance is <= reach; pixels
    farther than that may be reported as +inf. Only pixels inside each
    segment's reach-expanded bounding box are touched, which keeps the cost
    proportional to curve length rather than image area.
    """
    pts = np.asarray(points, dtype=np.float64)
    dist = np.full((height, width), np.inf)
    pad = float(reach) + 1e-9
    for a, b in zip(pts[:-1], pts[1:]):
        lo_x = max(int(np.floor(min(a[0], b[0]) - pad)), 0)
        hi_x = min(int(np.ceil(max(a[0], b[0]) + pad)), width - 1)
        lo_y = max(int(np.floor(min(a[1], b[1]) - pad)), 0)
        hi_y = min(int(np.ceil(max(a[1], b[1]) + pad)), height - 1)
        if lo_x > hi_x or lo_y > hi_y:
            continue
        ys, xs = np.mgrid[lo_y : hi_y + 1, lo_x : hi_x + 1]
        dx, dy = b[0] - a[0], b[1] - a[1]
        seg_sq = dx * dx + dy * dy
        if seg_sq == 0.0:
            d = np.hypot(xs - a[0], ys - a[1])
        else:
            t = ((xs - a[0]) * dx + (ys - a[1]) * dy) / seg_sq
            t = np.clip(t, 0.0, 1.0)
            d = np.hypot(xs - (a[0] + t * dx), ys - (a[1] + t * dy))
        window = dist[lo_y : hi_y + 1, lo_x : hi_x + 1]
        np.minimum(window, d, out=window)
    return dist


def rasterize_polyline(height, width, points, stroke_width) -> np.ndarray:
    """Boolean mask of pixels whose center lies within stroke_width/2 of the
    polyline (round caps and joins)."""
    if stroke_width <= 0:
        raise ValueError(f"stroke_width must be positive, got {stroke_width}")
    r = stroke_width / 2.0
    return polyline_distance_within(height, width, points, r) <= r


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of the scene sampler."""

    height: int = 64
    width: int = 64
    curves_min: int = 2
    curves_max: int = 2
    stroke_min: float = 2.5
    stroke_max: float = 3.5
    intensity_min: float = 0.55
    intensity_max: float = 0.95
    noise_sigma: float = 0.03
    wiggle: float = 0.05
    control_points: int = 9
    ensure_crossing: bool = True
    max_attempts: int = 50

    def __post_init__(self):
        for name in ("height", "width"):
            value = getattr(self, name)
            if not (value >= 8 and value % 2 == 0):
                raise ValueError(f"{name} must be even and >= 8")
        if not self.curves_min >= 1:
            raise ValueError("curves_min must be >= 1")
        if not self.curves_max >= self.curves_min:
            raise ValueError("curves_max must be >= curves_min")
        if not self.stroke_min > 0:
            raise ValueError("stroke_min must be > 0")
        if not self.stroke_max >= self.stroke_min:
            raise ValueError("stroke_max must be >= stroke_min")
        if not self.intensity_min >= 0:
            raise ValueError("intensity_min must be >= 0")
        if not self.intensity_min <= self.intensity_max <= 1:
            raise ValueError("intensity_max must lie in [intensity_min, 1]")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be >= 0")
        if not self.control_points >= 2:
            raise ValueError("control_points must be >= 2")
        if not self.max_attempts >= 1:
            raise ValueError("max_attempts must be >= 1")


@dataclass
class Scene:
    image: np.ndarray
    instances: InstanceSet
    annotations: list = field(default_factory=list)


def _line_rect_span(anchor, direction, width, height):
    # Parameter range t for which anchor + t*direction stays inside the
    # pixel-center rectangle [0, W-1] x [0, H-1] (slab intersection); finite
    # and around 0, as the anchor is inside and the direction a unit vector.
    t_lo, t_hi = -np.inf, np.inf
    for coord, d, hi in ((anchor[0], direction[0], width - 1),
                         (anchor[1], direction[1], height - 1)):
        if abs(d) < 1e-12:
            continue
        a = (0 - coord) / d
        b = (hi - coord) / d
        t_lo = max(t_lo, min(a, b))
        t_hi = min(t_hi, max(a, b))
    return t_lo, t_hi


def _sample_polyline(rng, spec: SceneSpec, base_angle: float) -> np.ndarray:
    h, w = spec.height, spec.width
    angle = base_angle + rng.uniform(-0.15, 0.15)
    direction = np.array([np.cos(angle), np.sin(angle)])
    # Anchor in the central band so strands meet in the interior.
    anchor = np.array([
        rng.uniform(0.3 * (w - 1), 0.7 * (w - 1)),
        rng.uniform(0.3 * (h - 1), 0.7 * (h - 1)),
    ])
    t_lo, t_hi = _line_rect_span(anchor, direction, w, h)
    ts = np.linspace(t_lo, t_hi, spec.control_points)
    base = anchor[None, :] + ts[:, None] * direction[None, :]

    # Smooth perpendicular wander, pinned to zero at both endpoints so the
    # strand still enters and exits at the border.
    steps = rng.normal(0.0, 1.0, size=spec.control_points)
    walk = np.cumsum(steps)
    walk -= np.linspace(walk[0], walk[-1], spec.control_points)
    peak = np.max(np.abs(walk))
    if peak > 0:
        walk = walk / peak * spec.wiggle * min(h, w)
    perp = np.array([-direction[1], direction[0]])
    pts = base + walk[:, None] * perp[None, :]
    pts[:, 0] = np.clip(pts[:, 0], 0.0, w - 1.0)
    pts[:, 1] = np.clip(pts[:, 1], 0.0, h - 1.0)
    return pts


def _pairwise_crossings_ok(masks) -> bool:
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if not np.any(masks[i] & masks[j]):
                return False
    return True


def generate_scene(spec: SceneSpec, seed: int) -> Scene:
    """Sample one scene deterministically from (spec, seed).

    When `spec.ensure_crossing` is set and more than one strand is drawn,
    every pair of strand masks is required to overlap somewhere; sampling
    retries up to `spec.max_attempts` times before raising GenerationError.
    """
    rng = np.random.default_rng(seed)
    h, w = spec.height, spec.width
    for _ in range(spec.max_attempts):
        n = int(rng.integers(spec.curves_min, spec.curves_max + 1))
        # Spread base angles over a half-turn so pairwise crossing angles
        # stay comfortably away from parallel.
        order = rng.permutation(n)
        annotations = []
        masks = []
        coverages = []
        ok = True
        for i in range(n):
            base_angle = (order[i] + 0.5) * np.pi / n
            pts = _sample_polyline(rng, spec, base_angle)
            stroke = rng.uniform(spec.stroke_min, spec.stroke_max)
            # One distance field per strand: reach r holds the mask, and the
            # extra pixel of reach the antialiasing ramp at the stroke border,
            # which only the image uses.
            r = stroke / 2.0
            dist = polyline_distance_within(h, w, pts, r + 1.0)
            mask = dist <= r
            if mask.sum() < 4:
                ok = False
                break
            annotations.append(PolylineAnnotation(points=pts, width=stroke))
            masks.append(mask)
            coverages.append(np.clip(r + 0.5 - dist, 0.0, 1.0))
        if not ok:
            continue
        if spec.ensure_crossing and n > 1 and not _pairwise_crossings_ok(masks):
            continue

        image = np.zeros((h, w))
        for cov in coverages:
            intensity = rng.uniform(spec.intensity_min, spec.intensity_max)
            image = np.maximum(image, intensity * cov)
        if spec.noise_sigma > 0:
            image = image + rng.normal(0.0, spec.noise_sigma, size=image.shape)
        image = np.clip(image, 0.0, 1.0)
        return Scene(image, InstanceSet(h, w, masks), annotations)
    raise GenerationError(
        f"no valid scene after {spec.max_attempts} attempts (seed={seed})"
    )


def scene_seeds(master_seed: int, count: int) -> np.ndarray:
    """Per-scene seeds derived from one master seed."""
    rng = np.random.default_rng(master_seed)
    return rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)


def make_training_labels(instances: InstanceSet, rng) -> np.ndarray:
    """Collapse overlapping masks into a single int label map for training.

    Background is 0 and instance k gets label k+1. A pixel claimed by
    several instances is assigned to one of its claimants uniformly at
    random, so over many epochs crossing pixels pull toward every strand
    they belong to rather than always the same one.
    """
    h, w = instances.height, instances.width
    labels = np.zeros((h, w), dtype=np.int32)
    if len(instances) == 0:
        return labels
    masks = instances.masks
    counts = masks.sum(axis=0)
    single = counts == 1
    labels[single] = masks[:, single].argmax(axis=0) + 1
    # rng.choice's draws, one per crossing pixel in raster order; each picks the draw-th claimant
    shared = counts >= 2
    draw = rng.integers(0, counts[shared])
    labels[shared] = (masks[:, shared].cumsum(axis=0) > draw).argmax(axis=0) + 1
    return labels


def annotations_to_document(height, width, annotations) -> dict:
    """Build the JSON-serializable annotation document for one image."""
    return {
        "height": int(height),
        "width": int(width),
        "instances": [
            {"points": [[float(x), float(y)] for x, y in ann.points],
             "width": float(ann.width)}
            for ann in annotations
        ],
    }


def annotations_to_instances(height, width, annotations) -> InstanceSet:
    """Rasterize a list of polyline annotations into ground-truth masks."""
    masks = [
        rasterize_polyline(height, width, ann.points, ann.width)
        for ann in annotations
    ]
    return InstanceSet(height, width, masks)
