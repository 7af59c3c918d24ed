"""Semantic and instance segmentation metrics, plus the CC baseline.

Instance scoring: at each IoU threshold t, predicted and ground-truth masks
are matched greedily in descending-IoU order, one-to-one, accepting a pair
when IoU >= t. There are no confidence scores in this method, so AP at a
threshold reduces to precision = TP/(TP+FP) and AR to recall = TP/(TP+FN);
the headline AP/AR average those over t in {0.20, 0.25, ..., 0.60}.
Dataset-level numbers accumulate TP/FP/FN over all images before dividing
(micro-averaging); per-image means (macro) are reported alongside.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .synth import InstanceSet

# the nine evaluation thresholds: 0.20 .. 0.60 step 0.05
THRESHOLDS = tuple(k / 100 for k in range(20, 65, 5))


def _as_mask_pair(a, b):
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    return a, b


def mask_iou(a, b) -> float:
    """|a & b| / |a | b|; two empty masks count as a perfect 1.0."""
    a, b = _as_mask_pair(a, b)
    union = int((a | b).sum())
    if union == 0:
        return 1.0
    return int((a & b).sum()) / union


def mask_dice(a, b) -> float:
    """2|a & b| / (|a| + |b|); both empty -> 1.0."""
    a, b = _as_mask_pair(a, b)
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total


def greedy_match_counts(pred: InstanceSet, gt: InstanceSet, thresholds) -> list:
    """(tp, fp, fn) at each IoU threshold, under greedy descending-IoU one-to-one matching.

    The greedy order does not depend on the threshold, and whether a pair is
    accepted depends only on the pairs ranked before it. So one full pass
    serves every threshold: TP(t) counts the accepted pairs with IoU >= t,
    exactly the pairs a pass that stops at the first IoU below t accepts.
    """
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise ValueError("pred and gt dimensions differ")
    n_pred, n_gt = len(pred), len(gt)
    if n_pred == 0 or n_gt == 0:
        return [(0, n_pred, n_gt) for _ in thresholds]
    p = pred.masks.reshape(n_pred, -1)
    g = gt.masks.reshape(n_gt, -1)
    # Exact integer counts, so inter / union rounds as mask_iou's int / int does.
    inter = p.astype(np.int64) @ g.T.astype(np.int64)
    union = p.sum(axis=1)[:, None] + g.sum(axis=1)[None, :] - inter
    iou = np.divide(inter, union, out=np.ones((n_pred, n_gt)), where=union > 0)
    # Descending IoU; ties broken on mask content so the counts cannot
    # depend on the order instances happen to be listed in.
    pkeys = [row.tobytes() for row in p]
    gkeys = [row.tobytes() for row in g]
    order = sorted(((i, j) for i in range(n_pred) for j in range(n_gt)),
                   key=lambda ij: (-iou[ij], pkeys[ij[0]], gkeys[ij[1]]))
    pred_used = [False] * n_pred
    gt_used = [False] * n_gt
    accepted = []  # IoU of each accepted pair
    for i, j in order:
        if not pred_used[i] and not gt_used[j]:
            pred_used[i] = True
            gt_used[j] = True
            accepted.append(iou[i, j])
    counts = []
    for t in thresholds:
        tp = sum(1 for v in accepted if v >= t)
        counts.append((tp, n_pred - tp, n_gt - tp))
    return counts


def _ap_ar(tp, fp, fn):
    """(precision, recall); with no predictions precision is 1.0 exactly when
    there is no truth either, and recall mirrors it."""
    ap = tp / (tp + fp) if tp + fp else float(fn == 0)
    ar = tp / (tp + fn) if tp + fn else float(fp == 0)
    return ap, ar


def instance_ap_ar(pred: InstanceSet, gt: InstanceSet) -> dict:
    """Single-image AP/AR sweep over THRESHOLDS; returns per-threshold rows plus the means."""
    rows = []
    for t, (tp, fp, fn) in zip(THRESHOLDS, greedy_match_counts(pred, gt, THRESHOLDS)):
        ap, ar = _ap_ar(tp, fp, fn)
        rows.append({"t": t, "ap": ap, "ar": ar, "tp": tp, "fp": fp, "fn": fn})
    return {
        "ap": float(np.mean([r["ap"] for r in rows])),
        "ar": float(np.mean([r["ar"] for r in rows])),
        "per_threshold": rows,
    }


@dataclass
class MetricReport:
    """Dataset-level scores with the fixed JSON layout used by the CLI."""

    iou: float
    dice: float
    ap: float
    ar: float
    per_threshold: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    macro_ap: float = 0.0
    macro_ar: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_dataset(pred_instances, gt_instances, pred_fg, gt_fg) -> MetricReport:
    """Micro-averaged report over parallel lists of predictions and truths.

    pred_fg / gt_fg are the per-image semantic (foreground) masks; semantic
    IoU/Dice pool intersection and union pixel counts over the whole set.
    """
    n = len(pred_instances)
    if not (n == len(gt_instances) == len(pred_fg) == len(gt_fg)):
        raise ValueError("prediction and ground-truth lists must align")
    inter = union = pred_area = gt_area = 0
    tallies = {t: [0, 0, 0] for t in THRESHOLDS}
    image_aps, image_ars = [], []
    for pi, gi, pf, gf in zip(pred_instances, gt_instances, pred_fg, gt_fg):
        pf, gf = _as_mask_pair(pf, gf)
        inter += int((pf & gf).sum())
        union += int((pf | gf).sum())
        pred_area += int(pf.sum())
        gt_area += int(gf.sum())
        single = instance_ap_ar(pi, gi)
        image_aps.append(single["ap"])
        image_ars.append(single["ar"])
        for row in single["per_threshold"]:
            tally = tallies[row["t"]]
            tally[0] += row["tp"]
            tally[1] += row["fp"]
            tally[2] += row["fn"]

    per_threshold = []
    counts = {}
    for t in THRESHOLDS:
        tp, fp, fn = tallies[t]
        ap_t, ar_t = _ap_ar(tp, fp, fn)
        per_threshold.append({"t": t, "ap": ap_t, "ar": ar_t})
        counts[f"{t:.2f}"] = {"tp": tp, "fp": fp, "fn": fn}

    return MetricReport(
        iou=inter / union if union else 1.0,
        dice=2.0 * inter / (pred_area + gt_area) if (pred_area + gt_area) else 1.0,
        ap=float(np.mean([r["ap"] for r in per_threshold])),
        ar=float(np.mean([r["ar"] for r in per_threshold])),
        per_threshold=per_threshold,
        counts=counts,
        macro_ap=float(np.mean(image_aps)) if image_aps else 1.0,
        macro_ar=float(np.mean(image_ars)) if image_ars else 1.0,
    )


def connected_components(fg: np.ndarray) -> InstanceSet:
    """Split a foreground mask into 8-connected components.

    Two-pass labeling over horizontal runs (Wu, Otoo & Suzuki, 2009). The
    first pass finds every row's runs of foreground pixels and joins each run
    to the runs of the row above that it touches: their column spans overlap
    once its span is widened by one on each side, so pixels that meet only
    at a corner connect (8-connectivity). A union-find over the runs merges
    the joined runs into components. The second pass fills one mask per
    component. Components are numbered by their first pixel in raster order,
    so labeling is deterministic. Empty mask -> empty InstanceSet.
    """
    fg = np.asarray(fg, dtype=bool)
    h, w = fg.shape
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = fg
    edges = np.diff(padded, axis=1)
    # Runs in raster order: row, first column, one past the last column.
    row, start = np.nonzero(edges == 1)
    end = np.nonzero(edges == -1)[1]
    # Raster keys with a stride wider than any column, so rows never mix.
    # Run i touches run j of the row above iff start_j <= end_i and
    # start_i <= end_j; those j are the runs lo[i] <= j < hi[i].
    stride = w + 2
    above = (row - 1) * stride
    lo = np.searchsorted(row * stride + end, above + start, side="left")
    hi = np.searchsorted(row * stride + start, above + end, side="right")
    touching = hi - lo
    offset = np.repeat(lo - (np.cumsum(touching) - touching), touching)
    lower = np.repeat(np.arange(len(row)), touching).tolist()
    upper = (np.arange(len(offset)) + offset).tolist()

    # The root of each set is its lowest run index, so parent[i] <= i and
    # the root is the component's first run in raster order.
    parent = list(range(len(row)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(lower, upper):
        i, j = root(i), root(j)
        parent[max(i, j)] = min(i, j)
    # parent[i] < i is labeled before i and lies in i's component.
    label = []
    n_comp = 0
    for i, p in enumerate(parent):
        if p == i:
            label.append(n_comp)
            n_comp += 1
        else:
            label.append(label[p])

    pixel_label = np.repeat(np.array(label, dtype=np.intp), end - start)
    masks = np.zeros((n_comp, h * w), dtype=bool)
    masks[pixel_label, np.flatnonzero(fg)] = True
    return InstanceSet(h, w, masks.reshape(n_comp, h, w))
