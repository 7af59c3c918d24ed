from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from strandseg import metrics
from strandseg.metrics import (THRESHOLDS, connected_components,
                               evaluate_dataset, greedy_match_counts,
                               instance_ap_ar, mask_dice, mask_iou)
from strandseg.synth import InstanceSet


def _iset(*masks, shape=(6, 6)):
    return InstanceSet(height=shape[0], width=shape[1],
                       masks=[np.asarray(m, bool) for m in masks])


def _rect(shape, r0, r1, c0, c1):
    m = np.zeros(shape, bool)
    m[r0:r1, c0:c1] = True
    return m


def test_iou_dice_hand_values():
    a = _rect((6, 6), 0, 2, 0, 4)  # 8 px
    b = _rect((6, 6), 1, 3, 0, 4)  # 8 px, overlap 4
    assert mask_iou(a, b) == pytest.approx(4 / 12)
    assert mask_dice(a, b) == pytest.approx(8 / 16)


def test_identity_masks_score_one():
    rng = np.random.default_rng(0)
    m = rng.random((9, 9)) > 0.6
    assert abs(mask_iou(m, m) - 1.0) <= 1e-12
    assert abs(mask_dice(m, m) - 1.0) <= 1e-12


def test_empty_empty_convention():
    z = np.zeros((4, 4), bool)
    assert mask_iou(z, z) == 1.0
    assert mask_dice(z, z) == 1.0
    assert mask_iou(z, _rect((4, 4), 0, 1, 0, 1)) == 0.0


def test_dice_iou_identity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.random((8, 8)) > 0.5
        b = rng.random((8, 8)) > 0.5
        iou = mask_iou(a, b)
        assert abs(mask_dice(a, b) - 2 * iou / (1 + iou)) <= 1e-12


def test_mask_shape_mismatch_raises():
    with pytest.raises(ValueError):
        mask_iou(np.zeros((3, 3), bool), np.zeros((3, 4), bool))


def test_threshold_grid():
    assert THRESHOLDS == (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6)
    assert len(THRESHOLDS) == 9


# --- matching ---------------------------------------------------------------


def test_greedy_match_perfect():
    gt = _iset(_rect((6, 6), 0, 2, 0, 6), _rect((6, 6), 4, 6, 0, 6))
    assert greedy_match_counts(gt, gt, [0.5]) == [(2, 0, 0)]


def test_greedy_match_is_one_to_one():
    # one prediction covering both gt objects may match only one of them
    big = _rect((6, 6), 0, 6, 0, 6)
    gt = _iset(_rect((6, 6), 0, 3, 0, 6), _rect((6, 6), 3, 6, 0, 6))
    pred = _iset(big)
    [(tp, fp, fn)] = greedy_match_counts(pred, gt, [0.2])
    assert (tp, fp, fn) == (1, 0, 1)


def test_greedy_match_prefers_higher_iou():
    gt_mask = _rect((6, 6), 0, 4, 0, 4)  # 16 px
    close = _rect((6, 6), 0, 4, 0, 3)  # iou 12/16
    loose = _rect((6, 6), 0, 4, 0, 2)  # iou 8/16
    pred = _iset(loose, close)
    [(tp, fp, fn)] = greedy_match_counts(pred, _iset(gt_mask), [0.5])
    assert (tp, fp, fn) == (1, 1, 0)
    # and the loose one would have matched on its own
    assert greedy_match_counts(_iset(loose), _iset(gt_mask), [0.5]) == [(1, 0, 0)]


def test_greedy_match_threshold_inclusive():
    a = _rect((6, 6), 0, 1, 0, 4)
    b = _rect((6, 6), 0, 1, 0, 2)  # iou exactly 0.5
    assert mask_iou(a, b) == 0.5
    assert greedy_match_counts(_iset(b), _iset(a), [0.5]) == [(1, 0, 0)]
    assert greedy_match_counts(_iset(b), _iset(a), [0.51]) == [(0, 1, 1)]


def test_greedy_match_tie_break_decides_count():
    # A ties with both truths at IoU 1/3 and B overlaps only X (IoU 1/4).
    # Ranking A-Y first, as the mask-content tie-break does, leaves X free
    # for B; pairing A-X first, as listing order would, loses B's match.
    shape = (8, 8)
    a, b = _rect(shape, 2, 6, 0, 8), _rect(shape, 0, 1, 0, 8)
    x, y = _rect(shape, 0, 4, 0, 8), _rect(shape, 4, 8, 0, 8)
    pred = _iset(a, b, shape=shape)
    for gt in (_iset(x, y, shape=shape), _iset(y, x, shape=shape)):
        assert greedy_match_counts(pred, gt, [0.2, 0.3]) == [(2, 0, 0), (1, 1, 1)]


def test_empty_set_conventions():
    empty = _iset()
    gt = _iset(_rect((6, 6), 0, 2, 0, 2))
    assert greedy_match_counts(empty, gt, [0.5]) == [(0, 0, 1)]
    assert greedy_match_counts(gt, empty, [0.5]) == [(0, 1, 0)]
    scores = instance_ap_ar(empty, gt)
    assert scores["ap"] == 0.0  # nothing predicted, objects missed
    scores = instance_ap_ar(empty, empty)
    assert scores["ap"] == 1.0 and scores["ar"] == 1.0


def test_ap_sweep_hand_example():
    # one of two predictions matches gt at iou 0.5: counts at t<=0.5 are
    # tp=1 fp=1, above it tp=0 fp=2 -> AP = (7*0.5 + 2*0) / 9
    a = _rect((6, 6), 0, 1, 0, 4)
    half = _rect((6, 6), 0, 1, 0, 2)
    stray = _rect((6, 6), 5, 6, 0, 2)
    scores = instance_ap_ar(_iset(half, stray), _iset(a))
    assert scores["ap"] == pytest.approx((7 * 0.5) / 9)
    assert scores["ar"] == pytest.approx((7 * 1.0) / 9)
    rows = scores["per_threshold"]
    assert rows[0]["tp"] == 1 and rows[-1]["tp"] == 0


def test_ap_ar_monotone_nonincreasing_in_threshold():
    rng = np.random.default_rng(2)
    for _ in range(10):
        pred = _iset(*(rng.random((6, 6)) > 0.5 for _ in range(3)))
        gt = _iset(*(rng.random((6, 6)) > 0.5 for _ in range(3)))
        rows = instance_ap_ar(pred, gt)["per_threshold"]
        aps = [r["ap"] for r in rows]
        ars = [r["ar"] for r in rows]
        assert all(x >= y for x, y in zip(aps, aps[1:]))
        assert all(x >= y for x, y in zip(ars, ars[1:]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_matching_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    masks = [rng.random((6, 6)) > 0.55 for _ in range(4)]
    gt = _iset(*(rng.random((6, 6)) > 0.55 for _ in range(3)))
    base = greedy_match_counts(_iset(*masks), gt, [0.3])
    perm = rng.permutation(4)
    shuffled = greedy_match_counts(_iset(*(masks[i] for i in perm)), gt, [0.3])
    assert base == shuffled


def _reference_counts(pred, gt, threshold):
    """The matching run once per threshold: rank every pair by IoU (ties on
    mask bytes), accept a free pair, stop at the first IoU below threshold."""
    n_pred, n_gt = len(pred), len(gt)
    if n_pred == 0 or n_gt == 0:
        return 0, n_pred, n_gt
    iou = {(i, j): mask_iou(p, g) for i, p in enumerate(pred.masks)
           for j, g in enumerate(gt.masks)}
    order = sorted(iou, key=lambda ij: (-iou[ij], pred.masks[ij[0]].tobytes(),
                                        gt.masks[ij[1]].tobytes()))
    pred_used, gt_used = set(), set()
    for i, j in order:
        if iou[i, j] < threshold:
            break
        if i not in pred_used and j not in gt_used:
            pred_used.add(i)
            gt_used.add(j)
    tp = len(pred_used)
    return tp, n_pred - tp, n_gt - tp


def _rect8(corners):
    r0, r1, c0, c1 = corners
    return _rect((8, 8), min(r0, r1), max(r0, r1), min(c0, c1), max(c0, c1))


# Rectangles with even corners give empty masks, duplicates and many IoU
# ties, so the tie-break decides some counts; random bits give irregular
# overlaps.
_MASKS8 = st.one_of(
    st.tuples(*[st.sampled_from((0, 2, 4, 6, 8))] * 4).map(_rect8),
    st.lists(st.booleans(), min_size=64, max_size=64).map(lambda b: np.reshape(b, (8, 8))),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_pass_counts_equal_per_threshold_matching(data):
    gt = data.draw(st.lists(_MASKS8, max_size=4), label="gt")
    # predictions may repeat a true mask, and so each other, exactly
    pool = st.one_of(_MASKS8, st.sampled_from(gt)) if gt else _MASKS8
    pred = data.draw(st.lists(pool, max_size=4), label="pred")
    extra = data.draw(st.lists(st.floats(0.0, 1.0), max_size=3), label="extra thresholds")
    thresholds = [0.0, *THRESHOLDS, 1.0, *extra]
    pred_set, gt_set = _iset(*pred, shape=(8, 8)), _iset(*gt, shape=(8, 8))
    want = [_reference_counts(pred_set, gt_set, t) for t in thresholds]
    assert greedy_match_counts(pred_set, gt_set, thresholds) == want


def test_ap_sweep_matches_once(monkeypatch):
    calls = []
    original = metrics.greedy_match_counts

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(metrics, "greedy_match_counts", counted)
    a = _rect((6, 6), 0, 1, 0, 4)
    instance_ap_ar(_iset(_rect((6, 6), 0, 1, 0, 2)), _iset(a))
    assert len(calls) == 1


# --- dataset aggregation ------------------------------------------------------


def test_evaluate_dataset_micro_counts():
    gt1 = _iset(_rect((6, 6), 0, 2, 0, 6))
    gt2 = _iset(_rect((6, 6), 0, 2, 0, 6), _rect((6, 6), 4, 6, 0, 6))
    pred1 = gt1
    pred2 = _iset(_rect((6, 6), 0, 2, 0, 6))  # misses the second object
    report = evaluate_dataset([pred1, pred2], [gt1, gt2],
                              [gt1.union(), pred2.union()],
                              [gt1.union(), gt2.union()])
    # micro: tp=2, fp=0, fn=1 at every threshold
    assert report.ap == pytest.approx(1.0)
    assert report.ar == pytest.approx(2 / 3)
    # macro averages the two per-image sweeps: (1.0 + 1.0)/2, (1.0 + 0.5)/2
    assert report.macro_ap == pytest.approx(1.0)
    assert report.macro_ar == pytest.approx(0.75)
    assert report.counts["0.20"] == {"tp": 2, "fp": 0, "fn": 1}


def test_evaluate_dataset_semantic_scores_pool_pixels():
    fg1 = _rect((6, 6), 0, 2, 0, 6)  # 12 px
    fg2 = _rect((6, 6), 4, 6, 0, 6)
    pred_fg2 = np.zeros((6, 6), bool)  # misses everything on image 2
    report = evaluate_dataset([_iset(fg1), _iset()], [_iset(fg1), _iset(fg2)],
                              [fg1, pred_fg2], [fg1, fg2])
    assert report.iou == pytest.approx(12 / 24)
    assert report.dice == pytest.approx(2 * 12 / (12 + 24))


def test_evaluate_dataset_length_mismatch():
    with pytest.raises(ValueError):
        evaluate_dataset([_iset()], [], [], [])


# --- connected components -----------------------------------------------------


def test_cc_simple_shapes():
    fg = np.zeros((6, 6), bool)
    fg[0:2, 0:2] = True
    fg[4:6, 4:6] = True
    inst = connected_components(fg)
    assert len(inst) == 2
    np.testing.assert_array_equal(inst.union(), fg)
    # raster anchor ordering: the top-left blob comes first
    assert inst.masks[0][0, 0] and inst.masks[1][4, 4]


def test_cc_diagonal_touch_is_connected():
    fg = np.zeros((4, 4), bool)
    fg[0, 0] = fg[1, 1] = True  # 8-connectivity joins these
    assert len(connected_components(fg)) == 1


def test_cc_crossing_strokes_fuse():
    fg = np.zeros((9, 9), bool)
    fg[4, :] = True
    fg[:, 4] = True
    assert len(connected_components(fg)) == 1


def test_cc_empty():
    inst = connected_components(np.zeros((5, 5), bool))
    assert len(inst) == 0


def _reference_components(fg):
    """The per-pixel BFS that `connected_components` replaced: the oracle for
    exact masks and their order (by each component's first raster pixel)."""
    fg = np.asarray(fg, dtype=bool)
    h, w = fg.shape
    labels = np.zeros((h, w), dtype=np.int32)
    masks = []
    for r0, c0 in np.argwhere(fg):
        if labels[r0, c0]:
            continue
        comp_id = len(masks) + 1
        labels[r0, c0] = comp_id
        queue = deque([(int(r0), int(c0))])
        pixels = []
        while queue:
            r, c = queue.popleft()
            pixels.append((r, c))
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and fg[rr, cc] and not labels[rr, cc]:
                        labels[rr, cc] = comp_id
                        queue.append((rr, cc))
        mask = np.zeros((h, w), dtype=bool)
        rows, cols = zip(*pixels)
        mask[list(rows), list(cols)] = True
        masks.append(mask)
    return masks


def _assert_cc_matches_oracles(fg):
    mine = connected_components(fg)
    assert (mine.height, mine.width) == fg.shape
    # scipy's 8-connected labeling gives the component sets ...
    ref_labels, ref_n = ndimage.label(fg, structure=np.ones((3, 3), int))
    assert len(mine) == ref_n
    seen = set()
    for mask in mine.masks:
        ids = np.unique(ref_labels[mask])
        assert len(ids) == 1
        np.testing.assert_array_equal(mask, ref_labels == ids[0])
        seen.add(int(ids[0]))
    assert len(seen) == ref_n
    # ... and the BFS gives the exact masks in their order.
    reference = _reference_components(fg)
    assert len(mine.masks) == len(reference)
    for got, want in zip(mine.masks, reference):
        assert got.dtype == bool and got.shape == fg.shape
        np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 24), st.integers(1, 24), st.floats(0.05, 0.95))
def test_cc_matches_scipy_label(seed, h, w, density):
    _assert_cc_matches_oracles(np.random.default_rng(seed).random((h, w)) < density)


def _comb(h, w):
    """Teeth on every other column that join only on the last row, and a
    separate stroke down the right edge. The comb's first pixel comes first
    in raster order, but its runs are joined last."""
    fg = np.zeros((h, w), bool)
    fg[:, : w - 2 : 2] = True
    fg[-1, : w - 2] = True
    fg[: h - 2, -1] = True
    return fg


def _borders(h, w):
    fg = np.zeros((h, w), bool)
    fg[0, 1] = fg[-1, w - 2] = fg[h // 2, 0] = fg[(h - 1) // 2, -1] = True
    return fg


@pytest.mark.parametrize("fg", [
    np.eye(7, dtype=bool),                              # staircase down-right
    np.fliplr(np.eye(6, 9, k=2, dtype=bool)),           # staircase down-left
    np.indices((8, 9)).sum(axis=0) % 2 == 0,            # checkerboard: one component
    np.indices((8, 9)).sum(axis=0) % 2 == 1,
    np.kron(np.indices((4, 4)).sum(axis=0) % 2 == 0, np.ones((2, 2), bool)),
    _comb(6, 9),
    np.flipud(_comb(6, 9)),                             # teeth join on the first row
    np.ones((5, 7), bool),
    np.zeros((5, 7), bool),
    np.ones((1, 1), bool),
    np.zeros((1, 1), bool),
    np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], bool),      # 1 x W
    np.array([[1], [1], [0], [1], [0], [0], [1]], bool),  # H x 1
    _borders(6, 8),
    _borders(2, 3),
    np.pad(np.zeros((3, 4), bool), 1, constant_values=True),  # a frame
], ids=["staircase", "anti-staircase", "checkerboard-even", "checkerboard-odd",
        "checkerboard-2px", "comb", "comb-flipped", "all-true", "empty", "1x1-true",
        "1x1-empty", "1xW", "Hx1", "borders", "borders-2x3", "frame"])
def test_cc_hand_cases(fg):
    _assert_cc_matches_oracles(fg)
