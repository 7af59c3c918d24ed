import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strandseg.gradcheck as gc
from strandseg.network import (LossConfig, PARAM_ORDER, _conv_input_grad,
                               _conv_param_grads, _dice_loss_grad,
                               _discriminative_flat, backward, discriminative_loss,
                               forward, forward_full, init_params, param_shapes,
                               total_loss, total_loss_and_grad, validate_params)


def test_param_shapes_and_init_determinism():
    shapes = param_shapes()
    params = init_params(0)
    assert set(params) == set(PARAM_ORDER)
    for name, shape in shapes.items():
        assert params[name].shape == shape
    again = init_params(0)
    for name in PARAM_ORDER:
        assert np.array_equal(params[name], again[name])
    assert not np.array_equal(init_params(1)["conv1_w"], params["conv1_w"])


def test_validate_params_rejects_bad_shapes():
    params = init_params(0)
    params["seg_w"] = np.zeros((4, 1))
    with pytest.raises(ValueError, match="seg_w"):
        validate_params(params)


def test_forward_zero_params_gives_half_probability_zero_embedding():
    zero = {k: np.zeros(s) for k, s in param_shapes().items()}
    seg, emb = forward(zero, np.random.default_rng(0).random((12, 20)))
    assert seg.shape == (6, 10)
    assert emb.shape == (6, 10, 3)
    assert np.all(seg == 0.5)
    assert np.all(emb == 0.0)


def test_forward_output_dims_are_half_input():
    params = init_params(3)
    for h, w in [(8, 8), (16, 24), (30, 10)]:
        seg, emb = forward(params, np.zeros((h, w)))
        assert seg.shape == (h // 2, w // 2)
        assert emb.shape == (h // 2, w // 2, 3)


def test_forward_rejects_odd_dims():
    params = init_params(0)
    with pytest.raises(ValueError):
        forward(params, np.zeros((15, 16)))


def _oracle_conv_tanh(x, w, b, stride):
    """tanh of a zero-padded 3x3 convolution plus bias on nested lists
    x[h][w][c], w[i][j][c][o], each sum exactly rounded by math.fsum."""
    height, width, c_in = len(x), len(x[0]), len(x[0][0])
    out = []
    for oh in range(0, height, stride):
        row = []
        for ow in range(0, width, stride):
            terms = [[bo] for bo in b]
            for i in range(3):
                for j in range(3):
                    ih, iw = oh + i - 1, ow + j - 1
                    if not (0 <= ih < height and 0 <= iw < width):
                        continue
                    for c in range(c_in):
                        v = x[ih][iw][c]
                        for o, wo in enumerate(w[i][j][c]):
                            terms[o].append(v * wo)
            row.append([math.tanh(math.fsum(t)) for t in terms])
        out.append(row)
    return out


def _oracle_trunk(p, image):
    """The input and the three trunk activations as nested lists, from
    parameters `p` as nested lists."""
    x = [[[v] for v in row] for row in np.asarray(image).tolist()]
    a1 = _oracle_conv_tanh(x, p["conv1_w"], p["conv1_b"], 1)
    a2 = _oracle_conv_tanh(a1, p["conv2_w"], p["conv2_b"], 2)
    return [x, a1, a2, _oracle_conv_tanh(a2, p["conv3_w"], p["conv3_b"], 1)]


def _oracle_forward(params, image):
    """Independent loop forward: no einsum, no matmul, no BLAS."""
    p = {k: np.asarray(v).tolist() for k, v in params.items()}
    a3 = _oracle_trunk(p, image)[3]
    seg, emb = [], []
    for row in a3:
        seg_row, emb_row = [], []
        for a in row:
            logit = math.fsum(ac * wc[0] for ac, wc in zip(a, p["seg_w"])) + p["seg_b"][0]
            seg_row.append(1.0 / (1.0 + math.exp(-logit)))
            emb_row.append([math.fsum(ac * wc[d] for ac, wc in zip(a, p["emb_w"])) + bd
                            for d, bd in enumerate(p["emb_b"])])
        seg.append(seg_row)
        emb.append(emb_row)
    return np.array(seg), np.array(emb)


def _oracle_conv_backward(x, w, g_out, stride):
    """(g_x, g_w, g_b) of a zero-padded 3x3 convolution on nested lists,
    each sum over its explicit loop terms exactly rounded by math.fsum."""
    height, width, c_in = len(x), len(x[0]), len(x[0][0])
    c_out = len(g_out[0][0])
    gx, gw, gb = defaultdict(list), defaultdict(list), defaultdict(list)
    for oh, g_row in enumerate(g_out):
        for ow, g in enumerate(g_row):
            for o in range(c_out):
                gb[o,].append(g[o])
                for i in range(3):
                    for j in range(3):
                        ih, iw = oh * stride + i - 1, ow * stride + j - 1
                        if not (0 <= ih < height and 0 <= iw < width):
                            continue
                        for c in range(c_in):
                            gw[i, j, c, o].append(x[ih][iw][c] * g[o])
                            gx[ih, iw, c].append(w[i][j][c][o] * g[o])

    def fsums(terms, shape):
        out = np.zeros(shape)
        for index, t in terms.items():
            out[index] = math.fsum(t)
        return out

    return (fsums(gx, (height, width, c_in)), fsums(gw, (3, 3, c_in, c_out)),
            fsums(gb, (c_out,)))


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_backward_matches_loop_oracle(stride):
    rng = np.random.default_rng(11 + stride)
    x = rng.normal(size=(6, 6, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    g_out = rng.normal(size=(6 // stride, 6 // stride, 3))
    g_w, g_b = _conv_param_grads(x, w, stride, g_out)
    g_x = _conv_input_grad(x, w, stride, g_out)
    want_x, want_w, want_b = _oracle_conv_backward(x.tolist(), w.tolist(), g_out.tolist(),
                                                   stride)
    assert g_x.shape == x.shape and g_w.shape == w.shape and g_b.shape == (3,)
    np.testing.assert_allclose(g_x, want_x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g_w, want_w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g_b, want_b, rtol=0, atol=1e-12)


def _oracle_backward(params, image, g_seg, g_emb):
    """Every parameter gradient of the network for head-output gradients
    g_seg (H/2, W/2) and g_emb (H/2, W/2, 3), by loops whose sums are each
    exactly rounded by math.fsum."""
    p = {k: np.asarray(v).tolist() for k, v in params.items()}
    x, a1, a2, a3 = _oracle_trunk(p, image)
    seg, _ = _oracle_forward(params, image)
    cells = [(r, c) for r in range(len(a3)) for c in range(len(a3[0]))]
    g_logit = {(r, c): g_seg[r, c] * seg[r, c] * (1.0 - seg[r, c]) for r, c in cells}
    channels, dims = range(len(p["seg_w"])), range(g_emb.shape[2])
    grads = {
        "seg_w": np.array([[math.fsum(a3[r][c][k] * g_logit[r, c] for r, c in cells)]
                           for k in channels]),
        "seg_b": np.array([math.fsum(g_logit.values())]),
        "emb_w": np.array([[math.fsum(a3[r][c][k] * g_emb[r, c, d] for r, c in cells)
                            for d in dims] for k in channels]),
        "emb_b": np.array([math.fsum(g_emb[r, c, d] for r, c in cells) for d in dims]),
    }
    g_a = np.array([[[math.fsum([g_logit[r, c] * p["seg_w"][k][0]]
                                + [g_emb[r, c, d] * p["emb_w"][k][d] for d in dims])
                      for k in channels] for c in range(len(a3[0]))] for r in range(len(a3))])
    for name, stride, x_in, a in (("conv3", 1, a2, a3), ("conv2", 2, a1, a2),
                                  ("conv1", 1, x, a1)):
        g_z = g_a * (1.0 - np.array(a) ** 2)
        g_a, grads[name + "_w"], grads[name + "_b"] = _oracle_conv_backward(
            x_in, p[name + "_w"], g_z.tolist(), stride)
    return grads


def test_backward_matches_loop_oracle():
    # Every parameter gradient of `backward` against loops with exactly
    # rounded sums, on a gradcheck fixture with random head gradients (the
    # gradients reach 15). The largest difference is 2.2e-15 under the
    # Prescott, Nehalem, Sandybridge, Haswell and SkylakeX BLAS kernels, and
    # 1e-12 is ~450x that, while scaling any one layer's tanh derivative by
    # 1 + 1e-9 moves that layer's gradients by ~1e-9, a change the
    # finite-difference checks (to 1e-4) cannot see.
    params, image, _ = gc.make_fixture(0)
    seg, emb, cache = forward_full(params, image)
    rng = np.random.default_rng(7)
    g_seg, g_emb = rng.normal(size=seg.shape), rng.normal(size=emb.shape)
    grads = backward(params, cache, g_seg, g_emb)
    want = _oracle_backward(params, image, g_seg, g_emb)
    for name in PARAM_ORDER:
        np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=1e-12, err_msg=name)


def test_forward_deterministic_fixture_hash():
    # Fixed params + fixed image must keep producing the same maps. The last
    # bits follow the BLAS kernel that runs the contractions (kernels differ
    # by ~2e-16 here), so bit identity is checked within one process and the
    # values against an exact-sum oracle; 1e-13 is ~600x the kernel spread,
    # while scaling conv3_b by 1 + 1e-9 moves emb by ~5e-11.
    params = init_params(123)
    image = np.random.default_rng(456).random((16, 16))
    seg, emb = forward(params, image)
    again_seg, again_emb = forward({k: v.copy() for k, v in params.items()}, image.copy())
    assert again_seg.tobytes() == seg.tobytes()
    assert again_emb.tobytes() == emb.tobytes()
    want_seg, want_emb = _oracle_forward(params, image)
    np.testing.assert_allclose(seg, want_seg, rtol=0, atol=1e-13)
    np.testing.assert_allclose(emb, want_emb, rtol=0, atol=1e-13)


def test_forward_in_open_unit_interval():
    params = init_params(9)
    seg, _ = forward(params, np.random.default_rng(1).random((16, 16)))
    assert np.all(seg > 0) and np.all(seg < 1)


def test_dice_perfect_match_is_zero():
    target = np.zeros((6, 6))
    target[2:4, 1:5] = 1.0
    assert _dice_loss_grad(target, target)[0] == pytest.approx(0.0)


def test_dice_all_on_empty_target():
    n = 36
    prob = np.ones((6, 6))
    target = np.zeros((6, 6))
    assert _dice_loss_grad(prob, target)[0] == pytest.approx(1 - 1 / (n + 1))


def test_dice_empty_empty_is_zero():
    assert _dice_loss_grad(np.zeros((5, 5)), np.zeros((5, 5)))[0] == 0.0


def test_dice_in_unit_range():
    rng = np.random.default_rng(2)
    for _ in range(20):
        prob = rng.random((7, 7))
        target = (rng.random((7, 7)) > 0.5).astype(float)
        val = _dice_loss_grad(prob, target)[0]
        assert 0.0 <= val < 1.0


# --- discriminative loss -----------------------------------------------


CFG = LossConfig()


def test_disc_identical_embeddings_single_cluster_zero():
    v = np.tile([[0.3, -0.2, 1.0]], (5, 1))
    loss, grad = _discriminative_flat(v, np.ones(5, int), CFG)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_disc_push_only_hand_value():
    v = np.array([[0.0, 0, 0], [0, 0, 0], [1.0, 0, 0]])
    loss, _ = _discriminative_flat(v, np.array([1, 1, 2]), CFG)
    assert loss == pytest.approx(4.0, abs=1e-9)


def test_disc_pull_only_hand_value():
    v = np.array([[0.0, 0, 0], [2.0, 0, 0]])
    loss, _ = _discriminative_flat(v, np.array([1, 1]), CFG)
    assert loss == pytest.approx(0.25, abs=1e-9)


def test_disc_zero_loss_construction():
    # intra within delta_v of the mean, inter means >= delta_d apart
    rng = np.random.default_rng(3)
    a = rng.uniform(-0.28, 0.28, size=(8, 3))  # radius < 0.5 of mean after centering
    a -= a.mean(axis=0)
    b = a.copy() + np.array([10.0, 0, 0])
    v = np.concatenate([a + np.array([0.0, 0, 0]), b])
    ids = np.array([1] * 8 + [2] * 8)
    loss, grad = _discriminative_flat(v, ids, CFG)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_disc_nonnegative_and_single_cluster_no_push():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(20, 3)) * 3
    loss, _ = _discriminative_flat(v, np.ones(20, int), CFG)
    assert loss >= 0.0
    # push term absent: moving the whole cluster far away changes nothing
    loss2, _ = _discriminative_flat(v + 100.0, np.ones(20, int), CFG)
    assert loss2 == pytest.approx(loss, abs=1e-9)


def test_disc_field_interface_and_no_foreground():
    emb = np.random.default_rng(5).normal(size=(4, 4, 3))
    labels = np.zeros((4, 4), int)
    loss, grad = discriminative_loss(emb, labels, CFG)
    assert loss == 0.0
    assert np.all(grad == 0.0)
    labels[1, 1] = 1
    labels[2, 3] = 2
    loss, grad = discriminative_loss(emb, labels, CFG)
    assert loss > 0.0
    assert np.all(grad[labels == 0] == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_disc_translation_and_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(12, 3)) * 2
    ids = rng.integers(1, 4, size=12)
    base, _ = _discriminative_flat(v, ids, CFG)
    shift = rng.normal(size=3) * 5
    shifted, _ = _discriminative_flat(v + shift, ids, CFG)
    assert shifted == pytest.approx(base, abs=1e-9)
    # a random rotation (QR-orthogonalized) preserves all norms
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated, _ = _discriminative_flat(v @ q.T, ids, CFG)
    assert rotated == pytest.approx(base, abs=1e-9)


def _reference_discriminative(vectors, ids, cfg: LossConfig):
    """The loss as loops over clusters and cluster pairs; returns (loss, grad)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    grad = np.zeros_like(vectors)
    unique = np.unique(ids)
    c = len(unique)
    members = [np.flatnonzero(ids == uid) for uid in unique]
    means = np.stack([vectors[idx].mean(axis=0) for idx in members])

    l_var = 0.0
    for k, idx in enumerate(members):
        diff = vectors[idx] - means[k]
        dist = np.linalg.norm(diff, axis=1)
        hinge = np.maximum(dist - cfg.delta_v, 0.0)
        l_var += float((hinge * hinge).mean())
        unit = np.zeros_like(diff)
        nz = dist > 0
        unit[nz] = diff[nz] / dist[nz, None]
        a = 2.0 * hinge[:, None] * unit
        grad[idx] += (cfg.w_var / (c * len(idx))) * (a - a.mean(axis=0))
    l_var /= c

    l_dist = 0.0
    norm = c * (c - 1)
    for ka in range(c):
        for kb in range(ka + 1, c):
            delta = means[ka] - means[kb]
            d = float(np.linalg.norm(delta))
            hinge = max(cfg.delta_d - d, 0.0)
            if hinge == 0.0:
                continue
            l_dist += 2.0 * hinge * hinge / norm
            if d > 0:
                g_mean = (-4.0 * hinge / norm) * (delta / d)
                grad[members[ka]] += cfg.w_dist * g_mean / len(members[ka])
                grad[members[kb]] -= cfg.w_dist * g_mean / len(members[kb])
    return cfg.w_var * l_var + cfg.w_dist * l_dist, grad


@st.composite
def _clustered_vectors(draw):
    """1-60 vectors in 1-6 instances with non-contiguous ids, some of them
    single-pixel; cluster spreads from coincident vectors to well apart."""
    n_inst = draw(st.integers(1, 6))
    id_values = draw(st.lists(st.integers(1, 40), min_size=n_inst, max_size=n_inst,
                              unique=True))
    singles = draw(st.integers(0, n_inst))
    n = n_inst if singles == n_inst else draw(st.integers(n_inst, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.array(id_values + list(rng.choice(id_values[singles:], size=n - n_inst)))
    rng.shuffle(ids)
    centers = rng.normal(size=(41, 3)) * draw(st.sampled_from([0.5, 2.0, 5.0]))
    vectors = centers[ids] + rng.normal(size=(n, 3)) * draw(st.sampled_from([0.0, 0.2, 1.0]))
    return vectors, ids


@settings(max_examples=300, deadline=None)
@given(_clustered_vectors())
def test_disc_matches_loop_reference(case):
    vectors, ids = case
    unique = np.unique(ids)
    means = np.stack([vectors[ids == u].mean(axis=0) for u in unique])
    gaps = np.linalg.norm(means[:, None] - means[None], axis=2)
    # within ~1e-6 the push direction is rounding noise in either version
    assume(len(unique) < 2 or gaps[~np.eye(len(unique), dtype=bool)].min() > 1e-6)
    loss, grad = _discriminative_flat(vectors, ids, CFG)
    want_loss, want_grad = _reference_discriminative(vectors, ids, CFG)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)


def test_disc_coincident_means_push_loss_without_direction():
    # both means at (1, 0, 0): the push hinge is delta_d on both ordered pairs
    v = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
    with np.errstate(divide="raise", invalid="raise"):
        loss, grad = _discriminative_flat(v, np.array([1, 1, 2]), CFG)
    # pull 0.25 / C over 2 clusters, push 2 * 3^2 / (C (C - 1))
    assert loss == pytest.approx(0.125 + 9.0, abs=1e-12)
    pull_only = np.array([[-0.25, 0, 0], [0.25, 0, 0], [0.0, 0, 0]])
    np.testing.assert_allclose(grad, pull_only, rtol=0, atol=1e-15)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(delta_v=0.0)
    with pytest.raises(ValueError):
        LossConfig(delta_v=1.0, delta_d=1.5)  # not separable
    with pytest.raises(ValueError):
        LossConfig(w_dice=-0.1)


# --- gradients ----------------------------------------------------------


def test_disc_gradient_matches_finite_differences():
    assert gc.check_discriminative(0) <= 1e-4


def test_total_gradient_matches_finite_differences_every_parameter():
    params, image, labels = gc.make_fixture(0)
    assert gc.check_total(params, image, labels) <= 1e-4


def test_total_loss_weight_zeroing():
    # with w_dice 0 the total equals the discriminative part alone
    params, image, labels = gc.make_fixture(2)
    cfg = LossConfig(w_dice=0.0)
    loss, _, parts = total_loss_and_grad(params, image, labels, cfg)
    assert loss == pytest.approx(parts["disc"])
    _, emb, _ = forward_full(params, image)
    disc_direct, _ = discriminative_loss(emb, labels, cfg)
    assert parts["disc"] == pytest.approx(disc_direct)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_total_loss_equals_total_loss_and_grad(seed):
    params, image, labels = gc.make_fixture(seed)
    cfg = LossConfig()
    loss, parts = total_loss(params, image, labels, cfg)
    loss_g, _, parts_g = total_loss_and_grad(params, image, labels, cfg)
    assert loss == loss_g
    assert parts == parts_g


@pytest.mark.parametrize("which", ["labels", "columns"])
def test_total_loss_shape_checks_match(which):
    # "labels" is a row short, "columns" a column short
    params, image, labels = gc.make_fixture(0)
    bad = labels[:-1] if which == "labels" else labels[:, :-1]
    with pytest.raises(ValueError, match="instance_labels"):
        total_loss(params, image, bad, LossConfig())
    with pytest.raises(ValueError, match="instance_labels"):
        total_loss_and_grad(params, image, bad, LossConfig())


def test_total_loss_decreases_under_optimization():
    from strandseg.optim import OptimConfig, adamw_step, init_adam_state
    params, image, labels = gc.make_fixture(3)
    cfg = LossConfig()
    opt = OptimConfig(learning_rate=3e-3)
    state = init_adam_state(params)
    first, grads, _ = total_loss_and_grad(params, image, labels, cfg)
    for _ in range(50):
        loss, grads, _ = total_loss_and_grad(params, image, labels, cfg)
        params, state = adamw_step(params, grads, state, opt)
    final, _, _ = total_loss_and_grad(params, image, labels, cfg)
    assert final < first
