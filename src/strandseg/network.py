"""Small two-branch embedding network with hand-derived backpropagation.

Architecture: a 3-layer, 16-channel convolutional trunk (3x3 kernels, tanh,
one stride-2 stage) feeding two 1x1 heads — a segmentation head squashed
through a logistic, and a linear 3-d embedding head. Outputs live at half
the input resolution; inference upsamples them back. Each convolution is one
matmul of its window matrix with the kernel reshaped to (9C, O).

Losses: Dice on the segmentation probabilities, and a two-term
discriminative loss on the embeddings. The variance term pulls each
embedding toward its instance's mean once it strays more than delta_v; the
distance term pushes instance means apart until they are delta_d apart:

    L_var  = (1/C) sum_c (1/N_c) sum_i [ ||mu_c - x_i|| - delta_v ]+^2
    L_dist = (1/(C(C-1))) sum_{cA != cB} [ delta_d - ||mu_cA - mu_cB|| ]+^2

with [x]+ = max(x, 0), C the number of instances present, and the distance
sum running over ordered pairs. Gradients are exact, including the paths
through the cluster means. Both terms are computed from `cluster_stats`,
which gradcheck's hinge-margin screen also reads.

The training objective is w_dice * Dice + w_disc * discriminative, written
once: `total_loss` gives its value and its parts, and `total_loss_and_grad`
is the same computation followed by `backward`. Training validation and the
finite-difference check call `total_loss`, so they run no backward pass and
compute no parameter gradients.

Everything is float64 numpy; parameters are a plain dict of arrays.
Outputs are bit-identical across reruns on one machine, numpy build and BLAS
kernel; across BLAS kernels they agree only to rounding (about 1e-16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TRUNK_CHANNELS = 16
EMB_DIM = 3
DICE_EPS = 1.0

# The trunk's 3x3 convolutions in order, each followed by tanh, as
# (name, stride). `forward_full` runs them first to last and `backward` last
# to first; this is the one place a stride is written.
TRUNK = (("conv1", 1), ("conv2", 2), ("conv3", 1))


def param_shapes() -> dict:
    return {
        "conv1_w": (3, 3, 1, TRUNK_CHANNELS),
        "conv1_b": (TRUNK_CHANNELS,),
        "conv2_w": (3, 3, TRUNK_CHANNELS, TRUNK_CHANNELS),
        "conv2_b": (TRUNK_CHANNELS,),
        "conv3_w": (3, 3, TRUNK_CHANNELS, TRUNK_CHANNELS),
        "conv3_b": (TRUNK_CHANNELS,),
        "seg_w": (TRUNK_CHANNELS, 1),
        "seg_b": (1,),
        "emb_w": (TRUNK_CHANNELS, EMB_DIM),
        "emb_b": (EMB_DIM,),
    }


# Each weight followed by its bias, in the order checkpoints store them.
PARAM_ORDER = tuple(param_shapes())


def init_params(seed: int) -> dict:
    """Seeded uniform fan-in initialization: U(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    biases drawn with the bound of their weight tensor."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes()
    params = {}
    for w_name, b_name in zip(PARAM_ORDER[::2], PARAM_ORDER[1::2]):
        bound = 1.0 / np.sqrt(int(np.prod(shapes[w_name][:-1])))
        params[w_name] = rng.uniform(-bound, bound, size=shapes[w_name])
        params[b_name] = rng.uniform(-bound, bound, size=shapes[b_name])
    return params


def validate_params(params: dict):
    for name, shape in param_shapes().items():
        if name not in params:
            raise ValueError(f"missing parameter {name!r}")
        got = np.asarray(params[name]).shape
        if got != shape:
            raise ValueError(f"parameter {name!r} has shape {got}, expected {shape}")
        if not np.isfinite(params[name]).all():
            raise ValueError(f"parameter {name!r} contains non-finite values")


def _conv_windows(x, stride):
    """(H_out*W_out, 9*C) window matrix of a zero-padded 3x3 convolution,
    columns in (i, j, c) order to match `w.reshape(9*C, O)`."""
    h, w, c = x.shape
    padded = np.zeros((h + 2, w + 2, c), dtype=x.dtype)
    padded[1:-1, 1:-1] = x
    win = sliding_window_view(padded, (3, 3), axis=(0, 1))[::stride, ::stride]
    return win.transpose(0, 1, 3, 4, 2).reshape(-1, 9 * c)


def _conv_forward(x, w, b, stride):
    out = _conv_windows(x, stride) @ w.reshape(-1, w.shape[3]) + b
    return out.reshape(-(-x.shape[0] // stride), -1, w.shape[3])


def _conv_param_grads(x, w, stride, g_out):
    """Kernel and bias gradients of a padded 3x3 convolution; returns (g_w, g_b)."""
    g = g_out.reshape(-1, g_out.shape[2])
    return (_conv_windows(x, stride).T @ g).reshape(w.shape), g_out.sum(axis=(0, 1))


def _conv_input_grad(x, w, stride, g_out):
    """Gradient of a padded 3x3 convolution with respect to its input x."""
    h_out, w_out, o = g_out.shape
    g_cols = (g_out.reshape(-1, o) @ w.reshape(-1, o).T).reshape(h_out, w_out, 3, 3, x.shape[2])
    gpad = np.zeros((x.shape[0] + 2, x.shape[1] + 2, x.shape[2]))
    for i in range(3):
        for j in range(3):
            gpad[i : i + stride * h_out : stride,
                 j : j + stride * w_out : stride] += g_cols[:, :, i, j]
    return gpad[1:-1, 1:-1, :]


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_image(image):
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"image must be 2-d, got shape {image.shape}")
    h, w = image.shape
    if h < 4 or w < 4 or h % 2 or w % 2:
        raise ValueError(f"image dims must be even and >= 4, got {h}x{w}")
    return image


def forward_full(params: dict, image: np.ndarray):
    """Run the network and keep intermediate activations for backprop.

    Returns (seg_prob, emb, cache) where seg_prob is (H/2, W/2) in (0, 1)
    and emb is (H/2, W/2, 3).
    """
    image = _check_image(image)
    validate_params(params)
    acts = [image[:, :, None]]
    for name, stride in TRUNK:
        acts.append(np.tanh(_conv_forward(acts[-1], params[name + "_w"], params[name + "_b"],
                                          stride)))
    a3 = acts[-1]
    logits = a3 @ params["seg_w"] + params["seg_b"]
    seg_prob = _sigmoid(logits[:, :, 0])
    emb = a3 @ params["emb_w"] + params["emb_b"]
    return seg_prob, emb, {"acts": acts, "seg_prob": seg_prob}


def forward(params: dict, image: np.ndarray):
    """Half-resolution (seg_prob, emb) for an even-dimensioned image."""
    seg_prob, emb, _ = forward_full(params, image)
    return seg_prob, emb


def backward(params: dict, cache: dict, g_seg_prob: np.ndarray, g_emb: np.ndarray) -> dict:
    """Backpropagate head-output gradients to every parameter."""
    acts = cache["acts"]
    a3 = acts[-1]
    seg_prob = cache["seg_prob"]
    # Through the logistic: dL/dlogit = dL/dp * p * (1 - p).
    g_logits = (g_seg_prob * seg_prob * (1.0 - seg_prob))[:, :, None]
    a3_t = a3.reshape(-1, a3.shape[2]).T
    grads = {
        "seg_w": a3_t @ g_logits.reshape(-1, 1),
        "seg_b": g_logits.sum(axis=(0, 1)),
        "emb_w": a3_t @ g_emb.reshape(-1, g_emb.shape[2]),
        "emb_b": g_emb.sum(axis=(0, 1)),
    }
    g_a = g_logits @ params["seg_w"].T + g_emb @ params["emb_w"].T
    for k in reversed(range(len(TRUNK))):
        (name, stride), x, a = TRUNK[k], acts[k], acts[k + 1]
        w = params[name + "_w"]
        g_z = g_a * (1.0 - a * a)
        # g_w before g_x: with g_x formed first, the pair took twice as long at 64 px.
        grads[name + "_w"], grads[name + "_b"] = _conv_param_grads(x, w, stride, g_z)
        # Nothing reads the gradient with respect to the input image.
        if k:
            g_a = _conv_input_grad(x, w, stride, g_z)
    return grads


# ---------------------------------------------------------------------------
# losses


@dataclass(frozen=True)
class LossConfig:
    delta_v: float = 0.5
    delta_d: float = 3.0
    w_var: float = 1.0
    w_dist: float = 1.0
    w_dice: float = 0.3
    w_disc: float = 1.0

    def __post_init__(self):
        if not self.delta_v > 0:
            raise ValueError("delta_v must be > 0")
        if not self.delta_d > 2 * self.delta_v:
            raise ValueError("delta_d must exceed 2*delta_v for separable zero-loss configs")
        for name in ("w_var", "w_dist", "w_dice", "w_disc"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


def _dice_loss_grad(prob, target):
    """Dice loss 1 - (2*sum(p*t) + eps) / (sum(p) + sum(t) + eps) with
    eps = DICE_EPS, which rescues empty/empty; returns (loss, d loss / d prob)."""
    prob = np.asarray(prob, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prob.shape != target.shape:
        raise ValueError(f"prob {prob.shape} and target {target.shape} shapes differ")
    num = 2.0 * float((prob * target).sum()) + DICE_EPS
    den = float(prob.sum()) + float(target.sum()) + DICE_EPS
    loss = 1.0 - num / den
    grad = (num - 2.0 * target * den) / (den * den)
    return loss, grad


def discriminative_loss(emb: np.ndarray, labels: np.ndarray, cfg: LossConfig):
    """Pull-push loss over an embedding field and integer instance labels.

    `labels` holds 0 for background and k>0 for instance k; shape must match
    emb's leading dims. Returns (loss, gradient field), the gradient being
    exact — the paths through every cluster mean are differentiated, not
    treated as constants. No foreground at all is a documented degenerate
    case: loss 0 with a zero gradient.
    """
    emb = np.asarray(emb, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != emb.shape[:-1]:
        raise ValueError(f"labels {labels.shape} must match emb leading dims {emb.shape[:-1]}")
    fg = labels > 0
    grad_field = np.zeros_like(emb)
    loss, grad = _discriminative_flat(emb[fg], labels[fg], cfg)
    grad_field[fg] = grad
    return loss, grad_field


class ClusterStats(NamedTuple):
    """N embedding vectors in C clusters, one per distinct id in sorted order."""

    inverse: np.ndarray    # (N,) cluster index of each vector
    member: np.ndarray     # (C, N) one-hot membership
    sizes: np.ndarray      # (C,) vectors per cluster
    offsets: np.ndarray    # (N, D) each vector minus its cluster mean
    dist: np.ndarray       # (N,) norms of offsets
    gaps: np.ndarray       # (C, C, D) mean[a] - mean[b]
    mean_dist: np.ndarray  # (C, C) norms of gaps; the diagonal is exactly 0


def cluster_stats(vectors, ids) -> ClusterStats:
    """The cluster means' offsets and gaps that the discriminative loss's
    hinges read, for (N, D) vectors with per-vector instance ids."""
    vectors = np.asarray(vectors, dtype=np.float64)
    unique, inverse = np.unique(ids, return_inverse=True)
    member = (np.arange(len(unique))[:, None] == inverse).astype(np.float64)
    sizes = member.sum(axis=1)
    means = member @ vectors / sizes[:, None]
    offsets = vectors - means[inverse]
    gaps = means[:, None, :] - means[None, :, :]
    return ClusterStats(inverse, member, sizes, offsets, np.linalg.norm(offsets, axis=1),
                        gaps, np.linalg.norm(gaps, axis=2))


def _discriminative_flat(vectors, ids, cfg: LossConfig):
    """(N, D) embedding vectors with per-vector instance ids; returns
    (loss, (N, D) gradient); no vectors give loss 0."""
    s = cluster_stats(vectors, ids)
    c = len(s.sizes)

    # Variance (pull) term. hinge > 0 only where dist > delta_v, so flooring
    # the divisor at delta_v changes no used value and avoids 0/0.
    hinge = np.maximum(s.dist - cfg.delta_v, 0.0)
    share = 1.0 / (c * s.sizes[s.inverse])
    l_var = float(share @ (hinge * hinge))
    a = (2.0 * hinge / np.maximum(s.dist, cfg.delta_v))[:, None] * s.offsets
    # d/dx_i of mean_j hinge_j^2 picks up a term from every x_j via mu_c
    grad = cfg.w_var * share[:, None] * (a - (s.member @ a / s.sizes[:, None])[s.inverse])

    # Distance (push) term over ordered pairs of cluster means. Coincident
    # means add loss but have no direction to push along.
    l_dist = 0.0
    if c >= 2:
        norm = c * (c - 1)
        hinge_d = np.where(np.eye(c, dtype=bool), 0.0, np.maximum(cfg.delta_d - s.mean_dist, 0.0))
        l_dist = float((hinge_d * hinge_d).sum()) / norm
        coef = np.divide(-4.0 * hinge_d, norm * s.mean_dist,
                         out=np.zeros_like(hinge_d), where=s.mean_dist > 0)
        g_means = (coef[:, :, None] * s.gaps).sum(axis=1) / s.sizes[:, None]
        grad += cfg.w_dist * g_means[s.inverse]

    return cfg.w_var * l_var + cfg.w_dist * l_dist, grad


def _objective(params, image, instance_labels, cfg: LossConfig):
    """Forward pass and weighted loss; returns (loss, parts, cache, d_dice, d_disc)."""
    seg_prob, emb, cache = forward_full(params, image)
    instance_labels = np.asarray(instance_labels)
    if instance_labels.shape != seg_prob.shape:
        raise ValueError(f"instance_labels {instance_labels.shape} must be {seg_prob.shape}")

    dice, d_dice = _dice_loss_grad(seg_prob, (instance_labels > 0).astype(np.float64))
    disc, d_disc = discriminative_loss(emb, instance_labels, cfg)
    loss = cfg.w_dice * dice + cfg.w_disc * disc
    return loss, {"dice": dice, "disc": disc}, cache, d_dice, d_disc


def total_loss(params: dict, image: np.ndarray, instance_labels: np.ndarray,
               cfg: LossConfig):
    """The training objective's value, without the backward pass.

    instance_labels (0 = background) live at head resolution, i.e. half the
    image dims; the Dice target is their foreground, instance_labels > 0.
    Returns (loss, parts) with parts = {"dice": ..., "disc": ...} for logging.
    """
    loss, parts, *_ = _objective(params, image, instance_labels, cfg)
    return loss, parts


def total_loss_and_grad(params: dict, image: np.ndarray, instance_labels: np.ndarray,
                        cfg: LossConfig):
    """`total_loss` plus its exact parameter gradients.

    Returns (loss, grads, parts); loss and parts equal `total_loss`'s.
    """
    loss, parts, cache, d_dice, d_disc = _objective(params, image, instance_labels, cfg)
    grads = backward(params, cache, cfg.w_dice * d_dice, cfg.w_disc * d_disc)
    return loss, grads, parts
