"""Central finite-difference verification of the analytic gradients.

Central differences approximate well only where the objective is smooth, so
fixtures are rejection-sampled until every hinge argument in the
discriminative loss sits a safe margin away from its kink (the hinge-squared
is C1 but its curvature jump still pollutes the FD estimate within a step of
the boundary). The screen reads the loss's own hinge arguments from
`network.cluster_stats`, so it cannot drift from what the loss computes.
Relative error uses the customary floored denominator |a - n| /
max(1, |a|, |n|) so near-zero gradient entries are compared absolutely.
"""

from __future__ import annotations

import numpy as np

from .network import (LossConfig, PARAM_ORDER, cluster_stats, discriminative_loss,
                      forward_full, init_params, total_loss, total_loss_and_grad)

DEFAULT_STEP = 1e-3
DEFAULT_TOL = 1e-4


def rel_err(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float((np.abs(a - n) / denom).max())


def _hinge_margins_ok(vectors, ids, cfg: LossConfig, margin: float) -> bool:
    """True when no hinge argument is within `margin` of its boundary and no
    two cluster means are within `margin` of each other."""
    s = cluster_stats(vectors, ids)
    pair_dist = s.mean_dist[~np.eye(len(s.sizes), dtype=bool)]
    near = np.concatenate([s.dist - cfg.delta_v, pair_dist - cfg.delta_d, pair_dist])
    return not (np.abs(near) < margin).any()


def make_fixture(seed: int):
    """Random 16x16 (params, image, labels) with all loss hinges margin-clear.

    Labels live at head resolution with 2-3 instances plus background; the
    seed walks forward until the network's own embeddings on the fixture
    keep every hinge argument at least 5 steps away from its kink.
    """
    attempt_seed = seed
    while True:
        rng = np.random.default_rng(attempt_seed)
        n_inst = int(rng.integers(2, 4))
        labels = rng.integers(0, n_inst + 1, size=(8, 8))
        params = init_params(attempt_seed)
        image = rng.random((16, 16))
        present = np.unique(labels[labels > 0])
        if len(present) == n_inst:
            _, emb, _ = forward_full(params, image)
            fg = labels > 0
            if _hinge_margins_ok(emb[fg], labels[fg], LossConfig(), 5 * DEFAULT_STEP):
                return params, image, labels
        attempt_seed += 1000003


def _worst_fd_error(loss, theta, analytic, entries) -> float:
    """Worst rel_err of `analytic` against central differences of `loss()`
    over the listed flat entries of `theta`, each moved by +-DEFAULT_STEP in
    place and then restored."""
    flat = theta.reshape(-1)
    g_flat = analytic.reshape(-1)
    worst = 0.0
    for i in entries:
        orig = flat[i]
        flat[i] = orig + DEFAULT_STEP
        hi = loss()
        flat[i] = orig - DEFAULT_STEP
        lo = loss()
        flat[i] = orig
        worst = max(worst, rel_err(g_flat[i], (hi - lo) / (2 * DEFAULT_STEP)))
    return worst


def check_discriminative(seed: int) -> float:
    """Max relative FD error of the discriminative loss over a random field
    of 40 embedding vectors in 3 dimensions; returns the worst entry."""
    n_points, dim, cfg = 40, 3, LossConfig()
    attempt_seed = seed
    while True:
        rng = np.random.default_rng(attempt_seed)
        n_inst = int(rng.integers(2, 4))
        vectors = rng.normal(0.0, 1.2, size=(n_points, dim))
        ids = rng.integers(1, n_inst + 1, size=n_points)
        if len(np.unique(ids)) == n_inst and _hinge_margins_ok(
                vectors, ids, cfg, 5 * DEFAULT_STEP):
            break
        attempt_seed += 1000003

    # exercise the field-shaped public entry point; the vectors fill the
    # field's first n_points pixels, so its first n_points * dim entries
    side = int(np.ceil(np.sqrt(n_points)))
    emb = np.zeros((side, side, dim))
    labels = np.zeros((side, side), dtype=np.int64)
    emb.reshape(-1, dim)[:n_points] = vectors
    labels.reshape(-1)[:n_points] = ids

    _, grad = discriminative_loss(emb, labels, cfg)
    return _worst_fd_error(lambda: discriminative_loss(emb, labels, cfg)[0], emb, grad,
                           range(n_points * dim))


def check_total(params, image, labels) -> float:
    """Max relative FD error of total_loss_and_grad's gradients against
    central differences of total_loss, over every parameter entry."""
    cfg = LossConfig()
    _, grads, _ = total_loss_and_grad(params, image, labels, cfg)
    return max(_worst_fd_error(lambda: total_loss(params, image, labels, cfg)[0],
                               params[name], grads[name], range(params[name].size))
               for name in PARAM_ORDER)


def run_suite(seed: int = 0, fixtures: int = 10, progress=None) -> dict:
    """The full check: `fixtures` random 16x16 fixtures, all parameters.

    Returns {"max_rel_err_disc", "max_rel_err_total", "fixtures", "step",
    "tol", "passed"}. Raises ValueError when `fixtures` < 1, which would check nothing.
    """
    if fixtures < 1:
        raise ValueError("fixtures must be >= 1")
    worst_disc = 0.0
    worst_total = 0.0
    for k in range(fixtures):
        worst_disc = max(worst_disc, check_discriminative(seed + 17 * k))
        params, image, labels = make_fixture(seed + 17 * k + 1)
        worst_total = max(worst_total, check_total(params, image, labels))
        if progress is not None:
            progress(k, worst_disc, worst_total)
    return {
        "fixtures": fixtures,
        "step": DEFAULT_STEP,
        "tol": DEFAULT_TOL,
        "max_rel_err_disc": worst_disc,
        "max_rel_err_total": worst_total,
        "passed": bool(worst_disc <= DEFAULT_TOL and worst_total <= DEFAULT_TOL),
    }
