"""AdamW with decoupled weight decay, operating on dicts of numpy arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass(frozen=True)
class OptimConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 0.001
    batch_size: int = 8
    epochs: int = 60
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be >= 0")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be >= 1")
        if not self.epochs >= 0:
            raise ValueError("epochs must be >= 0")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")


def init_adam_state(params: dict) -> dict:
    return {
        "step": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adamw_step(params: dict, grads: dict, state: dict, cfg: OptimConfig):
    """One update; returns (new_params, new_state), inputs untouched.

    Weight decay is decoupled from the adaptive step: parameters first
    shrink by (1 - lr*wd), then move against the bias-corrected moment
    ratio. Raises DivergenceError on any non-finite gradient.
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient in {name!r}")
    t = state["step"] + 1
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    new_params, new_m, new_v = {}, {}, {}
    for name, theta in params.items():
        g = grads[name]
        m = cfg.beta1 * state["m"][name] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * state["v"][name] + (1.0 - cfg.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        new_params[name] = theta * (1.0 - cfg.learning_rate * cfg.weight_decay) \
            - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, {"step": t, "m": new_m, "v": new_v}
