"""Adam optimizer over lists of parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeMismatchError

BETAS = (0.9, 0.999)
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the shared timestep."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
) -> list[np.ndarray]:
    """One bias-corrected Adam update with moment decays ``BETAS`` and
    denominator offset ``EPS``; returns new parameter arrays.

    ``state`` is advanced in place.  Params and grads must align in count and
    shape.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatchError(
            f"adam_step: {len(params)} params, {len(grads)} grads, {len(state.m)} moments")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatchError(f"adam_step: param shape {p.shape} vs grad shape {g.shape}")

    b1, b2 = BETAS
    state.step += 1
    t = state.step
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / (1.0 - b1 ** t)
        v_hat = state.v[i] / (1.0 - b2 ** t)
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + EPS))
    return out
