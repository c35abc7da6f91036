"""Adam optimizer over named parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeMismatchError

BETAS = (0.9, 0.999)
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates, keyed as the parameters, plus the shared timestep."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(m={n: np.zeros_like(p) for n, p in params.items()},
                   v={n: np.zeros_like(p) for n, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update with moment decays ``BETAS`` and denominator
    offset ``EPS``: new arrays under the names of ``params``, in its order.  It
    advances ``state`` in place and writes no array it is given.  Grads and
    moments must have the names and shapes of the params."""
    shapes = [{n: a.shape for n, a in d.items()} for d in (params, grads, state.m)]
    if not shapes[0] == shapes[1] == shapes[2]:
        raise ShapeMismatchError(f"adam_step: param, grad and moment shapes differ: {shapes}")

    b1, b2 = BETAS
    state.step += 1
    t = state.step
    out = {}
    for n, p in params.items():
        g = grads[n]
        state.m[n] = b1 * state.m[n] + (1.0 - b1) * g
        state.v[n] = b2 * state.v[n] + (1.0 - b2) * (g * g)
        m_hat = state.m[n] / (1.0 - b1 ** t)
        v_hat = state.v[n] / (1.0 - b2 ** t)
        out[n] = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return out
