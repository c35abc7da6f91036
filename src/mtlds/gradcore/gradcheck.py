"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

import numpy as np

from .tensor import OPS, GradcoreError, Graph, ShapeMismatchError, Tensor, as_matrix

STEP = 1e-5


class NondeterministicFunctionError(GradcoreError):
    """Two forward evaluations of the checked function disagreed."""


def _eval(f: Callable[[Tensor], Tensor], x: np.ndarray) -> tuple[Graph, Tensor, Tensor]:
    g = Graph()
    xt = g.tensor(x)
    out = f(xt)
    if out.shape != (1, 1):
        raise ShapeMismatchError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
    return g, xt, out


def grad_check(f: Callable[[Tensor], Tensor], x) -> float:
    """Compare the analytic gradient of ``f`` at ``x`` against central
    differences with step ``STEP``.

    ``f`` receives a fresh leaf tensor and must build a scalar loss on that
    tensor's graph.  Returns the maximum over entries of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    """
    x0 = as_matrix(x)
    g, xt, out = _eval(f, x0)
    first = out.item()
    if _eval(f, x0)[2].item() != first:
        raise NondeterministicFunctionError("f produced different values on two forward passes")
    analytic = g.backward(out).get(xt.node_id)
    if analytic is None:
        analytic = np.zeros_like(x0)

    numeric = np.zeros_like(x0)
    for i, j in np.ndindex(x0.shape):
        xp = x0.copy()
        xp[i, j] += STEP
        xm = x0.copy()
        xm[i, j] -= STEP
        numeric[i, j] = (_eval(f, xp)[2].item() - _eval(f, xm)[2].item()) / (2.0 * STEP)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


@contextmanager
def corrupted_vjp(op_tag: str, factor: float = 1.05):
    """Test hook: scale one op's backward rule so gradient checks must fail.

    Used as a negative control to prove the check suite detects wrong
    gradients.  Never use outside tests.
    """
    opdef = OPS[op_tag]
    original = opdef.vjp

    def bad_vjp(g, xs, out, attrs):
        return [None if p is None else p * factor for p in original(g, xs, out, attrs)]

    opdef.vjp = bad_vjp
    try:
        yield
    finally:
        opdef.vjp = original
