"""Permutation machinery, the SoftSort relaxation, and ranking losses.

All indices are 0-based.  ``argsort_desc`` defines the canonical descending
order with stable tie-breaking (smaller original index first); everything
else in the package inherits that convention.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .gradcore import Tensor, fn
from .gradcore.tensor import ShapeMismatchError, as_matrix

# Probability clip applied before every logarithm: the permutation
# cross-entropy is undefined at exact 0/1 and soft probabilities underflow.
PROB_EPS = 1e-12


def argsort_desc(s: Sequence[float] | np.ndarray) -> np.ndarray:
    """Descending argsort with stable ties (smaller original index wins):
    the ``np.intp`` array z with z[i] = index ranked i-th."""
    a = np.asarray(s, dtype=np.float64).reshape(-1)
    if a.size == 0:
        raise ValueError("argsort_desc: empty input")
    if not np.all(np.isfinite(a)):
        raise ValueError("argsort_desc: input contains non-finite values")
    return np.argsort(-a, kind="stable")


def perm_matrix(order: Sequence[int] | np.ndarray) -> np.ndarray:
    """One-hot matrix of a permutation: entry [i, j] = 1 iff j = order[i], so
    the identity permutation gives the identity.  ``order`` must be a
    bijection on 0..n-1."""
    z = np.asarray(order)
    n = z.size
    if n == 0:
        raise ValueError("empty permutation")
    if z.ndim != 1 or z.dtype.kind not in "iu" or not np.array_equal(np.sort(z), np.arange(n)):
        raise ValueError(f"not a bijection on 0..{n - 1}: {z.tolist()}")
    m = np.zeros((n, n))
    m[np.arange(n), z] = 1.0
    return m


def soft_sort(s: Tensor, tau: float) -> Tensor:
    """Continuous relaxation of the argsort permutation matrix: an (n, n)
    unimodal row-stochastic tensor on the graph of ``s``.

    Row-wise softmax of the negative scaled Manhattan distances between the
    descending-sorted scores and the raw scores: row i is the softmax of
    -|sorted(s)[i] - s[j]| / tau over j.  The hard sort inside is a gather by
    the argsort permutation, treated as locally constant, so the result is
    differentiable w.r.t. ``s`` almost everywhere.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if s.cols != 1:
        raise ShapeMismatchError(f"soft_sort expects an (n, 1) score tensor, got {s.shape}")
    n = s.rows
    sorted_s = fn.gather_rows(s, argsort_desc(s.value[:, 0]))
    left = fn.broadcast_col(sorted_s, n)   # (i, j) = sorted[i]
    right = fn.broadcast_row(s, n)         # (i, j) = s[j]
    dist = fn.abs_(fn.sub(left, right))
    logits = fn.scale(dist, -1.0 / tau)
    return fn.softmax_rows(logits)


def is_unimodal_row_stochastic(m: Tensor | np.ndarray,
                               tol: float = 1e-6) -> tuple[bool, str | None]:
    """Check the three URS conditions in order; report the first violation.

    Conditions: non-negativity (entries >= -tol), row affinity (row sums
    within tol of 1), argmax permutation (row-wise argmax, first-wins ties,
    is a bijection).
    """
    a = m.value if isinstance(m, Tensor) else as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"URS check needs a square matrix, got {a.shape}")
    if np.any(a < -tol):
        return False, "non-negativity"
    if np.any(np.abs(a.sum(axis=1) - 1.0) > tol):
        return False, "row-affinity"
    argmax = a.argmax(axis=1)
    if len(set(argmax.tolist())) != a.shape[0]:
        return False, "argmax-permutation"
    return True, None


def ndcg_position_weights(n: int) -> np.ndarray:
    """Rank-discount weights w[i] = 1 / log2(i + 2) for 0-based position i,
    strictly decreasing."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return np.array([1.0 / math.log2(i + 2) for i in range(n)])


def sort_loss(p_hat: Tensor, p: np.ndarray) -> Tensor:
    """Position-weighted cross-entropy between a URS matrix and a hard permutation.

    -sum_i w[i] * sum_j [P[i,j] log P_hat[i,j] + (1 - P[i,j]) log(1 - P_hat[i,j])],
    with w = ``ndcg_position_weights(n)`` and P_hat clipped to
    [1e-12, 1 - 1e-12] before the logs.
    """
    n = p_hat.rows
    if p_hat.shape != (n, n) or p.shape != (n, n):
        raise ShapeMismatchError(f"sort_loss: sizes differ (P_hat {p_hat.shape}, P {p.shape})")
    g = p_hat.graph
    p_const = g.constant(p)
    p_comp = g.constant(1.0 - p)
    w_col = g.constant(ndcg_position_weights(n).reshape(-1, 1))

    clipped = fn.clip(p_hat, PROB_EPS, 1.0 - PROB_EPS)
    comp = fn.clip(fn.sub(g.constant(np.ones((n, n))), p_hat), PROB_EPS, 1.0)
    per_entry = fn.add(
        fn.mul_elem(p_const, fn.log(clipped)),
        fn.mul_elem(p_comp, fn.log(comp)),
    )
    weighted = fn.mul_elem(fn.broadcast_col(w_col, n), per_entry)
    return fn.neg(fn.sum_all(weighted))


def bce_loss(p: Tensor, y: Sequence[float] | np.ndarray,
             spans: Sequence[tuple[int, int]] | None = None) -> Tensor:
    """Binary cross-entropy of probabilities ``p`` against binary labels: the
    mean within each impression span ``(start, stop)``, then the mean over
    spans (the whole list is one span by default)."""
    yv = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if p.cols != 1 or p.rows != yv.shape[0]:
        raise ShapeMismatchError(f"bce_loss: probabilities {p.shape} vs {yv.shape[0]} labels")
    spans = [(0, p.rows)] if spans is None else spans
    weights = np.empty((p.rows, 1))
    for a, b in spans:
        weights[a:b] = 1.0 / ((b - a) * len(spans))
    g = p.graph
    y_const = g.constant(yv)
    pos = fn.mul_elem(y_const, fn.log(fn.clip(p, PROB_EPS, 1.0)))
    neg_p = fn.clip(fn.sub(g.constant(np.ones((p.rows, 1))), p), PROB_EPS, 1.0)
    neg = fn.mul_elem(g.constant(1.0 - yv), fn.log(neg_p))
    return fn.neg(fn.sum_all(fn.mul_elem(g.constant(weights), fn.add(pos, neg))))


def ranknet_loss(s: Tensor, y: Sequence[float] | np.ndarray,
                 spans: Sequence[tuple[int, int]] | None = None) -> Tensor:
    """Pairwise logistic loss log(1 + exp(-(s_i - s_j))) over the pairs
    y_i > y_j inside each impression span: the mean within a span, then the
    mean over spans (the whole list is one span by default).

    Computed as -log(sigmoid(s_i - s_j)) with one weight per pair, so the term
    costs a fixed number of graph nodes whatever the list sizes.  A span
    without ordered pairs adds 0; a constant 0 is returned when no span has
    one.
    """
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    if s.cols != 1 or s.rows != yv.size:
        raise ShapeMismatchError(f"ranknet_loss: scores {s.shape} vs {yv.size} labels")
    spans = [(0, s.rows)] if spans is None else spans
    hi, lo, weights = [], [], []
    for a, b in spans:
        i, j = np.nonzero(yv[a:b, None] > yv[None, a:b])
        if i.size:
            hi.append(i + a)
            lo.append(j + a)
            weights.append(np.full(i.size, 1.0 / (i.size * len(spans))))
    g = s.graph
    if not hi:
        return g.constant(0.0)
    p = fn.sigmoid(fn.sub(fn.gather_rows(s, np.concatenate(hi)),
                          fn.gather_rows(s, np.concatenate(lo))))
    losses = fn.neg(fn.log(fn.clip(p, PROB_EPS, 1.0)))
    return fn.sum_all(fn.mul_elem(g.constant(np.concatenate(weights).reshape(-1, 1)), losses))


def listnet_loss(s: Tensor, y: Sequence[float] | np.ndarray) -> Tensor:
    """Top-1 listwise loss: cross-entropy between softmax(y) and softmax(s)."""
    if s.cols != 1:
        raise ShapeMismatchError(f"listnet_loss expects an (n, 1) score tensor, got {s.shape}")
    yv = np.asarray(y, dtype=np.float64).reshape(1, -1)
    if yv.shape[1] != s.rows:
        raise ShapeMismatchError(f"listnet_loss: {s.rows} scores vs {yv.shape[1]} labels")
    g = s.graph
    shifted = np.exp(yv - yv.max())
    target = g.constant(shifted / shifted.sum())
    s_row = fn.broadcast_row(s, 1)
    q = fn.softmax_rows(s_row)
    return fn.neg(fn.sum_all(fn.mul_elem(target, fn.log(fn.clip(q, PROB_EPS, 1.0)))))
