"""Permutation machinery, the SoftSort relaxation, and ranking losses.

All indices are 0-based.  ``argsort_desc`` defines the canonical descending
order with stable tie-breaking (smaller original index first); everything
else in the package inherits that convention.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Sequence

import numpy as np

from .gradcore import Tensor, fn
from .gradcore.tensor import Layout, ShapeMismatchError, as_matrix, length_blocks


def argsort_desc(s: Sequence[float] | np.ndarray) -> np.ndarray:
    """Descending argsort with stable ties (smaller original index wins):
    the ``np.intp`` array z with z[i] = index ranked i-th.  A 2-D input is
    sorted along its last axis, one row at a time; any other is flattened."""
    a = np.asarray(s, dtype=np.float64)
    if a.ndim != 2:
        a = a.reshape(-1)
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


def finite_real(x) -> bool:
    """The rule of every real-valued config field: a finite real number, not a bool."""
    return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)


def finite_vector(values, what: str) -> np.ndarray:
    """The rule of loss targets and metric scores: ``values`` as a flat
    float64 vector, or a ValueError naming ``what`` and the first non-finite
    value."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"{what} must be finite, got {v[bad[0]]} at position {bad[0]}")
    return v


def check_tau(tau: float) -> None:
    """The SoftSort temperature rule: ``tau`` is a finite positive number."""
    if not (finite_real(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau}")


def soft_sort(s: Tensor, tau: float) -> Tensor:
    """Continuous relaxation of the argsort permutation matrix: an (n, n)
    unimodal row-stochastic tensor on the graph of ``s``.

    Row-wise softmax of the negative scaled Manhattan distances between the
    descending-sorted scores and the raw scores: row i is the softmax of
    -|sorted(s)[i] - s[j]| / tau over j.  The hard sort inside is a gather by
    the argsort permutation, treated as locally constant, so the result is
    differentiable w.r.t. ``s`` almost everywhere.  Two tape nodes: the fused
    ``softsort_logits`` and ``softmax_rows``.
    """
    check_tau(tau)
    if s.cols != 1:
        raise ShapeMismatchError(f"soft_sort expects an (n, 1) score tensor, got {s.shape}")
    return fn.softmax_rows(fn.softsort_logits(s, argsort_desc(s.value[:, 0]), tau))


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
    strictly decreasing: the NDCG discount of the sort loss and of
    ``evaluate_ranking``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1.0 / np.log2(np.arange(2, n + 2))


def sort_loss(p_hats: Sequence[Tensor], perms: Sequence[np.ndarray],
              layout: Layout | None = None) -> Tensor:
    """Position-weighted cross-entropy between URS matrices and hard permutations,
    one pair per list of ``layout`` (by default their sizes), averaged over the lists.

    Each list contributes
    -sum_i w[i] * sum_j [P[i,j] log P_hat[i,j] + (1 - P[i,j]) log(1 - P_hat[i,j])],
    with w = ``ndcg_position_weights(n)`` and P_hat clipped to
    [1e-12, 1 - 1e-12] before the logs.  One ``perm_xent`` tape node.
    """
    if len(p_hats) != len(perms) or not p_hats:
        raise ValueError(f"sort_loss: {len(p_hats)} P_hat matrices for {len(perms)} permutations")
    for p_hat, p in zip(p_hats, perms):
        if p_hat.rows != p_hat.cols or p.shape != p_hat.shape:
            raise ShapeMismatchError(f"sort_loss: sizes differ (P_hat {p_hat.shape}, P {p.shape})")
    sizes = [p_hat.rows for p_hat in p_hats]
    layout = check_lengths(sizes if layout is None else layout, sum(sizes), "sort_loss")
    return fn.perm_xent(p_hats, perms, ndcg_position_weights(max(sizes)), layout)


def check_lengths(lengths: Sequence[int] | np.ndarray | Layout | None, rows: int,
                  loss: str) -> Layout:
    """The ``Layout`` of impressions of ``lengths`` rows each (the whole
    column when ``lengths`` is None) in a column of ``rows`` scores: the one
    grouping by length.  A ``Layout`` comes back as it is.

    Raises ShapeMismatchError naming ``loss`` unless the lengths are a 1-D
    array of positive integers that sum to ``rows``.
    """
    given = lengths.lengths if isinstance(lengths, Layout) else lengths
    a = np.asarray([rows] if given is None else given)
    if a.ndim != 1 or a.dtype.kind not in "iu" or np.any(a < 1) or a.sum() != rows:
        raise ShapeMismatchError(f"{loss}: impression lengths {a.tolist()} are not positive "
                                 f"integers summing to the column's {rows} rows")
    if isinstance(lengths, Layout):
        return lengths
    return Layout(a.astype(np.intp), tuple(length_blocks(a)))


def column_inputs(col: Tensor, target: Sequence[float] | np.ndarray,
                  lengths: Sequence[int] | np.ndarray | Layout | None,
                  loss: str) -> tuple[np.ndarray, Layout]:
    """The inputs of a loss of an ``(n, 1)`` score column: the target as a
    float vector and the impressions' ``Layout`` (``check_lengths``).

    Raises ShapeMismatchError naming ``loss`` unless the column has one
    entry per target value, and ValueError naming it unless the target
    passes ``finite_vector``.
    """
    y = np.asarray(target, dtype=np.float64).reshape(-1)
    if col.cols != 1 or col.rows != y.size:
        raise ShapeMismatchError(f"{loss}: scores {col.shape} vs {y.size} labels")
    return finite_vector(y, f"{loss}: target"), check_lengths(lengths, col.rows, loss)


def bce_loss(p: Tensor, y: Sequence[float] | np.ndarray,
             lengths: Sequence[int] | np.ndarray | Layout | None = None) -> Tensor:
    """Binary cross-entropy of probabilities ``p`` against binary labels: the
    mean within each impression (``lengths`` rows each, in turn), then the
    mean over impressions (the whole list is one impression by default)."""
    yv, (lengths, _) = column_inputs(p, y, lengths, "bce_loss")
    bad = np.flatnonzero((yv != 0) & (yv != 1))
    if bad.size:
        raise ValueError(f"bce_loss: labels must be 0 or 1, got {yv[bad[0]]} at position {bad[0]}")
    yv = yv.reshape(-1, 1)
    weights = np.repeat(1.0 / (lengths * lengths.size), lengths).reshape(-1, 1)
    g = p.graph
    pos = fn.mul_elem(g.tensor(yv), fn.log(p))
    neg_p = fn.sub(g.tensor(np.ones((p.rows, 1))), p)
    neg = fn.mul_elem(g.tensor(1.0 - yv), fn.log(neg_p))
    return fn.scale(fn.sum_all(fn.mul_elem(g.tensor(weights), fn.add(pos, neg))), -1.0)


def ranknet_loss(s: Tensor, y: Sequence[float] | np.ndarray,
                 lengths: Sequence[int] | np.ndarray | Layout | None = None) -> Tensor:
    """Pairwise logistic loss log(1 + exp(-(s_i - s_j))) over the pairs
    y_i > y_j inside each impression (``lengths`` rows each, in turn): the
    mean within an impression, then the mean over impressions (the whole list
    is one impression by default).

    Computed as -log(sigmoid(s_i - s_j)) with one weight per pair, so the term
    costs a fixed number of graph nodes whatever the list sizes.  The pairs
    are found per block of equal-length impressions and put back impression
    by impression, which fixes the order of the sum.  An impression without
    ordered pairs adds 0; a constant 0 is returned when no impression has one.
    """
    yv, (lengths, blocks) = column_inputs(s, y, lengths, "ranknet_loss")
    imp, hi, lo = [], [], []
    for members, rows in blocks:
        block = yv[rows]
        b, i, j = np.nonzero(block[:, :, None] > block[:, None, :])
        imp.append(members[b])
        hi.append(rows[b, i])
        lo.append(rows[b, j])
    imp = np.concatenate(imp)
    g = s.graph
    if not imp.size:
        return g.tensor(0.0)
    order = np.argsort(imp, kind="stable")
    imp = imp[order]
    weights = 1.0 / (np.bincount(imp, minlength=lengths.size)[imp] * lengths.size)
    p = fn.sigmoid(fn.sub(fn.gather_rows(s, np.concatenate(hi)[order]),
                          fn.gather_rows(s, np.concatenate(lo)[order])))
    losses = fn.scale(fn.log(p), -1.0)
    return fn.sum_all(fn.mul_elem(g.tensor(weights.reshape(-1, 1)), losses))


def listnet_loss(s: Tensor, y: Sequence[float] | np.ndarray,
                 lengths: Sequence[int] | np.ndarray | Layout | None = None) -> Tensor:
    """Top-1 listwise loss: the cross-entropy between softmax(y) and
    softmax(s) within each impression (``lengths`` rows each, in turn),
    averaged over impressions (the whole list is one impression by default).
    One ``listnet`` tape node."""
    return fn.listnet(s, *column_inputs(s, y, lengths, "listnet_loss"))
