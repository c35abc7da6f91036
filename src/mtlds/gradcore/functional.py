"""Readable wrappers over ``Graph.apply`` plus small compositions."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Layout, Tensor


def add(a: Tensor, b: Tensor) -> Tensor:
    return a.graph.apply("add", [a, b])


def sub(a: Tensor, b: Tensor) -> Tensor:
    return a.graph.apply("sub", [a, b])


def mul_elem(a: Tensor, b: Tensor) -> Tensor:
    return a.graph.apply("mul_elem", [a, b])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return a.graph.apply("matmul", [a, b])


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The dense layer ``x @ w`` plus the (m, 1) bias column ``b`` on every row."""
    return x.graph.apply("affine", [x, w, b])


def scale(x: Tensor, factor: float) -> Tensor:
    return x.graph.apply("scale", [x], factor=float(factor))


def log(x: Tensor) -> Tensor:
    """Natural log of ``x`` clipped to [PROB_EPS, 1]; the gradient is 0 where
    the clip is active."""
    return x.graph.apply("log", [x])


def sigmoid(x: Tensor) -> Tensor:
    return x.graph.apply("sigmoid", [x])


def relu(x: Tensor) -> Tensor:
    return x.graph.apply("relu", [x])


def softmax_rows(x: Tensor) -> Tensor:
    return x.graph.apply("softmax_rows", [x])


def sum_all(x: Tensor) -> Tensor:
    return x.graph.apply("sum_all", [x])


def max_rows(x: Tensor) -> Tensor:
    return x.graph.apply("max_rows", [x])


def gather_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    return x.graph.apply("gather_rows", [x], indices=np.array(indices, dtype=np.intp))


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    """Horizontal concatenation of tensors with equal row counts."""
    if not tensors:
        raise ValueError("concat_cols needs at least one tensor")
    if len(tensors) == 1:
        return tensors[0]
    return tensors[0].graph.apply("concat_cols", tensors)


def softsort_logits(s: Tensor, order: Sequence[int], tau: float) -> Tensor:
    """The (n, n) SoftSort logits -|s[order][i] - s[j]| / tau of an (n, 1) column."""
    return s.graph.apply("softsort_logits", [s], order=np.array(order, dtype=np.intp),
                         factor=-1.0 / tau)


def perm_xent(p_hats: Sequence[Tensor], perms: Sequence[np.ndarray],
              weights: np.ndarray, layout: Layout) -> Tensor:
    """Mean over lists of -sum_i weights[i] * sum_j [P log P_hat + (1 - P) log(1 - P_hat)]
    for square P_hat tensors and hard permutation matrices P of the sizes that
    ``layout`` lists; ``weights`` covers the longest list."""
    return p_hats[0].graph.apply("perm_xent", p_hats, perms=list(perms), weights=weights,
                                 layout=layout)


def listnet(s: Tensor, labels: np.ndarray, layout: Layout) -> Tensor:
    """Mean over the impressions of ``layout`` of the cross-entropy between
    softmax(labels) and softmax(s) within each."""
    return s.graph.apply("listnet", [s], labels=labels, layout=layout)
