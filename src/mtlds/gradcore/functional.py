"""Readable wrappers over ``Graph.apply`` plus small compositions."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor


def add(a: Tensor, b: Tensor) -> Tensor:
    return a.graph.apply("add", [a, b])


def sub(a: Tensor, b: Tensor) -> Tensor:
    return a.graph.apply("sub", [a, b])


def mul_elem(a: Tensor, b: Tensor) -> Tensor:
    return a.graph.apply("mul_elem", [a, b])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return a.graph.apply("matmul", [a, b])


def scale(x: Tensor, factor: float) -> Tensor:
    return x.graph.apply("scale", [x], factor=float(factor))


def neg(x: Tensor) -> Tensor:
    return x.graph.apply("neg", [x])


def abs_(x: Tensor) -> Tensor:
    return x.graph.apply("abs", [x])


def log(x: Tensor) -> Tensor:
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


def broadcast_row(v: Tensor, rows: int) -> Tensor:
    return v.graph.apply("broadcast_row", [v], rows=int(rows))


def broadcast_col(v: Tensor, cols: int) -> Tensor:
    return v.graph.apply("broadcast_col", [v], cols=int(cols))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    return x.graph.apply("clip", [x], lo=float(lo), hi=float(hi))


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    """Horizontal concatenation of tensors with equal row counts."""
    if not tensors:
        raise ValueError("concat_cols needs at least one tensor")
    if len(tensors) == 1:
        return tensors[0]
    return tensors[0].graph.apply("concat_cols", tensors)
