"""Combine per-task predictions to one score and label rows to behavior depths."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .gradcore import Tensor, fn
from .gradcore.tensor import ShapeMismatchError
from .sortops import argsort_desc

AGGREGATOR_KINDS = ("mul", "max", "add", "linear")
GAINS = ("depth", "final")


class LabelOrderError(ValueError):
    """A later behavior label is set without the earlier one."""


@dataclass(frozen=True, slots=True)
class LabelSequence:
    """Ordered binary behavior labels; index 0 is the click, later indices
    are post-click behaviors.  Must be monotone non-increasing: an action
    requires every earlier one."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(l not in (0, 1) for l in self.labels):
            raise LabelOrderError(f"labels must be binary, got {self.labels}")
        for t in range(len(self.labels) - 1):
            if self.labels[t + 1] > self.labels[t]:
                raise LabelOrderError(f"label {t + 1} set without label {t} (pair ({t}, {t + 1}))")


def aggregate_columns(
    kind: str,
    cols: Sequence[Tensor],
    weight: Tensor | None = None,
) -> Tensor:
    """Apply the aggregation operator ``kind`` across task columns of shape (n, 1).

    ``weight`` is the linear kind's (T, 1) tensor, learnable in a model; it
    is required for linear and rejected for the other kinds, and the add kind
    is linear with every weight fixed to 1.
    """
    if kind not in AGGREGATOR_KINDS:
        raise ValueError(f"unknown aggregator {kind!r}; choose from {AGGREGATOR_KINDS}")
    if not cols:
        raise ValueError("no task columns to aggregate")
    if (weight is not None) != (kind == "linear"):
        raise ValueError("a weight tensor is required for linear and rejected otherwise")
    if kind == "mul":
        return reduce(fn.mul_elem, cols)
    if kind == "add":
        return reduce(fn.add, cols)
    if kind == "max":
        return fn.max_rows(fn.concat_cols(cols))
    if weight.shape != (len(cols), 1):
        raise ShapeMismatchError(
            f"linear aggregator: weight tensor {weight.shape} for {len(cols)} tasks")
    return fn.matmul(fn.concat_cols(cols), weight)


def label_gain(labels: np.ndarray, gain: str) -> np.ndarray:
    """Each item's target under ``gain``, from an (n, T) label matrix: its
    behavior depth (the row sum, the length of its user's behavior prefix)
    for ``"depth"``, its final-task label for ``"final"``."""
    if gain not in GAINS:
        raise ValueError(f"gain must be 'depth' or 'final', got {gain!r}")
    return labels.sum(axis=1) if gain == "depth" else labels[:, -1]


def label_permutation(scores: Sequence[int] | np.ndarray) -> np.ndarray:
    """Ground-truth one-hot permutation matrix for one impression's aggregated
    labels, or the ``(k, n, n)`` stack of them for a ``(k, n)`` block of
    equal-length impressions: entry [i, j] = 1 iff j is ranked i-th
    (``perm_matrix``).

    Stable descending sort, so equal scores keep their original order and the
    matrix is deterministic.  Empty input raises ValueError (``argsort_desc``).
    """
    order = argsort_desc(scores)
    return np.eye(order.shape[-1])[order]
