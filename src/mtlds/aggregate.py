"""Combine per-task predictions to one score and label sequences to rank labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gradcore import Tensor, fn
from .gradcore.tensor import ShapeMismatchError
from .sortops import argsort_desc, perm_matrix

AGGREGATOR_KINDS = ("mul", "max", "add", "linear")


class LabelOrderError(ValueError):
    """A later behavior label is set without the earlier one."""


def first_label_violation(labels: Sequence[int]) -> int | None:
    """First index t with labels[t+1] > labels[t], or None when monotone."""
    for t in range(len(labels) - 1):
        if labels[t + 1] > labels[t]:
            return t
    return None


@dataclass(frozen=True)
class LabelSequence:
    """Ordered binary behavior labels; index 0 is the click, later indices
    are post-click behaviors.  Must be monotone non-increasing: an action
    requires every earlier one."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(l not in (0, 1) for l in self.labels):
            raise LabelOrderError(f"labels must be binary, got {self.labels}")
        t = first_label_violation(self.labels)
        if t is not None:
            raise LabelOrderError(
                f"label {t + 1} set without label {t}: {self.labels}")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True)
class AggregatorSpec:
    """Which operator combines the per-task probabilities.

    ``weights`` exist only for the linear kind (learnable, one per task);
    the add kind fixes every weight to 1.
    """

    kind: str
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator {self.kind!r}; choose from {AGGREGATOR_KINDS}")
        if (self.weights is not None) != (self.kind == "linear"):
            raise ValueError("weights are required for linear and forbidden otherwise")


def _check_weight(spec: AggregatorSpec, task_count: int, weight: Tensor | None) -> None:
    if spec.kind != "linear":
        return
    if weight is not None:
        if weight.shape != (task_count, 1):
            raise ShapeMismatchError(
                f"linear aggregator: weight tensor {weight.shape} for {task_count} tasks")
    elif len(spec.weights) != task_count:
        raise ShapeMismatchError(
            f"linear aggregator: {len(spec.weights)} weights for {task_count} tasks")


def aggregate_columns(
    spec: AggregatorSpec,
    cols: Sequence[Tensor],
    weight: Tensor | None = None,
) -> Tensor:
    """Apply the aggregation operator across task columns of shape (n, 1).

    ``weight`` supplies the linear kind's learnable (T, 1) tensor; when
    omitted, ``spec.weights`` is used as a constant.
    """
    if not cols:
        raise ValueError("no task columns to aggregate")
    _check_weight(spec, len(cols), weight)
    g = cols[0].graph
    if spec.kind == "mul":
        out = cols[0]
        for c in cols[1:]:
            out = fn.mul_elem(out, c)
        return out
    if spec.kind == "add":
        out = cols[0]
        for c in cols[1:]:
            out = fn.add(out, c)
        return out
    if spec.kind == "max":
        return fn.max_rows(fn.concat_cols(cols))
    if weight is None:
        weight = g.constant(np.asarray(spec.weights).reshape(-1, 1))
    return fn.matmul(fn.concat_cols(cols), weight)


def aggregate_predictions(
    spec: AggregatorSpec,
    l_hat: Tensor,
    weight: Tensor | None = None,
) -> Tensor:
    """Aggregate one sample's (T, 1) per-task probabilities to a scalar score."""
    if l_hat.cols != 1:
        raise ShapeMismatchError(f"expected a (T, 1) probability tensor, got {l_hat.shape}")
    rows = [fn.gather_rows(l_hat, [t]) for t in range(l_hat.rows)]
    return aggregate_columns(spec, rows, weight=weight)


def aggregate_labels(labels: LabelSequence | Sequence[int]) -> int:
    """Sum the binary labels: the depth of the user's behavior prefix."""
    if not isinstance(labels, LabelSequence):
        labels = LabelSequence(tuple(int(l) for l in labels))
    return sum(labels)


def label_permutation(scores: Sequence[int]) -> np.ndarray:
    """Ground-truth one-hot permutation matrix for one impression's aggregated
    labels.

    Stable descending sort, so equal scores keep their original order and the
    matrix is deterministic.
    """
    if len(scores) == 0:
        raise ValueError("empty impression")
    return perm_matrix(argsort_desc(np.asarray(scores, dtype=np.float64)))
