"""Minimal reverse-mode autodiff engine used by every loss in this package."""

from . import functional as fn
from .gradcheck import NondeterministicFunctionError, corrupted_vjp, grad_check
from .optim import AdamState, adam_step
from .tensor import (
    OPS,
    GradcoreError,
    Graph,
    GraphStateError,
    ShapeMismatchError,
    Tensor,
    as_matrix,
)

__all__ = [
    "AdamState",
    "GradcoreError",
    "Graph",
    "GraphStateError",
    "NondeterministicFunctionError",
    "OPS",
    "ShapeMismatchError",
    "Tensor",
    "adam_step",
    "as_matrix",
    "corrupted_vjp",
    "fn",
    "grad_check",
]
