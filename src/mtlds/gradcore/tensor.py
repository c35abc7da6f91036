"""Reverse-mode automatic differentiation over dense 2-D float64 tensors.

A :class:`Graph` is an append-only tape: every operation records a node with
its tag, parent node ids and forward value, so the backward pass is a single
reverse walk over the tape.  Tensors are immutable handles into one graph.

Vector convention: vectors are (n, 1) column tensors.  ``broadcast_row`` and
``broadcast_col`` tile a column vector into a matrix by row or column
replication, which is how outer-product style expressions are built without
a transpose primitive.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class GradcoreError(Exception):
    """Base class for computation-graph errors."""


class ShapeMismatchError(GradcoreError):
    """Operands have shapes the operation cannot accept."""


class DomainError(GradcoreError):
    """An input lies outside the mathematical domain of the operation."""


class GraphStateError(GradcoreError):
    """The graph is not in a state where the requested call is legal."""


def as_matrix(values) -> np.ndarray:
    """Coerce array-like input to a float64 2-D array (1-D becomes a column)."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ShapeMismatchError(f"expected at most 2 dimensions, got shape {a.shape}")
    return a


class Tensor:
    """Immutable 2-D value registered on a computation graph."""

    __slots__ = ("graph", "node_id", "data", "requires_grad")

    def __init__(self, graph: "Graph", node_id: int, data: np.ndarray, requires_grad: bool):
        self.graph = graph
        self.node_id = node_id
        self.data = data
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def value(self) -> np.ndarray:
        """Forward value (read-only array)."""
        return self.data

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ShapeMismatchError(f"item() needs a (1, 1) tensor, got {self.shape}")
        return float(self.data[0, 0])

    @property
    def grad(self) -> np.ndarray | None:
        """Gradient from the most recent backward pass, if this node received one."""
        return self.graph.gradients.get(self.node_id)

    def __repr__(self) -> str:
        op = self.graph.node_op(self.node_id)
        return f"Tensor(shape={self.shape}, op={op!r}, node_id={self.node_id})"


class _Node:
    __slots__ = ("op", "parents", "value", "attrs")

    def __init__(self, op: str, parents: tuple[int, ...], value: np.ndarray, attrs: dict):
        self.op = op
        self.parents = parents
        self.value = value
        self.attrs = attrs


class _OpDef:
    """One registry op; ``arity`` None takes one or more inputs."""

    __slots__ = ("arity", "forward", "vjp")

    def __init__(
        self,
        arity: int | None,
        forward: Callable[[list[np.ndarray], dict], np.ndarray],
        vjp: Callable[[np.ndarray, list[np.ndarray], np.ndarray, dict], list[np.ndarray | None]],
    ):
        self.arity = arity
        self.forward = forward
        self.vjp = vjp


def _require_same_shape(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: operand shapes {a.shape} and {b.shape} differ")


def _fwd_add(xs, attrs):
    _require_same_shape("add", xs[0], xs[1])
    return xs[0] + xs[1]


def _fwd_sub(xs, attrs):
    _require_same_shape("sub", xs[0], xs[1])
    return xs[0] - xs[1]


def _fwd_mul_elem(xs, attrs):
    _require_same_shape("mul_elem", xs[0], xs[1])
    return xs[0] * xs[1]


def _fwd_matmul(xs, attrs):
    a, b = xs
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: inner dimensions {a.shape} x {b.shape} do not agree")
    return a @ b


def _fwd_scale(xs, attrs):
    return xs[0] * attrs["factor"]


def _fwd_neg(xs, attrs):
    return -xs[0]


def _fwd_abs(xs, attrs):
    return np.abs(xs[0])


def _fwd_log(xs, attrs):
    x = xs[0]
    if np.any(x <= 0.0):
        raise DomainError(f"log: non-positive input (min {x.min()}); clip first")
    return np.log(x)


def _fwd_sigmoid(xs, attrs):
    x = xs[0]
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _fwd_relu(xs, attrs):
    return np.maximum(xs[0], 0.0)


def _fwd_softmax_rows(xs, attrs):
    x = xs[0]
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _fwd_sum_all(xs, attrs):
    return np.array([[xs[0].sum()]])


def _fwd_max_rows(xs, attrs):
    return xs[0].max(axis=1, keepdims=True)


def _fwd_gather_rows(xs, attrs):
    x = xs[0]
    idx = attrs["indices"]
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        bad = idx[(idx < 0) | (idx >= x.shape[0])][0]
        raise ShapeMismatchError(f"gather_rows: index {bad} out of range for {x.shape[0]} rows")
    return x[idx, :]


def _fwd_broadcast_row(xs, attrs):
    v = xs[0]
    if v.shape[1] != 1:
        raise ShapeMismatchError(f"broadcast_row: expected a column vector, got {v.shape}")
    return np.tile(v.T, (attrs["rows"], 1))


def _fwd_broadcast_col(xs, attrs):
    v = xs[0]
    if v.shape[1] != 1:
        raise ShapeMismatchError(f"broadcast_col: expected a column vector, got {v.shape}")
    return np.tile(v, (1, attrs["cols"]))


def _fwd_clip(xs, attrs):
    return np.clip(xs[0], attrs["lo"], attrs["hi"])


def _fwd_concat_cols(xs, attrs):
    if len({x.shape[0] for x in xs}) != 1:
        raise ShapeMismatchError(
            f"concat_cols: row counts differ {[x.shape[0] for x in xs]}")
    return np.hstack(xs)


def _vjp_add(g, xs, out, attrs):
    return [g, g]


def _vjp_sub(g, xs, out, attrs):
    return [g, -g]


def _vjp_mul_elem(g, xs, out, attrs):
    return [g * xs[1], g * xs[0]]


def _vjp_matmul(g, xs, out, attrs):
    a, b = xs
    return [g @ b.T, a.T @ g]


def _vjp_scale(g, xs, out, attrs):
    return [g * attrs["factor"]]


def _vjp_neg(g, xs, out, attrs):
    return [-g]


def _vjp_abs(g, xs, out, attrs):
    # subgradient 0 at exactly 0
    return [g * np.sign(xs[0])]


def _vjp_log(g, xs, out, attrs):
    return [g / xs[0]]


def _vjp_sigmoid(g, xs, out, attrs):
    return [g * out * (1.0 - out)]


def _vjp_relu(g, xs, out, attrs):
    return [g * (xs[0] > 0.0)]


def _vjp_softmax_rows(g, xs, out, attrs):
    dot = (g * out).sum(axis=1, keepdims=True)
    return [out * (g - dot)]


def _vjp_sum_all(g, xs, out, attrs):
    return [np.full_like(xs[0], g[0, 0])]


def _vjp_max_rows(g, xs, out, attrs):
    # ties route to the first maximal column
    x = xs[0]
    dx = np.zeros_like(x)
    idx = x.argmax(axis=1)
    dx[np.arange(x.shape[0]), idx] = g[:, 0]
    return [dx]


def _vjp_gather_rows(g, xs, out, attrs):
    dx = np.zeros_like(xs[0])
    np.add.at(dx, attrs["indices"], g)
    return [dx]


def _vjp_broadcast_row(g, xs, out, attrs):
    return [g.sum(axis=0).reshape(-1, 1)]


def _vjp_broadcast_col(g, xs, out, attrs):
    return [g.sum(axis=1, keepdims=True)]


def _vjp_clip(g, xs, out, attrs):
    x = xs[0]
    return [g * ((x >= attrs["lo"]) & (x <= attrs["hi"]))]


def _vjp_concat_cols(g, xs, out, attrs):
    offsets = np.cumsum([x.shape[1] for x in xs[:-1]])
    return [np.ascontiguousarray(part) for part in np.hsplit(g, offsets)]


OPS: dict[str, _OpDef] = {
    "add": _OpDef(2, _fwd_add, _vjp_add),
    "sub": _OpDef(2, _fwd_sub, _vjp_sub),
    "mul_elem": _OpDef(2, _fwd_mul_elem, _vjp_mul_elem),
    "matmul": _OpDef(2, _fwd_matmul, _vjp_matmul),
    "scale": _OpDef(1, _fwd_scale, _vjp_scale),
    "neg": _OpDef(1, _fwd_neg, _vjp_neg),
    "abs": _OpDef(1, _fwd_abs, _vjp_abs),
    "log": _OpDef(1, _fwd_log, _vjp_log),
    "sigmoid": _OpDef(1, _fwd_sigmoid, _vjp_sigmoid),
    "relu": _OpDef(1, _fwd_relu, _vjp_relu),
    "softmax_rows": _OpDef(1, _fwd_softmax_rows, _vjp_softmax_rows),
    "sum_all": _OpDef(1, _fwd_sum_all, _vjp_sum_all),
    "max_rows": _OpDef(1, _fwd_max_rows, _vjp_max_rows),
    "gather_rows": _OpDef(1, _fwd_gather_rows, _vjp_gather_rows),
    "broadcast_row": _OpDef(1, _fwd_broadcast_row, _vjp_broadcast_row),
    "broadcast_col": _OpDef(1, _fwd_broadcast_col, _vjp_broadcast_col),
    "clip": _OpDef(1, _fwd_clip, _vjp_clip),
    "concat_cols": _OpDef(None, _fwd_concat_cols, _vjp_concat_cols),
}


class Graph:
    """Append-only computation tape.

    Single-writer: one training step builds and consumes a graph on one
    thread.  Independent graphs may run concurrently.
    """

    def __init__(self) -> None:
        self._nodes: list[_Node] = []
        self.gradients: dict[int, np.ndarray] = {}
        self._nodes_at_backward: int | None = None

    def __len__(self) -> int:
        return len(self._nodes)

    def node_op(self, node_id: int) -> str:
        return self._nodes[node_id].op

    def inputs_of(self, op_tag: str) -> list[np.ndarray]:
        """First-input values of every recorded ``op_tag`` node, in tape order."""
        return [self._nodes[n.parents[0]].value for n in self._nodes if n.op == op_tag]

    def _register(self, op: str, parents: tuple[int, ...], value: np.ndarray,
                  attrs: dict, requires_grad: bool) -> Tensor:
        value = np.ascontiguousarray(value, dtype=np.float64)
        value.flags.writeable = False
        node_id = len(self._nodes)
        self._nodes.append(_Node(op, parents, value, attrs))
        return Tensor(self, node_id, value, requires_grad)

    def tensor(self, values, requires_grad: bool = False) -> Tensor:
        """Register a leaf tensor holding a copy of ``values``."""
        return self._register("leaf", (), as_matrix(values).copy(), {}, requires_grad)

    def constant(self, values) -> Tensor:
        """Leaf tensor that never receives parameter updates."""
        return self.tensor(values, requires_grad=False)

    def apply(self, op_tag: str, inputs: Sequence[Tensor], **attrs) -> Tensor:
        """Run one registry operation forward and record it on the tape."""
        opdef = OPS.get(op_tag)
        if opdef is None:
            raise ValueError(f"unknown op tag {op_tag!r}")
        if len(inputs) != opdef.arity and (opdef.arity is not None or not inputs):
            raise ShapeMismatchError(
                f"{op_tag}: expected {opdef.arity or 'at least 1'} inputs, got {len(inputs)}")
        for t in inputs:
            if t.graph is not self:
                raise GraphStateError(f"{op_tag}: input tensor belongs to a different graph")
        out = opdef.forward([t.data for t in inputs], attrs)
        requires_grad = any(t.requires_grad for t in inputs)
        return self._register(op_tag, tuple(t.node_id for t in inputs), out, attrs, requires_grad)

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Populate gradients for every ancestor of ``loss``.

        The seed gradient at the loss node is 1.  Returns the node_id to
        gradient map (also stored as ``self.gradients``).  Calling backward a
        second time without recording new nodes is an error.
        """
        if loss.graph is not self:
            raise GraphStateError("loss tensor belongs to a different graph")
        if loss.shape != (1, 1):
            raise ShapeMismatchError(f"backward needs a scalar (1, 1) loss, got {loss.shape}")
        if self._nodes_at_backward == len(self._nodes):
            raise GraphStateError("backward called twice without new forward nodes")
        self._nodes_at_backward = len(self._nodes)

        grads: dict[int, np.ndarray] = {loss.node_id: np.ones((1, 1))}
        for nid in range(loss.node_id, -1, -1):
            g = grads.get(nid)
            if g is None:
                continue
            node = self._nodes[nid]
            if not node.parents:
                continue
            parent_values = [self._nodes[p].value for p in node.parents]
            pgrads = OPS[node.op].vjp(g, parent_values, node.value, node.attrs)
            for pid, pg in zip(node.parents, pgrads):
                if pg is None:
                    continue
                if pg.shape != self._nodes[pid].value.shape:
                    raise GradcoreError(
                        f"{node.op}: vjp produced shape {pg.shape} for parent of shape "
                        f"{self._nodes[pid].value.shape}")
                acc = grads.get(pid)
                grads[pid] = pg if acc is None else acc + pg
        self.gradients = grads
        return grads
