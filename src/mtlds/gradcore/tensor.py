"""Reverse-mode automatic differentiation over dense 2-D float64 tensors.

A :class:`Graph` is an append-only tape: every operation records a node with
its tag, parent node ids and forward value, so the backward pass is a single
reverse walk over the tape.  Tensors are immutable handles into one graph.

Vector convention: vectors are (n, 1) column tensors.  A dense layer is
one ``affine`` node, ``x @ W + b.T`` with ``b`` an (m, 1) column added to
every row, so the tape keeps no tiled copy of the bias.

The listwise ops (``softsort_logits``, ``perm_xent``, ``listnet``) are fused:
each replays, in one node, the elementwise arithmetic of the composition of
basic ops it replaces, in the same order, so values and gradients keep their
bits.  The two batch losses stack the lists of one length, take each list's
sum on its own contiguous slice, add the sums in list order and multiply by
``1.0 / lists``: the mean over lists.  Their forward rules keep the arrays
their VJPs need in the node's ``attrs["saved"]`` (the batch losses one set
per length block), and the VJPs read them there instead of building them
again.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

# The ``log`` op clips its input to [PROB_EPS, 1]: the losses take logs of
# probabilities only, the cross-entropies are undefined at exact 0/1 and soft
# probabilities underflow.
PROB_EPS = 1e-12


class GradcoreError(Exception):
    """Base class for computation-graph errors."""


class ShapeMismatchError(GradcoreError, ValueError):
    """Operands have shapes the operation cannot accept."""


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

    __slots__ = ("graph", "node_id", "value")

    def __init__(self, graph: "Graph", node_id: int, value: np.ndarray):
        self.graph = graph
        self.node_id = node_id
        self.value = value  # forward value, a read-only array

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ShapeMismatchError(f"item() needs a (1, 1) tensor, got {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        op = self.graph.node_op(self.node_id)
        return f"Tensor(shape={self.shape}, op={op!r}, node_id={self.node_id})"


class _Node:
    """One tape entry.  Kept apart from ``Tensor`` on purpose: no entry refers
    to its ``Graph``, so a step's graph has no reference cycle and reference
    counting frees it as soon as the step drops it."""

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


def _fwd_affine(xs, attrs):
    x, w, b = xs
    if x.shape[1] != w.shape[0] or b.shape != (w.shape[1], 1):
        raise ShapeMismatchError(
            f"affine: {x.shape} @ {w.shape} plus a bias of {b.shape} do not agree")
    out = x @ w
    out += b.T
    return out


def _fwd_scale(xs, attrs):
    return xs[0] * attrs["factor"]


def _fwd_log(xs, attrs):
    return np.log(np.clip(xs[0], PROB_EPS, 1.0))


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


def _vjp_affine(g, xs, out, attrs):
    x, w, _ = xs
    return [g @ w.T, x.T @ g, g.sum(axis=0).reshape(-1, 1)]


def _vjp_scale(g, xs, out, attrs):
    return [g * attrs["factor"]]


def _vjp_log(g, xs, out, attrs):
    x = xs[0]
    return [g / np.clip(x, PROB_EPS, 1.0) * ((x >= PROB_EPS) & (x <= 1.0))]


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


def _vjp_concat_cols(g, xs, out, attrs):
    offsets = np.cumsum([x.shape[1] for x in xs[:-1]])
    return [np.ascontiguousarray(part) for part in np.hsplit(g, offsets)]


def length_blocks(lengths: Sequence[int] | np.ndarray):
    """Group lists laid out one after another in a flat array by length.

    ``lengths`` holds each list's length.  For each distinct length, in
    ascending order, yields the positions of the lists of that length and
    their ``(k, n)`` row indices into the flat array, both in list order: one
    stable argsort of the lengths, cut where the sorted length changes.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    by_length = lengths[order]
    firsts = np.flatnonzero(np.diff(by_length, prepend=-1)).tolist()
    for a, b in zip(firsts, firsts[1:] + [lengths.size]):
        members = order[a:b]
        yield members, starts[members, None] + np.arange(by_length[a])


class Layout(NamedTuple):
    """Lists laid out one after another, as ``sortops.check_lengths`` makes it."""

    lengths: np.ndarray  # np.intp length of each list
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]  # the length_blocks of the lengths


def _mean_in_order(per_list: np.ndarray) -> np.ndarray:
    """Sequential sum of the per-list losses times ``1.0 / lists``, as (1, 1)."""
    return np.array([[np.cumsum(per_list)[-1] * (1.0 / per_list.size)]])


def _fwd_softsort_logits(xs, attrs):
    s = xs[0]
    if s.shape[1] != 1:
        raise ShapeMismatchError(f"softsort_logits: expected a column vector, got {s.shape}")
    attrs["saved"] = s[attrs["order"]] - s.T
    return np.abs(attrs["saved"]) * attrs["factor"]


def _vjp_softsort_logits(g, xs, out, attrs):
    order = attrs["order"]
    # subgradient 0 where a sorted score meets itself or a tie
    g_dist = g * attrs["factor"] * np.sign(attrs["saved"])
    d_sorted = g_dist.sum(axis=1, keepdims=True)
    ds = np.zeros_like(xs[0])
    np.add.at(ds, order, d_sorted)
    return [(-g_dist).sum(axis=0).reshape(-1, 1) + ds]


def _perm_xent_group(xs, attrs, members):
    """Stacked (k, n, n) P_hat, P, the clipped logs' inputs and the (n, 1)
    position weights of the lists at ``members``."""
    p_hat = np.stack([xs[i] for i in members])
    p = np.stack([attrs["perms"][i] for i in members])
    comp_raw = 1.0 - p_hat
    clipped = np.clip(p_hat, PROB_EPS, 1.0 - PROB_EPS)
    comp = np.clip(comp_raw, PROB_EPS, 1.0)
    w = attrs["weights"][:p_hat.shape[1]].reshape(-1, 1)
    return p_hat, p, comp_raw, clipped, comp, w


def _fwd_perm_xent(xs, attrs):
    sizes, lengths = [x.shape[0] for x in xs], attrs["layout"].lengths
    if not np.array_equal(lengths, sizes):
        raise ShapeMismatchError(
            f"perm_xent: impression lengths {lengths.tolist()} differ from P_hat sizes {sizes}")
    per_list = np.empty(len(xs))
    blocks = attrs["layout"].blocks
    attrs["saved"] = [_perm_xent_group(xs, attrs, members) for members, _ in blocks]
    for (members, _), (_, p, _, clipped, comp, w) in zip(blocks, attrs["saved"]):
        per_entry = p * np.log(clipped) + (1.0 - p) * np.log(comp)
        per_list[members] = -(w * per_entry).reshape(len(members), -1).sum(axis=1)
    return _mean_in_order(per_list)


def _vjp_perm_xent(g, xs, out, attrs):
    c = -(g[0, 0] * (1.0 / len(xs)))
    grads: list[np.ndarray | None] = [None] * len(xs)
    blocks = attrs["layout"].blocks
    for (members, _), (p_hat, p, comp_raw, clipped, comp, w) in zip(blocks, attrs["saved"]):
        g_entry = c * w
        d_clipped = g_entry * p / clipped * ((p_hat >= PROB_EPS) & (p_hat <= 1.0 - PROB_EPS))
        d_comp = g_entry * (1.0 - p) / comp * ((comp_raw >= PROB_EPS) & (comp_raw <= 1.0))
        d_p_hat = d_clipped - d_comp
        for k, i in enumerate(members):
            grads[i] = d_p_hat[k]
    return grads


def _listnet_group(s, attrs, rows):
    """Softmax of the scores and of the labels over each row of ``rows``,
    a (k, n) index block of equal-length lists."""
    x = s[rows, 0]
    e = np.exp(x - x.max(axis=1, keepdims=True))
    q = e / e.sum(axis=1, keepdims=True)
    y = attrs["labels"][rows]
    shifted = np.exp(y - y.max(axis=1, keepdims=True))
    return q, shifted / shifted.sum(axis=1, keepdims=True)


def _fwd_listnet(xs, attrs):
    s, (lengths, blocks), labels = xs[0], attrs["layout"], attrs["labels"]
    if s.shape[1] != 1:
        raise ShapeMismatchError(f"listnet: expected a column vector, got {s.shape}")
    if lengths.sum() != s.shape[0] or labels.shape != (s.shape[0],):
        raise ShapeMismatchError(f"listnet: {s.shape[0]} scores, labels of shape {labels.shape} "
                                 f"and impression lengths summing to {lengths.sum()}")
    per_list = np.empty(lengths.size)
    attrs["saved"] = [_listnet_group(s, attrs, rows) for _, rows in blocks]
    for (members, _), (q, target) in zip(blocks, attrs["saved"]):
        per_list[members] = -(target * np.log(np.clip(q, PROB_EPS, 1.0))).sum(axis=1)
    return _mean_in_order(per_list)


def _vjp_listnet(g, xs, out, attrs):
    s, (lengths, blocks) = xs[0], attrs["layout"]
    c = -(g[0, 0] * (1.0 / lengths.size))
    ds = np.zeros_like(s)
    for (_, rows), (q, target) in zip(blocks, attrs["saved"]):
        d_q = c * target / np.clip(q, PROB_EPS, 1.0) * ((q >= PROB_EPS) & (q <= 1.0))
        dot = (d_q * q).sum(axis=1, keepdims=True)
        ds[rows, 0] += q * (d_q - dot)
    return [ds]


OPS: dict[str, _OpDef] = {
    "add": _OpDef(2, _fwd_add, _vjp_add),
    "sub": _OpDef(2, _fwd_sub, _vjp_sub),
    "mul_elem": _OpDef(2, _fwd_mul_elem, _vjp_mul_elem),
    "matmul": _OpDef(2, _fwd_matmul, _vjp_matmul),
    "affine": _OpDef(3, _fwd_affine, _vjp_affine),
    "scale": _OpDef(1, _fwd_scale, _vjp_scale),
    "log": _OpDef(1, _fwd_log, _vjp_log),
    "sigmoid": _OpDef(1, _fwd_sigmoid, _vjp_sigmoid),
    "relu": _OpDef(1, _fwd_relu, _vjp_relu),
    "softmax_rows": _OpDef(1, _fwd_softmax_rows, _vjp_softmax_rows),
    "sum_all": _OpDef(1, _fwd_sum_all, _vjp_sum_all),
    "max_rows": _OpDef(1, _fwd_max_rows, _vjp_max_rows),
    "gather_rows": _OpDef(1, _fwd_gather_rows, _vjp_gather_rows),
    "concat_cols": _OpDef(None, _fwd_concat_cols, _vjp_concat_cols),
    "softsort_logits": _OpDef(1, _fwd_softsort_logits, _vjp_softsort_logits),
    "perm_xent": _OpDef(None, _fwd_perm_xent, _vjp_perm_xent),
    "listnet": _OpDef(1, _fwd_listnet, _vjp_listnet),
}


class Graph:
    """Append-only computation tape.

    Single-writer: one training step builds and consumes a graph on one
    thread.  Independent graphs may run concurrently.
    """

    def __init__(self) -> None:
        self._nodes: list[_Node] = []
        self._nodes_at_backward: int | None = None

    def __len__(self) -> int:
        return len(self._nodes)

    def node_op(self, node_id: int) -> str:
        return self._nodes[node_id].op

    def inputs_of(self, op_tag: str) -> list[np.ndarray]:
        """First-input values of every recorded ``op_tag`` node, in tape order."""
        return [self._nodes[n.parents[0]].value for n in self._nodes if n.op == op_tag]

    def _register(self, op: str, parents: tuple[int, ...], value: np.ndarray,
                  attrs: dict) -> Tensor:
        value = np.ascontiguousarray(value, dtype=np.float64)
        value.flags.writeable = False
        node_id = len(self._nodes)
        self._nodes.append(_Node(op, parents, value, attrs))
        return Tensor(self, node_id, value)

    def tensor(self, values) -> Tensor:
        """Register a leaf tensor holding a copy of ``values``."""
        return self._register("leaf", (), as_matrix(values).copy(), {})

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
        out = opdef.forward([t.value for t in inputs], attrs)
        return self._register(op_tag, tuple(t.node_id for t in inputs), out, attrs)

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Populate gradients for every ancestor of ``loss``.

        The seed gradient at the loss node is 1.  Returns the node_id to
        gradient map.  Calling backward a second time without recording new
        nodes is an error.
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
        return grads
