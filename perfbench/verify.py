"""Output checks that the benchmark computes apart from the library.

Each function returns ``None`` when the check holds and a one-line
description of the first violation otherwise.
"""

from __future__ import annotations

import copy
import math
from typing import Sequence

import numpy as np

from mtlds.gradcore import Graph

# Central-difference step and the tolerance of the gradient check.
GRAD_STEP = 1e-6
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7


def _depth(sample) -> int:
    return sum(sample.labels.labels)


def _monotone(labels: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(labels, labels[1:]))


def synth_inputs(ds, list_size: int) -> str | None:
    """Every impression shows ``list_size`` distinct items with monotone labels."""
    for imp in ds.impressions:
        items = [s.item_ids for s in imp.samples]
        if len(items) != list_size or len(set(items)) != list_size:
            return f"impression {imp.id}: {len(set(items))} distinct items of {len(items)}"
        for s in imp.samples:
            if not _monotone(s.labels.labels):
                return f"impression {imp.id}: labels {s.labels.labels} not monotone"
    return None


def log_inputs(ds, lengths: Sequence[int], positives: Sequence[int], dense_sum: float) -> str | None:
    """The loaded log matches what the generator wrote."""
    got_lengths = [len(imp) for imp in ds.impressions]
    if got_lengths != list(lengths):
        return f"{len(got_lengths)} impressions loaded, {len(lengths)} written, or lengths differ"
    got_pos = [0] * len(positives)
    for s in ds.iter_samples():
        for t, label in enumerate(s.labels.labels):
            got_pos[t] += label
    if got_pos != list(positives):
        return f"positives per task {got_pos}, written {list(positives)}"
    got_sum = math.fsum(x for s in ds.iter_samples() for x in s.dense)
    if got_sum != dense_sum:
        return f"dense sum {got_sum!r}, written {dense_sum!r}"
    return None


def counted_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """For each positive, the negatives scored below it, ties counting 1/2."""
    neg = np.sort(scores[labels == 0])
    pos = scores[labels == 1]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return (int(below.sum()) + 0.5 * int(tied.sum())) / (pos.size * neg.size)


def ndcg(scores: Sequence[float], gains: Sequence[int], k: int) -> float:
    """NDCG@k, gain 2^g - 1, discount log2(rank + 1), ties in list order."""
    order = sorted(range(len(scores)), key=lambda j: -scores[j])
    dcg = sum((2.0 ** gains[j] - 1.0) / math.log2(r + 2) for r, j in enumerate(order[:k]))
    ideal = sorted(gains, reverse=True)
    return dcg / sum((2.0 ** g - 1.0) / math.log2(r + 2) for r, g in enumerate(ideal[:k]))


def mean_ndcg(impressions, scores: Sequence[np.ndarray], k: int) -> float:
    """Mean NDCG@k over the impressions whose depth gains are not all zero."""
    values = []
    for imp, s in zip(impressions, scores):
        gains = [_depth(x) for x in imp.samples]
        if any(gains):
            values.append(ndcg(s.tolist(), gains, k))
    return math.fsum(values) / len(values)


def metrics(ds, scores: Sequence[np.ndarray], report, cutoffs: Sequence[int]) -> str | None:
    """AUC and NDCG recomputed from ``scores`` equal the library's report to 1e-9."""
    finals = np.array([s.labels.labels[-1] for s in ds.iter_samples()])
    auc = counted_auc(np.concatenate(scores), finals)
    if abs(auc - report.auc) > 1e-9:
        return f"AUC {report.auc!r}, recomputed {auc!r}"
    for k in cutoffs:
        value = mean_ndcg(ds.impressions, scores, k)
        if abs(value - report.ndcg_at[k]) > 1e-9:
            return f"NDCG@{k} {report.ndcg_at[k]!r}, recomputed {value!r}"
    return None


def random_ndcg(ds, seed: int, k: int) -> float:
    """NDCG@k of seeded uniform random scores."""
    rng = np.random.default_rng([seed, k])
    return mean_ndcg(ds.impressions, [rng.random(len(imp)) for imp in ds.impressions], k)


def learning(test_ndcg: float, baseline: float) -> str | None:
    if not test_ndcg > baseline:
        return f"test NDCG {test_ndcg!r} not above random scores' {baseline!r}"
    return None


def _probe_coordinates(model, analytic: dict[str, np.ndarray]) -> list[tuple[str, int, int]]:
    """The largest-gradient entry of the aggregator weights, of each embedding
    table (so a row the batch touches), and of the first shared layer and the
    last tower's first layer."""
    towers = model.tower_count - 1
    names = [n for n in model.params if n == "agg/w" or n.startswith("emb/")]
    names += ["shared/0/W", f"tower/{towers}/0/W"]
    coords = []
    for name in names:
        i, j = np.unravel_index(int(np.abs(analytic[name]).argmax()), analytic[name].shape)
        coords.append((name, int(i), int(j)))
    return coords


def gradients(model, batch) -> str | None:
    """``Graph.backward`` of ``batch_loss`` against finite differences.

    The loss is smooth only piecewise: a ReLU or a clip turns over wherever
    one of the batch's samples crosses zero or a limit.  When such a kink lies
    within ``GRAD_STEP`` of a probe coordinate, the central difference mixes
    the slopes on its two sides, while the one-sided difference on the side
    away from the kink still equals the gradient.  So the gradient must agree
    with the central difference or with one of the one-sided ones.
    """
    graph = Graph()
    pt = model.bind(graph)
    grads = graph.backward(model.batch_loss(graph, batch, pt))
    analytic = {n: grads.get(pt[n].node_id, np.zeros_like(a)) for n, a in model.params.items()}
    probe = copy.copy(model)
    probe.params = dict(model.params)
    for name, i, j in _probe_coordinates(model, analytic):
        losses = []
        for h in (GRAD_STEP, 0.0, -GRAD_STEP):
            moved = model.params[name].copy()
            moved[i, j] += h
            probe.params[name] = moved
            g = Graph()
            losses.append(probe.batch_loss(g, batch, probe.bind(g)).item())
        probe.params[name] = model.params[name]
        up, here, down = losses
        slopes = ((up - down) / (2.0 * GRAD_STEP), (up - here) / GRAD_STEP,
                  (here - down) / GRAD_STEP)
        a = float(analytic[name][i, j])
        if not any(abs(a - s) <= GRAD_ATOL + GRAD_RTOL * max(abs(a), abs(s)) for s in slopes):
            return (f"{name}[{i},{j}]: backward {a!r}, central, right and left "
                    f"differences {[float(s) for s in slopes]}")
    return None


def softsort(scores: np.ndarray, p_hat: np.ndarray) -> str | None:
    """``p_hat`` is non-negative and row-stochastic, and its row argmax is the
    stable descending argsort of ``scores``."""
    if (p_hat < 0).any():
        return f"negative entry {p_hat.min()!r}"
    worst = float(np.abs(p_hat.sum(axis=1) - 1.0).max())
    if worst > 1e-9:
        return f"row sum off by {worst!r}"
    order = sorted(range(len(scores)), key=lambda j: -scores[j])
    if p_hat.argmax(axis=1).tolist() != order:
        return f"row argmax {p_hat.argmax(axis=1).tolist()} is not the argsort {order}"
    return None


def identical_scores(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> str | None:
    """Bit-identical per-impression scores."""
    for k, (x, y) in enumerate(zip(a, b, strict=True)):
        if x.tobytes() != y.tobytes():
            return f"impression {k} scores differ"
    return None
