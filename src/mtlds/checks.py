"""Runnable verification suite: finite-difference checks for every
differentiable operation and loss, plus the URS property sweep.

Kinked operations (relu, abs, max, clip) are checked on inputs resampled to
keep a margin of at least 1e-3 from the kink, where the subgradient choice
cannot disturb central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .aggregate import AggregatorSpec, LabelSequence, aggregate_predictions, label_permutation
from .data import FieldSpec, Impression, Sample, Schema
from .gradcore import Graph, Tensor, fn, grad_check
from .model import MODEL_KINDS, ModelConfig, SharedBottomModel
from .sortops import (
    argsort_desc,
    bce_loss,
    is_unimodal_row_stochastic,
    listnet_loss,
    ranknet_loss,
    soft_sort,
    sort_loss,
)

KINK_MARGIN = 1e-3


@dataclass
class CheckResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst < self.tol


def _spread(rng: np.random.Generator, shape: tuple[int, int],
            min_gap: float = KINK_MARGIN) -> np.ndarray:
    """Random values whose pairwise distances all exceed ``min_gap``."""
    while True:
        x = rng.standard_normal(shape)
        flat = np.sort(x.reshape(-1))
        if flat.size < 2 or np.min(np.diff(flat)) > min_gap:
            return x


def _away_from(rng: np.random.Generator, shape: tuple[int, int],
               kinks: Sequence[float]) -> np.ndarray:
    while True:
        x = rng.standard_normal(shape)
        if all(np.min(np.abs(x - k)) > KINK_MARGIN for k in kinks):
            return x


def _weighted_sum(out: Tensor, rng: np.random.Generator) -> Tensor:
    """Contract an op output to a scalar with a random constant so the
    gradient through every output entry is exercised."""
    c = out.graph.constant(rng.standard_normal(out.shape))
    return fn.sum_all(fn.mul_elem(c, out))


def _op_cases(rng: np.random.Generator) -> dict[str, tuple[Callable[[Tensor], Tensor], np.ndarray]]:
    """One (f, x) pair per registry op; fresh constants per call."""
    k34 = rng.standard_normal((3, 4))
    k42 = rng.standard_normal((4, 2))
    idx = tuple(int(i) for i in rng.integers(0, 3, size=5))  # repeats exercise scatter-add
    return {
        "add": (lambda x: fn.add(x, x.graph.constant(k34)), rng.standard_normal((3, 4))),
        "sub": (lambda x: fn.sub(x, x.graph.constant(k34)), rng.standard_normal((3, 4))),
        "mul_elem": (lambda x: fn.mul_elem(x, x.graph.constant(k34)), rng.standard_normal((3, 4))),
        "matmul": (lambda x: fn.matmul(x, x.graph.constant(k42)), rng.standard_normal((3, 4))),
        "scale": (lambda x: fn.scale(x, -1.7), rng.standard_normal((3, 4))),
        "neg": (lambda x: fn.neg(x), rng.standard_normal((3, 4))),
        "abs": (lambda x: fn.abs_(x), _away_from(rng, (3, 4), [0.0])),
        "log": (lambda x: fn.log(x), rng.uniform(0.5, 2.0, (3, 4))),
        "sigmoid": (lambda x: fn.sigmoid(x), rng.standard_normal((3, 4))),
        "relu": (lambda x: fn.relu(x), _away_from(rng, (3, 4), [0.0])),
        "softmax_rows": (lambda x: fn.softmax_rows(x), rng.standard_normal((3, 4))),
        "sum_all": (lambda x: fn.sum_all(x), rng.standard_normal((3, 4))),
        "max_rows": (lambda x: fn.max_rows(x), _spread(rng, (3, 4))),
        "gather_rows": (lambda x: fn.gather_rows(x, idx), rng.standard_normal((3, 4))),
        "broadcast_row": (lambda x: fn.broadcast_row(x, 4), rng.standard_normal((3, 1))),
        "broadcast_col": (lambda x: fn.broadcast_col(x, 4), rng.standard_normal((3, 1))),
        "clip": (lambda x: fn.clip(x, -0.5, 0.5), _away_from(rng, (3, 4), [-0.5, 0.5])),
        "concat_cols": (lambda x: fn.concat_cols([x, x.graph.constant(k34), x]),
                        rng.standard_normal((3, 2))),
    }


def check_registry_ops(trials: int = 20, seed: int = 0, tol: float = 1e-4) -> list[CheckResult]:
    """grad_check every differentiable registry op on random inputs."""
    results = []
    for op_index, name in enumerate(sorted(_op_cases(np.random.default_rng(seed)))):
        rng = np.random.default_rng([seed, op_index])
        worst = 0.0
        for _ in range(trials):
            f, x = _op_cases(rng)[name]
            c_seed = int(rng.integers(2 ** 31))

            def wrapped(t: Tensor, f_=f, cs=c_seed) -> Tensor:
                return _weighted_sum(f_(t), np.random.default_rng(cs))

            worst = max(worst, grad_check(wrapped, x))
        results.append(CheckResult(f"op:{name}", worst, tol))
    return results


def check_losses(trials: int = 20, seed: int = 1) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_sort = worst_listnet = worst_ranknet = worst_bce = 0.0
    for _ in range(trials):
        n = int(rng.integers(3, 9))
        s = _spread(rng, (n, 1), min_gap=5e-3)
        labels = rng.integers(0, 3, size=n)
        p = label_permutation(labels)
        worst_sort = max(worst_sort, grad_check(lambda t: sort_loss(soft_sort(t, 1.0), p), s))
        y = rng.standard_normal(n)
        worst_listnet = max(worst_listnet, grad_check(lambda t: listnet_loss(t, y), s))
        cut = int(rng.integers(2, n))
        spans = [(0, cut), (cut, n)]  # two impressions, as in a training batch
        graded = rng.integers(0, 3, size=n)
        if np.all(graded[:cut] == graded[0]):
            graded[0] += 1
        worst_ranknet = max(worst_ranknet,
                            grad_check(lambda t: ranknet_loss(t, graded, spans), s))
        p = rng.uniform(0.05, 0.95, (n, 1))
        yb = rng.integers(0, 2, size=n)
        worst_bce = max(worst_bce, grad_check(lambda t: bce_loss(t, yb, spans), p))
    return [
        CheckResult("loss:soft_sort+sort_loss", worst_sort, 1e-4),
        CheckResult("loss:listnet", worst_listnet, 1e-4),
        CheckResult("loss:ranknet", worst_ranknet, 1e-5),
        CheckResult("loss:bce", worst_bce, 1e-5),
    ]


def _distinct_probs(rng: np.random.Generator, t_count: int) -> np.ndarray:
    """Probabilities in (0.05, 0.95) with pairwise gaps above the kink margin."""
    while True:
        p = rng.uniform(0.05, 0.95, (t_count, 1))
        flat = np.sort(p.reshape(-1))
        if flat.size < 2 or np.min(np.diff(flat)) > KINK_MARGIN:
            return p


def check_aggregators(trials: int = 20, seed: int = 2, tol: float = 1e-5) -> list[CheckResult]:
    """Gradient of each aggregation operator w.r.t. the task probabilities;
    the max kind is checked away from ties."""
    results = []
    for kind_index, kind in enumerate(("mul", "max", "add", "linear")):
        rng = np.random.default_rng([seed, kind_index])
        worst = 0.0
        for _ in range(trials):
            t_count = int(rng.integers(2, 5))
            spec = AggregatorSpec(kind, tuple(rng.uniform(0.5, 3.0, t_count))
                                  if kind == "linear" else None)
            l_hat = _distinct_probs(rng, t_count)
            worst = max(worst, grad_check(lambda t: aggregate_predictions(spec, t), l_hat))
        results.append(CheckResult(f"aggregate:{kind}", worst, tol))
    return results


TOY_SCHEMA = Schema(
    user_fields=(FieldSpec("user_id", 8),),
    item_fields=(FieldSpec("item_id", 8),),
    dense_count=1,
    tasks=("t0", "t1"),
)


def _toy_impression(rng: np.random.Generator, n: int = 5) -> Impression:
    tasks = TOY_SCHEMA.task_count
    user = int(rng.integers(8))
    samples = []
    # every behaviour depth occurs, so every tower of every kind gets a gradient
    for depth in rng.permutation(np.arange(n) % (tasks + 1)):
        labels = LabelSequence(tuple(1 if t < depth else 0 for t in range(tasks)))
        samples.append(Sample(
            impression_id="imp0",
            user_ids=(user,),
            item_ids=(int(rng.integers(8)),),
            dense=(float(rng.standard_normal()),),
            labels=labels,
        ))
    return Impression("imp0", tuple(samples))


def _kink_distance(model: SharedBottomModel, imp: Impression) -> float:
    """How far ``batch_loss`` at ``imp`` is from a kink: the smallest |ReLU
    input|, and the smallest gap between two ranking scores (the hard sort
    inside SoftSort switches where two scores cross)."""
    g = Graph()
    model.batch_loss(g, [imp])
    relu = min((np.abs(x).min() for x in g.inputs_of("relu")), default=np.inf)
    return min(relu, np.diff(np.sort(model.ranking_scores([imp])[0])).min())


def check_batch_loss(seed: int = 3, tol: float = 1e-3) -> list[CheckResult]:
    """Full-model gradient check of ``batch_loss``, the loss ``fit`` trains:
    for every model kind, every parameter grid of a small model against
    central differences on one random impression, redrawn until the loss is
    at least the kink margin away from every kink."""
    rng = np.random.default_rng(seed)
    results = []
    for kind in MODEL_KINDS:
        config = ModelConfig(kind=kind, aggregator="linear", embedding_dim=4,
                             shared_layers=(6,), tower_layers=(4,), seed=seed)
        model = SharedBottomModel(TOY_SCHEMA, config)
        imp = _toy_impression(rng)
        while _kink_distance(model, imp) <= KINK_MARGIN:
            imp = _toy_impression(rng)
        worst = 0.0
        for name in model.params:
            def f(x: Tensor, _name=name) -> Tensor:
                pt = model.bind(x.graph)
                pt[_name] = x
                return model.batch_loss(x.graph, [imp], pt)

            worst = max(worst, grad_check(f, model.params[name]))
        results.append(CheckResult(f"model:batch_loss:{kind}", worst, tol))
    return results


def urs_sweep(count: int = 1000, seed: int = 4, tol: float = 1e-6) -> CheckResult:
    """soft_sort output must be URS with row-argmax equal to the hard argsort.

    Sweeps random distinct-valued score vectors over n in 2..10 and tau in
    {0.1, 1, 10}; the reported value is the number of failing vectors.
    """
    rng = np.random.default_rng(seed)
    taus = (0.1, 1.0, 10.0)
    failures = 0
    for i in range(count):
        n = int(rng.integers(2, 11))
        s = rng.standard_normal((n, 1))
        g = Graph()
        p_hat = soft_sort(g.tensor(s), taus[i % len(taus)])
        ok, _ = is_unimodal_row_stochastic(p_hat, tol=tol)
        argmax_ok = np.array_equal(p_hat.value.argmax(axis=1), argsort_desc(s[:, 0]))
        if not (ok and argmax_ok):
            failures += 1
    return CheckResult("property:urs_sweep", float(failures), 1.0)


def run_all_checks(trials: int = 20, seed: int = 0) -> list[CheckResult]:
    results = check_registry_ops(trials=trials, seed=seed)
    results += check_losses(trials=trials, seed=seed + 1)
    results += check_aggregators(trials=trials, seed=seed + 2)
    results += check_batch_loss(seed=seed + 3)
    results.append(urs_sweep(seed=seed + 4))
    return results
