"""Shared-bottom multi-task network, loss assembly for every model kind, and
the impression-batched training loop.

Model kinds:

* ``mtlds``          multi-task towers + aggregated-score sorting loss
* ``mtl_listnet``    same structure with the listwise loss swapped to ListNet
* ``esmm``           two towers, BCE on click and on the click*conversion product
* ``esmm_pairwise``  ESMM with both BCE terms replaced by pairwise logistic loss
* ``dnn_pointwise``  one tower, BCE against the final post-click label
* ``dnn_pairwise``   one tower, pairwise logistic loss on the combined label
* ``dnn_diffsort``   one tower, sorting loss on the combined label
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .aggregate import AggregatorSpec, aggregate_columns, aggregate_labels, label_permutation
from .data import Dataset, FieldSpec, Impression, Sample, Schema, batch_impressions
from .evaluation import MetricReport, evaluate_ranking
from .gradcore import AdamState, Graph, Tensor, adam_step, fn
from .sortops import (
    bce_loss,
    listnet_loss,
    ranknet_loss,
    soft_sort,
    sort_loss,
)

MODEL_KINDS = (
    "mtlds",
    "mtl_listnet",
    "esmm",
    "esmm_pairwise",
    "dnn_pointwise",
    "dnn_pairwise",
    "dnn_diffsort",
)
TASK_LOSSES = {"bce": bce_loss, "ranknet": ranknet_loss}
VALIDATION_CUTOFF = 6

CHECKPOINT_MAGIC = b"MTLDS1\n"


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


class CheckpointError(ValueError):
    """A checkpoint file is truncated, corrupt, or describes a model that the
    current code rejects."""


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "mtlds"
    task_loss: str | tuple[str, ...] = "ranknet"
    aggregator: str = "linear"
    tau: float = 1.0
    embedding_dim: int = 8
    shared_layers: tuple[int, ...] = (64, 32)
    tower_layers: tuple[int, ...] = (16,)
    learning_rate: float = 0.02
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    sort_loss_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        losses = self.task_loss if isinstance(self.task_loss, tuple) else (self.task_loss,)
        for l in losses:
            if l not in TASK_LOSSES:
                raise ValueError(f"unknown task loss {l!r}; choose from {tuple(TASK_LOSSES)}")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")


def config_to_dict(config: ModelConfig) -> dict:
    d = asdict(config)
    for key in ("task_loss", "shared_layers", "tower_layers"):
        if isinstance(d[key], tuple):
            d[key] = list(d[key])
    return d


def config_from_dict(d: dict) -> ModelConfig:
    kwargs = dict(d)
    for key in ("shared_layers", "tower_layers"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if isinstance(kwargs.get("task_loss"), list):
        kwargs["task_loss"] = tuple(kwargs["task_loss"])
    return ModelConfig(**kwargs)


@dataclass
class FeatureBatch:
    cat_ids: dict[str, np.ndarray]
    dense: np.ndarray  # (n, dense_count)

    @property
    def size(self) -> int:
        return self.dense.shape[0]


def encode_samples(schema: Schema, samples: Sequence[Sample]) -> FeatureBatch:
    """Build id arrays per categorical field; unknown ids map to the reserved
    out-of-vocabulary row (index = cardinality) instead of raising."""
    n = len(samples)
    cat_ids: dict[str, np.ndarray] = {}
    for f_idx, spec in enumerate(schema.user_fields):
        raw = np.array([s.user_ids[f_idx] for s in samples], dtype=np.int64)
        cat_ids[spec.name] = np.where((raw >= 0) & (raw < spec.cardinality), raw, spec.cardinality)
    for f_idx, spec in enumerate(schema.item_fields):
        raw = np.array([s.item_ids[f_idx] for s in samples], dtype=np.int64)
        cat_ids[spec.name] = np.where((raw >= 0) & (raw < spec.cardinality), raw, spec.cardinality)
    dense = np.array([s.dense for s in samples], dtype=np.float64).reshape(n, schema.dense_count)
    return FeatureBatch(cat_ids=cat_ids, dense=dense)


class SharedBottomModel:
    """Hard parameter sharing: common bottom layers plus one tower per task.

    Parameters live as named numpy arrays; each training step registers them
    as leaf tensors on a fresh graph.
    """

    def __init__(self, schema: Schema, config: ModelConfig):
        if config.kind in ("esmm", "esmm_pairwise") and schema.task_count != 2:
            raise ValueError(f"{config.kind} requires exactly 2 tasks, schema has {schema.task_count}")
        self.schema = schema
        self.config = config
        self.tower_count = self._tower_count(config.kind, schema.task_count)
        self.task_losses = self._resolve_task_losses(config, self.tower_count)
        if config.kind in ("mtlds", "mtl_listnet"):
            weights = tuple(1.0 for _ in range(self.tower_count)) \
                if config.aggregator == "linear" else None
            self.aggregator = AggregatorSpec(config.aggregator, weights)
        else:
            self.aggregator = None
        self.params: dict[str, np.ndarray] = {}
        self._init_params()

    @staticmethod
    def _tower_count(kind: str, task_count: int) -> int:
        if kind in ("mtlds", "mtl_listnet"):
            return task_count
        if kind in ("esmm", "esmm_pairwise"):
            return 2
        return 1

    @staticmethod
    def _resolve_task_losses(config: ModelConfig, towers: int) -> tuple[str, ...]:
        if isinstance(config.task_loss, tuple):
            if len(config.task_loss) != towers:
                raise ValueError(
                    f"{len(config.task_loss)} task losses for {towers} towers")
            return config.task_loss
        return tuple(config.task_loss for _ in range(towers))

    @property
    def input_dim(self) -> int:
        return (len(self.schema.cat_fields) * self.config.embedding_dim
                + self.schema.dense_count)

    def _init_params(self) -> None:
        rng = np.random.default_rng(self.config.seed)
        cfg = self.config
        for spec in self.schema.cat_fields:
            # one extra row reserved for out-of-vocabulary ids
            self.params[f"emb/{spec.name}"] = 0.1 * rng.standard_normal(
                (spec.cardinality + 1, cfg.embedding_dim))
        fan_in = self.input_dim
        for i, width in enumerate(cfg.shared_layers):
            self.params[f"shared/{i}/W"] = rng.standard_normal((fan_in, width)) * np.sqrt(2.0 / fan_in)
            self.params[f"shared/{i}/b"] = np.zeros((width, 1))
            fan_in = width
        for t in range(self.tower_count):
            dim = fan_in
            for i, width in enumerate(cfg.tower_layers):
                self.params[f"tower/{t}/{i}/W"] = rng.standard_normal((dim, width)) * np.sqrt(2.0 / dim)
                self.params[f"tower/{t}/{i}/b"] = np.zeros((width, 1))
                dim = width
            head = len(cfg.tower_layers)
            self.params[f"tower/{t}/{head}/W"] = rng.standard_normal((dim, 1)) * np.sqrt(1.0 / dim)
            self.params[f"tower/{t}/{head}/b"] = np.zeros((1, 1))
        if self.aggregator is not None and self.aggregator.kind == "linear":
            self.params["agg/w"] = np.ones((self.tower_count, 1))

    def bind(self, graph: Graph) -> dict[str, Tensor]:
        """Register every parameter as a trainable leaf on ``graph``."""
        return {name: graph.tensor(arr, requires_grad=True)
                for name, arr in self.params.items()}

    def task_columns(
        self,
        graph: Graph,
        batch: FeatureBatch,
        params_t: dict[str, Tensor] | None = None,
    ) -> list[Tensor]:
        """Per-tower probability columns, each (n, 1) and strictly inside (0, 1)."""
        pt = params_t if params_t is not None else self.bind(graph)
        n = batch.size
        parts = [fn.gather_rows(pt[f"emb/{spec.name}"], batch.cat_ids[spec.name])
                 for spec in self.schema.cat_fields]
        if self.schema.dense_count:
            parts.append(graph.constant(batch.dense))
        x = fn.concat_cols(parts)
        for i in range(len(self.config.shared_layers)):
            pre = fn.add(fn.matmul(x, pt[f"shared/{i}/W"]),
                         fn.broadcast_row(pt[f"shared/{i}/b"], n))
            x = fn.relu(pre)
        cols = []
        for t in range(self.tower_count):
            h = x
            for i in range(len(self.config.tower_layers)):
                pre = fn.add(fn.matmul(h, pt[f"tower/{t}/{i}/W"]),
                             fn.broadcast_row(pt[f"tower/{t}/{i}/b"], n))
                h = fn.relu(pre)
            head = len(self.config.tower_layers)
            logit = fn.add(fn.matmul(h, pt[f"tower/{t}/{head}/W"]),
                           fn.broadcast_row(pt[f"tower/{t}/{head}/b"], n))
            cols.append(fn.sigmoid(logit))
        return cols

    def forward(
        self,
        graph: Graph,
        samples: Sequence[Sample],
        params_t: dict[str, Tensor] | None = None,
    ) -> Tensor:
        """(n, towers) matrix of per-task probabilities for a list of samples."""
        batch = encode_samples(self.schema, samples)
        return fn.concat_cols(self.task_columns(graph, batch, params_t))

    # ------------------------------------------------------------------ losses

    def _flatten(self, impressions: Sequence[Impression]) -> tuple[list[Sample], list[tuple[int, int]]]:
        samples: list[Sample] = []
        spans = []
        for imp in impressions:
            if len(imp) == 0:
                raise ValueError(f"impression {imp.id!r} is empty")
            spans.append((len(samples), len(samples) + len(imp)))
            samples.extend(imp.samples)
        return samples, spans

    def _columns_and_labels(
        self,
        graph: Graph,
        impressions: Sequence[Impression],
        params_t: dict[str, Tensor] | None,
    ) -> tuple[list[Tensor], np.ndarray, list[tuple[int, int]], dict[str, Tensor]]:
        """Per-tower columns, the (n, T) label matrix, the impression spans and
        the bound parameters of one batch."""
        samples, spans = self._flatten(impressions)
        batch = encode_samples(self.schema, samples)
        pt = params_t if params_t is not None else self.bind(graph)
        cols = self.task_columns(graph, batch, pt)
        labels = np.array([s.labels.labels for s in samples], dtype=np.float64)
        return cols, labels, spans, pt

    def _listwise_losses(
        self,
        agg_col: Tensor,
        agg_labels: np.ndarray,
        spans: Sequence[tuple[int, int]],
        use_listnet: bool,
    ) -> Tensor:
        """Sum of the per-impression listwise losses over the batch."""
        total: Tensor | None = None
        for a, b in spans:
            s = fn.gather_rows(agg_col, range(a, b))
            scores = agg_labels[a:b]
            if use_listnet:
                term = listnet_loss(s, scores)
            else:
                term = sort_loss(soft_sort(s, self.config.tau), label_permutation(scores))
            total = term if total is None else fn.add(total, term)
        assert total is not None
        return total

    def _aggregate_column(self, cols: list[Tensor],
                          params_t: dict[str, Tensor]) -> Tensor:
        weight = params_t.get("agg/w") if self.aggregator.kind == "linear" else None
        return aggregate_columns(self.aggregator, cols, weight=weight)

    def loss_components(
        self,
        graph: Graph,
        impressions: Sequence[Impression],
        params_t: dict[str, Tensor] | None = None,
    ) -> tuple[list[Tensor], Tensor]:
        """Per-task loss tensors and the batch-mean listwise loss of an
        mtlds/mtl_listnet model, which ``batch_loss`` sums."""
        if self.aggregator is None:
            raise ValueError(f"loss_components applies to mtlds/mtl_listnet, not {self.config.kind}")
        cols, labels, spans, pt = self._columns_and_labels(graph, impressions, params_t)
        task_terms = [TASK_LOSSES[kind](cols[t], labels[:, t], spans)
                      for t, kind in enumerate(self.task_losses)]
        listwise = self._listwise_losses(
            self._aggregate_column(cols, pt), labels.sum(axis=1), spans,
            use_listnet=self.config.kind == "mtl_listnet")
        return task_terms, fn.scale(listwise, 1.0 / len(spans))

    def batch_loss(
        self,
        graph: Graph,
        impressions: Sequence[Impression],
        params_t: dict[str, Tensor] | None = None,
    ) -> Tensor:
        """Training loss of this model's kind, averaged over the impressions.

        mtlds/mtl_listnet: the per-task losses plus ``sort_loss_weight`` times
        the listwise loss on the aggregated score.  esmm: click BCE plus
        click*conversion BCE over the entire impression space, so the
        conversion tower is supervised only through the product;
        esmm_pairwise swaps both terms for the pairwise logistic loss on the
        same targets.  dnn_pointwise: BCE against the final post-click label;
        dnn_pairwise: pairwise logistic loss on the combined (summed) label;
        dnn_diffsort: the sorting loss on the combined label's permutation.
        """
        if self.aggregator is not None:
            task_terms, listwise = self.loss_components(graph, impressions, params_t)
            return fn.add(reduce(fn.add, task_terms),
                          fn.scale(listwise, self.config.sort_loss_weight))
        cols, labels, spans, _ = self._columns_and_labels(graph, impressions, params_t)
        kind = self.config.kind
        if kind in ("esmm", "esmm_pairwise"):
            task_loss = bce_loss if kind == "esmm" else ranknet_loss
            p_both = fn.mul_elem(cols[0], cols[1])
            return fn.add(task_loss(cols[0], labels[:, 0], spans),
                          task_loss(p_both, labels[:, 0] * labels[:, -1], spans))
        if kind == "dnn_pointwise":
            return bce_loss(cols[0], labels[:, -1], spans)
        combined = labels.sum(axis=1)
        if kind == "dnn_pairwise":
            return ranknet_loss(cols[0], combined, spans)
        return fn.scale(self._listwise_losses(cols[0], combined, spans, use_listnet=False),
                        1.0 / len(spans))

    # ---------------------------------------------------------------- scoring

    def _score_column(self, cols: list[Tensor], rank_by: str,
                      params_t: dict[str, Tensor]) -> Tensor:
        if rank_by == "aggregate":
            if self.aggregator is not None:
                return self._aggregate_column(cols, params_t)
            if len(cols) == 2:  # esmm kinds: the click * conversion product
                return fn.mul_elem(cols[0], cols[1])
            return cols[0]
        if rank_by.startswith("task:"):
            name = rank_by.split(":", 1)[1]
            if self.tower_count == 1:
                return cols[0]
            if name not in self.schema.tasks:
                raise ValueError(f"unknown task {name!r}; schema has {self.schema.tasks}")
            return cols[self.schema.tasks.index(name)]
        raise ValueError(f"rank_by must be 'aggregate' or 'task:<name>', got {rank_by!r}")

    def ranking_scores(
        self,
        impressions: Sequence[Impression],
        rank_by: str = "aggregate",
        chunk: int = 512,
    ) -> list[np.ndarray]:
        """Per-impression score vectors used for ranking at evaluation time."""
        out: list[np.ndarray] = []
        for start in range(0, len(impressions), chunk):
            part = impressions[start:start + chunk]
            samples, spans = self._flatten(part)
            graph = Graph()
            pt = self.bind(graph)
            cols = self.task_columns(graph, encode_samples(self.schema, samples), pt)
            scores = self._score_column(cols, rank_by, pt).value[:, 0]
            out.extend(scores[a:b].copy() for a, b in spans)
        return out


def evaluate_model(
    model: SharedBottomModel,
    ds: Dataset,
    cutoffs: Sequence[int] = (2, 6, 12),
    rank_by: str = "aggregate",
    gain: str = "depth",
    grouped_auc: bool = False,
) -> MetricReport:
    """AUC of final-task prediction plus per-impression NDCG at each cutoff.

    ``gain="depth"`` scores each item by its behavior depth (summed labels);
    ``gain="final"`` uses the binary final-task label only.
    """
    if gain not in ("depth", "final"):
        raise ValueError(f"gain must be 'depth' or 'final', got {gain!r}")
    scores = model.ranking_scores(ds.impressions, rank_by=rank_by)
    gains = []
    finals = []
    for imp in ds.impressions:
        if gain == "depth":
            gains.append(np.array([aggregate_labels(s.labels) for s in imp.samples]))
        else:
            gains.append(np.array([s.labels.labels[-1] for s in imp.samples]))
        finals.append(np.array([s.labels.labels[-1] for s in imp.samples]))
    return evaluate_ranking(scores, gains, finals, cutoffs, grouped_auc=grouped_auc)


# ------------------------------------------------------------------- training


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_auc: float
    valid_ndcg: float


@dataclass
class TrainReport:
    model_kind: str
    seed: int
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0

    def as_dict(self) -> dict:
        return {
            "model_kind": self.model_kind,
            "seed": self.seed,
            "best_epoch": self.best_epoch,
            "epochs": [asdict(e) for e in self.epochs],
        }


def fit(config: ModelConfig, train: Dataset, valid: Dataset) -> tuple[SharedBottomModel, TrainReport]:
    """Impression-batched Adam training with best-validation-NDCG selection.

    Deterministic given the config seed: initialization, batch order, and the
    synthetic data pipeline all derive from declared seeds.  Raises
    :class:`DivergenceError` naming the epoch and batch if the loss goes
    non-finite.
    """
    if not train.impressions or not valid.impressions:
        raise ValueError("train and valid datasets must be non-empty")
    model = SharedBottomModel(train.schema, config)
    names = list(model.params)
    state = AdamState.for_params([model.params[n] for n in names])
    report = TrainReport(model_kind=config.kind, seed=config.seed)
    best_ndcg = -np.inf
    best_params = {n: a.copy() for n, a in model.params.items()}
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        batch_losses = []
        for b_idx, batch in enumerate(
                batch_impressions(train, config.batch_size, seed=config.seed, epoch=epoch - 1)):
            graph = Graph()
            pt = model.bind(graph)
            loss = model.batch_loss(graph, batch, pt)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"loss became non-finite at epoch {epoch}, batch {b_idx}")
            grads_map = graph.backward(loss)
            grads = [grads_map.get(pt[n].node_id, np.zeros_like(model.params[n]))
                     for n in names]
            updated = adam_step([model.params[n] for n in names], grads, state,
                                lr=config.learning_rate)
            for n, arr in zip(names, updated):
                model.params[n] = arr
            batch_losses.append(value)

        metrics = evaluate_model(model, valid, cutoffs=(VALIDATION_CUTOFF,))
        ndcg = metrics.ndcg_at[VALIDATION_CUTOFF]
        report.epochs.append(EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(batch_losses)),
            valid_auc=metrics.auc,
            valid_ndcg=ndcg,
        ))
        if ndcg > best_ndcg:
            best_ndcg = ndcg
            best_params = {n: a.copy() for n, a in model.params.items()}
            best_epoch = epoch

    model.params = best_params
    report.best_epoch = best_epoch
    return model, report


# ---------------------------------------------------------------- checkpoints


def _schema_to_dict(schema: Schema) -> dict:
    return {
        "user_fields": [[f.name, f.cardinality] for f in schema.user_fields],
        "item_fields": [[f.name, f.cardinality] for f in schema.item_fields],
        "dense_count": schema.dense_count,
        "tasks": list(schema.tasks),
    }


def _schema_from_dict(d: dict) -> Schema:
    return Schema(
        user_fields=tuple(FieldSpec(n, c) for n, c in d["user_fields"]),
        item_fields=tuple(FieldSpec(n, c) for n, c in d["item_fields"]),
        dense_count=d["dense_count"],
        tasks=tuple(d["tasks"]),
    )


def save_checkpoint(model: SharedBottomModel, path) -> None:
    """Versioned header, JSON manifest of shapes, then raw float64 grids."""
    manifest = {
        "version": 1,
        "config": config_to_dict(model.config),
        "schema": _schema_to_dict(model.schema),
        "params": [[name, *model.params[name].shape] for name in model.params],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in model.params:
            fh.write(np.ascontiguousarray(model.params[name]).tobytes())


def load_checkpoint(path) -> SharedBottomModel:
    """Read a ``save_checkpoint`` file; every fault in it is a :class:`CheckpointError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = len(CHECKPOINT_MAGIC)
    if data[:head] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"not a model checkpoint: bad magic {data[:head]!r}")
    start = head + 8
    if len(data) < start:
        raise CheckpointError("truncated checkpoint: header ends before the manifest length")
    (length,) = struct.unpack_from("<Q", data, head)
    if len(data) < start + length:
        raise CheckpointError(
            f"truncated checkpoint: manifest of {length} bytes, {len(data) - start} present")
    try:
        manifest = json.loads(data[start:start + length].decode("utf-8"))
        if manifest["version"] != 1:
            raise CheckpointError(f"unsupported checkpoint version {manifest['version']}")
        model = SharedBottomModel(
            _schema_from_dict(manifest["schema"]),
            config_from_dict(manifest["config"]),
        )
        layout = [[name, *arr.shape] for name, arr in model.params.items()]
        if manifest["params"] != layout:
            raise CheckpointError(f"parameter layout {manifest['params']} does not match "
                                  f"the model's {layout}")
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # JSON and unicode errors included
        raise CheckpointError(f"bad checkpoint manifest: {type(exc).__name__}: {exc}") from None
    offset = start + length
    for name, rows, cols in layout:
        if len(data) < offset + rows * cols * 8:
            raise CheckpointError(f"truncated checkpoint: parameter {name!r} ({rows}x{cols}) "
                                  f"needs {rows * cols * 8} bytes, {len(data) - offset} present")
        model.params[name] = np.frombuffer(
            data, dtype=np.float64, count=rows * cols, offset=offset).reshape(rows, cols).copy()
        offset += rows * cols * 8
    if offset != len(data):
        raise CheckpointError(f"{len(data) - offset} trailing bytes after the last parameter grid")
    return model
