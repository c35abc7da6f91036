"""Shared-bottom multi-task network, loss assembly for every model kind, and
the impression-batched training loop.

The model kinds are the rows of ``KIND_RULES``; README's "Model kinds" table
describes them and a test keeps the two equal.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field
from functools import partial, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .aggregate import AGGREGATOR_KINDS, aggregate_columns, label_gain, label_permutation
from .data import (Columns, Dataset, FieldSpec, Impression, Schema, atomic_open,
                   batch_impressions, require_int)
from .evaluation import MetricReport, UndefinedMetricError, evaluate_ranking
from .gradcore import AdamState, Graph, Tensor, adam_step, fn
from .gradcore.tensor import Layout
from .sortops import (
    bce_loss,
    check_lengths,
    check_tau,
    column_inputs,
    listnet_loss,
    ranknet_loss,
    soft_sort,
    sort_loss,
)


class KindRule(NamedTuple):
    """How one model kind builds its towers and its loss (README, "Model kinds")."""

    towers: int | None  # None: one per task, configured aggregator; n: n towers, mul
    task_terms: str  # "config": task_loss on each tower; "score": score loss on tower 0; "none"
    score_loss: str  # "sort", "listnet", "bce" or "ranknet" on the unified score
    target: str  # the score loss's label_gain: "depth" or "final"


KIND_RULES = {
    "mtlds": KindRule(None, "config", "sort", "depth"),
    "mtl_listnet": KindRule(None, "config", "listnet", "depth"),
    "esmm": KindRule(2, "score", "bce", "final"),
    "esmm_pairwise": KindRule(2, "score", "ranknet", "final"),
    "dnn_pointwise": KindRule(1, "none", "bce", "final"),
    "dnn_pairwise": KindRule(1, "none", "ranknet", "depth"),
    "dnn_diffsort": KindRule(1, "none", "sort", "depth"),
}
MODEL_KINDS = tuple(KIND_RULES)
TASK_LOSSES = ("bce", "ranknet")
VALIDATION_CUTOFF = 6
# impressions per graph when scoring; bounds the tape's memory
SCORE_CHUNK = 512

CHECKPOINT_MAGIC = b"MTLDS1\n"
# version 2 added the SHA-256 of the parameter bytes; version 1 files are refused
CHECKPOINT_VERSION = 2


class DivergenceError(RuntimeError):
    """Training loss or a gradient became non-finite."""


class CheckpointError(ValueError):
    """A checkpoint file is truncated, corrupt, or describes a model that the
    current code rejects."""


@dataclass(frozen=True)
class ModelConfig:
    kind: str = MODEL_KINDS[0]
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
                raise ValueError(f"unknown task loss {l!r}; choose from {TASK_LOSSES}")
        if self.aggregator not in AGGREGATOR_KINDS:
            raise ValueError(
                f"unknown aggregator {self.aggregator!r}; choose from {AGGREGATOR_KINDS}")
        check_tau(self.tau)
        if not (np.isfinite(self.sort_loss_weight) and self.sort_loss_weight >= 0):
            raise ValueError(f"sort_loss_weight must be finite and >= 0, got {self.sort_loss_weight}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        require_int("epochs", self.epochs, 0)
        require_int("seed", self.seed, 0)
        for name in ("batch_size", "embedding_dim"):
            require_int(name, getattr(self, name), 1)
        for name in ("shared_layers", "tower_layers"):
            for i, width in enumerate(getattr(self, name)):
                require_int(f"{name}[{i}]", width, 1)


def config_from_dict(d: dict) -> ModelConfig:
    kwargs = dict(d)
    for key in ("shared_layers", "tower_layers"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if isinstance(kwargs.get("task_loss"), list):
        kwargs["task_loss"] = tuple(kwargs["task_loss"])
    return ModelConfig(**kwargs)


def encode_samples(schema: Schema, impressions: Sequence[Impression]) -> Columns:
    """``Dataset.columns`` of impression objects, built afresh and not kept, for
    callers that hold objects, not a dataset.  It is a module-level name, called
    through this module's globals, because the benchmark's tracer
    (``perfbench/tracing.py``) wraps it (row ``model.encode_samples_s``)."""
    return Dataset(schema, tuple(impressions)).columns


def softsort_loss(col: Tensor, target: Sequence[float] | np.ndarray,
                  lengths: Sequence[int] | np.ndarray | Layout | None = None,
                  tau: float = 1.0) -> Tensor:
    """The paper's sort term: ``sort_loss`` of each impression's SoftSort
    matrix against the hard permutation of its ``target`` (``lengths`` rows
    each, in turn; one impression by default), averaged over impressions, with
    ``soft_sort`` and ``label_permutation`` once per impression in order.  A
    non-finite column has no sort order: its loss is NaN, a divergence to ``fit``."""
    yv, layout = column_inputs(col, target, lengths, "softsort_loss")
    cuts = np.cumsum(layout.lengths)[:-1]
    if not np.all(np.isfinite(col.value)):
        return col.graph.tensor(np.nan)
    p_hats = [soft_sort(fn.gather_rows(col, rows), tau)
              for rows in np.split(np.arange(col.rows), cuts)]
    return sort_loss(p_hats, [label_permutation(part) for part in np.split(yv, cuts)], layout)


# losses of an (n, 1) column against a target vector, averaged over the impressions
COLUMN_LOSSES = {"sort": softsort_loss, "bce": bce_loss, "ranknet": ranknet_loss,
                 "listnet": listnet_loss}


class SharedBottomModel:
    """Hard parameter sharing: common bottom layers plus one tower per task.

    Parameters live as named numpy arrays; each training step registers them
    as leaf tensors on a fresh graph.
    """

    def __init__(self, schema: Schema, config: ModelConfig):
        rule = KIND_RULES[config.kind]
        self.schema = schema
        self.config = config
        self.tower_count = rule.towers or schema.task_count
        # several towers are one per task, so a fixed count needs that many tasks
        if self.tower_count not in (1, schema.task_count):
            raise ValueError(f"{config.kind} requires exactly {self.tower_count} tasks, "
                             f"schema has {schema.task_count}")
        losses = (config.task_loss if isinstance(config.task_loss, tuple)
                  else (config.task_loss,) * self.tower_count)
        # only the "config" kinds read task_loss; the others ignore the list
        if rule.task_terms == "config" and len(losses) != self.tower_count:
            raise ValueError(f"{len(losses)} task losses for {self.tower_count} towers")
        # the loss of each task term, applied to tower t against task t's label
        self.task_losses = {"config": losses, "score": (rule.score_loss,),
                            "none": ()}[rule.task_terms]
        self.rule = rule
        self.aggregator = config.aggregator if rule.towers is None else "mul"
        self.params: dict[str, np.ndarray] = {}
        self._init_params()

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

        def dense(prefix: str, fan_in: int, width: int, gain: float = 2.0) -> int:
            self.params[f"{prefix}/W"] = rng.standard_normal((fan_in, width)) * np.sqrt(gain / fan_in)
            self.params[f"{prefix}/b"] = np.zeros((width, 1))
            return width

        fan_in = self.input_dim
        for i, width in enumerate(cfg.shared_layers):
            fan_in = dense(f"shared/{i}", fan_in, width)
        for t in range(self.tower_count):
            dim = fan_in
            for i, width in enumerate(cfg.tower_layers):
                dim = dense(f"tower/{t}/{i}", dim, width)
            dense(f"tower/{t}/{len(cfg.tower_layers)}", dim, 1, gain=1.0)
        if self.aggregator == "linear":
            self.params["agg/w"] = np.ones((self.tower_count, 1))

    def bind(self, graph: Graph) -> dict[str, Tensor]:
        """Register every parameter as a trainable leaf on ``graph``."""
        return {name: graph.tensor(arr) for name, arr in self.params.items()}

    def task_columns(
        self,
        graph: Graph,
        ids: np.ndarray,
        dense: np.ndarray,
        params_t: dict[str, Tensor] | None = None,
    ) -> list[Tensor]:
        """Per-tower probability columns, each (n, 1) and strictly inside (0, 1),
        of a raw id matrix and a dense matrix laid out as ``Dataset.columns``.
        An id outside its field's range takes the field's reserved
        out-of-vocabulary row (index = cardinality) instead of raising."""
        pt = params_t if params_t is not None else self.bind(graph)
        parts = [fn.gather_rows(pt[f"emb/{f.name}"],
                                np.where((raw >= 0) & (raw < f.cardinality), raw, f.cardinality))
                 for f, raw in zip(self.schema.cat_fields, ids.T)]
        if self.schema.dense_count:
            parts.append(graph.tensor(dense))

        def layer(h: Tensor, prefix: str) -> Tensor:
            return fn.affine(h, pt[f"{prefix}/W"], pt[f"{prefix}/b"])

        x = fn.concat_cols(parts)
        for i in range(len(self.config.shared_layers)):
            x = fn.relu(layer(x, f"shared/{i}"))
        cols = []
        for t in range(self.tower_count):
            h = x
            for i in range(len(self.config.tower_layers)):
                h = fn.relu(layer(h, f"tower/{t}/{i}"))
            cols.append(fn.sigmoid(layer(h, f"tower/{t}/{len(self.config.tower_layers)}")))
        return cols

    # ------------------------------------------------------------------ losses

    def _loss(self, name: str):
        loss = COLUMN_LOSSES[name]
        return partial(loss, tau=self.config.tau) if name == "sort" else loss

    def loss_components(
        self,
        graph: Graph,
        batch: Columns | Sequence[Impression],
        params_t: dict[str, Tensor] | None = None,
    ) -> tuple[list[Tensor], Tensor]:
        """The task terms and the score term of this model's kind (``KIND_RULES``)
        on ``Columns`` or impressions (``encode_samples``), each a mean over impressions."""
        if not isinstance(batch, Columns):
            batch = encode_samples(self.schema, batch)
        ids, dense, labels, lengths = batch
        layout = check_lengths(lengths, labels.shape[0], "loss_components")
        pt = params_t if params_t is not None else self.bind(graph)
        cols = self.task_columns(graph, ids, dense, pt)
        task_terms = [self._loss(name)(cols[t], labels[:, t], layout)
                      for t, name in enumerate(self.task_losses)]
        target = label_gain(labels, self.rule.target)
        return task_terms, self._loss(self.rule.score_loss)(self.score(cols, pt), target, layout)

    def batch_loss(
        self,
        graph: Graph,
        batch: Columns | Sequence[Impression],
        params_t: dict[str, Tensor] | None = None,
    ) -> Tensor:
        """Training loss of this model's kind on a ``loss_components`` batch: its task
        terms plus ``sort_loss_weight`` times its score term, added in that order."""
        task_terms, score_term = self.loss_components(graph, batch, params_t)
        return reduce(fn.add, [*task_terms, fn.scale(score_term, self.config.sort_loss_weight)])

    # ---------------------------------------------------------------- scoring

    def score(self, cols: list[Tensor], params_t: dict[str, Tensor]) -> Tensor:
        """The unified score: the aggregation operator over the tower columns.

        The operator is the configured aggregator for a kind with one tower
        per task and ``mul`` for the others: ESMM's click * conversion product
        (pCTCVR) over two towers, the tower's own column over one.
        """
        return aggregate_columns(self.aggregator, cols, params_t.get("agg/w"))

    def _score_column(self, cols: list[Tensor], rank_by: str,
                      params_t: dict[str, Tensor]) -> Tensor:
        """The column that ``rank_by`` ranks by: the unified score for
        ``"aggregate"``, else the named task's tower.  A one-tower kind
        (``dnn_*``) has no per-task tower, so every ``task:<name>`` gives its
        one column, the same scores as ``"aggregate"``.
        """
        task = rank_by_task(rank_by, self.schema.tasks)
        if task is None:
            return self.score(cols, params_t)
        return cols[0] if self.tower_count == 1 else cols[self.schema.tasks.index(task)]

    def ranking_scores(
        self,
        impressions: Sequence[Impression],
        rank_by: str = "aggregate",
    ) -> list[np.ndarray]:
        """Per-impression score vectors used for ranking at evaluation time."""
        ids, dense, _, lengths = encode_samples(self.schema, impressions)
        scores = self.flat_scores(ids, dense, lengths, rank_by)
        return np.split(scores, np.cumsum(lengths)[:-1]) if lengths.size else []

    def flat_scores(self, ids: np.ndarray, dense: np.ndarray, lengths: np.ndarray,
                    rank_by: str = "aggregate") -> np.ndarray:
        """The ``rank_by`` score of every row of a ``Dataset.columns`` layout of
        impressions of ``lengths`` rows each, one graph per ``SCORE_CHUNK``
        impressions (the chunk's row count sets the matmul bits)."""
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        edges = offsets[np.r_[0:lengths.size:SCORE_CHUNK, lengths.size]].tolist()
        out = np.empty(offsets[-1])
        for a, b in zip(edges, edges[1:]):
            graph = Graph()
            pt = self.bind(graph)
            cols = self.task_columns(graph, ids[a:b], dense[a:b], pt)
            out[a:b] = self._score_column(cols, rank_by, pt).value[:, 0]
        return out


def rank_by_task(rank_by: str, tasks: Sequence[str] | None = None) -> str | None:
    """The task named by ``rank_by="task:<name>"``, or None for ``"aggregate"``.

    Raises ValueError for any other value, and for a name not in ``tasks``
    when they are given.
    """
    if rank_by == "aggregate":
        return None
    if not rank_by.startswith("task:"):
        raise ValueError(f"rank_by must be 'aggregate' or 'task:<name>', got {rank_by!r}")
    name = rank_by[len("task:"):]
    if tasks is not None and name not in tasks:
        raise ValueError(f"unknown task {name!r}; schema has {tuple(tasks)}")
    return name


def evaluate_model(
    model: SharedBottomModel,
    ds: Dataset,
    cutoffs: Sequence[int] = (2, 6, 12),
    rank_by: str = "aggregate",
    gain: str = "depth",
) -> MetricReport:
    """AUC of final-task prediction plus per-impression NDCG at each cutoff.

    ``gain="depth"`` scores each item by its behavior depth (summed labels);
    ``gain="final"`` uses the binary final-task label only.
    """
    if not ds.impressions:
        raise ValueError("no impressions to evaluate")
    ids, dense, labels, lengths = ds.columns
    scores = model.flat_scores(ids, dense, lengths, rank_by)
    return evaluate_ranking(scores, label_gain(labels, gain), labels[:, -1], lengths, cutoffs)


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
    synthetic data pipeline all derive from declared seeds.  Raises, before
    training, the ValueError of ``train.columns`` naming a malformed sample
    and :class:`UndefinedMetricError` when the validation AUC is undefined;
    then :class:`DivergenceError` naming the epoch and batch if the
    loss goes non-finite, and the parameter too if a gradient does (before
    the Adam step that would spread it).
    """
    if not train.impressions or not valid.impressions:
        raise ValueError("train and valid datasets must be non-empty")
    columns = train.columns
    final = valid.columns.labels[:, -1]
    positives = int(final.sum())
    if positives in (0, final.size):
        raise UndefinedMetricError(
            f"validation AUC undefined: {positives} of {final.size} final labels positive")
    model = SharedBottomModel(train.schema, config)
    names = list(model.params)
    state = AdamState.for_params([model.params[n] for n in names])
    report = TrainReport(model_kind=config.kind, seed=config.seed)
    best_ndcg = -np.inf
    best_params = {n: a.copy() for n, a in model.params.items()}
    best_epoch = 0

    # a diverging step overflows in numpy before the checks below see it;
    # they report it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            batch_losses = []
            for b_idx, batch in enumerate(
                    batch_impressions(train, config.batch_size, seed=config.seed, epoch=epoch - 1)):
                graph = Graph()
                pt = model.bind(graph)
                loss = model.batch_loss(graph, columns.take(batch), pt)
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(
                        f"loss became non-finite at epoch {epoch}, batch {b_idx}")
                grads_map = graph.backward(loss)
                grads = [grads_map.get(pt[n].node_id, np.zeros_like(model.params[n]))
                         for n in names]
                for n, g in zip(names, grads):
                    if not np.isfinite(g).all():
                        raise DivergenceError(
                            f"gradient of {n!r} became non-finite at epoch {epoch}, batch {b_idx}")
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
    """Versioned header, JSON manifest of shapes and of the SHA-256 of the
    parameter bytes, then raw float64 grids, written atomically (see
    ``atomic_open``)."""
    grids = [np.ascontiguousarray(model.params[name]) for name in model.params]
    checksum = hashlib.sha256()
    for grid in grids:
        checksum.update(grid)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "schema": _schema_to_dict(model.schema),
        "params": [[name, *model.params[name].shape] for name in model.params],
        "sha256": checksum.hexdigest(),
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for grid in grids:
            fh.write(grid.tobytes())


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
        if manifest["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {manifest['version']}; "
                                  f"this code reads version {CHECKPOINT_VERSION}")
        checksum = manifest["sha256"]
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
    if hashlib.sha256(memoryview(data)[start + length:]).hexdigest() != checksum:
        raise CheckpointError("parameter bytes do not match the manifest's SHA-256 checksum")
    return model
