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
                   batch_impressions, from_dict, require_int)
from .evaluation import MetricReport, UndefinedMetricError, evaluate_ranking
from .gradcore import AdamState, Graph, Tensor, adam_step, fn
from .gradcore.tensor import Layout
from .sortops import (
    bce_loss,
    check_lengths,
    check_tau,
    column_inputs,
    finite_real,
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
# rows per scoring graph, measured (one BLAS thread): at 1024 a full synthetic
# pass takes about 700 minor page faults and 44 ms; from 1536 rows (2048 on the
# ragged log) freed tapes go back to the OS and fault in again: 25k faults, 80 ms.
SCORE_ROWS = 1024

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
        if not (finite_real(self.sort_loss_weight) and self.sort_loss_weight >= 0):
            raise ValueError(f"sort_loss_weight must be finite and >= 0, got {self.sort_loss_weight}")
        if not (finite_real(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        require_int("epochs", self.epochs, 0)
        require_int("seed", self.seed, 0)
        for name in ("batch_size", "embedding_dim"):
            require_int(name, getattr(self, name), 1)
        for name in ("shared_layers", "tower_layers"):
            for i, width in enumerate(getattr(self, name)):
                require_int(f"{name}[{i}]", width, 1)


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
    each, in turn; one impression by default), averaged over impressions.
    ``soft_sort`` runs once per impression in order, and ``label_permutation``
    once per block of equal-length impressions (``layout.blocks``).  A
    non-finite column has no sort order: its loss is NaN, a divergence to ``fit``."""
    yv, layout = column_inputs(col, target, lengths, "softsort_loss")
    if not np.all(np.isfinite(col.value)):
        return col.graph.tensor(np.nan)
    perms = [None] * layout.lengths.size
    for members, rows in layout.blocks:
        for i, perm in zip(members, label_permutation(yv[rows])):
            perms[i] = perm
    p_hats = [soft_sort(fn.gather_rows(col, rows), tau)
              for rows in np.split(np.arange(col.rows), np.cumsum(layout.lengths)[:-1])]
    return sort_loss(p_hats, perms, layout)


# losses of an (n, 1) column against a target vector, averaged over the impressions
COLUMN_LOSSES = {"sort": softsort_loss, "bce": bce_loss, "ranknet": ranknet_loss,
                 "listnet": listnet_loss}


class SharedBottomModel:
    """Hard parameter sharing: common bottom layers plus one tower per task.

    Parameters live as named numpy arrays; each training step registers them
    as leaf tensors on a fresh graph.  They are drawn from ``config.seed``
    unless ``params`` gives them, in the model's order and shapes.
    """

    def __init__(self, schema: Schema, config: ModelConfig,
                 params: dict[str, np.ndarray] | None = None):
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
        if not (schema.cat_fields or schema.dense_count):
            raise ValueError("empty model input: the schema has no user or item field and dense=0")
        if params is None:
            params = self._make_params(np.random.default_rng(config.seed))
        given = [[name, *arr.shape] for name, arr in params.items()]
        layout = [[name, *shape] for name, shape in self._make_params(None).items()]
        if given != layout:
            raise ValueError(f"parameter layout {given} does not match the model's {layout}")
        self.params = params

    def _make_params(self, rng: np.random.Generator | None) -> dict:
        """Every parameter by name, in order: its initial grid, a standard normal
        draw from ``rng`` times ``std`` or ``fill`` everywhere, or with
        ``rng=None`` only its shape, so no array is made."""
        cfg = self.config

        def grid(shape: tuple[int, int], std: float | None = None, fill: float = 0.0):
            if rng is None:
                return shape
            return np.full(shape, fill) if std is None else std * rng.standard_normal(shape)

        # one extra embedding row reserved for out-of-vocabulary ids
        params = {f"emb/{spec.name}": grid((spec.cardinality + 1, cfg.embedding_dim), 0.1)
                  for spec in self.schema.cat_fields}

        def dense(prefix: str, fan_in: int, width: int, gain: float = 2.0) -> int:
            params[f"{prefix}/W"] = grid((fan_in, width), np.sqrt(gain / fan_in))
            params[f"{prefix}/b"] = grid((width, 1))
            return width

        fan_in = len(self.schema.cat_fields) * cfg.embedding_dim + self.schema.dense_count
        for i, width in enumerate(cfg.shared_layers):
            fan_in = dense(f"shared/{i}", fan_in, width)
        for t in range(self.tower_count):
            dim = fan_in
            for i, width in enumerate(cfg.tower_layers):
                dim = dense(f"tower/{t}/{i}", dim, width)
            dense(f"tower/{t}/{len(cfg.tower_layers)}", dim, 1, gain=1.0)
        if self.aggregator == "linear":
            params["agg/w"] = grid((self.tower_count, 1), fill=1.0)
        return params

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
        scores = self.flat_scores(ids, dense, rank_by)
        return np.split(scores, np.cumsum(lengths)[:-1]) if lengths.size else []

    def flat_scores(self, ids: np.ndarray, dense: np.ndarray,
                    rank_by: str = "aggregate") -> np.ndarray:
        """The ``rank_by`` score of every row of ``Dataset.columns`` ids and dense
        arrays, one graph per ``SCORE_ROWS`` consecutive rows: the network is
        row-wise, so a range may cut an impression.  A row's bits depend on its
        index and the row count (a range's row count sets the matmul bits)."""
        out = np.empty(len(ids))
        for a in range(0, len(ids), SCORE_ROWS):
            rows = slice(a, a + SCORE_ROWS)
            out[rows] = self._range_scores(ids[rows], dense[rows], rank_by)
        return out

    def _range_scores(self, ids: np.ndarray, dense: np.ndarray, rank_by: str) -> np.ndarray:
        """One range's scores; its graph is freed on return, before the next is built."""
        graph = Graph()
        pt = self.bind(graph)
        return self._score_column(self.task_columns(graph, ids, dense, pt), rank_by, pt).value[:, 0]


def rank_by_task(rank_by: str, tasks: Sequence[str] | None = None) -> str | None:
    """The task named by ``rank_by="task:<name>"``, or None for ``"aggregate"``.

    Raises ValueError for any other value, a non-string included, and for a
    name not in ``tasks`` when they are given.
    """
    if rank_by == "aggregate":
        return None
    if not (isinstance(rank_by, str) and rank_by.startswith("task:")):
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
    ids, dense, labels, lengths = ds.columns
    scores = model.flat_scores(ids, dense, rank_by)
    return evaluate_ranking(scores, label_gain(labels, gain), label_gain(labels, "final"),
                            lengths, cutoffs)


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
    final = label_gain(valid.columns.labels, "final")
    positives = int(final.sum())
    if positives in (0, final.size):
        raise UndefinedMetricError(
            f"validation AUC undefined: {positives} of {final.size} final labels positive")
    model = SharedBottomModel(train.schema, config)
    state = AdamState.for_params(model.params)
    report = TrainReport(model_kind=config.kind, seed=config.seed)
    # adam_step writes no array it is given, so a reference keeps the best epoch
    best_ndcg, best_params = -np.inf, model.params

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
                grads = {n: grads_map.get(t.node_id, np.zeros_like(t.value)) for n, t in pt.items()}
                for n, g in grads.items():
                    if not np.isfinite(g).all():
                        raise DivergenceError(
                            f"gradient of {n!r} became non-finite at epoch {epoch}, batch {b_idx}")
                model.params = adam_step(model.params, grads, state, lr=config.learning_rate)
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
                best_ndcg, best_params, report.best_epoch = ndcg, model.params, epoch

    model.params = best_params
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
        schema = _schema_from_dict(manifest["schema"])
        config = from_dict(ModelConfig, manifest["config"])
        # the grids the manifest declares are read from the file, and only then
        # checked against the model, so no array is larger than the file backs
        params, offset = {}, start + length
        for name, rows, cols in manifest["params"]:
            if len(data) < offset + rows * cols * 8:
                raise CheckpointError(f"truncated checkpoint: parameter {name!r} ({rows}x{cols}) "
                                      f"needs {rows * cols * 8} bytes, {len(data) - offset} present")
            params[name] = np.frombuffer(
                data, dtype=np.float64, count=rows * cols, offset=offset).reshape(rows, cols).copy()
            offset += rows * cols * 8
        if offset != len(data):
            raise CheckpointError(f"{len(data) - offset} trailing bytes after the last parameter grid")
        if hashlib.sha256(memoryview(data)[start + length:]).hexdigest() != checksum:
            raise CheckpointError("parameter bytes do not match the manifest's SHA-256 checksum")
        # fit stops before a parameter goes non-finite, so one here is a fault in the file
        bad = next((name for name, grid in params.items() if not np.isfinite(grid).all()), None)
        if bad is not None:
            raise CheckpointError(f"parameter {bad!r} holds a non-finite value")
        return SharedBottomModel(schema, config, params)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # JSON and unicode errors included
        raise CheckpointError(f"bad checkpoint manifest: {type(exc).__name__}: {exc}") from None
