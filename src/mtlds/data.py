"""Dataset schema, the line-delimited file format, impression batching, and
the synthetic user-behavior generator.

File format (tab-separated, one sample per line, header first):

    !schema<TAB>user=<name:card|...><TAB>item=<name:card|...><TAB>dense=<k><TAB>tasks=<t1,t2,...>
    <impression_id><TAB><user ids |-sep><TAB><item ids |-sep><TAB><dense ,-sep><TAB><labels ,-sep>

The dense column is empty when the schema declares dense=0.  Labels must be
monotone non-increasing (a post-click action requires the click); ingestion
rejects violating lines unless ``on_invalid="drop"`` downgrades them to a
logged warning.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .aggregate import LabelOrderError, LabelSequence, first_label_violation

logger = logging.getLogger(__name__)

SCHEMA_PREFIX = "!schema"


class DatasetFormatError(ValueError):
    """A dataset file does not conform to the documented format."""


@dataclass(frozen=True)
class FieldSpec:
    name: str
    cardinality: int


@dataclass(frozen=True)
class Schema:
    user_fields: tuple[FieldSpec, ...]
    item_fields: tuple[FieldSpec, ...]
    dense_count: int
    tasks: tuple[str, ...]

    def __post_init__(self) -> None:
        # embeddings and id columns are keyed by field name
        names = [f.name for f in self.cat_fields]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"field names must be unique across user and item fields: {repeated}")
        for f in self.cat_fields:
            if f.cardinality < 1:
                raise ValueError(f"field {f.name!r}: cardinality must be >= 1, got {f.cardinality}")
        if self.dense_count < 0:
            raise ValueError(f"dense count must be >= 0, got {self.dense_count}")
        if len(set(self.tasks)) != len(self.tasks):
            raise ValueError(f"task names must be distinct, got {list(self.tasks)}")

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    @property
    def cat_fields(self) -> tuple[FieldSpec, ...]:
        return self.user_fields + self.item_fields


@dataclass(frozen=True)
class Sample:
    impression_id: str
    user_ids: tuple[int, ...]
    item_ids: tuple[int, ...]
    dense: tuple[float, ...]
    labels: LabelSequence


@dataclass(frozen=True)
class Impression:
    id: str
    samples: tuple[Sample, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError(f"impression {self.id!r} has no samples")
        for s in self.samples:
            if s.impression_id != self.id:
                raise ValueError(
                    f"sample with impression_id {s.impression_id!r} inside impression {self.id!r}")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class Dataset:
    schema: Schema
    impressions: tuple[Impression, ...]

    @property
    def sample_count(self) -> int:
        return sum(len(imp) for imp in self.impressions)

    def iter_samples(self) -> Iterator[Sample]:
        for imp in self.impressions:
            yield from imp.samples


def _parse_fields(text: str, what: str, line_no: int) -> tuple[FieldSpec, ...]:
    if not text:
        return ()
    out = []
    for part in text.split("|"):
        name, sep, card = part.partition(":")
        if not sep or not name:
            raise DatasetFormatError(f"line {line_no}: bad {what} field spec {part!r}")
        try:
            out.append(FieldSpec(name, int(card)))
        except ValueError:
            raise DatasetFormatError(
                f"line {line_no}: bad cardinality in {what} field {part!r}") from None
    return tuple(out)


def _parse_header(line: str, line_no: int) -> Schema:
    parts = line.rstrip("\n").split("\t")
    if parts[0] != SCHEMA_PREFIX:
        raise DatasetFormatError(f"line {line_no}: expected {SCHEMA_PREFIX!r} header")
    kv = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise DatasetFormatError(f"line {line_no}: bad header token {part!r}")
        kv[key] = value
    missing = {"user", "item", "dense", "tasks"} - kv.keys()
    if missing:
        raise DatasetFormatError(f"line {line_no}: header missing {sorted(missing)}")
    tasks = tuple(t for t in kv["tasks"].split(",") if t)
    if not tasks:
        raise DatasetFormatError(f"line {line_no}: header declares no tasks")
    try:
        dense_count = int(kv["dense"])
    except ValueError:
        raise DatasetFormatError(f"line {line_no}: bad dense count {kv['dense']!r}") from None
    user_fields = _parse_fields(kv["user"], "user", line_no)
    item_fields = _parse_fields(kv["item"], "item", line_no)
    try:
        return Schema(user_fields, item_fields, dense_count, tasks)
    except ValueError as exc:
        raise DatasetFormatError(f"line {line_no}: {exc}") from None


def _parse_ids(text: str, count: int, what: str, line_no: int) -> tuple[int, ...]:
    ids = tuple(int(x) for x in text.split("|")) if text else ()
    if len(ids) != count:
        raise DatasetFormatError(
            f"line {line_no}: expected {count} {what} ids, got {len(ids)}")
    return ids


def _parse_line(line: str, schema: Schema, line_no: int) -> Sample:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 5:
        raise DatasetFormatError(f"line {line_no}: expected 5 tab-separated columns, got {len(parts)}")
    imp_id, user_text, item_text, dense_text, label_text = parts
    if not imp_id:
        raise DatasetFormatError(f"line {line_no}: empty impression id")
    try:
        user_ids = _parse_ids(user_text, len(schema.user_fields), "user", line_no)
        item_ids = _parse_ids(item_text, len(schema.item_fields), "item", line_no)
        dense = tuple(float(x) for x in dense_text.split(",")) if dense_text else ()
        raw_labels = tuple(int(x) for x in label_text.split(",")) if label_text else ()
    except DatasetFormatError:
        raise
    except ValueError as exc:
        raise DatasetFormatError(f"line {line_no}: {exc}") from None
    if len(dense) != schema.dense_count:
        raise DatasetFormatError(
            f"line {line_no}: expected {schema.dense_count} dense values, got {len(dense)}")
    if not all(math.isfinite(x) for x in dense):
        raise DatasetFormatError(f"line {line_no}: non-finite dense value in {dense_text!r}")
    if len(raw_labels) != schema.task_count:
        raise DatasetFormatError(
            f"line {line_no}: expected {schema.task_count} labels, got {len(raw_labels)}")
    t = first_label_violation(raw_labels)
    if t is not None:
        raise LabelOrderError(
            f"line {line_no}: impression {imp_id!r} has label {t + 1} set "
            f"without label {t} (pair ({t}, {t + 1}))")
    return Sample(imp_id, user_ids, item_ids, dense, LabelSequence(raw_labels))


def load_dataset(path, on_invalid: str = "error") -> Dataset:
    """Read a dataset file, grouping samples by impression id in file order;
    the lines of one impression must be adjacent.

    ``on_invalid="drop"`` discards samples with non-monotone labels with a
    warning instead of raising (for dirty real logs); format errors always
    raise.
    """
    if on_invalid not in ("error", "drop"):
        raise ValueError(f"on_invalid must be 'error' or 'drop', got {on_invalid!r}")
    groups: dict[str, list[Sample]] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise DatasetFormatError("empty file: missing schema header")
        schema = _parse_header(header, 1)
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                sample = _parse_line(line, schema, line_no)
            except LabelOrderError as exc:
                if on_invalid == "drop":
                    logger.warning("dropping sample: %s", exc)
                    continue
                raise
            if sample.impression_id != current and sample.impression_id in groups:
                raise DatasetFormatError(
                    f"line {line_no}: impression {sample.impression_id!r} reappears after "
                    f"{current!r}; the lines of one impression must be adjacent")
            current = sample.impression_id
            groups.setdefault(current, []).append(sample)
    impressions = tuple(Impression(imp_id, tuple(samples))
                        for imp_id, samples in groups.items())
    return Dataset(schema=schema, impressions=impressions)


def _format_fields(fields: tuple[FieldSpec, ...]) -> str:
    return "|".join(f"{f.name}:{f.cardinality}" for f in fields)


def write_dataset(ds: Dataset, path) -> None:
    """Write a dataset in the documented format (floats via shortest repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{SCHEMA_PREFIX}\tuser={_format_fields(ds.schema.user_fields)}"
            f"\titem={_format_fields(ds.schema.item_fields)}"
            f"\tdense={ds.schema.dense_count}"
            f"\ttasks={','.join(ds.schema.tasks)}\n")
        for sample in ds.iter_samples():
            fh.write("\t".join([
                sample.impression_id,
                "|".join(str(i) for i in sample.user_ids),
                "|".join(str(i) for i in sample.item_ids),
                ",".join(repr(float(x)) for x in sample.dense),
                ",".join(str(l) for l in sample.labels),
            ]) + "\n")


@dataclass(frozen=True)
class SynthConfig:
    """Latent-factor generator configuration.

    Per-task biases must be strictly decreasing so later behaviors are rarer,
    matching the click >> conversion sparsity of production logs.
    """

    users: int = 60
    items: int = 240
    impressions: int = 4200
    list_size: int = 12
    latent_dim: int = 4
    tasks: tuple[str, ...] = ("click", "purchase")
    biases: tuple[float, ...] = (-1.0, -3.25)
    noise: float = 0.3
    seed: int = 7

    def __post_init__(self) -> None:
        if len(self.tasks) < 2:
            raise ValueError("need at least 2 tasks (click plus one post-click behavior)")
        if len(self.biases) != len(self.tasks):
            raise ValueError(f"{len(self.biases)} biases for {len(self.tasks)} tasks")
        if any(b2 >= b1 for b1, b2 in zip(self.biases, self.biases[1:])):
            raise ValueError(f"biases must be strictly decreasing, got {self.biases}")
        if min(self.users, self.items, self.impressions, self.list_size, self.latent_dim) < 1:
            raise ValueError("users, items, impressions, list_size, latent_dim must be >= 1")
        if self.items < self.list_size:
            raise ValueError("need at least list_size distinct items")
        if self.noise < 0:
            raise ValueError("noise must be non-negative")


def synthesize(cfg: SynthConfig) -> Dataset:
    """Generate an implicit-feedback dataset from a seeded latent-factor model.

    Each impression shows one user a list of distinct items.  Per task t the
    propensity is sigmoid(<u, v_t> + bias_t + noise);  labels are sampled as
    a cascade, so a behavior can fire only when the previous one did and the
    sequences are monotone by construction.
    """
    rng = np.random.default_rng(cfg.seed)
    t_count = len(cfg.tasks)
    u_vecs = rng.standard_normal((cfg.users, cfg.latent_dim))
    v_vecs = rng.standard_normal((cfg.items, t_count, cfg.latent_dim))
    biases = np.asarray(cfg.biases)

    impressions = []
    for k in range(cfg.impressions):
        user = int(rng.integers(cfg.users))
        items = rng.choice(cfg.items, size=cfg.list_size, replace=False)
        logits = (v_vecs[items] @ u_vecs[user]) + biases  # (n, T)
        if cfg.noise > 0:
            logits = logits + cfg.noise * rng.standard_normal(logits.shape)
        probs = 1.0 / (1.0 + np.exp(-logits))
        draws = rng.random(probs.shape)
        imp_id = f"imp{k:06d}"
        samples = []
        for row, item in enumerate(items):
            labels = []
            alive = True
            for t in range(t_count):
                fired = alive and draws[row, t] < probs[row, t]
                labels.append(1 if fired else 0)
                alive = fired
            samples.append(Sample(
                impression_id=imp_id,
                user_ids=(user,),
                item_ids=(int(item),),
                dense=(),
                labels=LabelSequence(tuple(labels)),
            ))
        impressions.append(Impression(imp_id, tuple(samples)))

    schema = Schema(
        user_fields=(FieldSpec("user_id", cfg.users),),
        item_fields=(FieldSpec("item_id", cfg.items),),
        dense_count=0,
        tasks=cfg.tasks,
    )
    return Dataset(schema=schema, impressions=tuple(impressions))


def batch_impressions(
    ds: Dataset,
    batch_size: int,
    seed: int,
    epoch: int = 0,
) -> Iterator[list[Impression]]:
    """Yield shuffled impression batches; impressions are never split.

    The shuffle is a pure function of (seed, epoch), so iteration order is
    reproducible per epoch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.random.default_rng([seed, epoch]).permutation(len(ds.impressions))
    for start in range(0, len(order), batch_size):
        yield [ds.impressions[i] for i in order[start:start + batch_size]]


def split(
    ds: Dataset,
    fractions: Sequence[float],
    seed: int,
) -> tuple[Dataset, ...]:
    """Partition impressions into len(fractions) disjoint datasets.

    Fractions must be non-negative and sum to 1; sizes match the fractions to
    within one impression (cumulative rounding).
    """
    fracs = [float(f) for f in fractions]
    if any(f < 0 for f in fracs):
        raise ValueError(f"fractions must be non-negative, got {fracs}")
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got sum {sum(fracs)}")
    n = len(ds.impressions)
    order = np.random.default_rng(seed).permutation(n)
    cuts = [0]
    acc = 0.0
    for f in fracs:
        acc += f
        cuts.append(round(acc * n))
    cuts[-1] = n
    parts = []
    for a, b in zip(cuts, cuts[1:]):
        parts.append(Dataset(
            schema=ds.schema,
            impressions=tuple(ds.impressions[i] for i in order[a:b]),
        ))
    return tuple(parts)


def project_tasks(ds: Dataset, tasks: Sequence[str]) -> Dataset:
    """Restrict a dataset to an order-preserving subsequence of its tasks.

    Keeping the original order preserves the monotone label invariant (any
    subsequence of a monotone sequence is monotone).
    """
    names = list(tasks)
    positions = []
    for name in names:
        if name not in ds.schema.tasks:
            raise ValueError(f"unknown task {name!r}; dataset has {ds.schema.tasks}")
        positions.append(ds.schema.tasks.index(name))
    if positions != sorted(positions):
        raise ValueError(f"tasks must keep the original order {ds.schema.tasks}, got {names}")
    if not positions:
        raise ValueError("need at least one task")

    def cut(sample: Sample) -> Sample:
        labels = LabelSequence(tuple(sample.labels.labels[p] for p in positions))
        return replace(sample, labels=labels)

    schema = replace(ds.schema, tasks=tuple(names))
    impressions = tuple(
        Impression(imp.id, tuple(cut(s) for s in imp.samples)) for imp in ds.impressions)
    return Dataset(schema=schema, impressions=impressions)
