"""Dataset schema, the line-delimited file format, impression batching, and
the synthetic user-behavior generator.

File format (tab-separated, one sample per line, header first):

    !schema<TAB>user=<name:card|...><TAB>item=<name:card|...><TAB>dense=<k><TAB>tasks=<t1,t2,...>
    <impression_id><TAB><user ids |-sep><TAB><item ids |-sep><TAB><dense ,-sep><TAB><labels ,-sep>

The file is UTF-8, and the header gives each of its four keys once.  The
dense column is empty when the schema declares dense=0.  Ids are integers
within int64.  Labels are 0 or 1 and monotone non-increasing (a post-click
action requires the click).  Every violation raises, naming the line.  A
blank line is skipped; a line holding a tab is a data line.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple, Sequence

import numpy as np

from .aggregate import LabelOrderError, LabelSequence
from .sortops import finite_real

SCHEMA_PREFIX = "!schema"
HEADER_KEYS = ("user", "item", "dense", "tasks")


class DatasetFormatError(ValueError):
    """A dataset file does not conform to the documented format."""


def check_task_names(tasks: Sequence) -> None:
    """Raise ValueError unless ``tasks`` are distinct, non-empty strings that
    a file header can carry: none holds ``,``, a tab, CR or LF."""
    if not all(isinstance(t, str) and t and not any(c in t for c in ",\t\r\n") for t in tasks):
        raise ValueError("task names must be non-empty strings without ',', tab, CR or LF, "
                         f"got {list(tasks)}")
    if len(set(tasks)) != len(tasks):
        raise ValueError(f"task names must be distinct, got {list(tasks)}")


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
        check_task_names(self.tasks)

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    @property
    def cat_fields(self) -> tuple[FieldSpec, ...]:
        return self.user_fields + self.item_fields


@dataclass(frozen=True)
class Sample:
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

    def __len__(self) -> int:
        return len(self.samples)


class Columns(NamedTuple):
    """A dataset's samples as read-only arrays, one row per sample, one
    impression after another."""

    ids: np.ndarray  # (N, U + I) int64 raw ids: the user fields, then the item fields
    dense: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N, T) float64: 0 or 1, one column per task
    lengths: np.ndarray  # np.intp samples per impression

    def take(self, impressions: np.ndarray) -> Columns:
        """The rows of ``impressions`` (positions in ``lengths``) in order, and their lengths."""
        lengths = self.lengths[impressions]
        firsts = (np.cumsum(self.lengths) - self.lengths)[impressions]
        rows = np.repeat(firsts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        return Columns(self.ids[rows], self.dense[rows], self.labels[rows], lengths)


@dataclass(frozen=True)
class Dataset:
    schema: Schema
    impressions: tuple[Impression, ...]

    @property
    def sample_count(self) -> int:
        return sum(len(imp) for imp in self.impressions)

    def iter_samples(self) -> Iterator[Sample]:
        return chain.from_iterable(imp.samples for imp in self.impressions)

    @cached_property
    def columns(self) -> Columns:
        """The samples as arrays, built on first use and kept with the
        dataset, which is immutable; ``cached_property`` writes the instance
        ``__dict__`` directly, so the frozen dataclass allows it.  This is the
        one walk from sample objects to arrays.  Raises ValueError naming the
        first sample whose labels do not number ``task_count``, or whose
        dense values do not number ``dense_count``."""
        schema = self.schema
        samples = list(self.iter_samples())
        n, d, t = len(samples), schema.dense_count, schema.task_count
        label_rows = [s.labels.labels for s in samples]
        bad = next((row for row, r in enumerate(label_rows) if len(r) != t), None)
        if bad is not None:
            raise ValueError(f"sample {bad} has {len(label_rows[bad])} labels, "
                             f"the schema declares {t} tasks")
        bad = next((row for row, s in enumerate(samples) if len(s.dense) != d), None)
        if bad is not None:
            raise ValueError(f"sample {bad} has {len(samples[bad].dense)} dense values, "
                             f"the schema declares {d}")
        by_field = ([[s.user_ids[f] for s in samples] for f in range(len(schema.user_fields))]
                    + [[s.item_ids[f] for s in samples] for f in range(len(schema.item_fields))])
        ids = np.array(by_field, dtype=np.int64).reshape(len(by_field), n).T
        dense = np.fromiter(chain.from_iterable(s.dense for s in samples), np.float64,
                            count=n * d).reshape(n, d)
        labels = np.fromiter(chain.from_iterable(label_rows), np.float64, count=n * t).reshape(n, t)
        lengths = np.array([len(imp) for imp in self.impressions], dtype=np.intp)
        for a in (ids, dense, labels, lengths):
            a.flags.writeable = False
        return Columns(ids, dense, labels, lengths)


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
    parts = line.rstrip("\r\n").split("\t")
    if parts[0] != SCHEMA_PREFIX:
        raise DatasetFormatError(f"line {line_no}: expected {SCHEMA_PREFIX!r} header")
    kv = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise DatasetFormatError(f"line {line_no}: bad header token {part!r}")
        if key not in HEADER_KEYS or key in kv:
            what = "repeated" if key in kv else "unknown"
            raise DatasetFormatError(f"line {line_no}: {what} header key {key!r}")
        kv[key] = value
    missing = set(HEADER_KEYS) - kv.keys()
    if missing:
        raise DatasetFormatError(f"line {line_no}: header missing {sorted(missing)}")
    try:
        dense_count = int(kv["dense"])
    except ValueError:
        raise DatasetFormatError(f"line {line_no}: bad dense count {kv['dense']!r}") from None
    user_fields = _parse_fields(kv["user"], "user", line_no)
    item_fields = _parse_fields(kv["item"], "item", line_no)
    try:
        return Schema(user_fields, item_fields, dense_count, tuple(kv["tasks"].split(",")))
    except ValueError as exc:
        raise DatasetFormatError(f"line {line_no}: {exc}") from None


def _parse_ids(text: str, count: int, what: str, line_no: int) -> tuple[int, ...]:
    ids = tuple(int(x) for x in text.split("|")) if text else ()
    if len(ids) != count:
        raise DatasetFormatError(
            f"line {line_no}: expected {count} {what} ids, got {len(ids)}")
    # ids are encoded as int64; no text of 18 characters or fewer holds a larger one
    if len(text) > 18 and not all(-2 ** 63 <= i < 2 ** 63 for i in ids):
        raise DatasetFormatError(f"line {line_no}: {what} id outside int64 in {text!r}")
    return ids


def _parse_line(line: str, schema: Schema, line_no: int) -> tuple[str, Sample]:
    """The impression id and the sample of one data line."""
    parts = line.rstrip("\r\n").split("\t")
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
    try:
        labels = LabelSequence(raw_labels)
    except LabelOrderError as exc:  # name the line, and the impression of an order fault
        if not set(raw_labels) <= {0, 1}:
            raise DatasetFormatError(
                f"line {line_no}: labels must be 0 or 1, got {label_text!r}") from None
        raise LabelOrderError(f"line {line_no}: impression {imp_id!r} has {exc}") from None
    return imp_id, Sample(user_ids, item_ids, dense, labels)


def _decoded_lines(fh: BinaryIO) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of a binary file, which must be UTF-8."""
    for line_no, raw in enumerate(fh, start=1):
        try:
            yield line_no, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(
                f"line {line_no}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def load_dataset(path) -> Dataset:
    """Read a dataset file, grouping samples by impression id in file order;
    the lines of one impression must be adjacent.  A fault in the file raises
    :class:`DatasetFormatError`, or :class:`LabelOrderError` for labels out of
    order, naming the line.
    """
    groups: dict[str, list[Sample]] = {}
    current = None
    with open(path, "rb") as fh:
        lines = _decoded_lines(fh)
        header = next(lines, None)
        if header is None:
            raise DatasetFormatError("empty file: missing schema header")
        schema = _parse_header(header[1], 1)
        for line_no, line in lines:
            if not line.strip() and "\t" not in line:
                continue
            imp_id, sample = _parse_line(line, schema, line_no)
            if imp_id != current and imp_id in groups:
                raise DatasetFormatError(
                    f"line {line_no}: impression {imp_id!r} reappears after "
                    f"{current!r}; the lines of one impression must be adjacent")
            current = imp_id
            groups.setdefault(current, []).append(sample)
    impressions = tuple(Impression(imp_id, tuple(samples))
                        for imp_id, samples in groups.items())
    return Dataset(schema=schema, impressions=impressions)


@contextmanager
def atomic_open(path) -> Iterator[BinaryIO]:
    """Binary handle on a temporary file next to ``path`` that replaces
    ``path`` (``os.replace``) when the block exits cleanly; an exception
    part-way removes it and leaves ``path`` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _format_fields(fields: tuple[FieldSpec, ...]) -> str:
    return "|".join(f"{f.name}:{f.cardinality}" for f in fields)


def write_dataset(ds: Dataset, path) -> None:
    """Write a dataset in the documented format (floats via shortest repr),
    atomically (see ``atomic_open``)."""
    with atomic_open(path) as raw, io.TextIOWrapper(raw, encoding="utf-8") as fh:
        fh.write(
            f"{SCHEMA_PREFIX}\tuser={_format_fields(ds.schema.user_fields)}"
            f"\titem={_format_fields(ds.schema.item_fields)}"
            f"\tdense={ds.schema.dense_count}"
            f"\ttasks={','.join(ds.schema.tasks)}\n")
        for imp in ds.impressions:
            for sample in imp.samples:
                fh.write("\t".join([
                    imp.id,
                    "|".join(str(i) for i in sample.user_ids),
                    "|".join(str(i) for i in sample.item_ids),
                    ",".join(repr(float(x)) for x in sample.dense),
                    ",".join(str(l) for l in sample.labels.labels),
                ]) + "\n")


def require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer, not a
    bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def from_dict(cls, d):
    """``cls(**d)`` with every list value of the mapping ``d`` made a tuple:
    the one rule that turns a YAML or JSON section into a frozen config.
    Raises TypeError or ValueError for a non-mapping, an unknown key or a bad value,
    such as a non-list for a field whose default is a tuple."""
    d = dict(d)
    for f in fields(cls):
        if isinstance(f.default, tuple) and not isinstance(d.get(f.name, ()), (list, tuple)):
            raise ValueError(f"{f.name} must be a list, got {d[f.name]!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


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
        for name in ("users", "items", "impressions", "list_size", "latent_dim"):
            require_int(name, getattr(self, name), 1)
        require_int("seed", self.seed, 0)
        if len(self.tasks) < 2:
            raise ValueError("need at least 2 tasks (click plus one post-click behavior)")
        check_task_names(self.tasks)
        if len(self.biases) != len(self.tasks):
            raise ValueError(f"{len(self.biases)} biases for {len(self.tasks)} tasks")
        if not all(finite_real(b) for b in self.biases):
            raise ValueError(f"biases must be finite, got {self.biases}")
        if any(b2 >= b1 for b1, b2 in zip(self.biases, self.biases[1:])):
            raise ValueError(f"biases must be strictly decreasing, got {self.biases}")
        if self.items < self.list_size:
            raise ValueError("need at least list_size distinct items")
        if not (finite_real(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and non-negative, got {self.noise}")


def synthesize(cfg: SynthConfig) -> Dataset:
    """Generate an implicit-feedback dataset from a seeded latent-factor model.

    Each impression shows one user a list of distinct items.  Per task t the
    propensity is sigmoid(<u, v_t> + bias_t + noise);  labels are sampled as
    a cascade, so a behavior can fire only when the previous one did and the
    sequences are monotone by construction.
    """
    schema = Schema(
        user_fields=(FieldSpec("user_id", cfg.users),),
        item_fields=(FieldSpec("item_id", cfg.items),),
        dense_count=0,
        tasks=cfg.tasks,
    )
    rng = np.random.default_rng(cfg.seed)
    u_vecs = rng.standard_normal((cfg.users, cfg.latent_dim))
    v_vecs = rng.standard_normal((cfg.items, len(cfg.tasks), cfg.latent_dim))
    biases = np.asarray(cfg.biases)

    impressions = []
    for k in range(cfg.impressions):
        user = int(rng.integers(cfg.users))
        items = rng.choice(cfg.items, size=cfg.list_size, replace=False)
        logits = (v_vecs[items] @ u_vecs[user]) + biases  # (n, T)
        if cfg.noise > 0:
            logits = logits + cfg.noise * rng.standard_normal(logits.shape)
        probs = 1.0 / (1.0 + np.exp(-logits))
        # the cascade: task t fires when its draw does and every earlier task fired
        labels = np.cumprod(rng.random(probs.shape) < probs, axis=1)
        samples = tuple(
            Sample(user_ids=(user,), item_ids=(item,), dense=(), labels=LabelSequence(tuple(row)))
            for item, row in zip(items.tolist(), labels.tolist()))
        impressions.append(Impression(f"imp{k:06d}", samples))
    return Dataset(schema=schema, impressions=tuple(impressions))


def batch_impressions(
    ds: Dataset,
    batch_size: int,
    seed: int,
    epoch: int = 0,
) -> Iterator[np.ndarray]:
    """Yield shuffled batches of positions in ``ds.impressions``, never splitting one.

    ``ds.columns.take`` gives a batch's rows.  The shuffle is a pure function
    of (seed, epoch), so iteration order is reproducible per epoch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.random.default_rng([seed, epoch]).permutation(len(ds.impressions))
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def split_fractions(fractions: Sequence[float]) -> list[float]:
    """The train/valid/test fractions as floats; raises ValueError naming
    ``split`` unless they are three finite, non-negative numbers summing to 1."""
    if (len(fractions) != 3
            or not all(finite_real(f) and f >= 0 for f in fractions)
            or abs(sum(float(f) for f in fractions) - 1.0) > 1e-9):
        raise ValueError("split must be 3 finite, non-negative numbers summing to 1 "
                         f"(train, valid, test), got {list(fractions)}")
    return [float(f) for f in fractions]


def split(
    ds: Dataset,
    fractions: Sequence[float],
    seed: int,
) -> tuple[Dataset, Dataset, Dataset]:
    """Partition impressions into disjoint train, valid and test datasets.

    The fractions follow ``split_fractions``; sizes match them to within one
    impression (cumulative rounding).
    """
    fracs = split_fractions(fractions)
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
