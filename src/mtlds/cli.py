"""Command-line entry point: synthesize data, train and evaluate models, run
the gradient-check suite, and print the aggregation-operator demo table.

Exit codes: 0 success, 1 check or training failure, 2 usage/config error.
The ``MTLDS_OUT_DIR`` environment variable overrides the output directory
(and nothing else).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import click
import numpy as np
import yaml

from .aggregate import GAINS, aggregate_columns
from .checks import run_all_checks
from .data import (
    Dataset,
    DatasetFormatError,
    Schema,
    SynthConfig,
    atomic_open,
    from_dict,
    load_dataset,
    require_int,
    split,
    split_fractions,
    synthesize,
    write_dataset,
)
from .evaluation import UndefinedMetricError
from .gradcore import Graph
from .model import (
    DivergenceError,
    ModelConfig,
    SharedBottomModel,
    evaluate_model,
    fit,
    load_checkpoint,
    rank_by_task,
    save_checkpoint,
)


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    synth: SynthConfig | None
    dataset_path: str | None
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)
    cutoffs: tuple[int, ...] = (2, 6, 12)
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "runs/experiment"
    rank_by: str = "aggregate"
    gain: str = "depth"

    def __post_init__(self) -> None:
        if (self.synth is None) == (self.dataset_path is None):
            raise ConfigError("config must provide exactly one of data.synth / data.path")
        split_fractions(self.split)
        if not self.seeds:
            raise ConfigError("seed list is empty")
        for i, seed in enumerate(self.seeds):
            require_int(f"seeds[{i}]", seed, 0)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seed list has repeats: {list(self.seeds)}")
        if not self.cutoffs:
            raise ConfigError("cutoff list is empty")
        for i, k in enumerate(self.cutoffs):
            require_int(f"cutoffs[{i}]", k, 1)
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.dataset_path, (str, type(None))):
            raise ConfigError(f"data.path must be a string, got {self.dataset_path!r}")
        if self.gain not in GAINS:
            raise ConfigError(f"gain must be 'depth' or 'final', got {self.gain!r}")
        rank_by_task(self.rank_by)  # the task name is checked once the data is loaded


# the top-level keys of a config file besides its "model" and "data" sections
TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                 if f.name not in ("model", "synth", "dataset_path"))


def _section(what: str, cls, d):
    """``from_dict(cls, d)``, an absent or empty ``d`` taken as no keys; a
    fault that is not already a ConfigError becomes one prefixed ``what``."""
    try:
        return from_dict(cls, d or {})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    unknown = raw.keys() - {"model", "data", *TOP_KEYS}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    model_raw = raw.get("model")
    if isinstance(model_raw, dict) and "seed" in model_raw:
        raise ConfigError("model.seed is not read: the run seeds come from `seeds` (or --seed)")
    model = _section("bad model section", ModelConfig, model_raw)
    data_raw = raw.get("data") or {}
    if not isinstance(data_raw, dict) or (data_raw.keys() - {"synth", "path"}):
        raise ConfigError("data section must contain only 'synth' and/or 'path'")
    synth = (_section("bad data.synth section", SynthConfig, data_raw["synth"])
             if "synth" in data_raw else None)
    given = {k: raw[k] for k in TOP_KEYS if k in raw}
    return _section("bad config value", ExperimentConfig,
                    dict(given, model=model, synth=synth, dataset_path=data_raw.get("path")))


def experiment_hash(cfg: ExperimentConfig) -> str:
    """Short hash of every config field except the output directory."""
    payload = asdict(cfg)
    del payload["out_dir"]
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_source(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        return synthesize(cfg.synth)
    try:
        return load_dataset(cfg.dataset_path)
    except OSError as exc:
        raise ConfigError(f"cannot read {cfg.dataset_path}: {exc}") from exc


def _resolve_out_dir(cfg: ExperimentConfig, flag_value: str | None) -> Path:
    env = os.environ.get("MTLDS_OUT_DIR")
    if env:
        return Path(env)
    if flag_value:
        return Path(flag_value)
    return Path(cfg.out_dir)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main() -> None:
    """Multi-task conversion ranking with differentiable sorting."""


@main.command("synth")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False, writable=False))
def cmd_synth(config_path: str, out_path: str) -> None:
    """Generate the configured synthetic dataset and write it to a file."""
    try:
        cfg = load_experiment_config(config_path)
        if cfg.synth is None:
            raise ConfigError("synth command needs a data.synth section")
        ds = synthesize(cfg.synth)
        write_dataset(ds, out_path)
    except ConfigError as exc:
        _fail(str(exc), 2)
    except OSError as exc:
        _fail(f"cannot write {out_path}: {exc}", 2)
    click.echo(f"wrote {out_path}")
    click.echo(f"impressions={len(ds.impressions)} samples={ds.sample_count}")
    positives = ds.columns.labels.sum(axis=0)
    for task, count in zip(ds.schema.tasks, positives):
        click.echo(f"positives[{task}]={int(count)}")


def _single_seed_run(cfg: ExperimentConfig, source: Dataset, seed: int, out_dir: Path):
    train_ds, valid_ds, test_ds = split(source, cfg.split, seed=seed)
    model, report = fit(replace(cfg.model, seed=seed), train_ds, valid_ds)
    metrics = evaluate_model(model, test_ds, cutoffs=cfg.cutoffs,
                             rank_by=cfg.rank_by, gain=cfg.gain)
    seed_dir = out_dir / f"seed{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, seed_dir / "checkpoint.bin")
    payload = {
        "config_hash": experiment_hash(cfg),
        "model_kind": cfg.model.kind,
        "seed": seed,
        "train": report.as_dict(),
        "test": metrics.as_dict(),
    }
    _write_json(seed_dir / "report.json", payload)
    return payload["test"]


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_flag", default=None, type=click.Path(file_okay=False))
@click.option("--seed", "seed_flag", default=None, type=int,
              help="Override the config's seed list with a single seed.")
@click.option("--rank-by", "rank_by_flag", default=None,
              help="Override ranking score: 'aggregate' or 'task:<name>'.")
def cmd_train(config_path: str, out_flag: str | None, seed_flag: int | None,
              rank_by_flag: str | None) -> None:
    """Split, train, and evaluate for every seed; write per-seed and aggregate reports."""
    try:
        cfg = load_experiment_config(config_path)
        if seed_flag is not None:
            cfg = replace(cfg, seeds=(seed_flag,))
        if rank_by_flag is not None:
            cfg = replace(cfg, rank_by=rank_by_flag)
        source = _load_source(cfg)
        rank_by_task(cfg.rank_by, source.schema.tasks)
        SharedBottomModel(source.schema, cfg.model)  # the kind and task losses fit the data
        # the part sizes depend on the impression count and fractions, not on the seed
        sizes = [len(part.impressions) for part in split(source, cfg.split, seed=cfg.seeds[0])]
        if 0 in sizes:
            raise ConfigError(f"split {list(cfg.split)} of {len(source.impressions)} impressions "
                              f"gives train/valid/test sizes {sizes}; each needs one or more")
    except (ConfigError, DatasetFormatError, ValueError) as exc:
        _fail(str(exc), 2)
    out_dir = _resolve_out_dir(cfg, out_flag)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(f"cannot write {out_dir}: {exc}", 2)
    tests: dict[int, dict] = {}
    try:
        for seed in cfg.seeds:
            tests[seed] = _single_seed_run(cfg, source, seed, out_dir)
    except DivergenceError as exc:
        _fail(str(exc), 1)
    except UndefinedMetricError as exc:
        _fail(f"metric undefined on this split: {exc}", 1)

    # each seed's metrics keyed as in aggregate.json; a repeated cutoff repeats its key
    keys = ["auc"] + [f"ndcg@{k}" for k in cfg.cutoffs]
    rows = [{"auc": t["auc"], **{f"ndcg@{k}": v for k, v in t["ndcg"].items()}}
            for t in tests.values()]
    aggregate = {
        "config_hash": experiment_hash(cfg),
        "model_kind": cfg.model.kind,
        "seeds": list(cfg.seeds),
        "per_seed": {str(s): t for s, t in tests.items()},
        "mean": {k: float(np.mean([r[k] for r in rows])) for k in keys},
        "std": {k: float(np.std([r[k] for r in rows], ddof=1)) if len(rows) > 1 else 0.0
                for k in keys},
    }
    _write_json(out_dir / "aggregate.json", aggregate)

    summary = [f"model={cfg.model.kind} config_hash={aggregate['config_hash']}"]
    summary += [f"seed {s}: " + " ".join(f"{k}={r[k]:.4f}" for k in keys)
                for s, r in zip(cfg.seeds, rows)]
    mean_text = " ".join(f"{k}={aggregate['mean'][k]:.4f}" for k in keys)
    summary.append(f"mean over {len(cfg.seeds)} seed(s): {mean_text}")
    _write_text(out_dir / "summary.txt", "\n".join(summary) + "\n")
    for line in summary:
        click.echo(line)
    click.echo(f"reports under {out_dir}")


def _schema_mismatches(a: Schema, b: Schema) -> list[str]:
    return [f"{f.name} {getattr(a, f.name)} != {getattr(b, f.name)}"
            for f in fields(Schema) if getattr(a, f.name) != getattr(b, f.name)]


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--cutoffs", default=",".join(map(str, ExperimentConfig.cutoffs)), show_default=True)
@click.option("--rank-by", "rank_by", default=ExperimentConfig.rank_by, show_default=True)
@click.option("--gain", default=ExperimentConfig.gain, show_default=True, type=click.Choice(GAINS))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def cmd_eval(checkpoint_path: str, data_path: str, cutoffs: str, rank_by: str,
             gain: str, out_path: str | None) -> None:
    """Evaluate a checkpoint on a dataset file."""
    try:
        try:
            ks = tuple(int(k) for k in cutoffs.split(","))
            if any(k < 1 for k in ks):
                raise ValueError
        except ValueError:
            raise ConfigError(f"cutoffs must be positive integers, got {cutoffs}") from None
        model = load_checkpoint(checkpoint_path)
        ds = load_dataset(data_path)
        mismatches = _schema_mismatches(model.schema, ds.schema)
        if mismatches:
            raise ConfigError("checkpoint/dataset schema mismatch: " + "; ".join(mismatches))
        rank_by_task(rank_by, ds.schema.tasks)
        if not ds.impressions:
            raise DatasetFormatError(f"no impressions to evaluate in {data_path}")
    except (ConfigError, DatasetFormatError, ValueError) as exc:
        _fail(str(exc), 2)
    try:
        metrics = evaluate_model(model, ds, cutoffs=ks, rank_by=rank_by, gain=gain)
    except (UndefinedMetricError, ValueError) as exc:
        _fail(str(exc), 1)
    click.echo(f"auc={metrics.auc:.6f}")
    for k in ks:
        click.echo(f"ndcg@{k}={metrics.ndcg_at[k]:.6f}")
    if out_path:
        _write_json(Path(out_path), metrics.as_dict())


@main.command("gradcheck")
@click.option("--trials", default=20, show_default=True, type=click.IntRange(min=1))
def cmd_gradcheck(trials: int) -> None:
    """Run gradient checks for every op and loss, plus the URS property sweep."""
    results = run_all_checks(trials=trials)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        click.echo(f"{r.name:<{width}}  worst={r.worst:.3e}  tol={r.tol:.1e}  {status}")
    click.echo(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        sys.exit(1)


TABLE1_ROWS = ((0.9, 0.1), (0.1, 0.9), (0.3, 0.3), (0.5, 0.5))


def table1_values() -> list[tuple[float, float, float, float]]:
    """Mul / Sum(1:1) / Sum(3:2) / Max scores for the four demo prediction pairs."""
    columns = (("mul", None), ("linear", (1.0, 1.0)), ("linear", (3.0, 2.0)), ("max", None))
    out = []
    for row in TABLE1_ROWS:
        g = Graph()
        cols = [g.tensor(p) for p in row]
        out.append(tuple(aggregate_columns(kind, cols, None if w is None else g.tensor(w)).item()
                         for kind, w in columns))
    return out


def _fmt(v: float) -> str:
    text = f"{v:.6g}"
    return text if any(c in text for c in ".e") else text + ".0"


@main.command("table1")
def cmd_table1() -> None:
    """Print the aggregation-operator demonstration table."""
    header = ("Sample", "P(Click)", "P(Post-click)", "Mul", "Sum(w 1:1)", "Sum(w 3:2)", "Max")
    click.echo("  ".join(f"{h:>13}" for h in header))
    for i, ((p_click, p_post), values) in enumerate(zip(TABLE1_ROWS, table1_values()), start=1):
        cells = [str(i), _fmt(p_click), _fmt(p_post)] + [_fmt(v) for v in values]
        click.echo("  ".join(f"{c:>13}" for c in cells))


if __name__ == "__main__":
    main()
