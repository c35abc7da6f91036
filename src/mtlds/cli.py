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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import click
import numpy as np
import yaml

from .aggregate import AggregatorSpec, aggregate_predictions
from .checks import run_all_checks
from .data import (
    Dataset,
    DatasetFormatError,
    SynthConfig,
    load_dataset,
    split,
    synthesize,
    write_dataset,
)
from .evaluation import MetricReport, UndefinedMetricError
from .gradcore import Graph, corrupted_vjp
from .model import (
    DivergenceError,
    ModelConfig,
    config_from_dict,
    config_to_dict,
    evaluate_model,
    fit,
    load_checkpoint,
    save_checkpoint,
)


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    synth: SynthConfig | None
    dataset_path: str | None
    split: tuple[float, float, float]
    cutoffs: tuple[int, ...]
    seeds: tuple[int, ...]
    out_dir: str
    rank_by: str = "aggregate"
    gain: str = "depth"

    def __post_init__(self) -> None:
        if (self.synth is None) == (self.dataset_path is None):
            raise ConfigError("config must provide exactly one of data.synth / data.path")
        if len(self.split) != 3:
            raise ConfigError(f"split needs 3 fractions (train, valid, test), got {self.split}")
        if not self.seeds:
            raise ConfigError("seed list is empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seed list has repeats: {list(self.seeds)}")
        if not self.cutoffs or any(k < 1 for k in self.cutoffs):
            raise ConfigError(f"cutoffs must be positive integers, got {self.cutoffs}")


def load_experiment_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    known = {"model", "data", "split", "cutoffs", "seeds", "out_dir", "rank_by", "gain"}
    unknown = raw.keys() - known
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")

    try:
        model = config_from_dict(dict(raw.get("model") or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc

    data_raw = raw.get("data") or {}
    if not isinstance(data_raw, dict) or (data_raw.keys() - {"synth", "path"}):
        raise ConfigError("data section must contain only 'synth' and/or 'path'")
    synth_cfg = None
    if "synth" in data_raw:
        synth_raw = dict(data_raw["synth"] or {})
        for key in ("tasks", "biases"):
            if key in synth_raw:
                synth_raw[key] = tuple(synth_raw[key])
        try:
            synth_cfg = SynthConfig(**synth_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad data.synth section: {exc}") from exc

    try:
        return ExperimentConfig(
            model=model,
            synth=synth_cfg,
            dataset_path=data_raw.get("path"),
            split=tuple(raw.get("split", (0.7, 0.15, 0.15))),
            cutoffs=tuple(int(k) for k in raw.get("cutoffs", (2, 6, 12))),
            seeds=tuple(int(s) for s in raw.get("seeds", (1,))),
            out_dir=str(raw.get("out_dir", "runs/experiment")),
            rank_by=str(raw.get("rank_by", "aggregate")),
            gain=str(raw.get("gain", "depth")),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def experiment_hash(cfg: ExperimentConfig) -> str:
    payload = {
        "model": config_to_dict(cfg.model),
        "synth": asdict(cfg.synth) if cfg.synth else None,
        "dataset_path": cfg.dataset_path,
        "split": list(cfg.split),
        "cutoffs": list(cfg.cutoffs),
        "seeds": list(cfg.seeds),
        "rank_by": cfg.rank_by,
        "gain": cfg.gain,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_source(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        return synthesize(cfg.synth)
    return load_dataset(cfg.dataset_path)


def _resolve_out_dir(cfg: ExperimentConfig, flag_value: str | None) -> Path:
    env = os.environ.get("MTLDS_OUT_DIR")
    if env:
        return Path(env)
    if flag_value:
        return Path(flag_value)
    return Path(cfg.out_dir)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    samples = list(ds.iter_samples())
    for t, task in enumerate(ds.schema.tasks):
        positives = sum(s.labels.labels[t] for s in samples)
        click.echo(f"positives[{task}]={positives}")


def _single_seed_run(cfg: ExperimentConfig, source: Dataset, seed: int, out_dir: Path):
    train_ds, valid_ds, test_ds = split(source, cfg.split, seed=seed)
    run_config = config_from_dict({**config_to_dict(cfg.model), "seed": seed})
    model, report = fit(run_config, train_ds, valid_ds)
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
    return payload, metrics


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
    except (ConfigError, DatasetFormatError, ValueError) as exc:
        _fail(str(exc), 2)
    out_dir = _resolve_out_dir(cfg, out_flag)
    payloads: dict[int, dict] = {}
    reports: dict[int, MetricReport] = {}
    try:
        for seed in cfg.seeds:
            payloads[seed], reports[seed] = _single_seed_run(cfg, source, seed, out_dir)
    except DivergenceError as exc:
        _fail(str(exc), 1)
    except UndefinedMetricError as exc:
        _fail(f"metric undefined on this split: {exc}", 1)

    metric_keys = ["auc"] + [f"ndcg@{k}" for k in cfg.cutoffs]

    def metric_value(report: MetricReport, key: str) -> float:
        return report.auc if key == "auc" else report.ndcg_at[int(key.split("@")[1])]

    aggregate = {
        "config_hash": experiment_hash(cfg),
        "model_kind": cfg.model.kind,
        "seeds": list(cfg.seeds),
        "per_seed": {str(s): payloads[s]["test"] for s in cfg.seeds},
        "mean": {},
        "std": {},
    }
    for key in metric_keys:
        values = [metric_value(r, key) for r in reports.values()]
        aggregate["mean"][key] = float(np.mean(values))
        aggregate["std"][key] = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    _write_json(out_dir / "aggregate.json", aggregate)

    summary = [f"model={cfg.model.kind} config_hash={aggregate['config_hash']}"]
    for s in cfg.seeds:
        test = payloads[s]["test"]
        ndcg_text = " ".join(f"ndcg@{k}={test['ndcg'][str(k)]:.4f}" for k in cfg.cutoffs)
        summary.append(f"seed {s}: auc={test['auc']:.4f} {ndcg_text}")
    mean_text = " ".join(f"{k}={aggregate['mean'][k]:.4f}" for k in metric_keys)
    summary.append(f"mean over {len(cfg.seeds)} seed(s): {mean_text}")
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    for line in summary:
        click.echo(line)
    click.echo(f"reports under {out_dir}")


def _schema_mismatches(a, b) -> list[str]:
    out = []
    if a.user_fields != b.user_fields:
        out.append(f"user_fields {a.user_fields} != {b.user_fields}")
    if a.item_fields != b.item_fields:
        out.append(f"item_fields {a.item_fields} != {b.item_fields}")
    if a.dense_count != b.dense_count:
        out.append(f"dense_count {a.dense_count} != {b.dense_count}")
    if a.tasks != b.tasks:
        out.append(f"tasks {a.tasks} != {b.tasks}")
    return out


@main.command("eval")
@click.option("--checkpoint", "checkpoint_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--cutoffs", default="2,6,12", show_default=True)
@click.option("--rank-by", "rank_by", default="aggregate", show_default=True)
@click.option("--gain", default="depth", show_default=True, type=click.Choice(["depth", "final"]))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def cmd_eval(checkpoint_path: str, data_path: str, cutoffs: str, rank_by: str,
             gain: str, out_path: str | None) -> None:
    """Evaluate a checkpoint on a dataset file."""
    try:
        ks = tuple(int(k) for k in cutoffs.split(","))
        model = load_checkpoint(checkpoint_path)
        ds = load_dataset(data_path)
        mismatches = _schema_mismatches(model.schema, ds.schema)
        if mismatches:
            raise ConfigError("checkpoint/dataset schema mismatch: " + "; ".join(mismatches))
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
@click.option("--trials", default=20, show_default=True, type=int)
@click.option("--inject-error", is_flag=True, hidden=True,
              help="Test hook: corrupt one backward rule so the suite must fail.")
def cmd_gradcheck(trials: int, inject_error: bool) -> None:
    """Run gradient checks for every op and loss, plus the URS property sweep."""
    if inject_error:
        with corrupted_vjp("sigmoid", factor=1.05):
            results = run_all_checks(trials=trials)
    else:
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
    specs = (
        AggregatorSpec("mul"),
        AggregatorSpec("linear", (1.0, 1.0)),
        AggregatorSpec("linear", (3.0, 2.0)),
        AggregatorSpec("max"),
    )
    out = []
    for p_click, p_post in TABLE1_ROWS:
        g = Graph()
        l_hat = g.constant([p_click, p_post])
        out.append(tuple(aggregate_predictions(spec, l_hat).item() for spec in specs))
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
