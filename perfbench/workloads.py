"""The benchmark's workloads: inputs, the timed rounds and the checks.

A run sets up one workload's dataset, then repeats whole rounds for as long
as another round of the same length still fits in the requested seconds
(always at least one).  A round trains one model with ``fit`` and
scores the whole dataset with ``evaluate_model`` (on ``ragged-log`` it also
writes the model as a checkpoint and scores the reloaded copy).  Every round
trains the same model from the same seed, so its outputs must repeat bit for
bit.  The loop is closed: one step starts when the previous one ends.
"""

from __future__ import annotations

import math
import resource
import statistics
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import mtlds.data as data_mod
import calibrate
import mtlds.model as model_mod
import tracing
import verify
from tracing import FIT, SCORE, SETUP, span

SPLIT = (0.7, 0.15, 0.15)
CUTOFFS = (2, 6, 12)
TEST_CUTOFF = 6
SCORE_PASSES = 4  # a full-set pass is short, so each round times four
MIN_STRETCH_S = 1.0  # shortest stretch of training timed on its own


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    source: str  # "synth": the default synthetic set; "log": the ragged TSV log
    epochs: int


WORKLOADS = {w.name: w for w in (
    Workload("synth-mtlds", "mtlds", "synth", epochs=4),
    Workload("synth-esmm", "esmm", "synth", epochs=10),
    Workload("ragged-log", "mtlds", "log", epochs=2),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_impressions_per_s": "impressions/s",
    "score_impressions_per_s": "impressions/s",
    "peak_rss_mb": "MiB",
    "test_ndcg6": "NDCG",
}

# ragged-log: a cascade over click, cart and purchase with two dense features
# and two categorical fields on each side.
LOG_LINES = 60_000
LOG_LENGTHS = (2, 40)
LOG_TASKS = ("click", "cart", "purchase")
LOG_BIASES = np.array([-0.5, -1.0, -1.75])
LOG_USERS, LOG_SEGMENTS, LOG_ITEMS, LOG_CATEGORIES = 300, 16, 800, 40
LOG_WORLD_SEED = 60_000


@dataclass(frozen=True)
class LogStats:
    lengths: tuple[int, ...]
    positives: tuple[int, ...]
    dense_sum: float


def write_ragged_log(path: Path, seed: int, lines: int = LOG_LINES) -> LogStats:
    """Write a seeded TSV log in the library's file format; return what it holds.

    The users, items and their propensities are the same for every seed, like
    one service logged on different days; the seed draws the impressions and
    their labels.
    """
    world = np.random.default_rng(LOG_WORLD_SEED)
    dim, tasks = 4, len(LOG_TASKS)
    user_vec = world.standard_normal((LOG_USERS, dim))
    item_vec = 0.8 * world.standard_normal((LOG_ITEMS, tasks, dim))
    segment_of = world.integers(LOG_SEGMENTS, size=LOG_USERS)
    category_of = world.integers(LOG_CATEGORIES, size=LOG_ITEMS)
    segment_bias = 0.5 * world.standard_normal((LOG_SEGMENTS, tasks))
    category_bias = 0.6 * world.standard_normal((LOG_CATEGORIES, tasks))
    dense_w = 0.8 * world.standard_normal((2, tasks))
    rng = np.random.default_rng([seed, LOG_WORLD_SEED])

    lengths: list[int] = []
    positives = np.zeros(tasks, dtype=np.int64)
    dense_values: list[float] = []
    out = [f"!schema\tuser=user_id:{LOG_USERS}|segment:{LOG_SEGMENTS}"
           f"\titem=item_id:{LOG_ITEMS}|category:{LOG_CATEGORIES}"
           f"\tdense=2\ttasks={','.join(LOG_TASKS)}\n"]
    written = 0
    while written < lines:
        n = int(rng.integers(LOG_LENGTHS[0], LOG_LENGTHS[1] + 1))
        user = int(rng.integers(LOG_USERS))
        items = rng.choice(LOG_ITEMS, size=n, replace=False)
        dense = np.column_stack([rng.standard_normal(n), rng.exponential(size=n)])
        logits = (item_vec[items] @ user_vec[user] + LOG_BIASES
                  + segment_bias[segment_of[user]] + category_bias[category_of[items]]
                  + dense @ dense_w + 0.3 * rng.standard_normal((n, tasks)))
        fired = rng.random((n, tasks)) < 1.0 / (1.0 + np.exp(-logits))
        labels = np.cumprod(fired, axis=1)  # a behaviour needs every earlier one
        positives += labels.sum(axis=0)
        imp_id = f"r{len(lengths):06d}"
        user_text = f"{user}|{segment_of[user]}"
        for item, cat, d, lab in zip(items.tolist(), category_of[items].tolist(),
                                     dense.tolist(), labels.tolist()):
            dense_values.extend(d)
            out.append(f"{imp_id}\t{user_text}\t{item}|{cat}\t{d[0]!r},{d[1]!r}"
                       f"\t{lab[0]},{lab[1]},{lab[2]}\n")
        lengths.append(n)
        written += n
    path.write_text("".join(out), encoding="utf-8")
    return LogStats(tuple(lengths), tuple(int(p) for p in positives), math.fsum(dense_values))


def model_config(w: Workload, seed: int, epochs: int) -> model_mod.ModelConfig:
    return model_mod.ModelConfig(kind=w.kind, aggregator="linear", tau=0.25, learning_rate=0.02,
                                 epochs=epochs, batch_size=64, seed=seed)


@contextmanager
def epoch_marks(timeline: calibrate.Timeline, impressions_per_epoch: int):
    """Cut ``fit`` into stretches of whole epochs at least ``MIN_STRETCH_S``
    long, by ending a stretch when ``fit`` asks for an epoch's batches."""
    original = model_mod.batch_impressions

    def marked(*args, **kwargs):
        if timeline.pending and timeline.elapsed() >= MIN_STRETCH_S:
            timeline.mark("train")
        timeline.pending += impressions_per_epoch
        return original(*args, **kwargs)

    model_mod.batch_impressions = marked
    try:
        yield
    finally:
        model_mod.batch_impressions = original


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: dict[str, str | None] = field(default_factory=dict)  # check -> None or what failed
    metrics: dict[str, float] | None = None
    notes: list[str] = field(default_factory=list)


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        tiny: bool = False) -> Outcome:
    """One benchmark run: set-up, timed rounds, then the output checks.

    ``tiny`` shrinks the inputs for the benchmark's own tests.
    """
    w = WORKLOADS[name]
    epochs = w.epochs
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    outcome = Outcome()
    problems, notes = outcome.problems, outcome.notes

    if w.source == "log":
        log_path = out_dir / "ragged.tsv"
        stats = write_ragged_log(log_path, seed, lines=6000 if tiny else LOG_LINES)
    setup_kernel = calibrate.kernel_seconds()
    t0 = perf_counter()
    with span(tracer, SETUP):
        if w.source == "synth":
            synth_cfg = data_mod.SynthConfig(seed=seed, impressions=2000 if tiny else 4200)
            with span(tracer, "data.synthesize"):
                ds = data_mod.synthesize(synth_cfg)
        else:
            with span(tracer, "data.load_dataset"):
                ds = data_mod.load_dataset(log_path)
        with span(tracer, "data.split"):
            train, valid, test = data_mod.split(ds, SPLIT, seed=seed)
    setup_raw_s = perf_counter() - t0
    if w.source == "synth":
        problems["inputs"] = verify.synth_inputs(ds, synth_cfg.list_size)
    else:
        problems["inputs"] = verify.log_inputs(ds, stats.lengths, stats.positives,
                                               stats.dense_sum)

    cfg = model_config(w, seed, epochs)
    ops_per_round = 1 + SCORE_PASSES + (2 if w.source == "log" else 0)  # fit, [save, load,] scoring
    ckpt_path = out_dir / "model.ckpt"
    first = None  # (model, scoring model, full-set report) of the first good round
    same_every_round = None
    rounds = 0

    began = perf_counter()
    timeline = calibrate.Timeline()
    # the set-up is bracketed by kernel runs, like a stretch of training
    setup_s = setup_raw_s * 2 * calibrate.REFERENCE_S / (setup_kernel + timeline.kernel)
    with epoch_marks(timeline, len(train.impressions)), \
            (tracing.instrument(tracer) if tracer else nullcontext()):
        while True:
            round_began = perf_counter()
            outcome.attempted += ops_per_round
            done = 0
            try:
                with span(tracer, FIT):
                    model, _ = model_mod.fit(cfg, train, valid)
                timeline.mark("train")
                done += 1
                scorer = model
                if w.source == "log":
                    model_mod.save_checkpoint(model, ckpt_path)
                    done += 1
                    scorer = model_mod.load_checkpoint(ckpt_path)
                    done += 1
                    timeline.mark(None)
                for _ in range(SCORE_PASSES):
                    with span(tracer, SCORE):
                        report = model_mod.evaluate_model(scorer, ds, cutoffs=CUTOFFS)
                    timeline.pending = len(ds.impressions)
                    timeline.mark("score")
                    done += 1
            except Exception as exc:  # a failed operation is counted, and the run goes on
                outcome.failed += ops_per_round - done
                notes.append(f"round {rounds + 1}: {type(exc).__name__}: {exc}")
                timeline.mark(None)
            else:
                if first is None:
                    first = (model, scorer, report)
                elif report.as_dict() != first[2].as_dict():
                    same_every_round = f"round {rounds + 1} report differs from the first"
            rounds += 1
            now = perf_counter()
            if now - began + (now - round_began) > seconds:  # the next round would overrun
                break

    if first is None:
        problems["rounds"] = "no round finished"
        return outcome
    problems["determinism"] = same_every_round
    model, scorer, report = first
    test_ndcg = model_mod.evaluate_model(model, test, cutoffs=(TEST_CUTOFF,)).ndcg_at[TEST_CUTOFF]

    scores = scorer.ranking_scores(ds.impressions)
    problems["metrics"] = verify.metrics(ds, scores, report, CUTOFFS)
    problems["gradients"] = verify.gradients(model, train.impressions[:cfg.batch_size])
    baseline = verify.random_ndcg(test, seed, TEST_CUTOFF)
    problems["learning"] = verify.learning(test_ndcg, baseline)
    notes.append(f"test NDCG@6 {test_ndcg:.4f}, random scores {baseline:.4f}")
    if w.source == "log":
        problems["checkpoint"] = verify.identical_scores(model.ranking_scores(ds.impressions),
                                                         scores)

    notes.append(f"set-up {setup_raw_s:.4f} s raw, {setup_s:.4f} s scaled")
    for kind, rates in timeline.rates.items():
        notes.append(f"{kind} impressions/s in {len(rates)} stretches over {rounds} rounds, raw "
                     f"{[round(r) for r, _ in rates]}, scaled {[round(c) for _, c in rates]}")
    if tracer is None:
        outcome.metrics = {
            "setup_s": setup_s,
            "train_impressions_per_s": statistics.median(c for _, c in timeline.rates["train"]),
            "score_impressions_per_s": statistics.median(c for _, c in timeline.rates["score"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_ndcg6": test_ndcg,
        }
        return outcome

    if w.kind == "mtlds":
        problems["softsort"] = "soft_sort never ran" if not tracer.softsort_calls else (
            tracer.softsort_problems[0] if tracer.softsort_problems else None)
    layers = tracing.layer_metrics(tracer, epochs * rounds, SCORE_PASSES * rounds)
    tracer.save(out_dir / f"spans-{name}.npz")
    tracemalloc.start()
    model_mod.fit(replace(cfg, epochs=1), train, valid)
    layers["gradcore.traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    outcome.metrics = layers
    return outcome


def report_lines(outcome: Outcome) -> list[str]:
    """Human-readable summary for standard error."""
    lines = [f"check {k}: {'ok' if v is None else 'FAILED: ' + v}"
             for k, v in outcome.problems.items()]
    lines += outcome.notes
    lines += [f"{k} = {v!r}" for k, v in (outcome.metrics or {}).items()]
    return lines


def main_result(outcome: Outcome, trace: bool) -> dict:
    units = tracing.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    correct = all(v is None for v in outcome.problems.values()) and outcome.metrics is not None
    metrics = {k: {"value": outcome.metrics[k], "unit": u} for k, u in units.items()} \
        if outcome.metrics is not None else {}
    return {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}

