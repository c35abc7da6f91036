"""Quick tests of the benchmark itself: tiny runs of every workload, and
negative controls showing that each output check fails on a planted fault.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
from contextlib import contextmanager

import run

run.bootstrap()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import mtlds.data as data_mod  # noqa: E402
import mtlds.model as model_mod  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from mtlds.gradcore import OPS, corrupted_vjp  # noqa: E402


@pytest.fixture(scope="module")
def trained():
    """A tiny synthetic split and an mtlds model trained on it."""
    ds = data_mod.synthesize(data_mod.SynthConfig(seed=3, impressions=240))
    train, valid, test = data_mod.split(ds, workloads.SPLIT, seed=3)
    cfg = workloads.model_config(workloads.WORKLOADS["synth-mtlds"], seed=3, epochs=1)
    model, _ = model_mod.fit(cfg, train, valid)
    return ds, train, test, model


@contextmanager
def unnormalised_softmax():
    opdef = OPS["softmax_rows"]
    original = opdef.forward
    opdef.forward = lambda xs, attrs: np.exp(xs[0] - xs[0].max(axis=1, keepdims=True))
    try:
        yield
    finally:
        opdef.forward = original


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_complete(name, trace, tmp_path):
    outcome = workloads.run(name, seed=5, seconds=0, trace=trace, out_dir=tmp_path, tiny=True)
    result = workloads.main_result(outcome, trace)
    assert result["correct"], workloads.report_lines(outcome)
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = tracing.PER_LAYER_UNITS if trace else workloads.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    if trace and name == "synth-esmm":
        assert result["metrics"]["sortops.soft_sort_s"]["value"] == 0.0
    if trace and name != "synth-esmm":
        assert result["metrics"]["sortops.soft_sort_s"]["value"] > 0.0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_fails_when_softsort_rows_are_not_stochastic(tmp_path):
    with unnormalised_softmax():
        outcome = workloads.run("synth-mtlds", seed=5, seconds=0, trace=True, out_dir=tmp_path,
                                tiny=True)
    assert "row sum" in outcome.problems["softsort"]
    assert not workloads.main_result(outcome, True)["correct"]


def test_softsort_check_fails_on_wrong_argmax():
    scores = np.array([0.3, 0.9, 0.1])
    p_hat = np.eye(3)[[1, 0, 2]]
    assert verify.softsort(scores, p_hat) is None
    assert "argmax" in verify.softsort(scores, np.eye(3))


@pytest.mark.parametrize("kind", ["mtlds", "esmm"])
def test_gradient_check_fails_under_corrupted_sigmoid(trained, kind):
    ds, train, _, _ = trained
    cfg = workloads.model_config(workloads.WORKLOADS[f"synth-{kind}"], seed=3, epochs=1)
    model = model_mod.SharedBottomModel(train.schema, cfg)
    batch = train.impressions[:64]
    assert verify.gradients(model, batch) is None
    with corrupted_vjp("sigmoid"):
        assert verify.gradients(model, batch) is not None


def test_metric_recompute_fails_on_one_perturbed_score(trained):
    ds, _, _, model = trained
    report = model_mod.evaluate_model(model, ds, cutoffs=workloads.CUTOFFS)
    scores = model.ranking_scores(ds.impressions)
    assert verify.metrics(ds, scores, report, workloads.CUTOFFS) is None
    k = next(i for i, imp in enumerate(ds.impressions)
             if any(s.labels.labels[-1] for s in imp.samples))
    pos = next(j for j, s in enumerate(ds.impressions[k].samples) if s.labels.labels[-1])
    scores[k] = scores[k].copy()
    scores[k][pos] = scores[k].min() - 1.0
    assert verify.metrics(ds, scores, report, workloads.CUTOFFS) is not None


def test_auc_recompute_counts_ties_as_half():
    assert verify.counted_auc(np.array([0.5, 0.5, 0.2]), np.array([1, 0, 0])) == 0.75


def test_synth_input_check_fails_on_repeated_item(trained):
    ds = trained[0]
    assert verify.synth_inputs(ds, 12) is None
    imp = ds.impressions[0]
    doubled = data_mod.Impression(imp.id, (imp.samples[0],) + imp.samples[:-1])
    planted = data_mod.Dataset(ds.schema, (doubled,) + ds.impressions[1:])
    assert "distinct" in verify.synth_inputs(planted, 12)


def test_log_input_check_fails_on_a_lost_line(tmp_path):
    path = tmp_path / "log.tsv"
    stats = workloads.write_ragged_log(path, seed=2, lines=400)
    args = (stats.lengths, stats.positives, stats.dense_sum)
    assert verify.log_inputs(data_mod.load_dataset(path), *args) is None
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert verify.log_inputs(data_mod.load_dataset(path), *args) is not None


def test_log_input_check_fails_on_a_changed_dense_value(tmp_path):
    path = tmp_path / "log.tsv"
    stats = workloads.write_ragged_log(path, seed=2, lines=400)
    head, rest = path.read_text().split("\n", 1)
    line, tail = rest.split("\n", 1)
    cols = line.split("\t")
    cols[3] = "0.25," + cols[3].split(",")[1]
    path.write_text("\n".join([head, "\t".join(cols), tail]))
    problem = verify.log_inputs(data_mod.load_dataset(path), stats.lengths, stats.positives,
                                stats.dense_sum)
    assert "dense sum" in problem


def test_learning_check_fails_for_a_reversed_ranking(trained):
    _, _, test, model = trained
    baseline = verify.random_ndcg(test, seed=3, k=6)
    scores = model.ranking_scores(test.impressions)
    assert verify.learning(verify.mean_ndcg(test.impressions, scores, 6), baseline) is None
    reversed_ndcg = verify.mean_ndcg(test.impressions, [-s for s in scores], 6)
    assert verify.learning(reversed_ndcg, baseline) is not None


def test_checkpoint_check_fails_on_a_one_ulp_change(trained, tmp_path):
    ds, _, _, model = trained
    path = tmp_path / "model.ckpt"
    model_mod.save_checkpoint(model, path)
    reloaded = model_mod.load_checkpoint(path)
    original = model.ranking_scores(ds.impressions)
    assert verify.identical_scores(original, reloaded.ranking_scores(ds.impressions)) is None
    w = reloaded.params["agg/w"]
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    assert verify.identical_scores(original, reloaded.ranking_scores(ds.impressions)) is not None


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-esmm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
