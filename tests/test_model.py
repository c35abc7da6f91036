import gc
import json
import sys
import weakref
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import record

import mtlds.gradcore.tensor as tensor_mod
import mtlds.model as model_mod
from mtlds.aggregate import LabelSequence, label_gain
from mtlds.data import (Dataset, FieldSpec, Impression, Sample, Schema, SynthConfig, split,
                        synthesize)
from mtlds.evaluation import MetricReport, UndefinedMetricError, evaluate_ranking
from mtlds.gradcore import Graph, corrupted_vjp
from mtlds.model import (
    KIND_RULES,
    MODEL_KINDS,
    VALIDATION_CUTOFF,
    KindRule,
    DivergenceError,
    ModelConfig,
    SharedBottomModel,
    config_from_dict,
    encode_samples,
    evaluate_model,
    fit,
    load_checkpoint,
    save_checkpoint,
)
from mtlds.sortops import bce_loss


def tiny_schema(tasks=("click", "purchase"), dense=0):
    return Schema(
        user_fields=(FieldSpec("user_id", 6),),
        item_fields=(FieldSpec("item_id", 10),),
        dense_count=dense,
        tasks=tuple(tasks),
    )


def make_impression(imp_id, rows, tasks=2, dense=0, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for labels in rows:
        samples.append(Sample(
            user_ids=(int(rng.integers(6)),),
            item_ids=(int(rng.integers(10)),),
            dense=tuple(rng.standard_normal(dense)),
            labels=LabelSequence(tuple(labels)),
        ))
    return Impression(imp_id, tuple(samples))


IMP = make_impression("imp0", [(1, 1), (1, 0), (0, 0), (1, 0), (0, 0)], seed=1)


def features(model, samples):
    """The id and dense matrices of ``samples``, encoded as one impression."""
    ids, dense, _, _ = encode_samples(model.schema, [Impression("batch", tuple(samples))])
    return ids, dense


def task_probs(model, samples):
    """(n, towers) matrix of the per-task probabilities of ``samples``."""
    cols = model.task_columns(Graph(), *features(model, samples))
    return np.hstack([c.value for c in cols])


def small_config(**kw):
    base = dict(kind="mtlds", aggregator="linear", tau=0.5, embedding_dim=4,
                shared_layers=(8,), tower_layers=(4,), seed=3)
    base.update(kw)
    return ModelConfig(**base)


class TestForward:
    def test_zeroed_heads_give_half_probability(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        head = len(model.config.tower_layers)
        for t in range(model.tower_count):
            model.params[f"tower/{t}/{head}/W"] = np.zeros_like(
                model.params[f"tower/{t}/{head}/W"])
            model.params[f"tower/{t}/{head}/b"] = np.zeros_like(
                model.params[f"tower/{t}/{head}/b"])
        npt.assert_allclose(task_probs(model, IMP.samples), 0.5)

    def test_identical_rows_get_identical_outputs(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        s = IMP.samples[0]
        twin = Sample(s.user_ids, s.item_ids, s.dense, s.labels)
        out = task_probs(model, [s, twin])
        npt.assert_array_equal(out[0], out[1])

    def test_outputs_strictly_inside_unit_interval(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        out = task_probs(model, IMP.samples)
        assert np.all(out > 0.0) and np.all(out < 1.0)
        assert out.shape == (5, 2)

    def test_unknown_ids_map_to_reserved_row_without_error(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        s = IMP.samples[0]
        alien = Sample((999,), (-5,), s.dense, s.labels)
        reserved = Sample((6,), (10,), s.dense, s.labels)
        out = task_probs(model, [alien, reserved])
        npt.assert_array_equal(out[0], out[1])

    def test_forward_is_deterministic(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        a = task_probs(model, IMP.samples)
        b = task_probs(model, IMP.samples)
        npt.assert_array_equal(a, b)


class TestTotalLoss:
    def test_zero_sort_weight_reduces_to_multitask_bce(self):
        config = small_config(task_loss="bce", sort_loss_weight=0.0)
        model = SharedBottomModel(tiny_schema(), config)
        g = Graph()
        pt = model.bind(g)
        total = model.batch_loss(g, [IMP], pt).item()

        cols = model.task_columns(Graph(), *features(model, IMP.samples))
        expected = 0.0
        for t in range(2):
            g2 = Graph()
            col = g2.tensor(cols[t].value)
            y = [s.labels.labels[t] for s in IMP.samples]
            expected += bce_loss(col, y).item()
        assert total == pytest.approx(expected, abs=1e-9)

    def test_single_item_impression_has_negligible_sort_loss(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        imp = make_impression("one", [(1, 0)])
        g = Graph()
        task_terms, listwise = model.loss_components(g, [imp])
        assert listwise.item() < 1e-9
        total = model.batch_loss(Graph(), [imp]).item()
        assert total == pytest.approx(sum(t.item() for t in task_terms), abs=1e-9)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_additivity_of_components(self, kind):
        model = SharedBottomModel(tiny_schema(), small_config(kind=kind, sort_loss_weight=1.5))
        g = Graph()
        pt = model.bind(g)
        task_terms, score_term = model.loss_components(g, [IMP], pt)
        total = model.batch_loss(g, [IMP], pt).item()
        expected = sum(t.item() for t in task_terms) + 1.5 * score_term.item()
        assert total == pytest.approx(expected, abs=1e-9)

    def test_zero_weight_esmm_is_click_bce_alone(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="esmm", sort_loss_weight=0.0))
        total = model.batch_loss(Graph(), [IMP]).item()
        cols = model.task_columns(Graph(), *features(model, IMP.samples))
        y_click = [s.labels.labels[0] for s in IMP.samples]
        assert total == bce_loss(Graph().tensor(cols[0].value), y_click).item()

    def test_empty_impression_unrepresentable(self):
        with pytest.raises(ValueError, match="no samples"):
            Impression("void", ())

    def test_gradient_reaches_linear_aggregator_weights(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        g = Graph()
        pt = model.bind(g)
        loss = model.batch_loss(g, [IMP], pt)
        grads = g.backward(loss)
        agg_grad = grads[pt["agg/w"].node_id]
        assert np.any(np.abs(agg_grad) > 1e-8)


@pytest.mark.parametrize("case", list(record.PIN_CONFIGS))
def test_batch_loss_and_gradients_match_pinned_values(case):
    """``batch_loss`` on ``record.PIN_BATCH`` and the sum of each parameter's
    gradient equal, bit for bit, the values in ``fixtures/pinned.json``, first
    recorded before the per-kind loss methods were merged into
    ``batch_loss``.  Re-record (only when the loss arithmetic changes on
    purpose): ``python tools/record.py``."""
    recorded = record.recorded("pinned.json", f"{case}/")
    assert record.changes(recorded, record.pinned_values(case)) == []


@pytest.mark.parametrize("case", list(record.SCORE_CONFIGS))
def test_ranking_scores_match_recording(case):
    """``ranking_scores`` on ``record.PIN_BATCH`` equal, bit for bit, the
    arrays in ``fixtures/scores.npz``.  Re-record (only when the score
    arithmetic changes on purpose): ``python tools/record.py``."""
    recorded = record.recorded("scores.npz", f"{case}/")
    assert record.changes(recorded, record.score_arrays(case)) == []


class TestTapeSize:
    """The sort loss costs at most three tape nodes per list (the list's
    gather, the SoftSort logits and the row softmax) plus one node per batch;
    ListNet costs one node per batch whatever the list count."""

    @staticmethod
    def nodes(kind, lists):
        model = SharedBottomModel(tiny_schema(), small_config(kind=kind))
        rows = [(1, 1), (0, 0), (1, 0), (0, 0), (1, 0)]  # both tasks have ordered pairs
        batch = [make_impression(f"imp{i}", rows[:2 + i % 4], seed=i) for i in range(lists)]
        g = Graph()
        model.batch_loss(g, batch)
        return len(g)

    @pytest.mark.parametrize("kind", ["mtlds", "dnn_diffsort"])
    def test_sort_loss_adds_at_most_three_nodes_per_list(self, kind):
        assert self.nodes(kind, 64) <= self.nodes(kind, 1) + 3 * 63

    def test_listnet_node_count_is_fixed(self):
        assert self.nodes("mtl_listnet", 64) == self.nodes("mtl_listnet", 1)

    def test_each_dense_layer_is_one_affine_node(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="esmm"))
        g = Graph()
        model.task_columns(g, *features(model, IMP.samples))
        ops = [g.node_op(i) for i in range(len(g))]
        layers = sum(name.endswith("/W") for name in model.params)
        assert ops.count("affine") == layers == 5
        assert "matmul" not in ops and "add" not in ops


class TestHardParameterSharing:
    def _outputs(self, model):
        return task_probs(model, IMP.samples)

    def test_shared_perturbation_moves_every_tower(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        base = self._outputs(model)
        model.params["shared/0/W"] = model.params["shared/0/W"] + 0.5
        out = self._outputs(model)
        assert np.abs(out[:, 0] - base[:, 0]).max() > 1e-8
        assert np.abs(out[:, 1] - base[:, 1]).max() > 1e-8

    def test_tower_perturbation_moves_only_its_task(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        base = self._outputs(model)
        model.params["tower/1/0/W"] = model.params["tower/1/0/W"] + 0.5
        out = self._outputs(model)
        npt.assert_array_equal(out[:, 0], base[:, 0])
        assert np.abs(out[:, 1] - base[:, 1]).max() > 1e-8


class TestKindRules:
    def test_readme_table_matches_kind_rules(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("## Model kinds\n", 1)[1].split("\n## ", 1)[0]
        rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("| `")]
        table = {kind: KindRule(None if towers == "per task" else int(towers), *rest)
                 for kind, towers, *rest in rows}
        assert table == KIND_RULES


class TestESMM:
    def test_requires_two_tasks(self):
        with pytest.raises(ValueError, match="exactly 2"):
            SharedBottomModel(tiny_schema(tasks=("a", "b", "c")), small_config(kind="esmm"))

    def test_loss_is_click_bce_plus_product_bce(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="esmm"))
        g = Graph()
        pt = model.bind(g)
        loss = model.batch_loss(g, [IMP], pt).item()

        cols = model.task_columns(Graph(), *features(model, IMP.samples))
        p_click = cols[0].value[:, 0]
        p_conv = cols[1].value[:, 0]
        y_click = np.array([s.labels.labels[0] for s in IMP.samples], dtype=float)
        y_both = np.array([s.labels.labels[0] * s.labels.labels[1] for s in IMP.samples],
                          dtype=float)

        def bce(p, y):
            p = np.clip(p, 1e-12, 1 - 1e-12)
            return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())

        expected = bce(p_click, y_click) + bce(p_click * p_conv, y_both)
        assert loss == pytest.approx(expected, abs=1e-9)

    def test_all_negative_labels_with_tiny_outputs_give_small_loss(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="esmm"))
        head = len(model.config.tower_layers)
        for t in range(2):
            model.params[f"tower/{t}/{head}/b"] = np.full((1, 1), -40.0)
        imp = make_impression("neg", [(0, 0), (0, 0), (0, 0)])
        loss = model.batch_loss(Graph(), [imp]).item()
        assert loss < 1e-6

    def test_pairwise_variant_runs_and_differs(self):
        a = SharedBottomModel(tiny_schema(), small_config(kind="esmm"))
        b = SharedBottomModel(tiny_schema(), small_config(kind="esmm_pairwise"))
        la = a.batch_loss(Graph(), [IMP]).item()
        lb = b.batch_loss(Graph(), [IMP]).item()
        assert la != pytest.approx(lb, abs=1e-12)


class TestSingleTaskBaselines:
    def test_pairwise_zero_when_labels_equal(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="dnn_pairwise"))
        imp = make_impression("flat", [(1, 0), (1, 0), (1, 0)])
        assert model.batch_loss(Graph(), [imp]).item() == 0.0

    def test_diffsort_single_item_negligible(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="dnn_diffsort"))
        imp = make_impression("one", [(1, 1)])
        assert model.batch_loss(Graph(), [imp]).item() < 1e-9

    def test_pointwise_perfect_prediction_small_loss(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="dnn_pointwise"))
        head = len(model.config.tower_layers)
        model.params[f"tower/0/{head}/b"] = np.full((1, 1), -40.0)
        model.params[f"tower/0/{head}/W"] = np.zeros_like(model.params[f"tower/0/{head}/W"])
        imp = make_impression("negs", [(1, 0), (0, 0), (1, 0)])
        assert model.batch_loss(Graph(), [imp]).item() < 1e-6

    def test_single_tower_for_dnn_kinds(self):
        for kind in ("dnn_pointwise", "dnn_pairwise", "dnn_diffsort"):
            model = SharedBottomModel(tiny_schema(), small_config(kind=kind))
            assert model.tower_count == 1

    def test_task_loss_list_ignored_by_one_tower_kind(self):
        model = SharedBottomModel(
            tiny_schema(), small_config(kind="dnn_pointwise", task_loss=("bce", "ranknet")))
        assert model.tower_count == 1
        assert model.task_losses == ()

    def test_rank_by_task_is_the_one_tower(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="dnn_pointwise"))
        agg, click, purchase = (model.ranking_scores([IMP], rank_by=r)[0]
                                for r in ("aggregate", "task:click", "task:purchase"))
        assert np.array_equal(click, agg)
        assert np.array_equal(purchase, agg)


class TestScalabilityAcrossTaskCounts:
    @pytest.mark.parametrize("t_count", [2, 3, 4])
    def test_same_code_path_for_any_task_count(self, t_count):
        tasks = tuple(f"t{t}" for t in range(t_count))
        biases = tuple(1.5 - 0.5 * t for t in range(t_count))  # dense labels at any depth
        ds = synthesize(SynthConfig(impressions=60, users=8, items=24, list_size=4,
                                    tasks=tasks, biases=biases))
        tr, va, _ = split(ds, (0.6, 0.3, 0.1), seed=0)
        config = small_config(epochs=1, batch_size=8)
        model, report = fit(config, tr, va)
        assert model.tower_count == t_count
        assert model.params["agg/w"].shape == (t_count, 1)
        assert len(report.epochs) == 1


def test_graph_is_freed_without_the_cycle_collector():
    """No tape entry refers back to its graph, so reference counting alone
    frees a training step's graph once the caller drops it."""
    model = SharedBottomModel(tiny_schema(), small_config())
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        graph = Graph()
        graph.backward(model.batch_loss(graph, [IMP]))
        ref = weakref.ref(graph)
        del graph
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


class TestFit:
    @pytest.fixture()
    def datasets(self):
        ds = synthesize(SynthConfig(impressions=40, users=8, items=24, list_size=4,
                                    biases=(-0.5, -1.5)))
        tr, va, te = split(ds, (0.6, 0.2, 0.2), seed=0)
        return tr, va, te

    def test_zero_epochs_returns_initial_parameters(self, datasets):
        tr, va, _ = datasets
        config = small_config(epochs=0)
        model, report = fit(config, tr, va)
        fresh = SharedBottomModel(tr.schema, config)
        for name in fresh.params:
            npt.assert_array_equal(model.params[name], fresh.params[name])
        assert report.best_epoch == 0 and report.epochs == []

    def test_same_seed_reproduces_report_and_params(self, datasets):
        tr, va, _ = datasets
        config = small_config(epochs=2, batch_size=8)
        model_a, report_a = fit(config, tr, va)
        model_b, report_b = fit(config, tr, va)
        assert report_a.as_dict() == report_b.as_dict()
        for name in model_a.params:
            assert np.array_equal(model_a.params[name], model_b.params[name])

    def test_divergence_names_epoch_and_batch(self, datasets, monkeypatch):
        tr, va, _ = datasets

        def nan_loss(self, graph, impressions, params_t=None):
            if params_t is None:
                params_t = self.bind(graph)
            return graph.tensor(float("nan"))

        monkeypatch.setattr(SharedBottomModel, "batch_loss", nan_loss)
        with pytest.raises(DivergenceError, match="epoch 1, batch 0"):
            fit(small_config(epochs=1), tr, va)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_diverging_run_names_epoch_and_batch(self, kind):
        # the sort kinds too: a non-finite score column is a non-finite loss,
        # not a failed argsort
        tr, va, _ = split(synthesize(SynthConfig(impressions=300)), (0.7, 0.15, 0.15), seed=1)
        with np.errstate(all="ignore"), pytest.raises(
                DivergenceError, match="became non-finite at epoch 1, batch 1"):
            fit(small_config(kind=kind, learning_rate=1.0e200, epochs=1), tr, va)

    def test_non_finite_gradient_names_parameter_and_batch(self, datasets):
        tr, va, _ = datasets
        message = r"gradient of 'emb/user_id' became non-finite at epoch 1, batch 0"
        with corrupted_vjp("sigmoid", factor=float("inf")), np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError, match=message):
                fit(small_config(epochs=1), tr, va)

    @pytest.mark.parametrize("biases", [(-0.5, -60.0), (60.0, 50.0)], ids=["no-positive", "no-negative"])
    def test_single_class_validation_rejected_before_training(self, datasets, monkeypatch, biases):
        tr, _, _ = datasets
        valid = synthesize(SynthConfig(impressions=8, users=8, items=24, list_size=4,
                                       noise=0.0, biases=biases))

        def no_batches(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("mtlds.model.batch_impressions", no_batches)
        with pytest.raises(UndefinedMetricError, match="validation AUC undefined"):
            fit(small_config(epochs=1), tr, valid)

    @pytest.mark.parametrize("labels, dense, message", [
        ((1,), 0, "sample 29 has 1 labels, the schema declares 2 tasks"),
        ((1, 0), 1, "sample 29 has 1 dense values, the schema declares 0"),
    ])
    def test_malformed_train_sample_fails_before_the_first_step(self, datasets, monkeypatch,
                                                                 labels, dense, message):
        tr, va, _ = datasets
        # the bad sample is the second of impression 7, which batch 0 does not hold
        bad = Sample((0,), (0,), (0.5,) * dense, LabelSequence(labels))
        imp = tr.impressions[7]
        imps = list(tr.impressions)
        imps[7] = Impression(imp.id, (imp.samples[0], bad, *imp.samples[2:]))
        train = Dataset(tr.schema, tuple(imps))
        config = small_config(epochs=1, batch_size=4)
        first = next(model_mod.batch_impressions(train, 4, seed=config.seed, epoch=0))
        assert 7 not in first

        def no_step(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(model_mod, "adam_step", no_step)
        with pytest.raises(ValueError, match=message):
            fit(config, train, va)

    def test_returns_the_best_epochs_parameters(self, datasets, monkeypatch):
        tr, va, _ = datasets

        def fit_under(ndcgs):
            """fit with the validation NDCG of epoch e patched to ``ndcgs[e - 1]``."""
            scores = iter(ndcgs)
            monkeypatch.setattr(model_mod, "evaluate_model", lambda *args, **kwargs: MetricReport(
                auc=0.5, ndcg_at={VALIDATION_CUTOFF: next(scores)}, impressions=len(va.impressions)))
            return fit(small_config(epochs=len(ndcgs), batch_size=8), tr, va)

        best, report = fit_under([0.2, 0.9, 0.4])
        two_epochs, _ = fit_under([0.2, 0.9])
        last, _ = fit_under([0.2, 0.4, 0.9])
        assert report.best_epoch == 2
        assert list(best.params) == list(two_epochs.params)
        assert all(np.array_equal(best.params[n], two_epochs.params[n]) for n in best.params)
        assert not np.array_equal(best.params["agg/w"], last.params["agg/w"])

    def test_training_reduces_loss(self, datasets):
        tr, va, _ = datasets
        config = small_config(epochs=4, batch_size=8, learning_rate=0.05)
        _, report = fit(config, tr, va)
        assert report.epochs[-1].train_loss < report.epochs[0].train_loss


class TestRankingAndEvaluation:
    def test_rank_by_task_selects_tower(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        agg = model.ranking_scores([IMP], rank_by="aggregate")[0]
        click = model.ranking_scores([IMP], rank_by="task:click")[0]
        purchase = model.ranking_scores([IMP], rank_by="task:purchase")[0]
        cols = task_probs(model, IMP.samples)
        npt.assert_allclose(click, cols[:, 0], atol=1e-12)
        npt.assert_allclose(purchase, cols[:, 1], atol=1e-12)
        w = model.params["agg/w"][:, 0]
        npt.assert_allclose(agg, cols @ w, atol=1e-12)

    def test_unknown_rank_by_rejected(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        with pytest.raises(ValueError, match="rank_by"):
            model.ranking_scores([IMP], rank_by="by-vibes")
        with pytest.raises(ValueError, match="rank_by must be 'aggregate' or 'task:<name>', got 5"):
            model.ranking_scores([IMP], rank_by=5)
        with pytest.raises(ValueError, match="unknown task"):
            model.ranking_scores([IMP], rank_by="task:install")

    def test_empty_dataset_has_nothing_to_evaluate(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        with pytest.raises(ValueError, match="no impressions to evaluate"):
            evaluate_model(model, Dataset(tiny_schema(), ()))

    def test_esmm_aggregate_score_is_product(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="esmm"))
        scores = model.ranking_scores([IMP], rank_by="aggregate")[0]
        cols = task_probs(model, IMP.samples)
        npt.assert_allclose(scores, cols[:, 0] * cols[:, 1], atol=1e-12)

    def test_evaluate_model_gain_modes(self):
        ds = synthesize(SynthConfig(impressions=40, users=8, items=24, list_size=4,
                                    biases=(-0.5, -1.5)))
        model = SharedBottomModel(ds.schema, small_config())
        depth = evaluate_model(model, ds, cutoffs=(2, 4), gain="depth")
        final = evaluate_model(model, ds, cutoffs=(2, 4), gain="final")
        assert set(depth.ndcg_at) == {2, 4}
        assert 0.0 <= depth.auc <= 1.0
        assert depth.auc == pytest.approx(final.auc)  # same scores, same final labels


def ragged_dataset(impressions=600, seed=0, sizes=(1, 6), dense=1):
    """Impressions of ``sizes`` items (by default 1 to 6), some ids outside
    the vocabulary, ``dense`` dense values, by default more rows than two
    scoring ranges (``SCORE_ROWS``)."""
    rng = np.random.default_rng(seed)
    imps = []
    for k in range(impressions):
        n = int(rng.integers(sizes[0], sizes[1] + 1))
        depth = rng.integers(0, 3, size=n)
        samples = tuple(Sample((int(rng.integers(-1, 8)),), (int(rng.integers(-1, 12)),),
                               tuple(rng.standard_normal(dense).tolist()),
                               LabelSequence((int(d >= 1), int(d >= 2)))) for d in depth)
        imps.append(Impression(f"imp{k}", samples))
    return Dataset(tiny_schema(dense=dense), tuple(imps))


def test_batch_arrays_are_the_datasets_rows():
    """A batch's ``encode_samples`` arrays and its ``columns.take`` arrays
    both equal the matching rows of the whole dataset's ``columns``."""
    ds = ragged_dataset(impressions=60, seed=4, sizes=(2, 40), dense=2)
    whole = ds.columns
    assert (whole.ids < 0).any() and (whole.ids >= [6, 10]).any()  # out-of-vocabulary ids
    starts = np.concatenate(([0], np.cumsum(whole.lengths)))
    picked = np.random.default_rng(1).permutation(len(ds.impressions))[:16]
    rows = np.concatenate([np.arange(starts[k], starts[k + 1]) for k in picked])
    want = (whole.ids[rows], whole.dense[rows], whole.labels[rows], whole.lengths[picked])
    for got in (encode_samples(ds.schema, [ds.impressions[k] for k in picked]),
                whole.take(picked)):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype
            npt.assert_array_equal(a, b)


class TestTrainingReadsColumns:
    """``fit`` trains on row selections of its train split's ``columns``;
    ``batch_loss`` on impressions is the same loss."""

    @pytest.fixture(scope="class")
    def ds(self):
        return ragged_dataset(impressions=40, seed=6, sizes=(1, 9), dense=2)

    @pytest.mark.parametrize("kind", KIND_RULES)
    def test_take_batch_and_impressions_give_identical_loss_and_gradients(self, ds, kind):
        model = SharedBottomModel(ds.schema, small_config(kind=kind))
        picked = np.random.default_rng(2).permutation(len(ds.impressions))[:25]
        results = []
        for batch in (ds.columns.take(picked), [ds.impressions[k] for k in picked]):
            g = Graph()
            pt = model.bind(g)
            loss = model.batch_loss(g, batch, pt)
            grads = g.backward(loss)
            results.append((loss.item(), [grads[pt[n].node_id] for n in model.params]))
        (loss_a, grads_a), (loss_b, grads_b) = results
        assert loss_a == loss_b
        for a, b in zip(grads_a, grads_b, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", KIND_RULES)
    def test_fit_walks_no_sample_objects_per_batch(self, ds, kind, monkeypatch):
        tr, va, _ = split(ds, (0.6, 0.4, 0.0), seed=1)

        def no_walk(*args, **kwargs):
            raise AssertionError("a batch was converted from sample objects")

        monkeypatch.setattr(model_mod, "encode_samples", no_walk)
        _, report = fit(small_config(kind=kind, epochs=2, batch_size=8), tr, va)
        assert len(report.epochs) == 2


@contextmanager
def counted_groupings():
    """The lengths of each ``length_blocks`` call made inside the block, from
    any mtlds module that holds the function."""
    calls, real = [], tensor_mod.length_blocks

    def counting(lengths):
        calls.append(np.asarray(lengths).tolist())
        return real(lengths)

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("mtlds") and getattr(module, "length_blocks", None) is real:
                mp.setattr(module, "length_blocks", counting)
        yield calls


class TestOneGroupingPerBatch:
    """``check_lengths`` groups a batch by impression length once; every
    loss, op and metric reads that ``Layout``."""

    @pytest.fixture(scope="class")
    def ds(self):
        return ragged_dataset(impressions=40, seed=2)

    @pytest.mark.parametrize("kind", KIND_RULES)
    def test_batch_loss_and_backward_group_once(self, ds, kind):
        model = SharedBottomModel(ds.schema, small_config(kind=kind))
        with counted_groupings() as calls:
            g = Graph()
            g.backward(model.batch_loss(g, ds.impressions))
        assert calls == [ds.columns.lengths.tolist()]

    def test_evaluation_groups_once(self, ds):
        model = SharedBottomModel(ds.schema, small_config())
        with counted_groupings() as calls:
            evaluate_model(model, ds)
        assert calls == [ds.columns.lengths.tolist()]


class TestFullSetScoring:
    """``evaluate_model`` scores ``Dataset.columns``; ``ranking_scores``
    scores impressions; both share one loop over row ranges."""

    @pytest.fixture(scope="class")
    def ds(self):
        return ragged_dataset()

    def test_two_passes_give_identical_reports(self, ds):
        model = SharedBottomModel(ds.schema, small_config())
        first = evaluate_model(model, ds).as_dict()
        assert evaluate_model(model, ds).as_dict() == first

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_reports_equal_ranking_scores_metrics(self, ds, kind):
        model = SharedBottomModel(ds.schema, small_config(kind=kind))
        labels = np.array([s.labels.labels for s in ds.iter_samples()], dtype=float)
        lengths = [len(imp) for imp in ds.impressions]
        for rank_by in ("aggregate", "task:purchase"):
            scores = np.concatenate(model.ranking_scores(ds.impressions, rank_by=rank_by))
            for gain in ("depth", "final"):
                want = evaluate_ranking(scores, label_gain(labels, gain), labels[:, -1], lengths,
                                        (2, 6))
                got = evaluate_model(model, ds, cutoffs=(2, 6), rank_by=rank_by, gain=gain)
                assert got.as_dict() == want.as_dict(), (rank_by, gain)

    def test_ranking_scores_of_no_impressions(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        assert model.ranking_scores([]) == []

    def test_one_scoring_graph_is_alive_at_a_time(self, ds, monkeypatch):
        """Each range's graph is freed, by reference counting alone, before
        the next range's graph is built."""
        created = []

        class OneAtATime(Graph):
            def __init__(self):
                assert all(ref() is None for ref in created), "an earlier graph is alive"
                super().__init__()
                created.append(weakref.ref(self))

        ids, dense, _, _ = ds.columns
        assert len(ids) > 2 * model_mod.SCORE_ROWS
        model = SharedBottomModel(ds.schema, small_config())
        monkeypatch.setattr(model_mod, "Graph", OneAtATime)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model.flat_scores(ids, dense)
        finally:
            if was_enabled:
                gc.enable()
        assert len(created) == 3

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_graphs_score_row_ranges_across_impressions(self, kind, monkeypatch):
        """With ``SCORE_ROWS`` at 5, lists of 3, 4, 2 and 6 items are scored
        as rows 0-4, 5-9 and 10-14, ranges that cut lists, in row order, and
        the scores match one graph over every row."""
        lengths = [3, 4, 2, 6]
        ds = Dataset(tiny_schema(dense=1), tuple(
            make_impression(f"imp{k}", [(1, 0)] * n, dense=1, seed=k)
            for k, n in enumerate(lengths)))
        ids, dense, _, _ = ds.columns
        model = SharedBottomModel(ds.schema, small_config(kind=kind))
        one_graph = {r: model.flat_scores(ids, dense, r) for r in ("aggregate", "task:purchase")}
        seen, real = [], SharedBottomModel.task_columns

        def recording(self, graph, ids, dense, params_t=None):
            seen.append(dense.copy())
            return real(self, graph, ids, dense, params_t)

        monkeypatch.setattr(SharedBottomModel, "task_columns", recording)
        monkeypatch.setattr(model_mod, "SCORE_ROWS", 5)
        for rank_by, want in one_graph.items():
            seen.clear()
            got = model.flat_scores(ids, dense, rank_by)
            sizes = [len(rows) for rows in seen]
            assert sizes == [5, 5, 5]
            assert set(np.cumsum(sizes)[:-1].tolist()).isdisjoint(np.cumsum(lengths).tolist())
            npt.assert_array_equal(np.concatenate(seen), dense)
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = synthesize(SynthConfig(impressions=30, users=8, items=24, list_size=4,
                                    biases=(-0.5, -1.5)))
        tr, va, _ = split(ds, (0.7, 0.2, 0.1), seed=0)
        model, _ = fit(small_config(epochs=1, batch_size=8), tr, va)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.schema == model.schema
        for name in model.params:
            npt.assert_array_equal(loaded.params[name], model.params[name])
        a = model.ranking_scores(ds.impressions[:3])
        b = loaded.ranking_scores(ds.impressions[:3])
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)

    def test_failed_write_leaves_previous_checkpoint(self, tmp_path, monkeypatch):
        model = SharedBottomModel(tiny_schema(), small_config())
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        before = path.read_bytes()
        real_open = model_mod.atomic_open

        @contextmanager
        def full_disk(target):  # the last grid fails after the header and the other grids
            with real_open(target) as fh:
                writes = iter(range(3 + len(model.params), 0, -1))

                class Handle:
                    def write(self, data):
                        if next(writes) == 1:
                            raise OSError("no space left on device")
                        return fh.write(data)

                yield Handle()

        monkeypatch.setattr(model_mod, "atomic_open", full_disk)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestConfigSerialization:
    def test_round_trip(self):
        config = small_config(task_loss=("bce", "ranknet"))
        assert config_from_dict(json.loads(json.dumps(asdict(config)))) == config

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelConfig(kind="transformer")
        with pytest.raises(ValueError, match="unknown task loss"):
            ModelConfig(task_loss="hinge")
        for kind in MODEL_KINDS:
            with pytest.raises(ValueError, match="unknown aggregator 'bogus'"):
                ModelConfig(kind=kind, aggregator="bogus")
        with pytest.raises(ValueError, match="tau"):
            ModelConfig(tau=-1.0)

