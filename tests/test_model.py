import numpy as np
import numpy.testing as npt
import pytest

from mtlds.aggregate import LabelSequence
from mtlds.data import FieldSpec, Impression, Sample, Schema, SynthConfig, split, synthesize
from mtlds.gradcore import Graph
from mtlds.model import (
    MODEL_KINDS,
    DivergenceError,
    ModelConfig,
    SharedBottomModel,
    config_from_dict,
    config_to_dict,
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
            impression_id=imp_id,
            user_ids=(int(rng.integers(6)),),
            item_ids=(int(rng.integers(10)),),
            dense=tuple(rng.standard_normal(dense)),
            labels=LabelSequence(tuple(labels)),
        ))
    return Impression(imp_id, tuple(samples))


IMP = make_impression("imp0", [(1, 1), (1, 0), (0, 0), (1, 0), (0, 0)], seed=1)


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
        out = model.forward(Graph(), IMP.samples)
        npt.assert_allclose(out.value, 0.5)

    def test_identical_rows_get_identical_outputs(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        s = IMP.samples[0]
        twin = Sample(s.impression_id, s.user_ids, s.item_ids, s.dense, s.labels)
        out = model.forward(Graph(), [s, twin]).value
        npt.assert_array_equal(out[0], out[1])

    def test_outputs_strictly_inside_unit_interval(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        out = model.forward(Graph(), IMP.samples).value
        assert np.all(out > 0.0) and np.all(out < 1.0)
        assert out.shape == (5, 2)

    def test_unknown_ids_map_to_reserved_row_without_error(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        s = IMP.samples[0]
        alien = Sample(s.impression_id, (999,), (-5,), s.dense, s.labels)
        reserved = Sample(s.impression_id, (6,), (10,), s.dense, s.labels)
        out = model.forward(Graph(), [alien, reserved]).value
        npt.assert_array_equal(out[0], out[1])

    def test_forward_is_deterministic(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        a = model.forward(Graph(), IMP.samples).value
        b = model.forward(Graph(), IMP.samples).value
        npt.assert_array_equal(a, b)


class TestTotalLoss:
    def test_zero_sort_weight_reduces_to_multitask_bce(self):
        config = small_config(task_loss="bce", sort_loss_weight=0.0)
        model = SharedBottomModel(tiny_schema(), config)
        g = Graph()
        pt = model.bind(g)
        total = model.batch_loss(g, [IMP], pt).item()

        cols = model.task_columns(Graph(), encode_samples(model.schema, IMP.samples))
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

    def test_additivity_of_components(self):
        model = SharedBottomModel(tiny_schema(), small_config(sort_loss_weight=1.5))
        g = Graph()
        pt = model.bind(g)
        task_terms, listwise = model.loss_components(g, [IMP], pt)
        total = model.batch_loss(g, [IMP], pt).item()
        expected = sum(t.item() for t in task_terms) + 1.5 * listwise.item()
        assert total == pytest.approx(expected, abs=1e-9)

    def test_empty_impression_unrepresentable(self):
        with pytest.raises(ValueError, match="no samples"):
            Impression("void", ())
        with pytest.raises(ValueError, match="impression_id"):
            Impression("a", (Sample("b", (0,), (0,), (), LabelSequence((0, 0))),))

    def test_gradient_reaches_linear_aggregator_weights(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        g = Graph()
        pt = model.bind(g)
        loss = model.batch_loss(g, [IMP], pt)
        grads = g.backward(loss)
        agg_grad = grads[pt["agg/w"].node_id]
        assert np.any(np.abs(agg_grad) > 1e-8)


# Two impressions of different lengths, so the per-impression means and the
# mean over impressions both matter.
PIN_BATCH = [
    make_impression("a", [(1, 1), (0, 0), (1, 0), (0, 0), (1, 1)], dense=1, seed=11),
    make_impression("b", [(1, 0), (0, 0), (1, 1)], dense=1, seed=12),
]
PIN_CONFIGS = {kind: {"kind": kind} for kind in MODEL_KINDS}
PIN_CONFIGS["mtlds-bce-ranknet"] = {"kind": "mtlds", "task_loss": ("bce", "ranknet")}

# batch_loss on PIN_BATCH and the sum of each parameter's gradient, recorded
# before the per-kind loss methods were merged into batch_loss.  A loss
# refactor must reproduce them.
PINNED = {
    "mtlds": (6.912191914170256, {
        "emb/user_id": -0.057001167958990934,
        "emb/item_id": 0.9906932453544148,
        "shared/0/W": -0.3165613138894401,
        "shared/0/b": 0.4315244474901544,
        "tower/0/0/W": -0.8478510878132479,
        "tower/0/0/b": 0.11055390681122568,
        "tower/0/1/W": -0.25219511124866684,
        "tower/0/1/b": 0.08416332486944503,
        "tower/1/0/W": 0.25214759523009445,
        "tower/1/0/b": 0.05902817276558827,
        "tower/1/1/W": -0.48868710882176797,
        "tower/1/1/b": 0.006419264845668127,
        "agg/w": -0.17831228594227064,
    }),
    "mtl_listnet": (2.7503620624842813, {
        "emb/user_id": -0.09877446581186232,
        "emb/item_id": 0.21398300460124745,
        "shared/0/W": -0.01234741700471293,
        "shared/0/b": 0.07628555684528,
        "tower/0/0/W": -0.16565219577729268,
        "tower/0/0/b": -0.04992384022730888,
        "tower/0/1/W": -0.012038762688157035,
        "tower/0/1/b": -0.0005850398342620855,
        "tower/1/0/W": 0.03647239508174823,
        "tower/1/0/b": 0.0030769620065168573,
        "tower/1/1/W": -0.062254547268666166,
        "tower/1/1/b": 0.0011812793076981798,
        "agg/w": 0.004258210361157155,
    }),
    "esmm": (1.3417781671788198, {
        "emb/user_id": -0.22935294908718362,
        "emb/item_id": 0.38636176806333117,
        "shared/0/W": 0.05450944618533861,
        "shared/0/b": 0.1285450652178878,
        "tower/0/0/W": -0.35388953050362254,
        "tower/0/0/b": -0.14265746417917308,
        "tower/0/1/W": -0.04280795952450926,
        "tower/0/1/b": -0.07120341009183898,
        "tower/1/0/W": 0.04886084276370894,
        "tower/1/0/b": 0.015411654333525787,
        "tower/1/1/W": -0.10161955443807436,
        "tower/1/1/b": -0.06728885453995088,
    }),
    "esmm_pairwise": (1.3867507532637664, {
        "emb/user_id": -0.08751211961360886,
        "emb/item_id": 0.19667342084137962,
        "shared/0/W": 0.02609642792274329,
        "shared/0/b": 0.06422475596468413,
        "tower/0/0/W": -0.13685359811274606,
        "tower/0/0/b": -0.04022193160054037,
        "tower/0/1/W": -0.011203688293402117,
        "tower/0/1/b": 0.002152177228347034,
        "tower/1/0/W": 0.014234766300696297,
        "tower/1/0/b": 0.0013201101203398772,
        "tower/1/1/W": -0.026578432360367762,
        "tower/1/1/b": -0.0021540469456032482,
    }),
    "dnn_pointwise": (0.758901073673987, {
        "emb/user_id": -0.13465692677525445,
        "emb/item_id": 0.6347965490801214,
        "shared/0/W": 0.1737566525892291,
        "shared/0/b": 0.3392514326444078,
        "tower/0/0/W": 0.15314871531377378,
        "tower/0/0/b": 0.21927831273234105,
        "tower/0/1/W": 0.15272677612155558,
        "tower/0/1/b": 0.23504776187963228,
    }),
    "dnn_pairwise": (0.6886615402939845, {
        "emb/user_id": -0.0591425102346294,
        "emb/item_id": 0.13431794177627895,
        "shared/0/W": 0.0317825525284465,
        "shared/0/b": 0.04493791629027013,
        "tower/0/0/W": -0.08411637352165116,
        "tower/0/0/b": -0.021074313328741674,
        "tower/0/1/W": -0.005817882961735614,
        "tower/0/1/b": 0.0009492986144217092,
    }),
    "dnn_diffsort": (5.437518920407342, {
        "emb/user_id": -0.23208470035830497,
        "emb/item_id": 1.0589659683056807,
        "shared/0/W": -0.25450644664827315,
        "shared/0/b": 0.39790367718642816,
        "tower/0/0/W": -0.7193036111755998,
        "tower/0/0/b": 0.15072594260673242,
        "tower/0/1/W": -0.22759048627569245,
        "tower/0/1/b": 0.08376141329676492,
    }),
    "mtlds-bce-ranknet": (6.884950165802277, {
        "emb/user_id": -0.1447910045108412,
        "emb/item_id": 1.1274368329797533,
        "shared/0/W": -0.2609825214773449,
        "shared/0/b": 0.4603312092177647,
        "tower/0/0/W": -0.9483619716993592,
        "tower/0/0/b": 0.05729945244778237,
        "tower/0/1/W": -0.257205705418617,
        "tower/0/1/b": 0.05438417279600988,
        "tower/1/0/W": 0.25214759523009445,
        "tower/1/0/b": 0.05902817276558827,
        "tower/1/1/W": -0.48868710882176797,
        "tower/1/1/b": 0.006419264845668127,
        "agg/w": -0.17831228594227064,
    }),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_batch_loss_and_gradients_match_pinned_values(case):
    model = SharedBottomModel(tiny_schema(dense=1), small_config(**PIN_CONFIGS[case]))
    g = Graph()
    pt = model.bind(g)
    loss = model.batch_loss(g, PIN_BATCH, pt)
    grads = g.backward(loss)
    expected_loss, expected_sums = PINNED[case]
    npt.assert_allclose(loss.item(), expected_loss, rtol=1e-12, atol=0)
    assert list(expected_sums) == list(model.params)
    for name, expected in expected_sums.items():
        npt.assert_allclose(grads[pt[name].node_id].sum(), expected, rtol=1e-12, atol=0,
                            err_msg=name)

class TestHardParameterSharing:
    def _outputs(self, model):
        return model.forward(Graph(), IMP.samples).value

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


class TestESMM:
    def test_requires_two_tasks(self):
        with pytest.raises(ValueError, match="exactly 2"):
            SharedBottomModel(tiny_schema(tasks=("a", "b", "c")), small_config(kind="esmm"))

    def test_loss_is_click_bce_plus_product_bce(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="esmm"))
        g = Graph()
        pt = model.bind(g)
        loss = model.batch_loss(g, [IMP], pt).item()

        cols = model.task_columns(Graph(), encode_samples(model.schema, IMP.samples))
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
            return graph.constant(float("nan"))

        monkeypatch.setattr(SharedBottomModel, "batch_loss", nan_loss)
        with pytest.raises(DivergenceError, match="epoch 1, batch 0"):
            fit(small_config(epochs=1), tr, va)

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
        cols = model.forward(Graph(), IMP.samples).value
        npt.assert_allclose(click, cols[:, 0], atol=1e-12)
        npt.assert_allclose(purchase, cols[:, 1], atol=1e-12)
        w = model.params["agg/w"][:, 0]
        npt.assert_allclose(agg, cols @ w, atol=1e-12)

    def test_unknown_rank_by_rejected(self):
        model = SharedBottomModel(tiny_schema(), small_config())
        with pytest.raises(ValueError, match="rank_by"):
            model.ranking_scores([IMP], rank_by="by-vibes")
        with pytest.raises(ValueError, match="unknown task"):
            model.ranking_scores([IMP], rank_by="task:install")

    def test_esmm_aggregate_score_is_product(self):
        model = SharedBottomModel(tiny_schema(), small_config(kind="esmm"))
        scores = model.ranking_scores([IMP], rank_by="aggregate")[0]
        cols = model.forward(Graph(), IMP.samples).value
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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestConfigSerialization:
    def test_round_trip(self):
        config = small_config(task_loss=("bce", "ranknet"))
        assert config_from_dict(config_to_dict(config)) == config

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelConfig(kind="transformer")
        with pytest.raises(ValueError, match="unknown task loss"):
            ModelConfig(task_loss="hinge")
        with pytest.raises(ValueError, match="tau"):
            ModelConfig(tau=-1.0)