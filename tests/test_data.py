import logging
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mtlds.aggregate import LabelOrderError, LabelSequence, first_label_violation
from mtlds.data import (
    Dataset,
    DatasetFormatError,
    FieldSpec,
    Impression,
    Sample,
    Schema,
    SynthConfig,
    batch_impressions,
    load_dataset,
    project_tasks,
    split,
    synthesize,
    write_dataset,
)

FIXTURES = Path(__file__).parent / "fixtures"


def write_lines(tmp_path, lines, name="ds.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


HEADER = "!schema\tuser=user_id:4\titem=item_id:6\tdense=0\ttasks=click,purchase"


class TestLoadDataset:
    def test_golden_file(self):
        ds = load_dataset(FIXTURES / "golden.tsv")
        assert ds.schema.tasks == ("click", "cart", "purchase")
        assert ds.schema.dense_count == 2
        assert [imp.id for imp in ds.impressions] == ["imp-a", "imp-b"]
        assert ds.sample_count == 5
        first = ds.impressions[0].samples[0]
        assert first.user_ids == (0,)
        assert first.item_ids == (3, 1)
        assert first.dense == (0.5, -1.25)
        assert first.labels.labels == (1, 1, 0)

    def test_round_trip_is_byte_identical(self, tmp_path):
        ds = load_dataset(FIXTURES / "golden.tsv")
        out1 = tmp_path / "a.tsv"
        out2 = tmp_path / "b.tsv"
        write_dataset(ds, out1)
        write_dataset(load_dataset(out1), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_numpy_float_dense_values_round_trip(self, tmp_path):
        schema = Schema((FieldSpec("user_id", 4),), (FieldSpec("item_id", 6),), 2,
                        ("click", "purchase"))
        samples = tuple(
            Sample("imp0", (1,), (i,), (np.float64(0.5), np.float64(-1.25) * i),
                   LabelSequence((1, 0)))
            for i in range(3))
        ds = Dataset(schema, (Impression("imp0", samples),))
        path = tmp_path / "ds.tsv"
        write_dataset(ds, path)
        assert load_dataset(path) == ds

    def test_header_only_gives_empty_dataset(self, tmp_path):
        ds = load_dataset(write_lines(tmp_path, [HEADER]))
        assert ds.impressions == ()
        assert ds.sample_count == 0

    def test_post_click_without_click_rejected(self, tmp_path):
        path = write_lines(tmp_path, [HEADER, "imp0\t1\t2\t\t0,1"])
        with pytest.raises(LabelOrderError, match=r"imp0.*\(0, 1\)"):
            load_dataset(path)

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = write_lines(tmp_path, [HEADER, "imp0\t1\t2\t\t1,0", "garbage line"])
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

    def test_wrong_label_count_rejected(self, tmp_path):
        path = write_lines(tmp_path, [HEADER, "imp0\t1\t2\t\t1"])
        with pytest.raises(DatasetFormatError, match="expected 2 labels"):
            load_dataset(path)

    @pytest.mark.parametrize("fields,message", [
        ("user=id:4\titem=id:6", "unique"),
        ("user=user_id:0\titem=item_id:6", "cardinality"),
    ])
    def test_bad_header_fields_rejected_at_line_one(self, tmp_path, fields, message):
        path = write_lines(tmp_path, [f"!schema\t{fields}\tdense=0\ttasks=click"])
        with pytest.raises(DatasetFormatError, match=f"line 1: .*{message}"):
            load_dataset(path)

    @pytest.mark.parametrize("dense,tasks,message", [
        ("-1", "click", "dense count must be >= 0"),
        ("0", "click,click", "task names must be distinct"),
    ])
    def test_bad_dense_count_or_tasks_rejected_at_line_one(self, tmp_path, dense, tasks, message):
        path = write_lines(tmp_path, [
            f"!schema\tuser=user_id:4\titem=item_id:6\tdense={dense}\ttasks={tasks}"])
        with pytest.raises(DatasetFormatError, match=f"line 1: {message}"):
            load_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = write_lines(tmp_path, ["imp0\t1\t2\t\t1,0"])
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(path)

    def test_drop_mode_warns_and_drops(self, tmp_path, caplog):
        path = write_lines(tmp_path, [
            HEADER,
            "imp0\t1\t2\t\t1,0",
            "imp0\t1\t3\t\t0,1",
        ])
        with caplog.at_level(logging.WARNING):
            ds = load_dataset(path, on_invalid="drop")
        assert ds.sample_count == 1
        assert any("dropping" in r.message for r in caplog.records)

    def test_groups_preserve_file_order(self, tmp_path):
        path = write_lines(tmp_path, [
            HEADER,
            "impB\t1\t2\t\t1,0",
            "impB\t1\t4\t\t0,0",
            "impA\t1\t3\t\t0,0",
        ])
        ds = load_dataset(path)
        assert [imp.id for imp in ds.impressions] == ["impB", "impA"]
        assert [s.item_ids[0] for s in ds.impressions[0].samples] == [2, 4]

    def test_impression_id_reappearing_after_another_rejected(self, tmp_path):
        path = write_lines(tmp_path, [
            HEADER,
            "impA\t1\t2\t\t1,0",
            "impB\t1\t3\t\t0,0",
            "impA\t1\t4\t\t0,0",
        ])
        with pytest.raises(DatasetFormatError, match="line 4: impression 'impA' reappears"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_dense_value_rejected(self, tmp_path, value):
        header = "!schema\tuser=user_id:4\titem=item_id:6\tdense=2\ttasks=click,purchase"
        path = write_lines(tmp_path, [header, "imp0\t1\t2\t0.5,0.25\t1,0",
                                      f"imp0\t1\t3\t{value},0.25\t0,0"])
        with pytest.raises(DatasetFormatError, match="line 3: non-finite dense value"):
            load_dataset(path)


class TestSchema:
    def test_user_and_item_field_names_must_differ(self):
        with pytest.raises(ValueError, match="unique.*'id'"):
            Schema((FieldSpec("id", 4),), (FieldSpec("id", 6),), 0, ("click",))

    @pytest.mark.parametrize("cardinality", [0, -3])
    def test_cardinality_below_one_rejected(self, cardinality):
        with pytest.raises(ValueError, match="cardinality"):
            Schema((FieldSpec("user_id", cardinality),), (), 0, ("click",))


class TestValidateLabels:
    @pytest.mark.parametrize("labels,expected", [
        ((1, 1, 0), None),
        ((1, 0, 1), 1),
        ((0, 0), None),
        ((0, 1), 0),
    ])
    def test_cases(self, labels, expected):
        assert first_label_violation(labels) == expected


class TestSynthesize:
    def test_deterministic_serialization(self, tmp_path):
        cfg = SynthConfig(impressions=40, users=10, items=30)
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        write_dataset(synthesize(cfg), a)
        write_dataset(synthesize(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_all_label_sequences_valid_by_construction(self):
        ds = synthesize(SynthConfig(impressions=60, users=10, items=30))
        for s in ds.iter_samples():
            assert first_label_violation(s.labels.labels) is None

    def test_huge_negative_bias_suppresses_post_click(self):
        cfg = SynthConfig(impressions=50, users=10, items=30, noise=0.0,
                          biases=(2.0, -60.0))
        ds = synthesize(cfg)
        assert all(s.labels.labels[1] == 0 for s in ds.iter_samples())

    def test_click_rate_exceeds_purchase_rate(self):
        ds = synthesize(SynthConfig(impressions=300, users=20, items=60))
        labels = np.array([s.labels.labels for s in ds.iter_samples()])
        assert labels[:, 0].mean() > labels[:, 1].mean() > 0

    def test_impression_and_sample_counts(self):
        cfg = SynthConfig(impressions=25, list_size=7, users=10, items=30)
        ds = synthesize(cfg)
        assert len(ds.impressions) == 25
        assert all(len(imp) == 7 for imp in ds.impressions)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            SynthConfig(biases=(-1.0, -1.0))
        with pytest.raises(ValueError, match="2 tasks"):
            SynthConfig(tasks=("click",), biases=(-1.0,))
        with pytest.raises(ValueError, match="list_size"):
            SynthConfig(items=4, list_size=12)


class TestBatching:
    @pytest.fixture()
    def ds(self):
        return synthesize(SynthConfig(impressions=23, users=10, items=30, list_size=3))

    def test_single_batch_when_size_exceeds_count(self, ds):
        batches = list(batch_impressions(ds, batch_size=100, seed=0))
        assert len(batches) == 1
        assert len(batches[0]) == 23

    def test_same_seed_and_epoch_reproduce_order(self, ds):
        a = [imp.id for batch in batch_impressions(ds, 5, seed=3, epoch=2) for imp in batch]
        b = [imp.id for batch in batch_impressions(ds, 5, seed=3, epoch=2) for imp in batch]
        assert a == b

    def test_epoch_changes_order(self, ds):
        a = [imp.id for batch in batch_impressions(ds, 5, seed=3, epoch=0) for imp in batch]
        b = [imp.id for batch in batch_impressions(ds, 5, seed=3, epoch=1) for imp in batch]
        assert a != b

    def test_union_is_exact_multiset(self, ds):
        seen = Counter(imp.id for batch in batch_impressions(ds, 4, seed=9) for imp in batch)
        assert seen == Counter(imp.id for imp in ds.impressions)

    def test_impressions_never_split(self, ds):
        for batch in batch_impressions(ds, 4, seed=1):
            for imp in batch:
                assert len(imp) == 3


class TestSplit:
    @pytest.fixture()
    def ds(self):
        return synthesize(SynthConfig(impressions=40, users=10, items=30, list_size=2))

    def test_everything_in_train(self, ds):
        tr, va, te = split(ds, (1.0, 0.0, 0.0), seed=0)
        assert len(tr.impressions) == 40
        assert len(va.impressions) == len(te.impressions) == 0

    def test_counts_match_fractions_within_one(self, ds):
        tr, va, te = split(ds, (0.7, 0.15, 0.15), seed=0)
        assert abs(len(tr.impressions) - 28) <= 1
        assert abs(len(va.impressions) - 6) <= 1
        assert abs(len(te.impressions) - 6) <= 1
        assert len(tr.impressions) + len(va.impressions) + len(te.impressions) == 40

    def test_parts_are_disjoint(self, ds):
        parts = split(ds, (0.5, 0.25, 0.25), seed=4)
        ids = [set(imp.id for imp in p.impressions) for p in parts]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    def test_deterministic(self, ds):
        a = split(ds, (0.6, 0.2, 0.2), seed=7)
        b = split(ds, (0.6, 0.2, 0.2), seed=7)
        assert [i.id for i in a[0].impressions] == [i.id for i in b[0].impressions]

    def test_bad_fractions(self, ds):
        with pytest.raises(ValueError, match="sum"):
            split(ds, (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            split(ds, (1.5, -0.25, -0.25), seed=0)


class TestProjectTasks:
    def test_drops_middle_task(self):
        ds = load_dataset(FIXTURES / "golden.tsv")
        out = project_tasks(ds, ("click", "purchase"))
        assert out.schema.tasks == ("click", "purchase")
        labels = [s.labels.labels for s in out.iter_samples()]
        assert labels[0] == (1, 0)
        assert labels[2] == (1, 1)

    def test_order_must_be_preserved(self):
        ds = load_dataset(FIXTURES / "golden.tsv")
        with pytest.raises(ValueError, match="order"):
            project_tasks(ds, ("purchase", "click"))

    def test_unknown_task(self):
        ds = load_dataset(FIXTURES / "golden.tsv")
        with pytest.raises(ValueError, match="unknown task"):
            project_tasks(ds, ("click", "install"))
