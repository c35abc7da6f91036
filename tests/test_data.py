import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlds.aggregate import LabelOrderError, LabelSequence
from mtlds.data import (
    Dataset,
    DatasetFormatError,
    FieldSpec,
    Impression,
    Sample,
    Schema,
    SynthConfig,
    atomic_open,
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

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "ds.tsv"
        write_dataset(load_dataset(FIXTURES / "golden.tsv"), path)
        before = path.read_bytes()
        ds = load_dataset(path)
        bad = Sample((0,), (3, 1), ("not a float", 0.0), LabelSequence((1, 0, 0)))
        with pytest.raises(ValueError, match="not a float"):
            write_dataset(Dataset(ds.schema, ds.impressions + (Impression("imp-c", (bad,)),)),
                          path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_numpy_float_dense_values_round_trip(self, tmp_path):
        schema = Schema((FieldSpec("user_id", 4),), (FieldSpec("item_id", 6),), 2,
                        ("click", "purchase"))
        samples = tuple(
            Sample((1,), (i,), (np.float64(0.5), np.float64(-1.25) * i), LabelSequence((1, 0)))
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
        ("user=user_id:4\titem=item_id:6\tdense=1", "repeated header key 'dense'"),
        ("user=user_id:4\tuser=shop:3\titem=item_id:6", "repeated header key 'user'"),
        ("user=user_id:4\titem=item_id:6\textra=x", "unknown header key 'extra'"),
    ])
    def test_bad_header_fields_rejected_at_line_one(self, tmp_path, fields, message):
        path = write_lines(tmp_path, [f"!schema\t{fields}\tdense=0\ttasks=click"])
        with pytest.raises(DatasetFormatError, match=f"line 1: .*{message}"):
            load_dataset(path)

    @pytest.mark.parametrize("dense,tasks,message", [
        ("-1", "click", "dense count must be >= 0"),
        ("0", "click,click", "task names must be distinct"),
        ("0", "click,,buy", "task names must be non-empty"),
        ("0", "click,buy,", "task names must be non-empty"),
        ("0", "", "task names must be non-empty"),
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

    @pytest.mark.parametrize("labels", ["2,0", "1,2", "-1,0"])
    def test_non_binary_label_rejected_with_line(self, tmp_path, labels):
        path = write_lines(tmp_path, [HEADER, "imp0\t1\t2\t\t1,0", f"imp0\t1\t3\t\t{labels}"])
        with pytest.raises(DatasetFormatError, match="line 3: labels must be 0 or 1"):
            load_dataset(path)

    @pytest.mark.parametrize("user,item,what", [
        ("99999999999999999999", "2", "user"),
        ("1", str(2 ** 63), "item"),
        (str(-2 ** 63 - 1), "2", "user"),
    ])
    def test_id_outside_int64_rejected_with_line(self, tmp_path, user, item, what):
        path = write_lines(tmp_path, [HEADER, f"imp0\t{user}\t{item}\t\t1,0"])
        with pytest.raises(DatasetFormatError, match=f"line 2: {what} id outside int64"):
            load_dataset(path)

    def test_int64_limits_accepted(self, tmp_path):
        path = write_lines(tmp_path, [HEADER, f"imp0\t{-2 ** 63}\t{2 ** 63 - 1}\t\t1,0"])
        sample = load_dataset(path).impressions[0].samples[0]
        assert (sample.user_ids, sample.item_ids) == ((-2 ** 63,), (2 ** 63 - 1,))

    def test_bytes_not_utf8_rejected_with_line(self, tmp_path):
        path = tmp_path / "ds.tsv"
        path.write_bytes(HEADER.encode() + b"\nimp0\t1\t2\t\t1,0\nimp\xff\t1\t3\t\t0,0\n")
        with pytest.raises(DatasetFormatError, match="line 3: not UTF-8"):
            load_dataset(path)

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

    def test_blank_lines_skipped_but_a_tab_makes_a_data_line(self, tmp_path):
        first, second = "imp1\t1\t2\t\t1,0", "imp1\t1\t4\t\t0,0"
        ds = load_dataset(write_lines(tmp_path, [HEADER, first, "", "  ", second]))
        assert [len(imp) for imp in ds.impressions] == [2]
        path = write_lines(tmp_path, [HEADER, first, "\t\t\t\t", second])
        with pytest.raises(DatasetFormatError, match="line 3: empty impression id"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_dense_value_rejected(self, tmp_path, value):
        header = "!schema\tuser=user_id:4\titem=item_id:6\tdense=2\ttasks=click,purchase"
        path = write_lines(tmp_path, [header, "imp0\t1\t2\t0.5,0.25\t1,0",
                                      f"imp0\t1\t3\t{value},0.25\t0,0"])
        with pytest.raises(DatasetFormatError, match="line 3: non-finite dense value"):
            load_dataset(path)


NAMES = st.text("abcxyz_", min_size=1, max_size=5)
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
# anything but the column and line separators
IMPRESSION_IDS = st.text(st.characters(blacklist_characters="\t\n", blacklist_categories=("Cs",)),
                         min_size=1, max_size=8)


@st.composite
def datasets(draw):
    names = draw(st.lists(NAMES, max_size=4, unique=True))
    fields = [FieldSpec(n, draw(st.integers(1, 1000))) for n in names]
    cut = draw(st.integers(0, len(fields)))
    tasks = tuple(draw(st.lists(st.text("pqrs", min_size=1, max_size=4),
                                min_size=1, max_size=3, unique=True)))
    schema = Schema(tuple(fields[:cut]), tuple(fields[cut:]), draw(st.integers(0, 3)), tasks)
    impressions = []
    for imp_id in draw(st.lists(IMPRESSION_IDS, max_size=4, unique=True)):
        samples = []
        for _ in range(draw(st.integers(1, 3))):
            depth = draw(st.integers(0, len(tasks)))
            samples.append(Sample(
                tuple(draw(INT64) for _ in schema.user_fields),
                tuple(draw(INT64) for _ in schema.item_fields),
                tuple(draw(st.floats(allow_nan=False, allow_infinity=False))
                      for _ in range(schema.dense_count)),
                LabelSequence(tuple(int(t < depth) for t in range(len(tasks)))),
            ))
        impressions.append(Impression(imp_id, tuple(samples)))
    return Dataset(schema, tuple(impressions))


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_write_then_load_is_identity(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.tsv"
        write_dataset(ds, path)
        assert load_dataset(path) == ds


# lines near the format (columns of ids, floats and labels) as well as arbitrary bytes
NEAR_LINES = st.text("0129-|,.\tex \r\u00e9", max_size=30).map(lambda t: t.encode("utf-8"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(NEAR_LINES, st.binary(max_size=30)), max_size=6))
def test_parser_raises_only_format_errors(lines):
    header = b"!schema\tuser=user_id:4\titem=item_id:6|shop:3\tdense=1\ttasks=click,purchase\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.tsv"
        path.write_bytes(header + b"\n".join(lines))
        try:
            load_dataset(path)
        except (DatasetFormatError, LabelOrderError):
            pass


def test_atomic_open_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"previous")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write(b"half of the new")
            raise RuntimeError("failed part-way")
    assert path.read_bytes() == b"previous"
    assert list(tmp_path.iterdir()) == [path]
    with atomic_open(path) as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert list(tmp_path.iterdir()) == [path]


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
        if expected is None:
            LabelSequence(labels)
        else:
            pair = f"(pair ({expected}, {expected + 1}))"
            with pytest.raises(LabelOrderError, match=re.escape(pair)):
                LabelSequence(labels)


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
            LabelSequence(s.labels.labels)

    def test_huge_negative_bias_suppresses_post_click(self):
        cfg = SynthConfig(impressions=50, users=10, items=30, noise=0.0,
                          biases=(2.0, -60.0))
        ds = synthesize(cfg)
        assert all(s.labels.labels[1] == 0 for s in ds.iter_samples())

    def test_cascade_matches_per_item_loop(self):
        cfg = SynthConfig(impressions=40, users=10, items=30, tasks=("a", "b", "c"),
                          biases=(0.5, -0.5, -1.5))
        rng = np.random.default_rng(cfg.seed)
        u_vecs = rng.standard_normal((cfg.users, cfg.latent_dim))
        v_vecs = rng.standard_normal((cfg.items, 3, cfg.latent_dim))
        expected = []
        for _ in range(cfg.impressions):
            user = int(rng.integers(cfg.users))
            items = rng.choice(cfg.items, size=cfg.list_size, replace=False)
            logits = v_vecs[items] @ u_vecs[user] + np.asarray(cfg.biases)
            logits = logits + cfg.noise * rng.standard_normal(logits.shape)
            probs = 1.0 / (1.0 + np.exp(-logits))
            draws = rng.random(probs.shape)
            for row in range(cfg.list_size):
                alive, labels = True, []
                for t in range(3):
                    alive = alive and draws[row, t] < probs[row, t]
                    labels.append(int(alive))
                expected.append(tuple(labels))
        got = [s.labels.labels for s in synthesize(cfg).iter_samples()]
        assert got == expected
        assert {type(l) for row in got for l in row} == {int}
        assert len(set(expected)) == 4  # every depth occurs

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

    def test_empty_task_name_rejected(self):
        with pytest.raises(ValueError, match="task names must be non-empty"):
            synthesize(SynthConfig(tasks=("click", ""), biases=(-1.0, -2.0)))


def test_label_matrix_rows_follow_samples():
    ds = synthesize(SynthConfig(impressions=5, users=4, items=12, list_size=3))
    samples = list(ds.iter_samples())
    labels = ds.columns.labels
    assert labels.shape == (15, 2) and labels.dtype == np.float64
    assert [tuple(row) for row in labels] == [s.labels.labels for s in samples]
    part = Dataset(ds.schema, ds.impressions[1:3]).columns.labels
    assert [tuple(row) for row in part] == [s.labels.labels for s in samples[3:9]]


class TestColumns:
    """``Dataset.columns``: the cached array form of a dataset's samples."""

    def test_columns_follow_the_samples(self):
        ds = load_dataset(FIXTURES / "golden.tsv")
        ids, dense, labels, lengths = ds.columns
        samples = list(ds.iter_samples())
        assert ids.dtype == np.int64 and lengths.dtype == np.intp
        assert ids.tolist() == [list(s.user_ids + s.item_ids) for s in samples]
        assert dense.tolist() == [list(s.dense) for s in samples]
        assert labels.tolist() == [list(s.labels.labels) for s in samples]
        assert lengths.tolist() == [len(imp) for imp in ds.impressions]

    def test_built_on_first_use_and_kept(self, tmp_path):
        ds = synthesize(SynthConfig(impressions=20, users=4, items=12, list_size=3))
        write_dataset(ds, tmp_path / "ds.tsv")
        made = [ds, load_dataset(tmp_path / "ds.tsv"), *split(ds, (0.5, 0.25, 0.25), seed=1)]
        assert all("columns" not in d.__dict__ for d in made)
        assert ds.columns is ds.columns
        assert "columns" in ds.__dict__

    def test_arrays_are_read_only(self):
        ds = synthesize(SynthConfig(impressions=4, users=4, items=12, list_size=3))
        for a in ds.columns:
            with pytest.raises(ValueError):
                a[0] = 0

    def test_empty_dataset_keeps_the_widths(self):
        schema = Schema((FieldSpec("u", 3),), (FieldSpec("i", 4), FieldSpec("c", 2)), 3,
                        ("click", "buy"))
        ids, dense, labels, lengths = Dataset(schema, ()).columns
        assert (ids.shape, dense.shape, labels.shape, lengths.shape) == (
            (0, 3), (0, 3), (0, 2), (0,))

    @pytest.mark.parametrize("counts, row", [((3, 1), 0), ((2, 1), 1)])
    def test_dense_count_mismatch_names_the_sample(self, counts, row):
        schema = Schema((FieldSpec("u", 3),), (), 2, ("click",))
        samples = tuple(Sample((0,), (), (0.5,) * k, LabelSequence((1,))) for k in counts)
        with pytest.raises(ValueError, match=f"sample {row} has {counts[row]} dense values"):
            Dataset(schema, (Impression("imp0", samples),)).columns

    @pytest.mark.parametrize("counts, row", [((3, 2), 0), ((2, 1), 1), ((1, 1), 0)])
    def test_label_count_mismatch_names_the_sample(self, counts, row):
        schema = Schema((FieldSpec("u", 3),), (), 0, ("click", "buy"))
        samples = tuple(Sample((0,), (), (), LabelSequence((1,) * k)) for k in counts)
        message = f"sample {row} has {counts[row]} labels, the schema declares 2 tasks"
        with pytest.raises(ValueError, match=message):
            Dataset(schema, (Impression("imp0", samples),)).columns

    def test_split_and_project_tasks_build_their_own(self):
        ds = load_dataset(FIXTURES / "golden.tsv")
        whole = ds.columns
        for part in split(ds, (0.5, 0.5, 0.0), seed=2)[:2]:
            samples = list(part.iter_samples())
            assert part.columns.labels.tolist() == [list(s.labels.labels) for s in samples]
            assert part.columns.lengths.tolist() == [len(imp) for imp in part.impressions]
        projected = project_tasks(ds, ("click", "purchase"))
        assert "columns" not in projected.__dict__
        np.testing.assert_array_equal(projected.columns.labels, whole.labels[:, [0, 2]])
        np.testing.assert_array_equal(projected.columns.ids, whole.ids)


class TestBatching:
    @pytest.fixture()
    def ds(self):
        return synthesize(SynthConfig(impressions=23, users=10, items=30, list_size=3))

    def test_single_batch_when_size_exceeds_count(self, ds):
        batches = list(batch_impressions(ds, batch_size=100, seed=0))
        assert len(batches) == 1
        assert len(batches[0]) == 23

    @staticmethod
    def ids(ds, *args, **kwargs):
        return [ds.impressions[k].id for batch in batch_impressions(ds, *args, **kwargs)
                for k in batch]

    def test_same_seed_and_epoch_reproduce_order(self, ds):
        assert self.ids(ds, 5, seed=3, epoch=2) == self.ids(ds, 5, seed=3, epoch=2)

    def test_epoch_changes_order(self, ds):
        assert self.ids(ds, 5, seed=3, epoch=0) != self.ids(ds, 5, seed=3, epoch=1)

    def test_union_is_exact_multiset(self, ds):
        assert Counter(self.ids(ds, 4, seed=9)) == Counter(imp.id for imp in ds.impressions)

    def test_impressions_never_split(self, ds):
        for batch in batch_impressions(ds, 4, seed=1):
            assert ds.columns.take(batch).lengths.tolist() == [
                len(ds.impressions[k]) for k in batch]


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
