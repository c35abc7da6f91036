import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import mtlds
import mtlds.cli as cli_mod
from mtlds.cli import experiment_hash, load_experiment_config, main
from mtlds.data import load_dataset
from mtlds.gradcore import OPS, corrupted_vjp
from mtlds.model import CHECKPOINT_MAGIC, MODEL_KINDS, CheckpointError, load_checkpoint

runner = CliRunner()


def write_config(tmp_path, name="config.yaml", **overrides):
    cfg = {
        "out_dir": str(tmp_path / "runs"),
        "seeds": [1],
        "split": [0.6, 0.2, 0.2],
        "cutoffs": [2, 6],
        "data": {"synth": {"impressions": 40, "users": 8, "items": 24,
                           "list_size": 4, "biases": [-0.5, -1.5]}},
        "model": {"kind": "mtlds", "aggregator": "linear", "tau": 0.5,
                  "embedding_dim": 4, "shared_layers": [8], "tower_layers": [4],
                  "epochs": 2, "batch_size": 8},
    }
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


class TestTable1:
    EXPECTED = {
        1: (0.09, 1.0, 2.9, 0.9),
        2: (0.09, 1.0, 2.1, 0.9),
        3: (0.09, 0.6, 1.5, 0.3),
        4: (0.25, 1.0, 2.5, 0.5),
    }

    def test_exact_values(self):
        result = runner.invoke(main, ["table1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split()
            row = int(cells[0])
            got = tuple(float(c) for c in cells[3:])
            assert got == self.EXPECTED[row]


class TestSynth:
    def test_output_loads_and_counts_match(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "data.tsv"
        result = runner.invoke(main, ["synth", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        ds = load_dataset(out)
        assert f"samples={ds.sample_count}" in result.output
        for t, task in enumerate(ds.schema.tasks):
            count = sum(s.labels.labels[t] for s in ds.iter_samples())
            assert f"positives[{task}]={count}" in result.output

    def test_same_seed_writes_identical_files(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert runner.invoke(main, ["synth", "--config", str(config), "--out", str(a)]).exit_code == 0
        assert runner.invoke(main, ["synth", "--config", str(config), "--out", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_path_config_rejected_for_synth(self, tmp_path):
        data = tmp_path / "some.tsv"
        data.write_text("!schema\tuser=u:1\titem=i:1\tdense=0\ttasks=a,b\n")
        config = write_config(tmp_path, data={"path": str(data)})
        result = runner.invoke(main, ["synth", "--config", str(config), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2


class TestTrain:
    def test_writes_reports_and_checkpoints(self, tmp_path):
        config = write_config(tmp_path, seeds=[1, 2])
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "runs"
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["seeds"] == [1, 2]
        assert set(aggregate["mean"]) == {"auc", "ndcg@2", "ndcg@6"}
        assert aggregate["std"]["auc"] >= 0.0
        for seed in (1, 2):
            report = json.loads((out / f"seed{seed}" / "report.json").read_text())
            assert report["config_hash"] == aggregate["config_hash"]
            assert len(report["train"]["epochs"]) == 2
            assert (out / f"seed{seed}" / "checkpoint.bin").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert runner.invoke(main, ["train", "--config", str(config), "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["train", "--config", str(config), "--out", str(out2)]).exit_code == 0
        assert (out1 / "aggregate.json").read_bytes() == (out2 / "aggregate.json").read_bytes()
        assert ((out1 / "seed1" / "report.json").read_bytes()
                == (out2 / "seed1" / "report.json").read_bytes())
        assert ((out1 / "seed1" / "checkpoint.bin").read_bytes()
                == (out2 / "seed1" / "checkpoint.bin").read_bytes())

    def test_report_does_not_depend_on_blas_threads(self, tmp_path):
        """The command pins one BLAS thread before numpy loads; a multi-threaded
        OpenBLAS would split the matrix products by the thread count and
        change the report's last bits."""
        config = write_config(tmp_path, split=[0.7, 0.15, 0.15], data={"synth": {}},
                              model={"kind": "mtlds", "tau": 0.25, "epochs": 3,
                                     "batch_size": 64})
        src = str(Path(mtlds.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "mtlds.cli", "train", "--config", str(config),
                            "--out", str(out)], env=env, check=True, capture_output=True,
                           timeout=600)
            reports.append((out / "seed1" / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc to count threads")
    def test_suite_runs_on_one_blas_thread(self):
        """``tests/conftest.py`` imports mtlds before numpy, so the pin holds in
        the test process too and OpenBLAS starts no worker thread."""
        assert len(os.listdir("/proc/self/task")) == 1

    def test_divergence_exits_1_with_one_line(self, tmp_path):
        model = {"kind": "mtlds", "learning_rate": 1.0e200, "epochs": 1, "batch_size": 8}
        config = write_config(tmp_path, model=model)
        with np.errstate(all="ignore"):
            result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: loss became non-finite at epoch 1, batch ")
        assert result.output.count("\n") == 1

    def test_divergence_prints_only_the_error_line(self, tmp_path):
        """numpy's overflow warnings from the diverging step stay off stderr."""
        config = write_config(tmp_path, split=[0.7, 0.15, 0.15],
                              data={"synth": {"impressions": 300}},
                              model={"kind": "esmm", "learning_rate": 1.0e200, "epochs": 1,
                                     "batch_size": 8})
        env = {**os.environ, "PYTHONPATH": str(Path(mtlds.__file__).resolve().parents[1])}
        result = subprocess.run([sys.executable, "-m", "mtlds.cli", "train", "--config",
                                 str(config)], env=env, capture_output=True, text=True,
                                timeout=600)
        assert result.returncode == 1
        assert result.stderr == "error: loss became non-finite at epoch 1, batch 1\n"

    def test_seed_flag_overrides_list(self, tmp_path):
        config = write_config(tmp_path, seeds=[1, 2, 3])
        result = runner.invoke(main, ["train", "--config", str(config), "--seed", "5"])
        assert result.exit_code == 0, result.output
        aggregate = json.loads((tmp_path / "runs" / "aggregate.json").read_text())
        assert aggregate["seeds"] == [5]
        # single run: the aggregate equals that run, with zero spread
        assert aggregate["mean"]["auc"] == aggregate["per_seed"]["5"]["auc"]
        assert aggregate["std"]["auc"] == 0.0

    def test_writes_human_readable_summary(self, tmp_path):
        config = write_config(tmp_path)
        assert runner.invoke(main, ["train", "--config", str(config)]).exit_code == 0
        summary = (tmp_path / "runs" / "summary.txt").read_text()
        assert "seed 1:" in summary and "mean over 1 seed(s)" in summary

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        env_dir = tmp_path / "env-out"
        monkeypatch.setenv("MTLDS_OUT_DIR", str(env_dir))
        result = runner.invoke(main, ["train", "--config", str(config),
                                      "--out", str(tmp_path / "flag-out")])
        assert result.exit_code == 0, result.output
        assert (env_dir / "aggregate.json").exists()
        assert not (tmp_path / "flag-out").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A checkpoint trained on the default test config and the data file it was drawn from."""
    tmp_path = tmp_path_factory.mktemp("ckpt")
    config = write_config(tmp_path)
    data_path = tmp_path / "data.tsv"
    assert runner.invoke(main, ["synth", "--config", str(config), "--out", str(data_path)]).exit_code == 0
    assert runner.invoke(main, ["train", "--config", str(config)]).exit_code == 0
    return tmp_path / "runs" / "seed1" / "checkpoint.bin", data_path


class TestEval:
    @pytest.mark.parametrize("rank_by,message", [
        ("bogus", "rank_by must be 'aggregate' or 'task:<name>'"),
        ("task:nope", "unknown task 'nope'"),
    ])
    def test_bad_rank_by_exits_2(self, trained, rank_by, message):
        ckpt, data_path = trained
        result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--data", str(data_path),
                                      "--rank-by", rank_by])
        assert result.exit_code == 2, result.output
        assert message in result.output

    @pytest.mark.parametrize("cutoffs", ["0", "-3,2", "a"])
    def test_non_positive_cutoff_exits_2_before_loading(self, trained, monkeypatch, cutoffs):
        ckpt, data_path = trained

        def not_reached(path):
            raise AssertionError("checkpoint loaded before the cutoffs were checked")

        monkeypatch.setattr(cli_mod, "load_checkpoint", not_reached)
        result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--data", str(data_path),
                                      "--cutoffs", cutoffs])
        assert result.exit_code == 2, result.output
        assert "cutoffs must be positive integers" in result.output

    def test_eval_checkpoint_on_written_dataset(self, tmp_path):
        config = write_config(tmp_path)
        data_path = tmp_path / "data.tsv"
        assert runner.invoke(main, ["synth", "--config", str(config), "--out", str(data_path)]).exit_code == 0
        assert runner.invoke(main, ["train", "--config", str(config)]).exit_code == 0
        ckpt = tmp_path / "runs" / "seed1" / "checkpoint.bin"
        out_json = tmp_path / "metrics.json"
        result = runner.invoke(main, [
            "eval", "--checkpoint", str(ckpt), "--data", str(data_path),
            "--cutoffs", "2,6,12", "--out", str(out_json)])
        assert result.exit_code == 0, result.output
        assert re.search(r"auc=0\.\d+", result.output)
        for k in (2, 6, 12):
            assert f"ndcg@{k}=" in result.output
        metrics = json.loads(out_json.read_text())
        assert set(metrics["ndcg"]) == {"2", "6", "12"}

    def test_empty_data_file_exits_2(self, trained, tmp_path):
        ckpt, data_path = trained
        empty = tmp_path / "empty.tsv"
        empty.write_text(data_path.read_text(encoding="utf-8").splitlines()[0] + "\n",
                         encoding="utf-8")
        result = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--data", str(empty)])
        assert result.exit_code == 2, result.output
        assert "no impressions to evaluate" in result.output

    def test_schema_mismatch_names_fields(self, tmp_path):
        config = write_config(tmp_path)
        assert runner.invoke(main, ["train", "--config", str(config)]).exit_code == 0
        other = write_config(tmp_path, name="other.yaml",
                             data={"synth": {"impressions": 20, "users": 9, "items": 24,
                                             "list_size": 4, "biases": [-0.5, -1.5]}})
        other_data = tmp_path / "other.tsv"
        assert runner.invoke(main, ["synth", "--config", str(other), "--out", str(other_data)]).exit_code == 0
        result = runner.invoke(main, [
            "eval", "--checkpoint", str(tmp_path / "runs" / "seed1" / "checkpoint.bin"),
            "--data", str(other_data)])
        assert result.exit_code == 2
        assert "schema mismatch" in result.output
        assert "user_fields" in result.output


class TestEvalCheckpointErrors:
    """Each fault in a checkpoint file exits 2 with a named message, never a traceback."""

    @staticmethod
    def rewrite_manifest(raw: bytes, edit) -> bytes:
        head = len(CHECKPOINT_MAGIC)
        (length,) = struct.unpack("<Q", raw[head:head + 8])
        manifest = json.loads(raw[head + 8:head + 8 + length])
        edit(manifest)
        blob = json.dumps(manifest).encode("utf-8")
        return raw[:head] + struct.pack("<Q", len(blob)) + blob + raw[head + 8 + length:]

    @pytest.mark.parametrize("corrupt,message", [
        (lambda raw: b"NOTMTLDS" + raw[8:], "bad magic"),
        (lambda raw: raw[:len(CHECKPOINT_MAGIC) + 3], "header ends before the manifest length"),
        (lambda raw: raw[:len(CHECKPOINT_MAGIC) + 8 + 20], "truncated checkpoint: manifest of"),
        (lambda raw: raw[:len(CHECKPOINT_MAGIC)] + struct.pack("<Q", 9) + b"{not json",
         "bad checkpoint manifest: JSONDecodeError"),
        (lambda raw: raw[:-4], "truncated checkpoint: parameter"),
        (lambda raw: raw + bytes(8), "8 trailing bytes"),
        (lambda raw: TestEvalCheckpointErrors.rewrite_manifest(
            raw, lambda m: m["config"].update(unknown_option=False)),
         "bad checkpoint manifest: TypeError"),
        (lambda raw: TestEvalCheckpointErrors.rewrite_manifest(
            raw, lambda m: m["schema"].update(dense_count=-1)),
         "bad checkpoint manifest: ValueError: dense count"),
        (lambda raw: raw[:-12] + bytes([raw[-12] ^ 1]) + raw[-11:],
         "parameter bytes do not match the manifest's SHA-256 checksum"),
        (lambda raw: TestEvalCheckpointErrors.rewrite_manifest(raw, lambda m: m.pop("sha256")),
         "bad checkpoint manifest: KeyError: 'sha256'"),
        (lambda raw: TestEvalCheckpointErrors.rewrite_manifest(
            raw, lambda m: m.update(version=1)),
         "unsupported checkpoint version 1"),
    ], ids=["magic", "short-header", "short-manifest", "json", "truncated-params",
            "trailing-bytes", "unknown-config-key", "rejected-schema", "flipped-param-byte",
            "no-checksum", "version-1"])
    def test_corrupt_checkpoint_exits_2(self, trained, tmp_path, corrupt, message):
        ckpt, data_path = trained
        bad = tmp_path / "bad.bin"
        bad.write_bytes(corrupt(ckpt.read_bytes()))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(bad)
        result = runner.invoke(main, ["eval", "--checkpoint", str(bad), "--data", str(data_path)])
        assert result.exit_code == 2, result.output
        assert "error: " in result.output and message in result.output


class TestGradcheckCommand:
    def test_quick_pass(self):
        result = runner.invoke(main, ["gradcheck", "--trials", "2"])
        assert result.exit_code == 0, result.output
        for item in ("op:softmax_rows", "loss:soft_sort+sort_loss", "loss:listnet",
                     "loss:ranknet", "loss:bce", "aggregate:mul", "aggregate:max",
                     "aggregate:add", "aggregate:linear", "op:concat_cols",
                     "property:urs_sweep"):
            assert item in result.output
        for kind in MODEL_KINDS:
            assert f"model:batch_loss:{kind} " in result.output
        assert "FAIL" not in result.output
        # README's counts of registry ops and of gradcheck lines stay true
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        op_count = re.search(r"\(`gradcore\.OPS`\)\s+has\s+(\d+)\s+ops", readme)[1]
        line_count = re.search(r"one\s+line\s+per\s+check,\s+(\d+)\s+in\s+all", readme)[1]
        assert int(op_count) == len(OPS)
        assert int(line_count) == sum(line.endswith("PASS") for line in result.output.splitlines())

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_exit_2(self, trials):
        result = runner.invoke(main, ["gradcheck", "--trials", trials])
        assert result.exit_code == 2, result.output
        assert "checks passed" not in result.output

    def test_injected_error_fails_nonzero(self):
        with corrupted_vjp("sigmoid", factor=1.05):
            result = runner.invoke(main, ["gradcheck", "--trials", "2"])
        assert result.exit_code == 1
        assert "FAIL" in result.output


class TestConfigHandling:
    def test_both_sources_rejected(self, tmp_path):
        config = write_config(tmp_path, data={"synth": {"impressions": 10, "users": 4,
                                                        "items": 12, "list_size": 3},
                                              "path": "x.tsv"})
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2
        assert "exactly one" in result.output

    def test_shared_field_name_in_data_header_exits_2(self, tmp_path):
        data_path = tmp_path / "data.tsv"
        data_path.write_text("!schema\tuser=id:4\titem=id:6\tdense=0\ttasks=click,buy\n"
                             "imp0\t1\t2\t\t1,0\n", encoding="utf-8")
        config = write_config(tmp_path, data={"path": str(data_path)})
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2
        assert "line 1" in result.output

    def test_schema_without_input_feature_exits_2(self, tmp_path):
        data_path = tmp_path / "data.tsv"
        data_path.write_text("!schema\tuser=\titem=\tdense=0\ttasks=click,buy\n"
                             + "".join(f"imp{i}\t\t\t\t{i % 2},0\n" for i in range(10)),
                             encoding="utf-8")
        config = write_config(tmp_path, data={"path": str(data_path)})
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert result.output == ("error: empty model input: the schema has no user or item "
                                 "field and dense=0\n")
        assert not (tmp_path / "runs").exists()

    def test_unknown_key_rejected(self, tmp_path):
        config = write_config(tmp_path, optimizer="sgd")
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2
        assert "unknown config keys" in result.output

    def test_bad_model_kind_rejected(self, tmp_path):
        config = write_config(tmp_path, model={"kind": "gbdt"})
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("overrides,message", [
        ({"seeds": [1, 1, 2]}, "seed list has repeats"),
        ({"model": {"tau": float("nan")}}, "tau must be positive and finite"),
        ({"model": {"tau": float("inf")}}, "tau must be positive and finite"),
        ({"model": {"learning_rate": float("nan")}}, "learning_rate must be positive and finite"),
        ({"model": {"learning_rate": 0.0}}, "learning_rate must be positive and finite"),
        ({"model": {"kind": "esmm", "aggregator": "bogus"}}, "unknown aggregator 'bogus'"),
        ({"model": {"kind": "mtlds", "aggregator": "bogus"}}, "unknown aggregator 'bogus'"),
        ({"gain": "bogus"}, "gain must be 'depth' or 'final'"),
        ({"rank_by": "bogus"}, "rank_by must be 'aggregate' or 'task:<name>'"),
        ({"model": {"sort_loss_weight": float("nan")}}, "sort_loss_weight must be finite and >= 0"),
        ({"model": {"sort_loss_weight": float("inf")}}, "sort_loss_weight must be finite and >= 0"),
        ({"model": {"sort_loss_weight": -1.0}}, "sort_loss_weight must be finite and >= 0"),
        ({"split": [float("nan"), 0.5, 0.5]}, "split must be 3 finite, non-negative numbers"),
        ({"split": [float("inf"), 0.5, 0.5]}, "split must be 3 finite, non-negative numbers"),
        ({"split": ["half", 0.25, 0.25]}, "split must be 3 finite, non-negative numbers"),
        ({"split": [1.5, -0.25, -0.25]}, "split must be 3 finite, non-negative numbers"),
        ({"model": {"kind": "esmm"},
          "data": {"synth": {"impressions": 40, "users": 8, "items": 24, "list_size": 4,
                             "tasks": ["click", "cart", "buy"], "biases": [-0.5, -1.0, -1.5]}}},
         "esmm requires exactly 2 tasks, schema has 3"),
        ({"model": {"task_loss": ["bce", "ranknet", "bce"]}}, "3 task losses for 2 towers"),
        ({"data": {"synth": [1]}}, "bad data.synth section"),
        ({"data": {"synth": {"tasks": 5}}}, "bad data.synth section"),
        ({"data": {"synth": {"biases": 3}}}, "bad data.synth section"),
        ({"model": {"kind": "esmm", "seed": 9}}, "the run seeds come from `seeds` (or --seed)"),
        ({"gain": 5}, "gain must be 'depth' or 'final'"),
        ({"rank_by": 5}, "rank_by must be 'aggregate' or 'task:<name>'"),
        ({"data": {"path": 5}}, "data.path must be a string, got 5"),
        ({"cutoffs": 5}, "bad config value: cutoffs must be a list, got 5"),
        ({"seeds": 5}, "bad config value: seeds must be a list, got 5"),
        ({"split": 5}, "bad config value: split must be a list, got 5"),
        ({"model": {"shared_layers": 64}}, "bad model section: shared_layers must be a list, got 64"),
        ({"data": {"synth": {"biases": -1}}},
         "bad data.synth section: biases must be a list, got -1"),
        ({"data": {"synth": {"tasks": "ab", "biases": [-1, -2]}}},
         "bad data.synth section: tasks must be a list, got 'ab'"),
        ({"data": {"synth": {"tasks": [1, 2]}}},
         "bad data.synth section: task names must be non-empty strings without ',', tab, "
         "CR or LF, got [1, 2]"),
        ({"data": {"synth": {"tasks": ["click,x", "buy"]}}},
         "bad data.synth section: task names must be non-empty strings without ',', tab, "
         "CR or LF, got ['click,x', 'buy']"),
    ], ids=["repeated-seeds", "tau-nan", "tau-inf", "lr-nan", "lr-zero", "esmm-aggregator",
            "mtlds-aggregator", "gain", "rank-by", "weight-nan", "weight-inf", "weight-negative",
            "split-nan", "split-inf", "split-string", "split-negative", "esmm-three-tasks",
            "task-loss-length", "synth-list", "synth-tasks-number", "synth-biases-number",
            "model-seed", "gain-number", "rank-by-number", "data-path-number", "cutoffs-scalar",
            "seeds-scalar", "split-scalar", "shared-layers-scalar", "synth-biases-scalar",
            "synth-tasks-string", "synth-task-numbers", "synth-task-comma"])
    def test_bad_config_value_exits_2(self, tmp_path, overrides, message):
        config = write_config(tmp_path, **overrides)
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_data_path_exits_2(self, tmp_path, kind):
        data_path = tmp_path / "data.tsv"
        if kind == "directory":
            data_path.mkdir()
        config = write_config(tmp_path, data={"path": str(data_path)})
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: cannot read {data_path}: ")
        assert result.output.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    def test_out_dir_below_a_file_exits_2_before_the_first_fit(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        fits = []
        monkeypatch.setattr(cli_mod, "fit", lambda *args: fits.append(args))
        config = write_config(tmp_path, out_dir=str(blocker / "runs"))
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: cannot write {blocker / 'runs'}: ")
        assert result.output.count("\n") == 1
        assert fits == []

    def test_non_string_out_dir_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["train", "--config", str(write_config(tmp_path, out_dir=5))])
        assert result.exit_code == 2, result.output
        assert "out_dir must be a string, got 5" in result.output
        assert not (tmp_path / "5").exists()

    def test_documented_examples_load_to_one_experiment(self, tmp_path):
        """README's config block and configs/example.yaml spell the same run:
        the README gives every synth default that the example leaves out."""
        root = Path(__file__).parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Experiment config\n\n.*?```yaml\n(.*?)```", readme, re.S)[1]
        from_readme = tmp_path / "readme.yaml"
        from_readme.write_text(block, encoding="utf-8")
        example = load_experiment_config(root / "configs" / "example.yaml")
        assert experiment_hash(load_experiment_config(from_readme)) == experiment_hash(example)

    @pytest.mark.parametrize("section,key,value,message", [
        ("model", "epochs", 2.5, "epochs must be an integer >= 0, got 2.5"),
        ("model", "epochs", True, "epochs must be an integer >= 0, got True"),
        ("model", "embedding_dim", 3.5, "embedding_dim must be an integer >= 1, got 3.5"),
        ("model", "embedding_dim", 0, "embedding_dim must be an integer >= 1, got 0"),
        ("model", "shared_layers", [8.5], "shared_layers[0] must be an integer >= 1, got 8.5"),
        ("model", "tower_layers", [0], "tower_layers[0] must be an integer >= 1, got 0"),
        ("synth", "users", 2.5, "users must be an integer >= 1, got 2.5"),
        ("synth", "list_size", 3.5, "list_size must be an integer >= 1, got 3.5"),
        ("synth", "impressions", 60.5, "impressions must be an integer >= 1, got 60.5"),
        ("synth", "seed", 1.5, "seed must be an integer >= 0, got 1.5"),
        ("synth", "noise", float("nan"), "noise must be finite and non-negative, got nan"),
        ("synth", "biases", [-0.5, float("nan")], "biases must be finite"),
        ("top", "cutoffs", [2.7], "cutoffs[0] must be an integer >= 1, got 2.7"),
        ("top", "seeds", [1, 2.5], "seeds[1] must be an integer >= 0, got 2.5"),
        ("top", "seeds", [-1], "seeds[0] must be an integer >= 0, got -1"),
        ("model", "tau", "soft", "tau must be positive and finite, got soft"),
        ("model", "tau", True, "tau must be positive and finite, got True"),
        ("model", "learning_rate", "fast", "learning_rate must be positive and finite, got fast"),
        ("model", "learning_rate", True, "learning_rate must be positive and finite, got True"),
        ("model", "sort_loss_weight", "one", "sort_loss_weight must be finite and >= 0, got one"),
        ("synth", "noise", "low", "noise must be finite and non-negative, got low"),
        ("synth", "biases", ["high", -1.5], "biases must be finite, got ('high', -1.5)"),
    ], ids=["epochs-float", "epochs-bool", "embedding-float", "embedding-zero",
            "shared-width-float", "tower-width-zero", "users", "list-size", "impressions",
            "synth-seed", "noise-nan", "bias-nan", "cutoff-float", "seed-float", "seed-negative",
            "tau-string", "tau-bool", "lr-string", "lr-bool", "weight-string", "noise-string",
            "bias-string"])
    def test_non_integer_or_non_finite_value_exits_2_naming_the_field(
            self, tmp_path, section, key, value, message):
        cfg = yaml.safe_load(write_config(tmp_path).read_text(encoding="utf-8"))
        {"model": cfg["model"], "synth": cfg["data"]["synth"], "top": cfg}[section][key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        result = runner.invoke(main, ["train", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("rank_by,message", [
        ("bogus", "rank_by must be 'aggregate' or 'task:<name>'"),
        ("task:nope", "unknown task 'nope'"),
    ])
    def test_bad_rank_by_flag_exits_2_before_training(self, tmp_path, rank_by, message):
        config = write_config(tmp_path)
        result = runner.invoke(main, ["train", "--config", str(config), "--rank-by", rank_by])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not list((tmp_path / "runs").glob("seed*"))

    @pytest.mark.parametrize("lines,sizes", [
        ([], "[0, 0, 0]"),
        (["imp0\t1\t2\t\t1,0", "imp1\t1\t3\t\t0,0"], "[1, 1, 0]"),
    ], ids=["header-only", "two-impressions"])
    def test_data_too_small_to_split_exits_2(self, tmp_path, lines, sizes):
        data_path = tmp_path / "data.tsv"
        data_path.write_text("\n".join(["!schema\tuser=u:4\titem=i:6\tdense=0\ttasks=click,buy",
                                        *lines]) + "\n", encoding="utf-8")
        config = write_config(tmp_path, data={"path": str(data_path)}, model={"kind": "esmm"})
        result = runner.invoke(main, ["train", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert f"train/valid/test sizes {sizes}" in result.output
        assert not (tmp_path / "runs").exists()

    def test_hash_tracks_config_changes(self, tmp_path):
        a = load_experiment_config(write_config(tmp_path, name="a.yaml"))
        b = load_experiment_config(write_config(tmp_path, name="b.yaml", seeds=[2]))
        same = load_experiment_config(write_config(tmp_path, name="c.yaml"))
        assert experiment_hash(a) != experiment_hash(b)
        assert experiment_hash(a) == experiment_hash(same)
