"""The recordings under ``tests/fixtures`` and ``tools/record.py``, the one
command that re-makes them: the model values of every case match
``models.npz`` bit for bit, the command reproduces every committed file byte
for byte, its report shows a moved value and a missing key, and no file
outlives its entry in ``RECORDINGS``."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
import record

from mtlds.model import ModelConfig, SharedBottomModel


def test_batch_exercises_ties_and_lengths():
    ids, dense, _, lengths = record.BATCHES["ragged"][1]
    assert lengths.min() == 1 and lengths.max() == 40 and len(set(lengths)) < lengths.size
    twin = lengths[:record.TWIN_LIST].sum()
    a, b = twin + record.TWIN_A, twin + record.TWIN_B
    model = SharedBottomModel(record.RAGGED_SCHEMA, ModelConfig(kind="mtlds", seed=5))
    scores = model.flat_scores(ids, dense)
    assert (ids[a] == ids[b]).all() and (dense[a] == dense[b]).all()
    assert scores[a] == scores[b]


@pytest.mark.parametrize("case", list(record.CASES))
def test_model_values_match_recording(case):
    """Re-record (only when the model arithmetic changes on purpose) with
    ``python tools/record.py``."""
    recorded = record.recorded("models.npz", f"{case}/")
    assert record.changes(recorded, record.model_values(case)) == []


def test_write_reproduces_every_committed_recording(tmp_path):
    record.write(tmp_path)
    for name in record.RECORDINGS:
        committed = (record.FIXTURES / name).read_bytes()
        assert (tmp_path / name).read_bytes() == committed, name
    assert all(line.endswith(" keys") for line in record.report(record.FIXTURES, tmp_path))


def test_every_fixture_is_a_recording_or_the_golden_input():
    files = {path.relative_to(record.FIXTURES).as_posix()
             for path in record.FIXTURES.rglob("*") if path.is_file()}
    assert files == {*record.RECORDINGS, "golden.tsv"}


@pytest.mark.parametrize("name,nudged,dropped,encode", [
    ("models.npz", "pin/mtlds/loss", "pin/mtlds/grad/agg/w", record.npz_bytes),
    ("golden_train/mtlds/aggregate.json", "mean/auc", "std/auc", lambda v: json.dumps(v).encode()),
], ids=["npz", "json"])
def test_report_shows_a_one_ulp_nudge_and_a_dropped_key(tmp_path, name, nudged, dropped, encode):
    shutil.copytree(record.FIXTURES, tmp_path, dirs_exist_ok=True)
    held = record.recorded(name)
    old = held[nudged]
    held[nudged] = np.nextafter(old, np.inf)
    del held[dropped]
    (tmp_path / name).write_bytes(encode(held))

    lines = record.report(tmp_path, record.FIXTURES)
    assert f"{name}: 2 change(s)" in lines
    changed = [line for line in lines if line.startswith(f"  changed {nudged}: ")]
    assert len(changed) == 1 and f"abs {np.spacing(old).item():.3g}," in changed[0]
    assert any(line.startswith(f"  added {dropped}: ") for line in lines)
    assert sum(line.endswith(" keys") for line in lines) == len(record.RECORDINGS) - 1


def test_takes_no_option(tmp_path):
    result = subprocess.run([sys.executable, str(record.ROOT / "tools" / "record.py"), "--dry-run"],
                            capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 2
    assert "takes no options" in result.stderr and not result.stdout
