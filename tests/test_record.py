"""``tools/record.py``, the one command that re-makes the recordings under
``tests/fixtures``: it reproduces every committed file byte for byte, and its
report shows a moved value and a missing key."""

import shutil
import subprocess
import sys

import numpy as np
import pytest
import record


def test_write_reproduces_every_committed_recording(tmp_path):
    record.write(tmp_path)
    for name in record.RECORDINGS:
        committed = (record.FIXTURES / name).read_bytes()
        assert (tmp_path / name).read_bytes() == committed, name
    assert all(line.endswith(" keys") for line in record.report(record.FIXTURES, tmp_path))


@pytest.mark.parametrize("name,encode", [("listwise.npz", record.npz_bytes),
                                         ("pinned.json", record.json_bytes)])
def test_report_shows_a_one_ulp_nudge_and_a_dropped_key(tmp_path, name, encode):
    shutil.copytree(record.FIXTURES, tmp_path, dirs_exist_ok=True)
    held = record.recorded(name)
    nudged, dropped = list(held)[:2]
    old = held[nudged]
    assert np.size(old) == 1
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
