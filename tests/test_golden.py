"""End-to-end byte identity: ``mtlds train --seed 1`` on a tiny synthetic
config (``record.golden_config``) writes exactly the recorded ``report.json``,
``aggregate.json`` and ``summary.txt``.

A refactor that keeps the training arithmetic keeps these bytes; a change
that alters them on purpose re-records the files under
``tests/fixtures/golden_train/<kind>/`` and says why.
"""

import pytest
import record


@pytest.mark.parametrize("kind", record.GOLDEN_KINDS)
def test_train_outputs_match_recorded_bytes(kind):
    """Re-record (only when the training arithmetic changes on purpose) with
    ``python tools/record.py``."""
    for name, data in record.golden_run(kind).items():
        path = f"golden_train/{kind}/{name}"
        assert record.file_changes(path, (record.FIXTURES / path).read_bytes(), data) == []
