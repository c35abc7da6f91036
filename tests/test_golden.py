"""End-to-end byte identity: ``mtlds train --seed 1`` on a tiny synthetic
config writes exactly the recorded ``report.json`` and ``aggregate.json``.

A refactor that keeps the training arithmetic keeps these bytes; a change
that alters them on purpose re-records the files under
``tests/fixtures/golden_train/<kind>/`` and says why.
"""

from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from mtlds.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden_train"
KINDS = ("mtlds", "esmm")
FILES = ("seed1/report.json", "aggregate.json")


def golden_config(kind: str) -> dict:
    return {
        "seeds": [1],
        "split": [0.7, 0.15, 0.15],
        "cutoffs": [2, 6, 12],
        "data": {"synth": {"impressions": 200}},
        "model": {"kind": kind, "aggregator": "linear", "tau": 0.25,
                  "learning_rate": 0.02, "epochs": 2, "batch_size": 64},
    }


def train_golden(kind: str, tmp_path: Path) -> Path:
    """Run ``mtlds train --seed 1`` on the golden config; returns the output directory."""
    config = tmp_path / f"{kind}.yaml"
    config.write_text(yaml.safe_dump(golden_config(kind)), encoding="utf-8")
    out = tmp_path / kind
    result = CliRunner().invoke(
        main, ["train", "--config", str(config), "--seed", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_train_outputs_match_recorded_bytes(kind, tmp_path):
    out = train_golden(kind, tmp_path)
    for name in FILES:
        expected = (GOLDEN / kind / name).read_bytes()
        assert (out / name).read_bytes() == expected, f"{kind}: {name} differs from the recording"
