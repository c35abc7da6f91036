"""The summary arithmetic of ``tools/bench_pairs.py`` on canned result lines
(no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "train_impressions_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def line(side, seed, train, rss, correct=True, failed=0):
    return json.dumps({"side": side, "workload": "synth-esmm", "seed": seed, "exit": 0,
                       "result": {"correct": correct, "attempted": 9, "failed": failed,
                                  "metrics": {"train_impressions_per_s": {"value": train},
                                              "peak_rss_mb": {"value": rss}}}})


# parent train 100, 110, 120, 130, 140; change wins 3 pairs on train, 4 on rss
CANNED = [line("parent", 1, 100.0, 70.0), line("change", 1, 105.0, 69.0),
          line("change", 2, 100.0, 71.0), line("parent", 2, 110.0, 70.0),
          line("parent", 3, 120.0, 72.0), line("change", 3, 125.0, 71.5),
          line("change", 4, 150.0, 70.5), line("parent", 4, 130.0, 71.0),
          line("parent", 5, 140.0, 73.0), line("change", 5, 130.0, 72.0)]


def test_medians_spread_and_pairs_won():
    records = [json.loads(s) for s in CANNED]
    train, rss = bench_pairs.summarize(records, METRICS)
    assert train["parent_median"] == 120.0 and train["change_median"] == 125.0
    assert train["parent_spread"] == pytest.approx(130.0 - 110.0)
    assert train["won"] == 3 and train["pairs"] == 5
    assert train["worse_by"] == pytest.approx(-5.0 / 120.0)
    assert rss["parent_median"] == 71.0 and rss["change_median"] == 71.0
    assert rss["parent_spread"] == pytest.approx(72.0 - 70.0)
    assert rss["won"] == 4 and rss["worse_by"] == 0.0


def test_worse_median_is_flagged_against_its_bound():
    records = [json.loads(line("parent", 1, 100.0, 70.0)),
               json.loads(line("change", 1, 70.0, 80.0))]
    train, rss = bench_pairs.summarize(records, METRICS)
    assert train["worse_by"] == pytest.approx(0.3) and train["won"] == 0
    assert rss["worse_by"] == pytest.approx(10.0 / 70.0)
    assert train["parent_spread"] == 0.0
    table = bench_pairs.format_rows([train, rss])
    assert all(row.endswith("OVER BOUND") for row in table[1:])


def test_better_median_past_its_bound_is_a_gain():
    records = [json.loads(line("parent", 1, 100.0, 70.0)),
               json.loads(line("change", 1, 130.0, 60.0))]
    train, rss = bench_pairs.summarize(records, METRICS)
    assert train["worse_by"] == pytest.approx(-0.3)
    assert rss["worse_by"] == pytest.approx(-10.0 / 70.0)
    header, train_row, rss_row = bench_pairs.format_rows([train, rss])
    assert train_row.endswith("  GAIN") and rss_row.endswith("  GAIN")
    within = bench_pairs.format_rows(bench_pairs.summarize(
        [json.loads(line("parent", 1, 100.0, 70.0)), json.loads(line("change", 1, 120.0, 65.0))],
        METRICS))
    assert not any("GAIN" in row for row in within)


def wide(change_train):
    """Five pairs whose parent train values spread by a third of their median
    (quartiles 100 and 140, median 120), wider than the 0.25 bound."""
    parent_train = [60.0, 100.0, 120.0, 140.0, 180.0]
    return [json.loads(line(side, seed, train, 70.0))
            for seed, pair in enumerate(zip(parent_train, change_train), start=1)
            for side, train in zip(("parent", "change"), pair)]


def test_spread_wider_than_the_bound_is_unresolved():
    train, rss = bench_pairs.summarize(wide([130.0, 90.0, 125.0, 150.0, 170.0]), METRICS)
    assert train["rel_spread"] == pytest.approx(40.0 / 120.0)
    assert train["unresolved"] and train["worse_by"] < train["bound"]
    assert rss["rel_spread"] == 0.0 and not rss["unresolved"]
    header, train_row, rss_row = bench_pairs.format_rows([train, rss])
    assert train_row.endswith("  UNRESOLVED") and "OVER BOUND" not in train_row
    assert "33.3%" in train_row
    assert "UNRESOLVED" not in rss_row
    gained = bench_pairs.summarize(wide([190.0, 60.0, 200.0, 140.0, 180.0]), METRICS)[0]
    assert gained["unresolved"] and -gained["worse_by"] > gained["bound"]
    assert bench_pairs.format_rows([gained])[1].endswith("  UNRESOLVED")


def test_every_change_run_beating_every_parent_run_is_resolved():
    train, _ = bench_pairs.summarize(wide([190.0, 200.0, 210.0, 220.0, 230.0]), METRICS)
    assert train["rel_spread"] > train["bound"] and not train["unresolved"]
    assert "UNRESOLVED" not in bench_pairs.format_rows([train])[1]


def test_runs_that_failed_are_faults():
    records = [json.loads(s) for s in CANNED]
    assert bench_pairs.faults(records) == []
    records += [json.loads(line("change", 6, 1.0, 1.0, correct=False)),
                json.loads(line("parent", 6, 1.0, 1.0, failed=2)),
                {"side": "parent", "workload": "synth-esmm", "seed": 7, "exit": 2,
                 "result": None}]
    assert bench_pairs.faults(records) == [
        "change seed 6: exit 0, correct=False, failed=0",
        "parent seed 6: exit 0, correct=True, failed=2",
        "parent seed 7: exit 2, correct=None, failed=None",
    ]
