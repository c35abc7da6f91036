#!/usr/bin/env python3
"""Alternated benchmark runs of two checkouts, with a per-metric summary.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS OUT

For each seed 1..PAIRS it runs

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 30 --trace 0

in the PARENT and the CHANGE checkout, the parent first on odd seeds and the
change first on even ones, and writes each run to OUT as one JSON line with
the keys ``side``, ``workload``, ``seed``, ``exit`` and ``result`` (the run's
last line of standard output, or null), the layout of the ``BENCH_*.json``
files.  Then, for each end-to-end metric in the change's ``BENCHMARK.json``,
it prints both sides' medians, the distance between the parent's quartiles
relative to its median, the median's relative move in the metric's worse
direction against its bound, and the pairs (same seed) that the change won.
It flags a move past the bound ``OVER BOUND``, and a metric whose relative
quartile spread is wider than its bound ``UNRESOLVED`` (neither better nor
worse can be told) unless every change run beats every parent run.  A
metric that is not unresolved and whose median moved in the better
direction by more than its bound is flagged ``GAIN``.

Exit status 1 if any run is not ``correct`` or has failed operations, 0
otherwise.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 30
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> tuple[int, dict | None]:
    """One benchmark run in ``checkout``: its exit status and its result object."""
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return proc.returncode, None


def run_pairs(checkouts: dict[str, Path], workload: str, pairs: int, out: Path) -> list[dict]:
    """Every run of seeds 1..``pairs``, each written to ``out`` as it ends."""
    records = []
    with open(out, "w", encoding="utf-8") as fh:
        for seed in range(1, pairs + 1):
            for side in SIDES if seed % 2 else SIDES[::-1]:
                code, result = run_once(checkouts[side], workload, seed)
                record = {"side": side, "workload": workload, "seed": seed, "exit": code,
                          "result": result}
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                records.append(record)
                print(f"seed {seed} {side}: exit {code}", file=sys.stderr)
    return records


def faults(records: list[dict]) -> list[str]:
    """One line per run that is not ``correct`` or has failed operations."""
    out = []
    for r in records:
        result = r["result"] or {}
        if not result.get("correct") or result.get("failed", 1):
            out.append(f"{r['side']} seed {r['seed']}: exit {r['exit']}, "
                       f"correct={result.get('correct')}, failed={result.get('failed')}")
    return out


def quartile_spread(values: list[float]) -> float:
    """Third quartile minus first (inclusive method); 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(records: list[dict], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric (``BENCHMARK.json`` entries): both medians, the
    parent's quartile spread, the median's relative move in the worse
    direction, the pairs won by the change, and whether the metric is
    unresolved, over the seeds both sides ran."""
    values = {side: {r["seed"]: r["result"]["metrics"] for r in records
                     if r["side"] == side and r["result"] and r["result"]["metrics"]}
              for side in SIDES}
    seeds = sorted(values["parent"].keys() & values["change"].keys())
    if not seeds:
        return []
    rows = []
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        parent = [values["parent"][s][name]["value"] for s in seeds]
        change = [values["change"][s][name]["value"] for s in seeds]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        spread = quartile_spread(parent)
        rel_spread = spread / abs(p_med) if p_med else 0.0
        rows.append({
            "metric": name,
            "parent_median": p_med,
            "change_median": c_med,
            "parent_spread": spread,
            "rel_spread": rel_spread,
            "worse_by": sign * (p_med - c_med) / abs(p_med) if p_med else 0.0,
            "bound": m["bound"],
            "won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(seeds),
            "unresolved": (rel_spread > m["bound"]
                           and min(sign * c for c in change) <= max(sign * p for p in parent)),
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = [f"{'metric':<26}{'parent med':>14}{'change med':>14}{'IQR/median':>12}"
             f"{'worse by':>10}{'bound':>7}{'won':>7}"]
    for r in rows:
        flags = ("  OVER BOUND" if r["worse_by"] > r["bound"] else "") + (
            "  UNRESOLVED" if r["unresolved"] else
            "  GAIN" if -r["worse_by"] > r["bound"] else "")
        lines.append(f"{r['metric']:<26}{r['parent_median']:>14.4g}{r['change_median']:>14.4g}"
                     f"{r['rel_spread']:>12.1%}{r['worse_by']:>10.1%}{r['bound']:>7.2f}"
                     f"{r['won']:>4}/{r['pairs']}{flags}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("out", type=Path, help="file for the JSON line of every run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    records = run_pairs({"parent": args.parent, "change": args.change},
                        args.workload, args.pairs, args.out)
    print(f"{args.workload}: {args.pairs} pairs, runs in {args.out}")
    for line in format_rows(summarize(records, metrics)):
        print(line)
    bad = faults(records)
    for line in bad:
        print(f"fault: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
