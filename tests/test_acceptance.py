"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The directional
benchmarks (criteria 7-9) train real models on the default synthetic dataset
and dominate the runtime (roughly 10-15 minutes on a laptop CPU); they carry
the ``slow`` marker, so ``pytest -m "not slow"`` skips them.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from mtlds.checks import check_aggregators, check_batch_loss, check_losses
from mtlds.cli import main
from mtlds.data import SynthConfig, project_tasks, split, synthesize
from mtlds.evaluation import auc, ndcg_at_k
from mtlds.gradcore import Graph
from mtlds.model import ModelConfig, evaluate_model, fit
from mtlds.sortops import (
    argsort_desc,
    is_unimodal_row_stochastic,
    perm_matrix,
    soft_sort,
    sort_loss,
)

runner = CliRunner()


def report(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"\n[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num} ({name}): PASS")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_table1_exact():
    expected = {
        1: (0.09, 1.0, 2.9, 0.9),
        2: (0.09, 1.0, 2.1, 0.9),
        3: (0.09, 0.6, 1.5, 0.3),
        4: (0.25, 1.0, 2.5, 0.5),
    }

    def run():
        start = time.time()
        result = runner.invoke(main, ["table1"])
        elapsed = time.time() - start
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()[1:]
        assert len(lines) == 4
        for line in lines:
            cells = line.split()
            got = tuple(float(c) for c in cells[3:])
            assert got == expected[int(cells[0])], f"row {cells[0]}: {got}"
        assert elapsed < 1.0, f"table1 took {elapsed:.2f}s"

    report(1, "aggregation operator table, exact", run)


# --------------------------------------------------------------- criterion 2


def test_criterion_2_urs_property_sweep():
    def run():
        start = time.time()
        rng = np.random.default_rng(2024)
        taus = (0.1, 1.0, 10.0)
        for i in range(1000):
            n = int(rng.integers(2, 11))
            s = rng.standard_normal(n)
            p_hat = soft_sort(Graph().tensor(s), taus[i % 3])
            ok, why = is_unimodal_row_stochastic(p_hat, tol=1e-6)
            assert ok, f"vector {i}: URS violated ({why})"
            assert tuple(p_hat.value.argmax(axis=1)) == tuple(argsort_desc(s)), \
                f"vector {i}: row-argmax differs from argsort"
        elapsed = time.time() - start
        assert elapsed < 10.0, f"URS sweep took {elapsed:.2f}s"

    report(2, "URS sweep, 1000 vectors", run)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_gradient_suite():
    def run():
        start = time.time()
        results = check_losses(trials=20, seed=31)
        results += check_aggregators(trials=20, seed=32)
        for r in results:
            assert r.worst < 1e-4, f"{r.name}: worst {r.worst:.2e}"
        models = check_batch_loss(seed=33)
        assert len(models) == 7  # one per model kind
        for r in models:
            assert r.worst < 1e-3, f"{r.name}: worst {r.worst:.2e}"
        elapsed = time.time() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.2f}s"
        print(f"  worst errors: losses/aggregators "
              f"{max(r.worst for r in results):.2e}, "
              f"batch_loss {max(r.worst for r in models):.2e}")

    report(3, "gradient suite vs central differences", run)


# --------------------------------------------------------------- criterion 4


def test_criterion_4_annealing_convergence():
    def run():
        rng = np.random.default_rng(44)
        taus = (1.0, 0.3, 0.1, 0.03, 0.01)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            while True:
                s = rng.uniform(-2.0, 2.0, n)
                if n < 2 or np.min(np.diff(np.sort(s))) >= 0.1:
                    break
            hard = perm_matrix(argsort_desc(s))
            dists = [np.max(np.abs(soft_sort(Graph().tensor(s), tau).value - hard))
                     for tau in taus]
            assert dists[-1] < 1e-3, f"trial {trial}: final distance {dists[-1]:.2e}"
            for a, b in zip(dists, dists[1:]):
                assert b <= a + 1e-12, f"trial {trial}: distance increased {dists}"

    report(4, "annealing toward the hard permutation", run)


# --------------------------------------------------------------- criterion 5


def test_criterion_5_sort_loss_optimality():
    def run():
        rng = np.random.default_rng(55)
        for trial in range(50):
            n = int(rng.integers(2, 6))
            s = rng.standard_normal(n)
            p_hat = soft_sort(Graph().tensor(s), tau=1.0)
            true_z = tuple(argsort_desc(s))
            best = min(
                itertools.permutations(range(n)),
                key=lambda z: sort_loss([p_hat], [perm_matrix(z)]).item(),
            )
            assert best == true_z, f"trial {trial}: minimized at {best}, not {true_z}"

    report(5, "sorting loss minimized at true argsort", run)


# --------------------------------------------------------------- criterion 6


def test_criterion_6_metric_oracles():
    def pairwise_auc(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        return wins / (len(pos) * len(neg))

    def ideal_dcg(gains, k):
        return max(
            sum((2.0 ** gains[i] - 1.0) / np.log2(pos + 2)
                for pos, i in enumerate(order[:k]))
            for order in itertools.permutations(range(len(gains)))
        )

    def run():
        rng = np.random.default_rng(66)
        for _ in range(100):
            scores = np.round(rng.standard_normal(60), 1)
            labels = rng.integers(0, 2, 60)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12
        for _ in range(60):
            n = int(rng.integers(2, 9))
            gains = rng.integers(0, 4, n)
            if not gains.any():
                gains[rng.integers(n)] = 1
            scores = rng.standard_normal(n)
            k = int(rng.integers(1, n + 1))
            order = np.argsort(-scores, kind="stable")
            dcg = sum((2.0 ** gains[i] - 1.0) / np.log2(pos + 2)
                      for pos, i in enumerate(order[:k]))
            assert ndcg_at_k(scores, gains, k) == pytest.approx(
                dcg / ideal_dcg(list(gains), k), abs=1e-12)

    report(6, "AUC and NDCG against brute-force oracles", run)


# ---------------------------------------------------------- criteria 7 and 9


BENCH_SPLIT = [0.7, 0.15, 0.15]
BENCH_SEEDS = [1, 2, 3, 4, 5]
BENCH_MODELS = {
    "mtlds": {"kind": "mtlds", "aggregator": "linear", "tau": 0.25,
              "learning_rate": 0.02, "epochs": 18, "batch_size": 64},
    "esmm": {"kind": "esmm", "learning_rate": 0.02, "epochs": 18, "batch_size": 64},
    "dnn_pointwise": {"kind": "dnn_pointwise", "learning_rate": 0.02,
                      "epochs": 18, "batch_size": 64},
}


def run_benchmark(out_root: Path) -> dict:
    """Train every benchmark model over the shared seeds; returns mean NDCG@6."""
    means = {}
    for name, model_cfg in BENCH_MODELS.items():
        config = {
            "out_dir": str(out_root / name),
            "seeds": BENCH_SEEDS,
            "split": BENCH_SPLIT,
            "cutoffs": [2, 6, 12],
            "data": {"synth": {}},  # the default 50k-sample dataset
            "model": model_cfg,
        }
        path = out_root / f"{name}.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        result = runner.invoke(main, ["train", "--config", str(path)])
        assert result.exit_code == 0, result.output
        aggregate = json.loads((out_root / name / "aggregate.json").read_text())
        means[name] = aggregate["mean"]["ndcg@6"]
    return means


@pytest.fixture(scope="module")
def benchmark_first_run(tmp_path_factory):
    out_root = tmp_path_factory.mktemp("bench-a")
    start = time.time()
    means = run_benchmark(out_root)
    return {"out_root": out_root, "means": means, "elapsed": time.time() - start}


@pytest.mark.slow
def test_criterion_7_directional_benchmark(benchmark_first_run):
    def run():
        means = benchmark_first_run["means"]
        elapsed = benchmark_first_run["elapsed"]
        print(f"  mean NDCG@6: " + ", ".join(f"{k}={v:.4f}" for k, v in means.items())
              + f"  ({elapsed:.0f}s)")
        assert means["mtlds"] >= means["dnn_pointwise"] + 0.01, \
            f"mtlds {means['mtlds']:.4f} vs pointwise {means['dnn_pointwise']:.4f}"
        assert means["mtlds"] >= means["esmm"], \
            f"mtlds {means['mtlds']:.4f} vs esmm {means['esmm']:.4f}"
        assert elapsed < 600.0, f"benchmark took {elapsed:.0f}s"

    report(7, "directional benchmark over 5 seeds", run)


@pytest.mark.slow
def test_criterion_9_benchmark_determinism(benchmark_first_run, tmp_path_factory):
    def run():
        first = benchmark_first_run["out_root"]
        second = tmp_path_factory.mktemp("bench-b")
        means = run_benchmark(second)
        assert means == benchmark_first_run["means"]
        for name in BENCH_MODELS:
            a = (first / name / "aggregate.json").read_bytes()
            b = (second / name / "aggregate.json").read_bytes()
            assert a == b, f"{name}: aggregate reports differ between reruns"
            for seed in BENCH_SEEDS:
                ra = (first / name / f"seed{seed}" / "report.json").read_bytes()
                rb = (second / name / f"seed{seed}" / "report.json").read_bytes()
                assert ra == rb, f"{name} seed {seed}: reports differ"

    report(9, "byte-identical reports on rerun", run)


# --------------------------------------------------------------- criterion 8


@pytest.mark.slow
def test_criterion_8_multi_label_scalability():
    def run():
        ds3 = synthesize(SynthConfig(
            impressions=2500,
            tasks=("click", "cart", "purchase"),
            biases=(-1.0, -2.0, -3.25),
        ))
        ds2 = project_tasks(ds3, ("click", "purchase"))
        means = {}
        for name, ds in (("three-task", ds3), ("two-task", ds2)):
            vals = []
            for seed in BENCH_SEEDS:
                tr, va, te = split(ds, (0.7, 0.15, 0.15), seed=seed)
                config = ModelConfig(kind="mtlds", aggregator="linear", tau=0.25,
                                     learning_rate=0.02, epochs=12, seed=seed)
                model, _ = fit(config, tr, va)
                vals.append(evaluate_model(model, te, gain="final").ndcg_at[6])
            means[name] = float(np.mean(vals))
        print(f"  purchase NDCG@6: three-task {means['three-task']:.4f}, "
              f"two-task {means['two-task']:.4f}")
        assert means["three-task"] >= means["two-task"] - 0.005, means

    report(8, "extra post-click label helps, config only", run)
