#!/usr/bin/env python3
"""Re-record every value that the tests pin bit for bit, and show what moved.

    python tools/record.py

``RECORDINGS`` is the one table of recordings: each file under
``tests/fixtures`` and the function that makes its bytes from the current
tree.  The command makes every file, prints for each one the keys whose value
changed (the old and the new value, and the largest absolute and relative
change), the keys added and the keys removed, and then writes the files over
the committed ones.  A key of an ``.npz`` file is an array name; a key of a
``.json`` file is the path of one of its values, the object keys and list
positions joined by ``/``.

Re-record only when the arithmetic changes on purpose, and say in the change
which values moved.  The recording tests compare through ``changes``, so a
failing test prints the same lines as this command.  The command takes no
options.  It imports ``mtlds`` (from ``src/``) before numpy, so it records
under the package's one-BLAS-thread pin, as the tests run.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

import mtlds  # noqa: E402,F401  (before numpy: sets the one-BLAS-thread pin)
import numpy as np  # noqa: E402
import yaml  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from mtlds.aggregate import LabelSequence  # noqa: E402
from mtlds.cli import main as mtlds_main  # noqa: E402
from mtlds.data import FieldSpec, Impression, Sample, Schema  # noqa: E402
from mtlds.gradcore import Graph  # noqa: E402
from mtlds.model import MODEL_KINDS, ModelConfig, SharedBottomModel  # noqa: E402

# ------------------------------------------------ listwise.npz: one ragged batch
# batch_loss and every parameter gradient of small listwise models.  The lists
# hold 1 to 40 items, with repeated lengths, tied depth labels, and two samples
# with identical features in one list, so their scores tie.  At tau=0.01 the
# probability clip of the sort loss is active.

LISTWISE_KINDS = ("mtlds", "mtl_listnet", "dnn_diffsort")
LISTWISE_TAUS = (0.01, 0.25)
LENGTHS = (1, 7, 40, 3, 7, 12, 2, 40, 25, 7)
TWIN_LIST, TWIN_A, TWIN_B = 5, 3, 8
RAGGED_SCHEMA = Schema(
    user_fields=(FieldSpec("user_id", 6),),
    item_fields=(FieldSpec("item_id", 12),),
    dense_count=1,
    tasks=("click", "cart", "buy"),
)


def ragged_batch() -> list[Impression]:
    rng = np.random.default_rng(7)
    batch = []
    for i, n in enumerate(LENGTHS):
        user = int(rng.integers(6))
        samples = []
        for depth in rng.integers(0, 4, size=n):
            samples.append(Sample(
                user_ids=(user,),
                item_ids=(int(rng.integers(12)),),
                dense=(float(rng.standard_normal()),),
                labels=LabelSequence(tuple(1 if t < depth else 0 for t in range(3))),
            ))
        if i == TWIN_LIST:
            twin = samples[TWIN_A]
            samples[TWIN_B] = Sample(twin.user_ids, twin.item_ids, twin.dense,
                                     samples[TWIN_B].labels)
        batch.append(Impression(f"imp{i}", tuple(samples)))
    return batch


def listwise_arrays(kind: str, tau: float) -> dict[str, np.ndarray]:
    """The batch loss and the gradient of every parameter, keyed ``<kind>/<tau>/...``."""
    config = ModelConfig(kind=kind, aggregator="linear", tau=tau, embedding_dim=4,
                         shared_layers=(8,), tower_layers=(4,), seed=5)
    model = SharedBottomModel(RAGGED_SCHEMA, config)
    graph = Graph()
    pt = model.bind(graph)
    loss = model.batch_loss(graph, ragged_batch(), pt)
    grads = graph.backward(loss)
    out = {f"{kind}/{tau}/loss": loss.value.copy()}
    for name, arr in model.params.items():
        out[f"{kind}/{tau}/grad/{name}"] = grads.get(pt[name].node_id, np.zeros_like(arr))
    return out


# ------------------------------------- pinned.json and scores.npz: PIN_BATCH
# Two impressions of different lengths, so the per-impression means and the
# mean over impressions both matter.

PIN_SCHEMA = Schema(
    user_fields=(FieldSpec("user_id", 6),),
    item_fields=(FieldSpec("item_id", 10),),
    dense_count=1,
    tasks=("click", "purchase"),
)


def _pin_impression(imp_id: str, rows, seed: int) -> Impression:
    rng = np.random.default_rng(seed)
    return Impression(imp_id, tuple(
        Sample(user_ids=(int(rng.integers(6)),), item_ids=(int(rng.integers(10)),),
               dense=tuple(rng.standard_normal(1)), labels=LabelSequence(tuple(labels)))
        for labels in rows))


PIN_BATCH = [
    _pin_impression("a", [(1, 1), (0, 0), (1, 0), (0, 0), (1, 1)], seed=11),
    _pin_impression("b", [(1, 0), (0, 0), (1, 1)], seed=12),
]
PIN_CONFIGS = {kind: {"kind": kind} for kind in MODEL_KINDS}
PIN_CONFIGS["mtlds-bce-ranknet"] = {"kind": "mtlds", "task_loss": ("bce", "ranknet")}
SCORE_CONFIGS = dict(PIN_CONFIGS)
SCORE_CONFIGS.update({f"mtlds-{op}": {"kind": "mtlds", "aggregator": op}
                      for op in ("mul", "max", "add")})
RANK_BYS = ("aggregate", "task:purchase")


def pin_model(**overrides) -> SharedBottomModel:
    config = dict(kind="mtlds", aggregator="linear", tau=0.5, embedding_dim=4,
                  shared_layers=(8,), tower_layers=(4,), seed=3)
    return SharedBottomModel(PIN_SCHEMA, ModelConfig(**dict(config, **overrides)))


def pinned_values(case: str) -> dict[str, float]:
    """``batch_loss`` on ``PIN_BATCH`` and the sum of each parameter's
    gradient, keyed ``<case>/loss`` and ``<case>/grad_sum/<parameter>``."""
    model = pin_model(**PIN_CONFIGS[case])
    graph = Graph()
    pt = model.bind(graph)
    loss = model.batch_loss(graph, PIN_BATCH, pt)
    grads = graph.backward(loss)
    out = {f"{case}/loss": loss.item()}
    for name in model.params:
        out[f"{case}/grad_sum/{name}"] = float(grads[pt[name].node_id].sum())
    return out


def score_arrays(case: str) -> dict[str, np.ndarray]:
    """Per-impression ``ranking_scores`` on ``PIN_BATCH`` under each of
    ``RANK_BYS``, keyed ``<case>/<rank_by>/<impression>``."""
    model = pin_model(**SCORE_CONFIGS[case])
    return {f"{case}/{rank_by}/{i}": scores
            for rank_by in RANK_BYS
            for i, scores in enumerate(model.ranking_scores(PIN_BATCH, rank_by=rank_by))}


# -------------------------------------- golden_train: mtlds train, end to end

GOLDEN_KINDS = ("mtlds", "esmm")
GOLDEN_FILES = ("seed1/report.json", "aggregate.json")


def golden_config(kind: str) -> dict:
    return {
        "seeds": [1],
        "split": [0.7, 0.15, 0.15],
        "cutoffs": [2, 6, 12],
        "data": {"synth": {"impressions": 200}},
        "model": {"kind": kind, "aggregator": "linear", "tau": 0.25,
                  "learning_rate": 0.02, "epochs": 2, "batch_size": 64},
    }


def golden_run(kind: str) -> dict[str, bytes]:
    """The ``GOLDEN_FILES`` that ``mtlds train --seed 1`` writes for the golden
    config of ``kind``."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.yaml", Path(tmp) / "out"
        config.write_text(yaml.safe_dump(golden_config(kind)), encoding="utf-8")
        result = CliRunner().invoke(
            mtlds_main, ["train", "--config", str(config), "--seed", "1", "--out", str(out)],
            env={"MTLDS_OUT_DIR": None})
        if result.exit_code != 0:
            raise RuntimeError(f"mtlds train ({kind}) exited {result.exit_code}: {result.output}")
        return {name: (out / name).read_bytes() for name in GOLDEN_FILES}


# ------------------------------------------------------------ the file formats

def npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def json_bytes(values: dict) -> bytes:
    return (json.dumps(values, indent=2) + "\n").encode("utf-8")


def flatten(node, prefix: str = "") -> dict:
    """The leaves of a parsed JSON document keyed by their path: object keys
    and list positions joined by ``/``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {prefix: node}
    out = {}
    for key, child in items:
        out.update(flatten(child, f"{prefix}/{key}" if prefix else str(key)))
    return out


def values(name: str, data: bytes) -> dict:
    """The keyed values held in ``data``, the bytes of recording ``name``."""
    if name.endswith(".npz"):
        with np.load(io.BytesIO(data)) as npz:
            return {key: npz[key] for key in npz.files}
    return flatten(json.loads(data))


def recorded(name: str, prefix: str = "") -> dict:
    """The committed values of recording ``name`` whose key starts with ``prefix``."""
    held = values(name, (FIXTURES / name).read_bytes())
    return {key: value for key, value in held.items() if key.startswith(prefix)}


# ------------------------------------------------------------- the comparison

def _numeric(value):
    """A number or array as an ndarray; any other JSON leaf (str, None) as is."""
    if isinstance(value, (int, float, np.generic, np.ndarray)):
        return np.asarray(value)
    return value


def _same(old, new) -> bool:
    if isinstance(old, np.ndarray) and isinstance(new, np.ndarray):
        return (old.dtype == new.dtype and old.shape == new.shape
                and old.tobytes() == new.tobytes())
    return type(old) is type(new) and old == new


def _show(value) -> str:
    """A number by its shortest round-trip repr, an array by its dtype, shape
    and a few elements, any other JSON leaf as JSON."""
    if not isinstance(value, np.ndarray):
        return json.dumps(value)
    if value.ndim == 0:
        return repr(value.item())
    text = np.array2string(value.ravel(), threshold=6, edgeitems=2, floatmode="unique",
                           separator=", ", max_line_width=sys.maxsize)
    return f"{value.dtype}{list(value.shape)} {text}"


def _change(was, now) -> str:
    """The old and the new value and, for numbers of one shape, the largest
    absolute and relative change; of an array, the element that moved most."""
    numeric = all(isinstance(a, np.ndarray) and a.size
                  and (np.issubdtype(a.dtype, np.number) or a.dtype == bool) for a in (was, now))
    if not (numeric and was.shape == now.shape):
        return f"{_show(was)} -> {_show(now)}"
    old, new = was.astype(np.float64), now.astype(np.float64)
    diff = np.abs(new - old)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / np.abs(old))
    largest = f"largest change: abs {diff.max():.3g}, rel {rel.max():.3g}"
    if was.size == 1:
        return f"{_show(was)} -> {_show(now)} ({largest})"
    at = np.unravel_index(np.argmax(diff), diff.shape)
    return (f"{was.dtype}{list(was.shape)}, {np.count_nonzero(diff != 0)} of {was.size} "
            f"values moved, most at {[int(k) for k in at]}: {was[at].item()!r} -> "
            f"{now[at].item()!r} ({largest})")


def changes(old: dict, new: dict) -> list[str]:
    """One line for each key whose value is not bit-identical in ``new`` (with
    both values and the largest absolute and relative change), each key only
    in ``new`` and each key only in ``old``.  Empty when nothing moved."""
    lines = []
    for key in new:
        if key not in old:
            lines.append(f"added {key}: {_show(_numeric(new[key]))}")
            continue
        was, now = _numeric(old[key]), _numeric(new[key])
        if not _same(was, now):
            lines.append(f"changed {key}: {_change(was, now)}")
    lines += [f"removed {key}: was {_show(_numeric(old[key]))}" for key in old if key not in new]
    return lines


def file_changes(name: str, old: bytes | None, new: bytes) -> list[str]:
    """``changes`` between two versions of recording ``name`` (``None``: no
    old file), plus one line when the bytes differ but no value does."""
    lines = changes({} if old is None else values(name, old), values(name, new))
    if not lines and old != new:
        lines.append("bytes differ, every value is equal (key order or format)")
    return lines


def report(old_dir: Path, new_dir: Path) -> list[str]:
    """For each recording, a line with its name and the count of its
    ``file_changes`` from ``old_dir`` to ``new_dir``, then those, indented."""
    out = []
    for name in RECORDINGS:
        old_path = Path(old_dir) / name
        old = old_path.read_bytes() if old_path.exists() else None
        new = (Path(new_dir) / name).read_bytes()
        lines = file_changes(name, old, new)
        out.append(f"{name}: {len(lines)} change(s)" if lines
                   else f"{name}: unchanged, {len(values(name, new))} keys")
        out += [f"  {line}" for line in lines]
    return out


# ----------------------------------------------------------------- the table

def listwise_file() -> bytes:
    return npz_bytes({key: value for kind in LISTWISE_KINDS for tau in LISTWISE_TAUS
                      for key, value in listwise_arrays(kind, tau).items()})


def scores_file() -> bytes:
    return npz_bytes({key: value for case in SCORE_CONFIGS
                      for key, value in score_arrays(case).items()})


def pinned_file() -> bytes:
    return json_bytes({key: value for case in PIN_CONFIGS
                       for key, value in pinned_values(case).items()})


def golden_file(kind: str, name: str) -> bytes:
    return golden_run(kind)[name]


RECORDINGS = {
    "listwise.npz": listwise_file,
    "scores.npz": scores_file,
    "pinned.json": pinned_file,
    **{f"golden_train/{kind}/{name}": partial(golden_file, kind, name)
       for kind in GOLDEN_KINDS for name in GOLDEN_FILES},
}


def write(directory) -> None:
    """Make every recording from the current tree and write it under ``directory``."""
    for name, make in RECORDINGS.items():
        path = Path(directory) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(make())


def main() -> None:
    if len(sys.argv) > 1:
        print(f"usage: python {sys.argv[0]}  (it takes no options)", file=sys.stderr)
        sys.exit(2)
    with tempfile.TemporaryDirectory() as tmp:
        write(tmp)
        for line in report(FIXTURES, Path(tmp)):
            print(line)
        shutil.copytree(tmp, FIXTURES, dirs_exist_ok=True)
    print(f"wrote {len(RECORDINGS)} recordings under {FIXTURES.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
