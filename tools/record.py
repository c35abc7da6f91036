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
positions joined by ``/``; a key of a ``.txt`` file is a line number.

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

from mtlds.cli import main as mtlds_main  # noqa: E402
from mtlds.data import Columns, FieldSpec, Schema  # noqa: E402
from mtlds.gradcore import Graph  # noqa: E402
from mtlds.model import MODEL_KINDS, ModelConfig, SharedBottomModel  # noqa: E402

# --------------------------------- models.npz: small models on two batches
# The ragged batch holds lists of 1 to 40 items, with repeated lengths, tied
# depth labels, and two samples with identical features in one list, so their
# scores tie; at tau=0.01 the probability clip of the sort loss is active.  The
# pin batch holds two impressions of different lengths, so the per-impression
# means and the mean over impressions both matter.  Reordering a batch's
# random draws changes every value recorded on it.

LENGTHS = (1, 7, 40, 3, 7, 12, 2, 40, 25, 7)
TWIN_LIST, TWIN_A, TWIN_B = 5, 3, 8
RAGGED_SCHEMA = Schema(
    user_fields=(FieldSpec("user_id", 6),),
    item_fields=(FieldSpec("item_id", 12),),
    dense_count=1,
    tasks=("click", "cart", "buy"),
)


def _columns(draws, labels, lengths) -> Columns:
    """The ``Columns`` of samples drawn as (user id, item id, dense value),
    with their label rows and the impression lengths."""
    ids = np.array([(user, item) for user, item, _ in draws], dtype=np.int64)
    dense = np.array([[x] for _, _, x in draws])
    return Columns(ids, dense, np.asarray(labels, dtype=np.float64),
                   np.array(lengths, dtype=np.intp))


def ragged_batch() -> Columns:
    rng = np.random.default_rng(7)
    draws, depths = [], []
    for n in LENGTHS:
        user = rng.integers(6)
        depths += list(rng.integers(0, 4, size=n))
        draws += [(user, rng.integers(12), rng.standard_normal()) for _ in range(n)]
    twin = sum(LENGTHS[:TWIN_LIST])
    draws[twin + TWIN_B] = draws[twin + TWIN_A]
    return _columns(draws, np.arange(3) < np.array(depths)[:, None], LENGTHS)


PIN_SCHEMA = Schema(
    user_fields=(FieldSpec("user_id", 6),),
    item_fields=(FieldSpec("item_id", 10),),
    dense_count=1,
    tasks=("click", "purchase"),
)


def pin_batch() -> Columns:
    draws, labels = [], []
    for seed, rows in ((11, [(1, 1), (0, 0), (1, 0), (0, 0), (1, 1)]),
                       (12, [(1, 0), (0, 0), (1, 1)])):
        rng = np.random.default_rng(seed)
        draws += [(rng.integers(6), rng.integers(10), rng.standard_normal()) for _ in rows]
        labels += rows
    return _columns(draws, labels, (5, 3))


BATCHES = {"ragged": (RAGGED_SCHEMA, ragged_batch()), "pin": (PIN_SCHEMA, pin_batch())}

SMALL = dict(aggregator="linear", embedding_dim=4, shared_layers=(8,), tower_layers=(4,))
PIN_CASES = {kind: {"kind": kind} for kind in MODEL_KINDS}
PIN_CASES["mtlds-bce-ranknet"] = {"kind": "mtlds", "task_loss": ("bce", "ranknet")}
PIN_CASES.update({f"mtlds-{op}": {"kind": "mtlds", "aggregator": op}
                  for op in ("mul", "max", "add")})
# each case: the batch it runs on and its model's config
CASES = {
    **{f"ragged/{kind}/{tau}": ("ragged", ModelConfig(**SMALL, kind=kind, tau=tau, seed=5))
       for kind in ("mtlds", "mtl_listnet", "dnn_diffsort") for tau in (0.01, 0.25)},
    **{f"pin/{name}": ("pin", ModelConfig(**{**SMALL, "tau": 0.5, "seed": 3, **overrides}))
       for name, overrides in PIN_CASES.items()},
}


def model_values(case: str) -> dict[str, np.ndarray]:
    """``batch_loss``, the gradient of every parameter, and the flat scores
    ranked by ``aggregate`` and by the last task's tower of the small model of
    ``case`` on its batch, keyed ``<case>/loss``, ``<case>/grad/<parameter>``
    and ``<case>/scores/<rank_by>``."""
    batch_name, config = CASES[case]
    schema, batch = BATCHES[batch_name]
    model = SharedBottomModel(schema, config)
    graph = Graph()
    pt = model.bind(graph)
    loss = model.batch_loss(graph, batch, pt)
    grads = graph.backward(loss)
    out = {f"{case}/loss": loss.value.copy()}
    for name, arr in model.params.items():
        out[f"{case}/grad/{name}"] = grads.get(pt[name].node_id, np.zeros_like(arr))
    for rank_by in ("aggregate", f"task:{schema.tasks[-1]}"):
        out[f"{case}/scores/{rank_by}"] = model.flat_scores(batch.ids, batch.dense, rank_by)
    return out


# -------------------------------------- golden_train: mtlds train, end to end

GOLDEN_KINDS = ("mtlds", "esmm")
GOLDEN_FILES = ("seed1/report.json", "aggregate.json", "summary.txt")


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
    """The keyed values held in ``data``, the bytes of recording ``name``; a
    ``.txt`` recording is keyed by line number, from 1."""
    if name.endswith(".npz"):
        with np.load(io.BytesIO(data)) as npz:
            return {key: npz[key] for key in npz.files}
    if name.endswith(".txt"):
        return {str(i): line for i, line in enumerate(data.decode("utf-8").splitlines(), 1)}
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

def models_file() -> bytes:
    return npz_bytes({key: value for case in CASES for key, value in model_values(case).items()})


def golden_file(kind: str, name: str) -> bytes:
    return golden_run(kind)[name]


RECORDINGS = {
    "models.npz": models_file,
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
