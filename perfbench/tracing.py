"""Spans around the library's layer boundaries, and the per-layer table.

A traced run wraps, from outside the package, the public names that
``mtlds.model`` looks up while it trains and scores, ``Graph.backward``, and
the forward and backward rule of every op in ``gradcore.OPS``.  Each call
becomes a span with a name, a start, an end and the span that was open when
it began.  Spans live in flat arrays until the run ends, then are written
out once.

The benchmark opens one root span per phase (``bench.setup``, ``bench.fit``,
``bench.score``); a layer figure sums the spans of that layer under one kind
of root, so the validation that ``fit`` runs counts towards training and the
benchmark's own full-set scoring counts towards scoring.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import verify

# The registry at the time the benchmark was written.  An op added later is
# still timed, and reported under the tag ``other``.
OP_TAGS = (
    "add", "sub", "mul_elem", "matmul", "scale", "neg", "abs", "log", "sigmoid",
    "relu", "softmax_rows", "sum_all", "max_rows", "gather_rows",
    "broadcast_row", "broadcast_col", "clip",
)

SETUP, FIT, SCORE = "bench.setup", "bench.fit", "bench.score"
CHECK = "bench.check"


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open_stack = [-1]
        self.tape_nodes: list[int] = []
        self.softsort_calls = 0
        self.softsort_problems: list[str] = []

    def name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open_stack[-1])
        self.end.append(0.0)
        self._open_stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open_stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, func):
        nid = self.name(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_generator(self, name: str, func):
        """Time each step of a generator function, not the consumer's work."""
        nid = self.name(name)

        def traced(*args, **kwargs):
            it = func(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        return traced

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32))


def span(tracer: Tracer | None, name: str):
    """A root or layer span when tracing, nothing otherwise."""
    return nullcontext() if tracer is None else tracer.span(name)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the library's layer boundaries for the duration of the block."""
    import mtlds.model as model_mod
    from mtlds.gradcore import OPS, Graph
    from mtlds.model import SharedBottomModel

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for attr, name in (
        ("encode_samples", "model.encode_samples"),
        ("aggregate_columns", "aggregate.aggregate_columns"),
        ("label_permutation", "aggregate.label_permutation"),
        ("sort_loss", "sortops.sort_loss"),
        ("adam_step", "gradcore.adam_step"),
        ("evaluate_model", "model.evaluate_model"),
        ("evaluate_ranking", "evaluation.evaluate_ranking"),
    ):
        patch(model_mod, attr, tracer.wrap(name, getattr(model_mod, attr)))
    patch(model_mod, "batch_impressions",
          tracer.wrap_generator("data.batch_impressions", model_mod.batch_impressions))
    for attr in ("task_columns", "batch_loss", "ranking_scores"):
        patch(SharedBottomModel, attr,
              tracer.wrap(f"model.{attr}", getattr(SharedBottomModel, attr)))

    soft_sort = tracer.wrap("sortops.soft_sort", model_mod.soft_sort)
    check_id = tracer.name(CHECK)

    def checked_soft_sort(s, tau):
        out = soft_sort(s, tau)
        idx = tracer.open(check_id)
        tracer.softsort_calls += 1
        problem = verify.softsort(s.value[:, 0], out.value)
        if problem is not None:
            tracer.softsort_problems.append(problem)
        tracer.close(idx)
        return out

    patch(model_mod, "soft_sort", checked_soft_sort)

    backward = tracer.wrap("gradcore.backward", Graph.backward)

    def counted_backward(graph, loss):
        tracer.tape_nodes.append(len(graph))
        return backward(graph, loss)

    patch(Graph, "backward", counted_backward)
    for tag, opdef in OPS.items():
        patch(opdef, "forward", tracer.wrap(f"gradcore.fwd.{tag}", opdef.forward))
        patch(opdef, "vjp", tracer.wrap(f"gradcore.vjp.{tag}", opdef.vjp))
    try:
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# (metric, span, phase, self time): phase FIT is divided by epochs trained,
# SCORE by full-set passes, SETUP is reported as measured.
LAYER_SPANS = (
    ("data.synthesize_s", "data.synthesize", SETUP, False),
    ("data.load_dataset_s", "data.load_dataset", SETUP, False),
    ("data.split_s", "data.split", SETUP, False),
    ("data.batch_impressions_s", "data.batch_impressions", FIT, False),
    ("model.encode_samples_s", "model.encode_samples", FIT, False),
    ("model.task_columns_s", "model.task_columns", FIT, True),
    ("model.batch_loss_s", "model.batch_loss", FIT, True),
    ("model.ranking_scores_s", "model.ranking_scores", SCORE, False),
    ("aggregate.aggregate_columns_s", "aggregate.aggregate_columns", FIT, False),
    ("aggregate.label_permutation_s", "aggregate.label_permutation", FIT, False),
    ("sortops.soft_sort_s", "sortops.soft_sort", FIT, False),
    ("sortops.sort_loss_s", "sortops.sort_loss", FIT, False),
    ("gradcore.backward_s", "gradcore.backward", FIT, False),
    ("gradcore.adam_step_s", "gradcore.adam_step", FIT, False),
    ("evaluation.evaluate_ranking_s", "evaluation.evaluate_ranking", SCORE, False),
) + tuple(
    (f"gradcore.{kind}_s.{tag}", f"gradcore.{kind}.{tag}", FIT, False)
    for kind in ("fwd", "vjp") for tag in OP_TAGS + ("other",)
)

PER_LAYER_UNITS = {metric: "s" for metric, *_ in LAYER_SPANS}
PER_LAYER_UNITS.update({"gradcore.tape_nodes_per_batch": "nodes",
                        "gradcore.traced_peak_mb": "MiB"})


def layer_metrics(tracer: Tracer, epochs: int, score_passes: int) -> dict[str, float]:
    """Per-layer seconds from the recorded spans (without the tracemalloc figure)."""
    canonical: dict[str, int] = {}  # ops added after OP_TAGS fold into ".other"
    ids = []
    for name in tracer.names:
        parts = name.split(".", 2)
        if parts[:2] in (["gradcore", "fwd"], ["gradcore", "vjp"]) and parts[2] not in OP_TAGS:
            name = f"gradcore.{parts[1]}.other"
        ids.append(canonical.setdefault(name, len(canonical)))
    parent = np.frombuffer(tracer.parent, np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    root = np.where(nested, parent, np.arange(dur.size))
    while True:
        up = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(up, root):
            break
        root = up
    span_id = np.array(ids, dtype=np.int32)[np.frombuffer(tracer.name_id, np.int32)]
    root_id = span_id[root]
    divisor = {SETUP: 1, FIT: max(epochs, 1), SCORE: max(score_passes, 1)}
    out = {}
    for metric, name, phase, use_self in LAYER_SPANS:
        mask = (span_id == canonical.get(name, -1)) & (root_id == canonical.get(phase, -1))
        times = self_time if use_self else dur
        out[metric] = float(times[mask].sum()) / divisor[phase]
    out["gradcore.tape_nodes_per_batch"] = (
        float(np.mean(tracer.tape_nodes)) if tracer.tape_nodes else 0.0)
    return out

