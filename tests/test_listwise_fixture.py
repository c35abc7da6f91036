"""Bit-exact oracle for the listwise losses.

``batch_loss`` and every parameter gradient of small ``mtlds``,
``mtl_listnet`` and ``dnn_diffsort`` models on one ragged batch must equal,
under ``np.array_equal``, the values stored in ``fixtures/listwise.npz``.

The batch has lists of 1 to 40 items, with repeated lengths, tied depth
labels, and two samples with identical features in one list, so their scores
tie.  At ``tau=0.01`` the probability clip of the sort loss is active.

Re-record (only when the loss arithmetic changes on purpose):

    PYTHONPATH=src python tests/test_listwise_fixture.py
"""

from pathlib import Path

import numpy as np
import pytest

from mtlds.aggregate import LabelSequence
from mtlds.data import FieldSpec, Impression, Sample, Schema
from mtlds.gradcore import Graph
from mtlds.model import ModelConfig, SharedBottomModel

FIXTURE = Path(__file__).parent / "fixtures" / "listwise.npz"
KINDS = ("mtlds", "mtl_listnet", "dnn_diffsort")
TAUS = (0.01, 0.25)
LENGTHS = (1, 7, 40, 3, 7, 12, 2, 40, 25, 7)
TWIN_LIST, TWIN_A, TWIN_B = 5, 3, 8

SCHEMA = Schema(
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


def loss_and_grads(kind: str, tau: float) -> dict[str, np.ndarray]:
    """The batch loss and the gradient of every parameter, keyed for the fixture."""
    config = ModelConfig(kind=kind, aggregator="linear", tau=tau, embedding_dim=4,
                         shared_layers=(8,), tower_layers=(4,), seed=5)
    model = SharedBottomModel(SCHEMA, config)
    graph = Graph()
    pt = model.bind(graph)
    loss = model.batch_loss(graph, ragged_batch(), pt)
    grads = graph.backward(loss)
    out = {f"{kind}/{tau}/loss": loss.value.copy()}
    for name, arr in model.params.items():
        out[f"{kind}/{tau}/grad/{name}"] = grads.get(pt[name].node_id, np.zeros_like(arr))
    return out


def test_batch_exercises_ties_and_lengths():
    batch = ragged_batch()
    assert min(LENGTHS) == 1 and max(LENGTHS) == 40 and len(set(LENGTHS)) < len(LENGTHS)
    twins = batch[TWIN_LIST].samples
    model = SharedBottomModel(SCHEMA, ModelConfig(kind="mtlds", seed=5))
    scores = model.ranking_scores(batch)[TWIN_LIST]
    assert twins[TWIN_A].user_ids == twins[TWIN_B].user_ids
    assert scores[TWIN_A] == scores[TWIN_B]


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("kind", KINDS)
def test_loss_and_gradients_match_recording(kind, tau):
    recorded = np.load(FIXTURE)
    current = loss_and_grads(kind, tau)
    assert set(current) == {k for k in recorded.files if k.startswith(f"{kind}/{tau}/")}
    for key, value in current.items():
        assert np.array_equal(value, recorded[key]), f"{key} differs from the recording"


if __name__ == "__main__":
    arrays = {}
    for kind in KINDS:
        for tau in TAUS:
            arrays.update(loss_and_grads(kind, tau))
    np.savez(FIXTURE, **arrays)
    print(f"wrote {len(arrays)} arrays to {FIXTURE}")
