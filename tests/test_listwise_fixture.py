"""Bit-exact oracle for the listwise losses.

``batch_loss`` and every parameter gradient of small ``mtlds``,
``mtl_listnet`` and ``dnn_diffsort`` models on one ragged batch
(``record.ragged_batch``) must equal, bit for bit, the values stored in
``fixtures/listwise.npz``.

The batch has lists of 1 to 40 items, with repeated lengths, tied depth
labels, and two samples with identical features in one list, so their scores
tie.  At ``tau=0.01`` the probability clip of the sort loss is active.
"""

import pytest
import record

from mtlds.model import ModelConfig, SharedBottomModel


def test_batch_exercises_ties_and_lengths():
    batch = record.ragged_batch()
    lengths = record.LENGTHS
    assert min(lengths) == 1 and max(lengths) == 40 and len(set(lengths)) < len(lengths)
    twins = batch[record.TWIN_LIST].samples
    model = SharedBottomModel(record.RAGGED_SCHEMA, ModelConfig(kind="mtlds", seed=5))
    scores = model.ranking_scores(batch)[record.TWIN_LIST]
    assert twins[record.TWIN_A].user_ids == twins[record.TWIN_B].user_ids
    assert scores[record.TWIN_A] == scores[record.TWIN_B]


@pytest.mark.parametrize("tau", record.LISTWISE_TAUS)
@pytest.mark.parametrize("kind", record.LISTWISE_KINDS)
def test_loss_and_gradients_match_recording(kind, tau):
    """Re-record (only when the loss arithmetic changes on purpose) with
    ``python tools/record.py``."""
    recorded = record.recorded("listwise.npz", f"{kind}/{tau}/")
    assert record.changes(recorded, record.listwise_arrays(kind, tau)) == []
