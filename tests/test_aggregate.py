import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlds.aggregate import (
    AggregatorSpec,
    LabelOrderError,
    LabelSequence,
    aggregate_columns,
    aggregate_labels,
    aggregate_predictions,
    label_permutation,
)
from mtlds.gradcore import Graph, grad_check
from mtlds.sortops import argsort_desc


def agg(kind, probs, weights=None):
    spec = AggregatorSpec(kind, weights)
    return aggregate_predictions(spec, Graph().tensor(list(probs))).item()


class TestOperatorTable:
    """The four demonstration rows: Mul/Max cannot separate what Linear can."""

    ROWS = ((0.9, 0.1), (0.1, 0.9), (0.3, 0.3), (0.5, 0.5))

    @pytest.mark.parametrize("row,expected", list(zip(ROWS, (0.09, 0.09, 0.09, 0.25))))
    def test_mul(self, row, expected):
        assert agg("mul", row) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("row,expected", list(zip(ROWS, (1.0, 1.0, 0.6, 1.0))))
    def test_sum_equal_weights(self, row, expected):
        assert agg("linear", row, (1.0, 1.0)) == pytest.approx(expected, rel=1e-12)
        assert agg("add", row) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("row,expected", list(zip(ROWS, (2.9, 2.1, 1.5, 2.5))))
    def test_sum_three_two_weights(self, row, expected):
        assert agg("linear", row, (3.0, 2.0)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("row,expected", list(zip(ROWS, (0.9, 0.9, 0.3, 0.5))))
    def test_max(self, row, expected):
        assert agg("max", row) == pytest.approx(expected, rel=1e-12)

    def test_mul_and_max_collapse_rows_linear_separates(self):
        mul_scores = [agg("mul", r) for r in self.ROWS]
        assert mul_scores[0] == pytest.approx(mul_scores[1], rel=1e-12)
        assert mul_scores[0] == pytest.approx(mul_scores[2], rel=1e-12)
        max_scores = [agg("max", r) for r in self.ROWS]
        assert max_scores[0] == max_scores[1]
        linear = [agg("linear", r, (3.0, 2.0)) for r in self.ROWS]
        assert len(set(linear)) == len(self.ROWS)


class TestAggregatePredictions:
    def test_mul_with_zero_is_zero(self):
        assert agg("mul", (0.0, 0.7, 0.9)) == 0.0

    def test_weight_count_must_match_tasks(self):
        spec = AggregatorSpec("linear", (1.0, 2.0))
        with pytest.raises(Exception, match="weights"):
            aggregate_predictions(spec, Graph().tensor([0.1, 0.2, 0.3]))

    def test_weights_only_for_linear(self):
        with pytest.raises(ValueError):
            AggregatorSpec("mul", (1.0,))
        with pytest.raises(ValueError):
            AggregatorSpec("linear", None)
        with pytest.raises(ValueError):
            AggregatorSpec("median")

    def test_learnable_weight_tensor_participates(self):
        g = Graph()
        w = g.tensor([[3.0], [2.0]], requires_grad=True)
        spec = AggregatorSpec("linear", (1.0, 1.0))
        out = aggregate_predictions(spec, g.tensor([0.9, 0.1]), weight=w)
        assert out.item() == pytest.approx(2.9, rel=1e-12)
        grads = g.backward(out)
        npt.assert_allclose(grads[w.node_id], [[0.9], [0.1]])

    @pytest.mark.parametrize("kind", ["mul", "max", "add", "linear"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10):
            probs = rng.uniform(0.1, 0.9, (3, 1))
            while np.min(np.diff(np.sort(probs.ravel()))) < 1e-2:  # keep max away from ties
                probs = rng.uniform(0.1, 0.9, (3, 1))
            spec = AggregatorSpec(kind, (0.5, 1.5, 2.5) if kind == "linear" else None)
            worst = max(worst, grad_check(lambda t: aggregate_predictions(spec, t), probs))
        assert worst < 1e-5

    def test_batched_columns_match_per_sample(self):
        rng = np.random.default_rng(12)
        probs = rng.uniform(0.05, 0.95, (4, 2))
        for kind, weights in [("mul", None), ("max", None), ("add", None),
                              ("linear", (2.0, 0.5))]:
            spec = AggregatorSpec(kind, weights)
            g = Graph()
            cols = [g.tensor(probs[:, [t]]) for t in range(2)]
            batched = aggregate_columns(spec, cols).value[:, 0]
            single = [aggregate_predictions(spec, Graph().tensor(probs[i])).item()
                      for i in range(4)]
            npt.assert_allclose(batched, single, atol=1e-12)


class TestLabelAggregation:
    @pytest.mark.parametrize("labels,expected", [((1, 1), 2), ((0, 0), 0), ((1, 1, 0), 2)])
    def test_depth_scores(self, labels, expected):
        assert aggregate_labels(LabelSequence(labels)) == expected

    def test_non_monotone_rejected(self):
        with pytest.raises(LabelOrderError):
            aggregate_labels((0, 1))

    def test_behavioral_depth_ordering(self):
        purchased = aggregate_labels((1, 1, 1))
        carted = aggregate_labels((1, 1, 0))
        clicked = aggregate_labels((1, 0, 0))
        skipped = aggregate_labels((0, 0, 0))
        assert purchased > carted > clicked > skipped


class TestLabelPermutation:
    def test_hand_case(self):
        p = label_permutation([2, 0, 1])
        assert tuple(argsort_desc([2, 0, 1])) == (0, 2, 1)
        npt.assert_array_equal(p, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_all_equal_gives_identity(self):
        npt.assert_array_equal(label_permutation([1, 1, 1]), np.eye(3))

    def test_applied_scores_are_descending(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            scores = rng.integers(0, 4, 6).astype(float)
            ordered = label_permutation(scores) @ scores
            assert np.all(np.diff(ordered) <= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            label_permutation([])


class TestLabelSequence:
    def test_valid_sequences(self):
        LabelSequence((1, 1, 0))
        LabelSequence((0, 0))

    def test_violation_cites_position(self):
        with pytest.raises(LabelOrderError, match="label 2 set without label 1"):
            LabelSequence((1, 0, 1))

    def test_non_binary_rejected(self):
        with pytest.raises(LabelOrderError):
            LabelSequence((2, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda t: st.tuples(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=t, max_size=t),
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=t, max_size=t),
            st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=t, max_size=t),
        )
    )
)
def test_add_and_linear_respect_elementwise_dominance(args):
    a, b, weights = args
    hi = [max(x, y) for x, y in zip(a, b)]
    lo = [min(x, y) for x, y in zip(a, b)]
    if hi == lo:
        return
    for kind, w in (("add", None), ("linear", tuple(weights))):
        spec = AggregatorSpec(kind, w)
        s_hi = aggregate_predictions(spec, Graph().tensor(hi)).item()
        s_lo = aggregate_predictions(spec, Graph().tensor(lo)).item()
        assert s_hi > s_lo
