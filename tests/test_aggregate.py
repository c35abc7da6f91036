import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtlds.aggregate import (
    LabelOrderError,
    LabelSequence,
    aggregate_columns,
    label_gain,
    label_permutation,
)
from mtlds.gradcore import Graph, fn, grad_check
from mtlds.gradcore.tensor import ShapeMismatchError
from mtlds.sortops import argsort_desc


def agg(kind, probs, weights=None):
    """The aggregate of one sample's per-task probabilities, one (1, 1) column each."""
    g = Graph()
    weight = None if weights is None else g.tensor(weights)
    return aggregate_columns(kind, [g.tensor(p) for p in probs], weight).item()


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
        with pytest.raises(ShapeMismatchError, match="weight tensor"):
            agg("linear", (0.1, 0.2, 0.3), (1.0, 2.0))

    def test_weights_only_for_linear(self):
        with pytest.raises(ValueError):
            agg("mul", (0.1, 0.2), (1.0, 1.0))
        with pytest.raises(ValueError):
            agg("linear", (0.1, 0.2))
        with pytest.raises(ValueError, match="unknown aggregator"):
            agg("median", (0.1, 0.2))

    def test_learnable_weight_tensor_participates(self):
        g = Graph()
        w = g.tensor([[3.0], [2.0]])
        out = aggregate_columns("linear", [g.tensor(0.9), g.tensor(0.1)], w)
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
            w = (0.5, 1.5, 2.5) if kind == "linear" else None
            worst = max(worst, grad_check(
                lambda t: aggregate_columns(kind, [fn.gather_rows(t, [i]) for i in range(3)],
                                            None if w is None else t.graph.tensor(w)),
                probs))
        assert worst < 1e-5

    def test_batched_columns_match_per_sample(self):
        rng = np.random.default_rng(12)
        probs = rng.uniform(0.05, 0.95, (4, 2))
        for kind, weights in [("mul", None), ("max", None), ("add", None),
                              ("linear", (2.0, 0.5))]:
            g = Graph()
            cols = [g.tensor(probs[:, [t]]) for t in range(2)]
            weight = None if weights is None else g.tensor(weights)
            batched = aggregate_columns(kind, cols, weight).value[:, 0]
            single = [agg(kind, probs[i], weights) for i in range(4)]
            npt.assert_allclose(batched, single, atol=1e-12)


class TestLabelAggregation:
    @pytest.mark.parametrize("labels,expected", [((1, 1), 2), ((0, 0), 0), ((1, 1, 0), 2)])
    def test_depth_scores(self, labels, expected):
        assert label_gain(np.array([labels]), "depth").tolist() == [expected]

    def test_behavioral_depth_ordering(self):
        purchased, carted, clicked, skipped = label_gain(
            np.array([(1, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0)]), "depth")
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

    def test_block_stacks_the_rows_results(self):
        # ties within rows, and a row equal to another, keep the 1-D rule
        block = np.array([[1, 2, 1, 0, 2], [0, 0, 0, 0, 0], [2, 1, 1, 2, 0], [1, 2, 1, 0, 2]])
        stacked = label_permutation(block)
        assert stacked.shape == (4, 5, 5)
        npt.assert_array_equal(stacked, np.stack([label_permutation(row) for row in block]))


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
@example(([0.0, 3.68e-291, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]))
def test_add_and_linear_respect_elementwise_dominance(args):
    """Never lower for dominating inputs; strictly higher only when some
    coordinate is ahead by more than float64 can lose in the sum's last bit."""
    a, b, weights = args
    hi = [max(x, y) for x, y in zip(a, b)]
    lo = [min(x, y) for x, y in zip(a, b)]
    if hi == lo:
        return
    for kind, w in (("add", None), ("linear", weights)):
        s_hi = agg(kind, hi, w)
        s_lo = agg(kind, lo, w)
        assert s_hi >= s_lo
        if any(x - y > 1e-9 for x, y in zip(hi, lo)):
            assert s_hi > s_lo
