import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlds.gradcore import Graph, grad_check
from mtlds.gradcore.tensor import ShapeMismatchError
from mtlds.model import softsort_loss
from mtlds.sortops import (
    argsort_desc,
    bce_loss,
    check_lengths,
    is_unimodal_row_stochastic,
    listnet_loss,
    ndcg_position_weights,
    perm_matrix,
    ranknet_loss,
    soft_sort,
    sort_loss,
)


def insertion_argsort_desc(values):
    """Library-independent oracle: stable insertion sort, descending."""
    order = []
    for i, v in enumerate(values):
        pos = 0
        while pos < len(order) and values[order[pos]] >= v:
            pos += 1
        order.insert(pos, i)
    return tuple(order)


def spread_scores(rng, n, min_gap=0.1):
    while True:
        s = rng.uniform(-2, 2, n)
        if np.min(np.diff(np.sort(s))) >= min_gap:
            return s


class TestArgsortDesc:
    def test_hand_case(self):
        assert tuple(argsort_desc([0.1, 0.9, 0.5])) == (1, 2, 0)

    def test_stable_tie_break(self):
        assert tuple(argsort_desc([0.5, 0.5])) == (0, 1)

    def test_matches_insertion_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = rng.standard_normal(8)
            z = argsort_desc(s)
            assert tuple(z) == insertion_argsort_desc(list(s))
            gathered = s[z]
            assert np.all(np.diff(gathered) <= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            argsort_desc([])

    def test_permutation_validates(self):
        for order in ((0, 0, 1), (1, 2), (), (0.0, 1.0)):
            with pytest.raises(ValueError):
                perm_matrix(order)


class TestPermMatrix:
    def test_identity(self):
        npt.assert_array_equal(perm_matrix((0, 1, 2)), np.eye(3))

    def test_swap(self):
        npt.assert_array_equal(perm_matrix((1, 0)),
                               [[0.0, 1.0], [1.0, 0.0]])

    def test_matrix_applied_to_scores_sorts_them(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = rng.standard_normal(6)
            p = perm_matrix(argsort_desc(s))
            npt.assert_allclose(p @ s, np.sort(s)[::-1])

    def test_one_hot_rows_and_cols(self):
        p = perm_matrix((2, 0, 1))
        npt.assert_array_equal(p.sum(axis=0), np.ones(3))
        npt.assert_array_equal(p.sum(axis=1), np.ones(3))


class TestSoftSort:
    def test_hand_case_two_scores(self):
        g = Graph()
        p_hat = soft_sort(g.tensor([2.0, 1.0]), tau=1.0)
        npt.assert_allclose(
            p_hat.value, [[0.7311, 0.2689], [0.2689, 0.7311]], atol=1e-4)

    def test_constant_scores_give_uniform_rows(self):
        for tau in (0.1, 1.0, 7.0):
            g = Graph()
            p_hat = soft_sort(g.tensor([0.3] * 4), tau=tau)
            npt.assert_allclose(p_hat.value, np.full((4, 4), 0.25), atol=1e-12)

    def test_small_tau_approaches_hard_permutation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = spread_scores(rng, 6)
            hard = perm_matrix(argsort_desc(s))
            g = Graph()
            p_hat = soft_sort(g.tensor(s), tau=0.01)
            assert np.max(np.abs(p_hat.value - hard)) < 1e-3

    def test_annealing_distance_non_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = spread_scores(rng, 5)
            hard = perm_matrix(argsort_desc(s))
            dists = []
            for tau in (1.0, 0.3, 0.1, 0.03, 0.01):
                g = Graph()
                dists.append(np.max(np.abs(soft_sort(g.tensor(s), tau).value - hard)))
            assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        for shift in (-3.0, 0.7, 25.0):
            s = rng.standard_normal(6)
            a = soft_sort(Graph().tensor(s), tau=0.5).value
            b = soft_sort(Graph().tensor(s + shift), tau=0.5).value
            npt.assert_allclose(a, b, atol=1e-9)

    def test_invalid_tau(self):
        for tau in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                soft_sort(Graph().tensor([1.0, 2.0]), tau=tau)

    def test_urs_sweep_with_argmax_agreement(self):
        rng = np.random.default_rng(5)
        for i in range(200):
            n = int(rng.integers(2, 11))
            tau = (0.1, 1.0, 10.0)[i % 3]
            s = rng.standard_normal(n)
            p_hat = soft_sort(Graph().tensor(s), tau)
            ok, why = is_unimodal_row_stochastic(p_hat, tol=1e-6)
            assert ok, why
            assert tuple(p_hat.value.argmax(axis=1)) == tuple(argsort_desc(s))


class TestURSChecker:
    def test_permutation_matrices_are_urs(self):
        for z in itertools.permutations(range(4)):
            ok, why = is_unimodal_row_stochastic(perm_matrix(z))
            assert ok, why

    def test_uniform_matrix_fails_argmax_condition(self):
        ok, why = is_unimodal_row_stochastic(np.full((3, 3), 1.0 / 3.0))
        assert not ok and why == "argmax-permutation"

    def test_violations_reported_in_order(self):
        neg = np.array([[1.5, -0.5], [0.5, 0.5]])
        assert is_unimodal_row_stochastic(neg) == (False, "non-negativity")
        bad_sum = np.array([[0.9, 0.0], [0.0, 1.0]])
        assert is_unimodal_row_stochastic(bad_sum) == (False, "row-affinity")

    def test_non_square_rejected(self):
        with pytest.raises(Exception):
            is_unimodal_row_stochastic(np.ones((2, 3)))


class TestNdcgWeights:
    def test_single_position(self):
        assert tuple(ndcg_position_weights(1)) == (1.0,)

    def test_three_positions(self):
        npt.assert_allclose(ndcg_position_weights(3), [1.0, 0.6309, 0.5], atol=1e-4)

    def test_strictly_decreasing(self):
        w = ndcg_position_weights(10)
        assert all(a > b for a, b in zip(w, w[1:]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ndcg_position_weights(0)


class TestSortLoss:
    def test_perfect_prediction_near_zero(self):
        g = Graph()
        p_hat = soft_sort(g.tensor([1.0]), tau=1.0)  # single row: exactly 1.0
        loss = sort_loss([p_hat], [perm_matrix((0,))])
        assert 0.0 <= loss.item() < 1e-10

    def test_uniform_prediction_closed_form(self):
        # every entry 0.5: each row contributes 2*log(2), weighted by w_i
        g = Graph()
        from mtlds.gradcore import fn
        p_hat = fn.softmax_rows(g.tensor(np.zeros((2, 2))))
        w = ndcg_position_weights(2)
        loss = sort_loss([p_hat], [perm_matrix((1, 0))])
        expected = 2.0 * math.log(2.0) * (w[0] + w[1])
        assert abs(loss.item() - expected) < 1e-9

    def test_size_mismatch(self):
        g = Graph()
        p_hat = soft_sort(g.tensor([1.0, 2.0]), tau=1.0)
        with pytest.raises(Exception, match="size"):
            sort_loss([p_hat], [perm_matrix((0, 1, 2))])

    def test_mean_over_lists_of_mixed_sizes(self):
        rng = np.random.default_rng(11)
        g = Graph()
        sizes = (3, 5, 3)
        p_hats = [soft_sort(g.tensor(rng.standard_normal(n)), tau=0.5) for n in sizes]
        perms = [perm_matrix(rng.permutation(n)) for n in sizes]
        single = [sort_loss([p_hat], [p]).item() for p_hat, p in zip(p_hats, perms)]
        assert sort_loss(p_hats, perms).item() == (single[0] + single[1] + single[2]) * (1.0 / 3)

    def test_no_lists_rejected(self):
        with pytest.raises(ValueError, match="0 P_hat"):
            sort_loss([], [])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        s = spread_scores(rng, 6, min_gap=0.02)
        p = perm_matrix(argsort_desc(rng.standard_normal(6)))
        err = grad_check(lambda t: sort_loss([soft_sort(t, 1.0)], [p]), s.reshape(-1, 1))
        assert err < 1e-4

    def test_minimized_at_true_argsort_permutation(self):
        # brute-force enumeration over all hard permutation matrices
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            for _ in range(10):
                s = rng.standard_normal(n)
                p_hat = soft_sort(Graph().tensor(s), tau=1.0)
                true_z = tuple(argsort_desc(s))
                losses = {
                    z: sort_loss([p_hat], [perm_matrix(z)]).item()
                    for z in itertools.permutations(range(n))
                }
                assert min(losses, key=losses.get) == true_z


class TestSpanCheck:
    """Every impression loss rejects lengths that are not positive integers
    summing to its column's rows, naming itself, instead of returning a
    number or a numpy error."""

    @pytest.mark.parametrize("lengths", [
        [2, 0, 3],
        [6, -1],
        [2.0, 3.0],
        np.array([], dtype=np.intp),
        [[2, 3]],
        [2, 2],
        [3, 5],
        check_lengths([2, 2], 4, "another column"),
    ], ids=["empty", "negative", "float", "none", "2-d", "short", "past-end", "other-layout"])
    @pytest.mark.parametrize("loss", [bce_loss, ranknet_loss, listnet_loss, softsort_loss],
                             ids=lambda f: f.__name__)
    def test_bad_spans_raise_shape_mismatch(self, loss, lengths):
        p = Graph().tensor(np.linspace(0.1, 0.9, 5))
        message = (f"{loss.__name__}: impression lengths .* are not positive integers "
                   "summing to the column's 5 rows")
        with pytest.raises(ShapeMismatchError, match=message):
            loss(p, [1, 0, 1, 0, 1], lengths)

    def test_tiling_spans_accepted(self):
        p = Graph().tensor(np.linspace(0.1, 0.9, 5))
        for loss in (bce_loss, ranknet_loss, listnet_loss, softsort_loss):
            loss(p, [1, 0, 1, 0, 1], [1, 4])
            loss(p, [1, 0, 1, 0, 1], np.array([1, 4], dtype=np.uint8))


@pytest.mark.parametrize("loss", [bce_loss, ranknet_loss, listnet_loss, softsort_loss],
                         ids=lambda f: f.__name__)
def test_prebuilt_layout_gives_the_bits_of_raw_lengths(loss):
    """A ``Layout`` from ``check_lengths`` gives the value and gradient bits of
    the raw lengths it was built from."""
    rng = np.random.default_rng(8)
    lengths = [3, 1, 4, 3, 2, 4, 1]  # three blocks of two or more lists
    n = sum(lengths)
    p = rng.uniform(0.05, 0.95, (n, 1))
    y = rng.integers(0, 2, n)
    results = []
    for given in (lengths, check_lengths(lengths, n, "test")):
        g = Graph()
        t = g.tensor(p)
        out = loss(t, y, given)
        results.append((out.value.tobytes(), g.backward(out)[t.node_id].tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("loss", [bce_loss, ranknet_loss, listnet_loss, softsort_loss],
                         ids=lambda f: f.__name__)
def test_column_and_labels_checked_with_one_message(loss):
    col = Graph().tensor(np.full((5, 2), 0.5))
    message = rf"{loss.__name__}: scores \(5, 2\) vs 4 labels"
    with pytest.raises(ShapeMismatchError, match=message):
        loss(col, [1, 0, 1, 0])
    col = Graph().tensor(np.full((3, 1), 0.5))
    for target, bad in (([np.nan, 1, 0], "nan at position 0"),
                        ([1, 0, -np.inf], "-inf at position 2")):
        with pytest.raises(ValueError, match=f"{loss.__name__}: target must be finite, got {bad}"):
            loss(col, target)


class TestBCELoss:
    def test_perfect_prediction(self):
        g = Graph()
        p = g.tensor([[1.0], [0.0]])
        assert bce_loss(p, [1, 0]).item() < 1e-10

    def test_half_probability_is_log_two(self):
        g = Graph()
        assert abs(bce_loss(g.tensor([[0.5]]), [1]).item() - math.log(2.0)) < 1e-9

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            bce_loss(Graph().tensor([[0.5]]), [1, 0])

    def test_labels_other_than_0_and_1_rejected(self):
        with pytest.raises(ValueError, match="bce_loss: labels must be 0 or 1, got 2.0 at position"):
            bce_loss(Graph().tensor([[0.5], [0.5], [0.5]]), [2, 0, 1])

    def test_gradient(self):
        rng = np.random.default_rng(8)
        p = rng.uniform(0.1, 0.9, (5, 1))
        y = rng.integers(0, 2, 5)
        assert grad_check(lambda t: bce_loss(t, y), p) < 1e-5

    def test_mean_per_span_then_over_spans(self):
        p = np.array([0.9, 0.2, 0.6, 0.3, 0.7])
        y = np.array([1, 0, 1, 1, 0])
        lengths = [2, 3]
        per_sample = -(y * np.log(p) + (1 - y) * np.log(1 - p))
        expected = np.mean([part.mean() for part in np.split(per_sample, [2])])
        loss = bce_loss(Graph().tensor(p), y, lengths).item()
        assert loss == pytest.approx(expected, rel=1e-12)


class TestRanknetLoss:
    def test_confident_correct_pair(self):
        g = Graph()
        loss = ranknet_loss(g.tensor([5.0, -5.0]), [1, 0])
        assert loss.item() == pytest.approx(math.log(1 + math.exp(-10)), rel=1e-6)
        assert loss.item() < 1e-4

    def test_tied_scores_pair_contributes_log_two(self):
        g = Graph()
        assert abs(ranknet_loss(g.tensor([0.7, 0.7]), [1, 0]).item() - math.log(2.0)) < 1e-12

    def test_equal_labels_give_zero(self):
        g = Graph()
        assert ranknet_loss(g.tensor([1.0, 2.0, 3.0]), [1, 1, 1]).item() == 0.0

    def test_mean_over_ordered_pairs(self):
        g = Graph()
        s = g.tensor([2.0, 1.0, 0.0])
        # pairs with y_i > y_j: (0,1), (0,2), (1,2)
        expected = np.mean([math.log(1 + math.exp(-(2 - 1))),
                            math.log(1 + math.exp(-(2 - 0))),
                            math.log(1 + math.exp(-(1 - 0)))])
        assert ranknet_loss(s, [2, 1, 0]).item() == pytest.approx(expected, rel=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        s = rng.standard_normal((4, 1))
        assert grad_check(lambda t: ranknet_loss(t, [2, 1, 1, 0]), s) < 1e-5

    def test_mean_per_span_then_over_spans(self):
        s = np.random.default_rng(10).standard_normal(9)
        y = [2, 1, 0, 0, 1, 1, 0, 1, 1]
        lengths = [4, 3, 2]  # the last impression has no ordered pair
        bounds = [(0, 4), (4, 7), (7, 9)]

        def span_loss(a, b):
            pairs = [(i, j) for i in range(a, b) for j in range(a, b) if y[i] > y[j]]
            if not pairs:
                return 0.0
            return np.mean([math.log1p(math.exp(-(s[i] - s[j]))) for i, j in pairs])

        expected = np.mean([span_loss(a, b) for a, b in bounds])
        loss = ranknet_loss(Graph().tensor(s), y, lengths).item()
        assert loss == pytest.approx(expected, rel=1e-12)


class TestListnetLoss:
    def test_matching_scores_give_target_entropy(self):
        y = np.array([1.0, 0.5, -0.2])
        p = np.exp(y - y.max())
        p /= p.sum()
        entropy = -np.sum(p * np.log(p))
        g = Graph()
        assert listnet_loss(g.tensor(y), y).item() == pytest.approx(entropy, rel=1e-9)

    def test_shift_invariance(self):
        y = np.array([0.3, 1.0, -0.7])
        a = listnet_loss(Graph().tensor(y), y).item()
        b = listnet_loss(Graph().tensor(y + 11.0), y).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal((5, 1))
        y = rng.standard_normal(5)
        assert grad_check(lambda t: listnet_loss(t, y), s) < 1e-4

    def test_mean_over_spans(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal(10)
        y = rng.standard_normal(10)
        bounds = [(0, 3), (3, 7), (7, 10)]
        single = [listnet_loss(Graph().tensor(s[a:b]), y[a:b]).item() for a, b in bounds]
        loss = listnet_loss(Graph().tensor(s), y, [3, 4, 3]).item()
        assert loss == (single[0] + single[1] + single[2]) * (1.0 / 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
       st.floats(min_value=0.05, max_value=5.0))
def test_soft_sort_rows_always_sum_to_one(values, tau):
    p_hat = soft_sort(Graph().tensor(values), tau)
    assert np.all(p_hat.value >= 0)
    npt.assert_allclose(p_hat.value.sum(axis=1), 1.0, atol=1e-9)
