import numpy as np
import numpy.testing as npt
import pytest

from mtlds.gradcore import (
    AdamState,
    Graph,
    GraphStateError,
    OPS,
    NondeterministicFunctionError,
    ShapeMismatchError,
    adam_step,
    corrupted_vjp,
    fn,
    grad_check,
)
from mtlds.gradcore.functional import concat_cols
from mtlds.gradcore.tensor import length_blocks
from mtlds.sortops import check_lengths


class TestForward:
    def test_softmax_symmetry(self):
        g = Graph()
        out = fn.softmax_rows(g.tensor([[0.0, 0.0]]))
        npt.assert_allclose(out.value, [[0.5, 0.5]])

    def test_matmul_identity(self):
        g = Graph()
        x = g.tensor([[1.0, 2.0], [3.0, 4.0]])
        out = fn.matmul(g.tensor(np.eye(2)), x)
        npt.assert_allclose(out.value, x.value)

    def test_sigmoid_at_zero(self):
        g = Graph()
        npt.assert_allclose(fn.sigmoid(g.tensor([[0.0]])).value, [[0.5]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = Graph()
            x = g.tensor(rng.standard_normal((4, 6)) * 10)
            out = fn.softmax_rows(x)
            assert np.all(out.value >= 0)
            npt.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-9)

    def test_shape_mismatch_names_op(self):
        g = Graph()
        a = g.tensor(np.zeros((2, 3)))
        b = g.tensor(np.zeros((3, 3)))
        with pytest.raises(ShapeMismatchError, match=r"add.*\(2, 3\).*\(3, 3\)"):
            fn.add(a, b)
        with pytest.raises(ShapeMismatchError, match="matmul"):
            fn.matmul(b, b.graph.tensor(np.zeros((2, 2))))

    def test_log_clips_to_probability_range(self):
        g = Graph()
        x = g.tensor([[-1.0, 0.0, 1e-13, 0.5, 1.0, 2.0]])
        out = fn.log(x)
        npt.assert_array_equal(out.value, np.log([[1e-12, 1e-12, 1e-12, 0.5, 1.0, 1.0]]))
        grad = g.backward(fn.sum_all(out))[x.node_id]
        # zero where the clip is active; both bounds are inside the range
        npt.assert_array_equal(grad, [[0.0, 0.0, 0.0, 2.0, 1.0, 0.0]])

    def test_gather_rows_out_of_range(self):
        g = Graph()
        with pytest.raises(ShapeMismatchError, match="gather_rows"):
            fn.gather_rows(g.tensor(np.zeros((2, 2))), [2])

    def test_gather_rows_names_the_bad_index(self):
        g = Graph()
        with pytest.raises(ShapeMismatchError, match="index -1 out of range for 2 rows"):
            fn.gather_rows(g.tensor(np.zeros((2, 2))), [0, -1, 5])

    def test_affine_needs_a_bias_column(self):
        g = Graph()
        x, w = g.tensor(np.zeros((2, 3))), g.tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeMismatchError, match="affine"):
            fn.affine(x, w, g.tensor(np.zeros((4, 2))))

    def test_values_are_immutable(self):
        g = Graph()
        t = g.tensor([[1.0]])
        with pytest.raises(ValueError):
            t.value[0, 0] = 2.0

    def test_unknown_op(self):
        g = Graph()
        with pytest.raises(ValueError, match="unknown op"):
            g.apply("transpose", [g.tensor([[1.0]])])

    def test_cross_graph_input_rejected(self):
        a = Graph().tensor([[1.0]])
        b = Graph().tensor([[1.0]])
        with pytest.raises(GraphStateError):
            a.graph.apply("add", [a, b])


class TestBackward:
    def test_sum_all_gradient_is_ones(self):
        g = Graph()
        x = g.tensor(np.arange(4.0).reshape(2, 2))
        grads = g.backward(fn.sum_all(x))
        npt.assert_allclose(grads[x.node_id], np.ones((2, 2)))

    def test_square_gradient(self):
        g = Graph()
        x = g.tensor([[3.0]])
        grads = g.backward(fn.sum_all(fn.mul_elem(x, x)))
        npt.assert_allclose(grads[x.node_id], [[6.0]])

    def test_seed_gradient_is_one(self):
        g = Graph()
        x = g.tensor([[5.0]])
        loss = fn.scale(x, 3.0)
        grads = g.backward(loss)
        npt.assert_allclose(grads[loss.node_id], [[1.0]])

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        x = g.tensor(np.zeros((2, 2)))
        with pytest.raises(ShapeMismatchError, match="scalar"):
            g.backward(fn.relu(x))

    def test_backward_twice_without_new_forward(self):
        g = Graph()
        x = g.tensor([[1.0]])
        loss = fn.sum_all(x)
        g.backward(loss)
        with pytest.raises(GraphStateError, match="twice"):
            g.backward(loss)
        # new forward work re-arms backward
        loss2 = fn.scale(loss, 2.0)
        g.backward(loss2)

    def test_all_ancestors_get_gradients_with_matching_shapes(self):
        rng = np.random.default_rng(1)
        g = Graph()
        x = g.tensor(rng.standard_normal((3, 2)))
        w = g.tensor(rng.standard_normal((2, 4)))
        h = fn.relu(fn.matmul(x, w))
        loss = fn.sum_all(fn.softmax_rows(h))
        grads = g.backward(loss)
        for t in (x, w, h, loss):
            assert grads[t.node_id].shape == t.shape

    def test_gather_rows_accumulates_repeated_indices(self):
        g = Graph()
        x = g.tensor([[1.0], [2.0]])
        grads = g.backward(fn.sum_all(fn.gather_rows(x, [0, 0, 1])))
        npt.assert_allclose(grads[x.node_id], [[2.0], [1.0]])


class TestGradCheck:
    def test_sum_of_squares_is_tight(self):
        rng = np.random.default_rng(2)
        err = grad_check(lambda t: fn.sum_all(fn.mul_elem(t, t)),
                         rng.standard_normal((3, 1)))
        assert err < 1e-6

    def test_nondeterministic_function_detected(self):
        calls = []

        def flaky(t):
            calls.append(None)
            return fn.scale(fn.sum_all(t), float(len(calls)))

        with pytest.raises(NondeterministicFunctionError):
            grad_check(flaky, [[1.0]])

    def test_corrupted_vjp_is_caught_and_restored(self):
        f = lambda t: fn.sum_all(fn.sigmoid(t))
        x = np.array([[0.3], [-0.2]])
        with corrupted_vjp("sigmoid", factor=1.05):
            assert grad_check(f, x) > 1e-3
        assert grad_check(f, x) < 1e-8


class TestConcatCols:
    def test_concat_matches_numpy(self):
        rng = np.random.default_rng(3)
        a_v, b_v = rng.standard_normal((3, 2)), rng.standard_normal((3, 4))
        g = Graph()
        out = concat_cols([g.tensor(a_v), g.tensor(b_v)])
        npt.assert_allclose(out.value, np.hstack([a_v, b_v]))

    def test_concat_needs_equal_row_counts(self):
        g = Graph()
        with pytest.raises(ShapeMismatchError, match="concat_cols"):
            concat_cols([g.tensor(np.zeros((2, 1))), g.tensor(np.zeros((3, 1)))])

    def test_concat_gradient(self):
        rng = np.random.default_rng(4)
        weights = rng.standard_normal((2, 5))

        def f(t):
            other = t.graph.tensor(np.ones((2, 3)))
            return fn.sum_all(fn.mul_elem(concat_cols([t, other]),
                                          t.graph.tensor(weights)))

        x = rng.standard_normal((2, 2))
        assert grad_check(f, x) < 1e-6


def test_every_registry_op_passes_grad_check_on_20_inputs():
    from mtlds.checks import check_registry_ops

    results = check_registry_ops(trials=20, seed=7)
    assert len(results) == 17  # every differentiable op tag
    for r in results:
        assert r.worst < 1e-4, f"{r.name}: worst relative error {r.worst:.2e}"


def test_op_cases_cover_every_registry_op():
    from mtlds.checks import _op_cases

    assert set(_op_cases(np.random.default_rng(0))) == set(OPS)


def per_length_blocks(lengths):
    """``length_blocks`` written as one pass over the lengths per distinct length."""
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    for n in np.unique(lengths):
        members = np.flatnonzero(lengths == n)
        yield members, starts[members, None] + np.arange(n)


@pytest.mark.parametrize("seed", range(20))
def test_length_blocks_match_the_per_length_version(seed):
    rng = np.random.default_rng(seed)
    distinct = 1 if seed < 4 else int(rng.integers(2, 41))  # one length, or 2 to 40
    values = rng.choice(np.arange(1, 41), size=distinct, replace=False)
    lengths = rng.choice(values, size=int(rng.integers(1, 300)))
    got = list(length_blocks(lengths))
    want = list(per_length_blocks(lengths))
    assert len(got) == len(want) == len(np.unique(lengths))
    for (members, rows), (ref_members, ref_rows) in zip(got, want):
        npt.assert_array_equal(members, ref_members)
        npt.assert_array_equal(rows, ref_rows)


def test_length_blocks_of_no_lists_is_empty():
    assert list(length_blocks([])) == []


class TestFusedOpsCheckTheirLayout:
    """A ``Layout`` that does not describe the op's input is an error, not a
    loss over some of its rows."""

    @pytest.mark.parametrize("rows, labels, lengths", [
        (7, 7, [2, 3]), (5, 7, [2, 3]), (5, 4, [2, 3]), (5, 5, [2, 3, 2])],
        ids=["short-layout", "extra-labels", "missing-labels", "long-layout"])
    def test_listnet_rejects_a_layout_or_labels_not_covering_the_scores(self, rows, labels,
                                                                        lengths):
        s = Graph().tensor(np.linspace(-1.0, 1.0, rows))
        layout = check_lengths(lengths, sum(lengths), "test")
        with pytest.raises(ShapeMismatchError, match=f"listnet: {rows} scores"):
            fn.listnet(s, np.zeros(labels), layout)

    @pytest.mark.parametrize("lengths", [[3, 2], [2, 2, 1], [2]])
    def test_perm_xent_rejects_a_layout_of_other_sizes(self, lengths):
        g = Graph()
        p_hats = [g.tensor(np.full((n, n), 1.0 / n)) for n in (2, 3)]
        layout = check_lengths(lengths, sum(lengths), "test")
        with pytest.raises(ShapeMismatchError, match=r"perm_xent: impression lengths .* \[2, 3\]"):
            fn.perm_xent(p_hats, [np.eye(2), np.eye(3)], np.ones(3), layout)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": np.array([[1.0, 2.0]])}
        state = AdamState.for_params(p)
        out = adam_step(p, {"w": np.zeros((1, 2))}, state, lr=0.1)
        npt.assert_allclose(out["w"], p["w"])
        assert state.step == 1

    def test_first_step_moves_by_lr_sign(self):
        # at t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
        p = {"w": np.array([[1.0]])}
        g = {"w": np.array([[4.0]])}
        state = AdamState.for_params(p)
        out = adam_step(p, g, state, lr=0.1)
        npt.assert_allclose(out["w"], [[1.0 - 0.1 * 4.0 / (4.0 + 1e-8)]])

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        p0 = rng.standard_normal((2, 2))
        results = []
        for _ in range(2):
            p = {"w": p0.copy()}
            state = AdamState.for_params(p)
            rng2 = np.random.default_rng(99)
            for _ in range(10):
                p = adam_step(p, {"w": rng2.standard_normal((2, 2))}, state, lr=0.01)
            results.append(p["w"])
        assert np.array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        p = {"w": np.zeros((2, 2))}
        state = AdamState.for_params(p)
        with pytest.raises(ShapeMismatchError):
            adam_step(p, {"w": np.zeros((2, 3))}, state, lr=0.1)

    def test_name_mismatch(self):
        p = {"w": np.zeros((2, 2))}
        state = AdamState.for_params(p)
        with pytest.raises(ShapeMismatchError, match="shapes differ"):
            adam_step(p, {"b": np.zeros((2, 2))}, state, lr=0.1)
        with pytest.raises(ShapeMismatchError, match="shapes differ"):
            adam_step({**p, "b": np.zeros((1, 1))}, {**p, "b": np.zeros((1, 1))}, state, lr=0.1)

    def test_writes_no_input_array(self):
        """fit keeps its best epoch's parameters by reference, so a step must
        leave every array it is given bit-identical, moments included."""
        rng = np.random.default_rng(3)
        p = {"w": rng.standard_normal((3, 2)), "b": rng.standard_normal((2, 1))}
        g = {n: rng.standard_normal(a.shape) for n, a in p.items()}
        state = AdamState(m={n: rng.standard_normal(a.shape) for n, a in p.items()},
                          v={n: rng.random(a.shape) for n, a in p.items()}, step=4)
        given = [(a, a.tobytes()) for d in (p, g, state.m, state.v) for a in d.values()]
        out = adam_step(p, g, state, lr=0.1)
        assert list(out) == ["w", "b"]
        assert all(a.tobytes() == bits for a, bits in given)
