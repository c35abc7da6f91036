import numpy as np
import numpy.testing as npt
import pytest

from mtlds.gradcore import (
    AdamState,
    DomainError,
    Graph,
    GraphStateError,
    NondeterministicFunctionError,
    ShapeMismatchError,
    adam_step,
    corrupted_vjp,
    fn,
    grad_check,
)
from mtlds.gradcore.functional import concat_cols


class TestForward:
    def test_softmax_symmetry(self):
        g = Graph()
        out = fn.softmax_rows(g.tensor([[0.0, 0.0]]))
        npt.assert_allclose(out.value, [[0.5, 0.5]])

    def test_matmul_identity(self):
        g = Graph()
        x = g.tensor([[1.0, 2.0], [3.0, 4.0]])
        out = fn.matmul(g.constant(np.eye(2)), x)
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

    def test_log_domain_error(self):
        g = Graph()
        with pytest.raises(DomainError, match="log"):
            fn.log(g.tensor([[0.0]]))

    def test_gather_rows_out_of_range(self):
        g = Graph()
        with pytest.raises(ShapeMismatchError, match="gather_rows"):
            fn.gather_rows(g.tensor(np.zeros((2, 2))), [2])

    def test_gather_rows_names_the_bad_index(self):
        g = Graph()
        with pytest.raises(ShapeMismatchError, match="index -1 out of range for 2 rows"):
            fn.gather_rows(g.tensor(np.zeros((2, 2))), [0, -1, 5])

    def test_broadcast_needs_column(self):
        g = Graph()
        with pytest.raises(ShapeMismatchError):
            fn.broadcast_row(g.tensor(np.zeros((2, 2))), 3)

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
        x = g.tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        grads = g.backward(fn.sum_all(x))
        npt.assert_allclose(grads[x.node_id], np.ones((2, 2)))

    def test_square_gradient(self):
        g = Graph()
        x = g.tensor([[3.0]], requires_grad=True)
        grads = g.backward(fn.sum_all(fn.mul_elem(x, x)))
        npt.assert_allclose(grads[x.node_id], [[6.0]])

    def test_seed_gradient_is_one(self):
        g = Graph()
        x = g.tensor([[5.0]], requires_grad=True)
        loss = fn.scale(x, 3.0)
        grads = g.backward(loss)
        npt.assert_allclose(grads[loss.node_id], [[1.0]])

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        x = g.tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeMismatchError, match="scalar"):
            g.backward(fn.relu(x))

    def test_backward_twice_without_new_forward(self):
        g = Graph()
        x = g.tensor([[1.0]], requires_grad=True)
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
        x = g.tensor(rng.standard_normal((3, 2)), requires_grad=True)
        w = g.tensor(rng.standard_normal((2, 4)), requires_grad=True)
        h = fn.relu(fn.matmul(x, w))
        loss = fn.sum_all(fn.softmax_rows(h))
        grads = g.backward(loss)
        for t in (x, w, h, loss):
            assert grads[t.node_id].shape == t.shape

    def test_gather_rows_accumulates_repeated_indices(self):
        g = Graph()
        x = g.tensor([[1.0], [2.0]], requires_grad=True)
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

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: fn.sum_all(t), [[1.0]], eps=0.0)


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
            other = t.graph.constant(np.ones((2, 3)))
            return fn.sum_all(fn.mul_elem(concat_cols([t, other]),
                                          t.graph.constant(weights)))

        x = rng.standard_normal((2, 2))
        assert grad_check(f, x) < 1e-6


def test_every_registry_op_passes_grad_check_on_20_inputs():
    from mtlds.checks import check_registry_ops

    results = check_registry_ops(trials=20, seed=7)
    assert len(results) == 18  # every differentiable op tag
    for r in results:
        assert r.worst < 1e-4, f"{r.name}: worst relative error {r.worst:.2e}"


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = [np.array([[1.0, 2.0]])]
        state = AdamState.for_params(p)
        out = adam_step(p, [np.zeros((1, 2))], state, lr=0.1)
        npt.assert_allclose(out[0], p[0])
        assert state.step == 1

    def test_first_step_moves_by_lr_sign(self):
        # at t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
        p = [np.array([[1.0]])]
        g = [np.array([[4.0]])]
        state = AdamState.for_params(p)
        out = adam_step(p, g, state, lr=0.1)
        npt.assert_allclose(out[0], [[1.0 - 0.1 * 4.0 / (4.0 + 1e-8)]])

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        p0 = rng.standard_normal((2, 2))
        results = []
        for _ in range(2):
            p = [p0.copy()]
            state = AdamState.for_params(p)
            rng2 = np.random.default_rng(99)
            for _ in range(10):
                p = adam_step(p, [rng2.standard_normal((2, 2))], state, lr=0.01)
            results.append(p[0])
        assert np.array_equal(results[0], results[1])

    def test_shape_mismatch(self):
        p = [np.zeros((2, 2))]
        state = AdamState.for_params(p)
        with pytest.raises(ShapeMismatchError):
            adam_step(p, [np.zeros((2, 3))], state, lr=0.1)
