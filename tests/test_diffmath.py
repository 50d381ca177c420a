import numpy as np
import pytest

import genzsl.diffmath as dm
from genzsl import events
from genzsl.errors import DimensionError, NumericOverflowError, ValidationError
from helpers import (affine_stack, affine_stack_with_input_gradient, dense_input_grad,
                     directional_derivative, leaky_relu, log, matmul, numeric_grad_params,
                     penalty_oracle, random_direction, rel_err, reset_events, transpose)


def mlp_loss(leaves, x, y):
    """Tiny two-layer perceptron with a softmax head, as one tape expression."""
    h = leaky_relu(dm.add(matmul(dm.constant(x), leaves["W1"]), leaves["b1"]))
    logits = dm.add(matmul(h, leaves["W2"]), leaves["b2"])
    return dm.vmean(dm.cross_entropy_rows(logits, y))


def mlp_loss_fused(leaves, x, y):
    """The same perceptron on fused dense nodes."""
    h = dm.dense(dm.constant(x), leaves["W1"], leaves["b1"], 0.2)
    logits = dm.dense(h, leaves["W2"], leaves["b2"])
    return dm.vmean(dm.cross_entropy_rows(logits, y))


class TestGradScalar:
    def test_sum_of_squares(self):
        params = dm.ParamStore({"w": np.array([3.0])})
        grads = dm.grad_scalar(lambda lv: dm.vsum(dm.square(lv["w"])), params)
        np.testing.assert_allclose(grads["w"], [6.0])

    def test_unused_parameter_gets_zero(self):
        params = dm.ParamStore({"w": np.array([2.0]), "b": np.ones((3, 2))})
        grads = dm.grad_scalar(lambda lv: dm.vsum(dm.square(lv["w"])), params)
        np.testing.assert_array_equal(grads["b"], np.zeros((3, 2)))

    def test_two_layer_perceptron_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, size=5)
        params = dm.ParamStore({
            "W1": rng.standard_normal((4, 6)) * 0.7,
            "b1": rng.standard_normal(6) * 0.1,
            "W2": rng.standard_normal((6, 3)) * 0.7,
            "b2": rng.standard_normal(3) * 0.1,
        })
        for loss in (mlp_loss, mlp_loss_fused):
            grads = dm.grad_scalar(lambda lv: loss(lv, x, y), params)

            def value(p):
                leaves = {k: dm.constant(v) for k, v in p.items()}
                return float(loss(leaves, x, y).value)

            fd = numeric_grad_params(value, params)
            for name in params:
                assert rel_err(grads[name], fd[name]).max() < 1e-4

    def test_non_scalar_loss_rejected(self):
        params = dm.ParamStore({"w": np.ones(3)})
        with pytest.raises(ValidationError):
            dm.grad_scalar(lambda lv: dm.square(lv["w"]), params)

    def test_nonfinite_loss_raises(self):
        params = dm.ParamStore({"w": np.array([-1.0])})
        with np.errstate(invalid="ignore"), pytest.raises(NumericOverflowError):
            dm.grad_scalar(lambda lv: dm.vsum(log(lv["w"])), params)

    def test_nonfinite_gradient_names_its_parameter(self):
        params = dm.ParamStore({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)})

        def build(lv):
            bad = dm.Node(np.asarray(1.0), (lv["b"],), lambda g: (np.array([0.0, np.nan, 1.0]),))
            return dm.add(dm.vsum(lv["a"]), bad)

        with pytest.raises(NumericOverflowError, match="parameter 'b'"):
            dm.grad_scalar(build, params)

    def test_returns_a_store_laid_out_like_the_parameters(self):
        params = dm.ParamStore({"w": np.array([2.0]), "b": np.ones((3, 2)), "u": np.array(0.5)})
        grads = dm.grad_scalar(lambda lv: dm.vsum(dm.square(lv["w"])), params)
        assert isinstance(grads, dm.ParamStore) and list(grads) == list(params)
        np.testing.assert_array_equal(grads.flat, [4.0, 0, 0, 0, 0, 0, 0, 0])

    def test_nonfinite_gradients_name_the_first_such_parameter(self):
        params = dm.ParamStore({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)})

        def build(lv):
            bad_b = dm.Node(np.asarray(1.0), (lv["b"],), lambda g: (np.array([0.0, 1.0, np.inf]),))
            bad_c = dm.Node(np.asarray(1.0), (lv["c"],), lambda g: (np.array([np.nan]),))
            return dm.add(dm.add(bad_c, dm.vsum(lv["a"])), bad_b)

        with pytest.raises(NumericOverflowError, match="parameter 'b'"):
            dm.grad_scalar(build, params)

    def test_finite_grads_checks_a_store_and_names_its_first_bad_tensor(self):
        grads = dm.ParamStore({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)})
        assert dm.finite_grads(1.0, lambda: grads) is grads
        grads["c"][0] = np.nan
        grads["b"][2] = -np.inf
        with pytest.raises(NumericOverflowError, match="parameter 'b'"):
            dm.finite_grads(1.0, lambda: grads)
        with pytest.raises(NumericOverflowError, match="loss evaluated to a non-finite"):
            dm.finite_grads(np.inf, lambda: pytest.fail("ran on a non-finite loss"))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 4))
        y = rng.integers(0, 2, size=4)
        params = dm.ParamStore({
            "W1": rng.standard_normal((4, 5)),
            "b1": np.zeros(5),
            "W2": rng.standard_normal((5, 2)),
            "b2": np.zeros(2),
        })
        g1 = dm.grad_scalar(lambda lv: mlp_loss(lv, x, y), params)
        g2 = dm.grad_scalar(lambda lv: mlp_loss(lv, x, y), params)
        for name in params:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_two_sweeps_of_one_tape_agree_and_leave_its_nodes_untouched(self):
        rng = np.random.default_rng(4)
        x = dm.leaf(rng.standard_normal((3, 4)))
        W = dm.leaf(rng.standard_normal((4, 4)))
        h = dm.dense(x, W, slope=0.2)
        root = dm.vsum(dm.mul(h, dm.add(x, 1.0)))  # x is reached along two paths
        nodes = [x, W, h, root]
        before = [{slot: getattr(n, slot) for slot in dm.Node.__slots__} for n in nodes]
        first, second = dm.backward(root), dm.backward(root)
        assert list(first) == list(second) and x in first and W in first
        for node in first:
            np.testing.assert_array_equal(first[node], second[node])
        for node, slots in zip(nodes, before):
            assert all(getattr(node, slot) is value for slot, value in slots.items())


class TestLeakyRectifier:
    def test_negative_slope_branch_at_zero(self):
        node = leaky_relu(dm.leaf(np.array([[0.0, -1.0, 2.0]])), slope=0.2)
        grads = dm.backward(dm.vsum(node))
        np.testing.assert_allclose(grads[node.parents[0]], [[0.2, 0.2, 1.0]])


def _critic_forward(params, layout, x):
    """The trunk outputs of a (W, b, act) critic layout, as plain arrays,
    composed from primitive nodes: the layer inputs the penalty reads."""
    outs = [x]
    for w, b, act in layout[:-1]:
        outs.append(affine_stack(dm.constant(outs[-1]), [(params[w], params[b], act)]).value)
    return outs


class TestFusedNodes:
    """The fused nodes reproduce the primitive compositions bit for bit, and
    their reverse maps agree with central differences."""

    @staticmethod
    def _both(build, params):
        """(value, gradients) of a scalar expression over `params`."""
        grads = dm.grad_scalar(build, params)
        return build({k: dm.constant(v) for k, v in params.items()}).value, grads

    @pytest.mark.parametrize("bias,slope", [(True, 0.2), (True, None), (False, 0.2),
                                            (False, None), (True, 0.0), (True, 1.0),
                                            (False, 0.0), (False, 1.0)])
    def test_dense_equals_matmul_add_leaky_relu(self, bias, slope):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((7, 4))
        x[0, :] = 0.0  # zero pre-activations take the negative-slope branch
        params = dm.ParamStore({"W": rng.standard_normal((4, 5)), "b": rng.standard_normal(5)})
        weights = rng.standard_normal((7, 5))

        def fused(lv):
            out = dm.dense(dm.constant(x), lv["W"], lv["b"] if bias else None, slope)
            return dm.vsum(dm.mul(out, dm.constant(weights)))

        def composed(lv):
            out = matmul(dm.constant(x), lv["W"])
            if bias:
                out = dm.add(out, lv["b"])
            if slope is not None:
                out = leaky_relu(out, slope)
            return dm.vsum(dm.mul(out, dm.constant(weights)))

        v_f, g_f = self._both(fused, params)
        v_c, g_c = self._both(composed, params)
        assert v_f == v_c
        for name in params:
            np.testing.assert_array_equal(g_f[name], g_c[name])
        fd = numeric_grad_params(lambda p: float(fused(
            {k: dm.constant(v) for k, v in p.items()}).value), params)
        for name in params:
            assert rel_err(g_f[name], fd[name]).max() < 1e-6

    @pytest.mark.parametrize("slope", [1.5, -0.1, float("nan")])
    def test_dense_rejects_a_slope_outside_the_unit_interval(self, slope):
        with pytest.raises(ValidationError):
            dm.dense(np.ones((2, 3)), np.ones((3, 4)), None, slope)

    @pytest.mark.parametrize("width", [1, 3])
    def test_dense_input_gradient_equals_the_matmul_at_every_output_width(self, width):
        # one output unit takes an outer product in place of the matmul
        rng = np.random.default_rng(33)
        x, W = rng.standard_normal((6, 4)), rng.standard_normal((4, width))
        g = rng.standard_normal((6, width))
        d_fused = dm.dense(dm.leaf(x), W).vjp(g)[0]
        np.testing.assert_array_equal(d_fused, matmul(dm.leaf(x), W).vjp(g)[0])

    def test_dense_input_gradient_reaches_a_live_input(self):
        rng = np.random.default_rng(32)
        params = dm.ParamStore({"x": rng.standard_normal((3, 4)),
                                "W": rng.standard_normal((4, 2)),
                                "b": rng.standard_normal(2)})

        def build(lv):
            return dm.vsum(dm.square(dm.dense(lv["x"], lv["W"], lv["b"], 0.3)))

        grads = dm.grad_scalar(build, params)
        fd = numeric_grad_params(lambda p: float(build(p).value), params)
        for name in params:
            assert rel_err(grads[name], fd[name]).max() < 1e-6

    def test_dense_input_grad_equals_mul_matmul_transpose(self):
        rng = np.random.default_rng(33)
        gate = np.where(rng.standard_normal((5, 3)) > 0.0, 1.0, 0.2)
        params = dm.ParamStore({"g": rng.standard_normal((5, 3)),
                                "W": rng.standard_normal((4, 3))})
        weights = rng.standard_normal((5, 4))

        def fused(lv):
            out = dense_input_grad(lv["g"], lv["W"], gate)
            return dm.vsum(dm.mul(dm.square(out), dm.constant(weights)))

        def composed(lv):
            out = matmul(dm.mul(lv["g"], dm.constant(gate)), transpose(lv["W"]))
            return dm.vsum(dm.mul(dm.square(out), dm.constant(weights)))

        v_f, g_f = self._both(fused, params)
        v_c, g_c = self._both(composed, params)
        assert v_f == v_c
        for name in params:
            np.testing.assert_allclose(g_f[name], g_c[name], rtol=1e-14)
        fd = numeric_grad_params(lambda p: float(fused(
            {k: dm.constant(v) for k, v in p.items()}).value), params)
        for name in params:
            assert rel_err(g_f[name], fd[name]).max() < 1e-6

    def test_row_slice(self):
        rng = np.random.default_rng(34)
        params = dm.ParamStore({"a": rng.standard_normal((6, 3))})
        w1, w2 = rng.standard_normal((2, 3)), rng.standard_normal((3, 3))

        def build(lv):
            # overlapping slices accumulate into one gradient
            top = dm.mul(dm.square(dm.row_slice(lv["a"], 1, 3)), dm.constant(w1))
            low = dm.mul(dm.row_slice(lv["a"], 2, 5), dm.constant(w2))
            return dm.add(dm.vsum(top), dm.vsum(low))

        a = params["a"]
        node = dm.row_slice(dm.constant(a), 1, 3)
        np.testing.assert_array_equal(node.value, a[1:3])
        whole = dm.constant(a)
        assert dm.row_slice(whole, 0, 6) is whole
        vector = dm.row_slice(dm.constant(a[:, 0]), 2, 4)
        np.testing.assert_array_equal(vector.value, a[2:4, 0])

        grads = dm.grad_scalar(build, params)
        expected = np.zeros_like(a)
        expected[1:3] += 2.0 * a[1:3] * w1
        expected[2:5] += w2
        np.testing.assert_allclose(grads["a"], expected, rtol=1e-15)
        fd = numeric_grad_params(lambda p: float(build(
            {k: dm.constant(v) for k, v in p.items()}).value), params)
        assert rel_err(grads["a"], fd["a"]).max() < 1e-6

    def test_gate_lookup_matches_branching_select(self):
        z = np.random.default_rng(35).standard_normal((192, 64))
        z[0, :3] = (0.0, -0.0, 1e-300)
        node = leaky_relu(dm.leaf(z), slope=0.2)
        grads = dm.backward(dm.vsum(node))
        gate = np.where(z > 0.0, 1.0, 0.2)
        np.testing.assert_array_equal(node.value, z * gate)
        np.testing.assert_array_equal(grads[node.parents[0]], gate)

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 1.5, 3.0])
    def test_gate_equals_branching_select_for_slopes_below_and_above_1(self, slope):
        z = np.random.default_rng(36).standard_normal((9, 5))
        z[0, :3] = (0.0, -0.0, 1e-300)
        np.testing.assert_array_equal(dm.leaky_gate(z > 0.0, slope),
                                      np.where(z > 0.0, 1.0, slope))


class TestInputGradient:
    def test_linear_critic_gradient_is_weight(self):
        w = np.array([[1.5], [-2.0], [0.5]])
        g = dm.critic_input_gradient([w], [np.zeros((4, 3))]).value
        np.testing.assert_allclose(g, np.tile(w.T, (4, 1)))

    def test_constant_critic_gradient_is_zero(self):
        g = dm.critic_input_gradient([np.zeros((3, 1))], [np.ones((2, 3))]).value
        np.testing.assert_array_equal(g, np.zeros((2, 3)))

    def test_zero_pre_activation_takes_the_negative_slope_branch(self):
        # the gate is read off the layer output, which is 0 exactly where the
        # pre-activation is 0: that unit must pass the slope, not 1
        W0, w1 = np.eye(2), np.array([[1.0], [1.0]])
        x = np.array([[0.0, 1.0], [-1.0, 0.0]])
        hidden = affine_stack(dm.constant(x), [(W0, np.zeros(2), "leaky")]).value
        g = dm.critic_input_gradient([W0, w1], [x, hidden], slope=0.2).value
        np.testing.assert_array_equal(g, [[0.2, 1.0], [0.2, 0.2]])

    @pytest.mark.parametrize("acts", [("leaky",), ("leaky", "leaky"), ("leaky", "leaky", "leaky")])
    def test_mlp_matches_finite_differences_over_input(self, acts):
        rng = np.random.default_rng(11)
        widths = [5, 6, 4, 3][:len(acts) + 1]
        layers = []
        w_in = widths[0]
        for w_out, act in zip(widths[1:], acts):
            layers.append((rng.standard_normal((w_in, w_out)), rng.standard_normal(w_out) * 0.3, act))
            w_in = w_out
        layers.append((rng.standard_normal((w_in, 1)), np.zeros(1), "linear"))
        x = rng.standard_normal((3, widths[0]))

        params = {f"W{i}": W for i, (W, _, _) in enumerate(layers)}
        params.update({f"b{i}": b for i, (_, b, _) in enumerate(layers)})
        layout = [(f"W{i}", f"b{i}", act) for i, (_, _, act) in enumerate(layers)]
        g = dm.critic_input_gradient([W for W, _, _ in layers],
                                     _critic_forward(params, layout, x)).value
        # the composed oracle computes the same expression bit for bit
        np.testing.assert_array_equal(g, affine_stack_with_input_gradient(x, layers)[1].value)

        h = 1e-5
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                up, dn = x.copy(), x.copy()
                up[i, j] += h
                dn[i, j] -= h
                r_up = affine_stack(dm.constant(up), layers).value[i, 0]
                r_dn = affine_stack(dm.constant(dn), layers).value[i, 0]
                fd = (r_up - r_dn) / (2 * h)
                assert rel_err(g[i, j], fd).max() < 1e-4


def _critic_store(rng, widths):
    pairs = []
    layout = []
    w_in = widths[0]
    for i, w_out in enumerate(widths[1:]):
        pairs.append((f"trunk{i}.W", rng.standard_normal((w_in, w_out)) / np.sqrt(w_in)))
        pairs.append((f"trunk{i}.b", rng.standard_normal(w_out) * 0.1))
        layout.append((f"trunk{i}.W", f"trunk{i}.b", "leaky"))
        w_in = w_out
    pairs.append(("real.W", rng.standard_normal((w_in, 1))))
    pairs.append(("real.b", np.zeros(1)))
    layout.append(("real.W", "real.b", "linear"))
    return dm.ParamStore(pairs), layout


def _penalty(params, layout, x_tilde):
    weights = [params[w] for w, _, _ in layout]
    plain = {k: getattr(v, "value", v) for k, v in params.items()}
    return dm.lipschitz_penalty_node(weights, _critic_forward(plain, layout, x_tilde))


def _penalty_value(params, layout, x_tilde):
    return float(_penalty(params, layout, x_tilde).value)


def _penalty_grads(params, layout, x_tilde):
    return dm.grad_scalar(lambda leaves: _penalty(leaves, layout, x_tilde), params)


class TestGradPenalty:
    def test_linear_critic_analytic_formula(self):
        w = np.array([[2.0], [1.0], [-2.0]])
        params = dm.ParamStore({"real.W": w, "real.b": np.zeros(1)})
        layout = [("real.W", "real.b", "linear")]
        x = np.zeros((6, 3))
        grads = _penalty_grads(params, layout, x)
        norm = np.linalg.norm(w)
        expected = 2.0 * (norm - 1.0) * w / norm
        np.testing.assert_allclose(grads["real.W"], expected, rtol=1e-12)
        np.testing.assert_allclose(grads["real.b"], np.zeros(1))

    def test_unit_gradient_critic_gives_zero_penalty_and_gradient(self):
        w = np.array([[0.6], [0.8]])  # unit norm
        params = dm.ParamStore({"real.W": w, "real.b": np.zeros(1)})
        layout = [("real.W", "real.b", "linear")]
        x = np.random.default_rng(0).standard_normal((5, 2))
        assert _penalty_value(params, layout, x) < 1e-24
        grads = _penalty_grads(params, layout, x)
        fd = numeric_grad_params(lambda p: _penalty_value(p, layout, x), params)
        for name in params:
            assert rel_err(grads[name], fd[name], floor=1e-3).max() < 1e-4

    def test_mlp_critic_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        params, layout = _critic_store(rng, [6, 8, 5])
        x = rng.standard_normal((4, 6))
        grads = _penalty_grads(params, layout, x)
        fd = numeric_grad_params(lambda p: _penalty_value(p, layout, x), params)
        for name in params:
            assert rel_err(grads[name], fd[name]).max() < 1e-3

        # the composed oracle gives the same penalty and gradients
        def oracle(leaves):
            return penalty_oracle(dm.constant(x), [(leaves[w], leaves[b], act)
                                                   for w, b, act in layout])

        assert _penalty_value(params, layout, x) == oracle(params).value
        for name, g in dm.grad_scalar(oracle, params).items():
            np.testing.assert_allclose(grads[name], g, rtol=1e-12, atol=1e-15)

    def test_degenerate_gradient_substitutes_zero_and_records(self):
        params = dm.ParamStore({"real.W": np.zeros((3, 1)), "real.b": np.zeros(1)})
        layout = [("real.W", "real.b", "linear")]
        reset_events()
        grads = _penalty_grads(params, layout, np.ones((2, 3)))
        np.testing.assert_array_equal(grads["real.W"], np.zeros((3, 1)))
        assert events.counts().get("degenerate_gradient_penalty", 0) >= 1
        reset_events()


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        params = dm.ParamStore({"w": np.array([1.0, -2.0])})
        state = dm.AdamState(params)
        out, state2 = dm.adam_step(params, dm.ParamStore({"w": np.zeros(2)}), state)
        np.testing.assert_array_equal(out["w"], params["w"])
        assert state2.step == 1

    def test_matches_hand_stepped_scalar_trace(self):
        # f(theta) = theta^2 / 2 from theta = 1; gradient is theta
        lr, b1, b2, eps = 0.001, 0.5, 0.9, 1e-8
        theta = 1.0
        m = v = 0.0
        params = dm.ParamStore({"t": np.array([theta])})
        state = dm.AdamState(params)
        for step in range(1, 4):
            g = theta
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)
            params, state = dm.adam_step(params, dm.ParamStore({"t": params["t"]}), state,
                                         lr, b1, b2, eps)
            np.testing.assert_allclose(params["t"], [theta], rtol=1e-12)

    def test_two_steps_deterministic(self):
        rng = np.random.default_rng(5)
        base = dm.ParamStore({"w": rng.standard_normal((3, 2))})
        g = dm.ParamStore({"w": rng.standard_normal((3, 2))})

        def run():
            p, s = dm.adam_step(base, g, dm.AdamState(base))
            p, s = dm.adam_step(p, g, s)
            return p["w"]

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        params = dm.ParamStore({"w": np.ones(3)})
        with pytest.raises(DimensionError):
            dm.adam_step(params, dm.ParamStore({"w": np.ones(4)}), dm.AdamState(params))

    @pytest.mark.parametrize("grads", [
        {"w": np.ones(3), "b": np.ones(2)},          # a plain mapping, not a store
        [("w", np.ones(3)), ("c", np.ones(2))],      # another name
        [("b", np.ones(2)), ("w", np.ones(3))],      # another order
        [("w", np.ones(3))],                         # a missing tensor
        [("w", np.ones((3, 1))), ("b", np.ones(2))],  # the same size, another shape
    ], ids=["mapping", "name", "order", "missing", "rank"])
    def test_gradients_of_another_layout_rejected(self, grads):
        params = dm.ParamStore({"w": np.ones(3), "b": np.zeros(2)})
        if not isinstance(grads, dict):
            grads = dm.ParamStore(grads)
        with pytest.raises(DimensionError):
            dm.adam_step(params, grads, dm.AdamState(params))

    @pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        params = dm.ParamStore({"w": np.ones(2)})
        with pytest.raises(ValidationError, match="lr"):
            dm.adam_step(params, dm.ParamStore({"w": np.ones(2)}), dm.AdamState(params), lr=lr)

    def test_state_increments_by_one(self):
        params = dm.ParamStore({"w": np.ones(2)})
        state = dm.AdamState(params)
        for expected in (1, 2, 3):
            params, state = dm.adam_step(params, dm.ParamStore({"w": np.ones(2)}), state)
            assert state.step == expected


    @staticmethod
    def _mixed_rank_store(rng):
        # the divergence store holds 0-d tensors next to the layers' 1-d and 2-d ones
        return dm.ParamStore({"u_gamma": np.array(0.54), "W": rng.standard_normal((3, 2)),
                              "b": rng.standard_normal(2), "u_beta": np.array(-0.3)})

    def test_output_tensors_are_views_of_one_contiguous_vector(self):
        rng = np.random.default_rng(51)
        params = self._mixed_rank_store(rng)
        grads = dm.ParamStore((k, rng.standard_normal(v.shape)) for k, v in params.items())
        out, state = dm.adam_step(params, grads, dm.AdamState(params))
        assert out.flat.flags.c_contiguous and out.flat.size == params.size() == 10
        offset = 0
        for name in params:
            view = out[name]
            assert view.shape == params[name].shape and view.base is out.flat
            np.testing.assert_array_equal(view.ravel(), out.flat[offset:offset + view.size])
            offset += view.size
        assert state.m.shape == state.v.shape == (10,)

    def test_inputs_are_left_untouched(self):
        rng = np.random.default_rng(52)
        params = self._mixed_rank_store(rng)
        grads = dm.ParamStore((k, rng.standard_normal(v.shape)) for k, v in params.items())
        state = dm.AdamState(params)
        state.m += rng.standard_normal(10)
        state.v += rng.uniform(size=10)
        state.step = 3
        before = (params.flat.copy(), state.m.copy(), state.v.copy(), grads.flat.copy())
        snapshots = {k: v.copy() for k, v in params.items()}
        out, new = dm.adam_step(params, grads, state)
        for a, b in zip(before, (params.flat, state.m, state.v, grads.flat)):
            np.testing.assert_array_equal(a, b)
        assert state.step == 3 and new.step == 4
        for name, value in snapshots.items():
            np.testing.assert_array_equal(params[name], value)
        assert not np.shares_memory(out.flat, params.flat)
        assert not np.shares_memory(new.m, state.m) and not np.shares_memory(new.v, state.v)

    def test_bit_identical_to_the_per_tensor_formula_on_mixed_ranks(self):
        lr, b1, b2, eps = 0.001, 0.5, 0.9, 1e-8
        rng = np.random.default_rng(53)
        params = self._mixed_rank_store(rng)
        state = dm.AdamState(params)
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v2 = {k: np.zeros_like(v) for k, v in ref.items()}
        for t in range(1, 5):
            grads = dm.ParamStore((k, rng.standard_normal(v.shape)) for k, v in ref.items())
            params, state = dm.adam_step(params, grads, state, lr, b1, b2, eps)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v2[k] = b2 * v2[k] + (1.0 - b2) * (g * g)
                ref[k] = ref[k] - lr * (m[k] / (1.0 - b1**t)) / (
                    np.sqrt(v2[k] / (1.0 - b2**t)) + eps)
            for k, value in ref.items():
                assert params[k].shape == value.shape
                np.testing.assert_array_equal(params[k], value)

    def test_state_of_another_store_rejected(self):
        params = dm.ParamStore({"w": np.ones(3)})
        with pytest.raises(DimensionError):
            dm.adam_step(params, dm.ParamStore({"w": np.ones(3)}),
                         dm.AdamState(dm.ParamStore({"w": np.ones(2)})))


class TestMinMaxNode:
    def test_forward_values(self):
        out = dm.minmax_normalize_node(dm.constant([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(out.value, [0.0, 0.5, 1.0])

    def test_constant_batch_maps_to_zero(self):
        out = dm.minmax_normalize_node(dm.constant([3.0, 3.0, 3.0]))
        np.testing.assert_array_equal(out.value, np.zeros(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(6)
        params = dm.ParamStore({"v": v})
        weights = rng.standard_normal(6)

        def build(lv):
            return dm.vsum(dm.mul(dm.minmax_normalize_node(lv["v"]), dm.constant(weights)))

        grads = dm.grad_scalar(build, params)

        def value(p):
            return float((np.asarray(dm.minmax_normalize_node(dm.constant(p["v"])).value) * weights).sum())

        fd = numeric_grad_params(value, params)
        assert rel_err(grads["v"], fd["v"]).max() < 1e-4


class TestParamStore:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            dm.ParamStore([("a", np.ones(1)), ("b", np.ones(2)), ("a", np.ones(1))])

    def test_iteration_order_is_insertion_order(self):
        store = dm.ParamStore((name, np.ones(1)) for name in ("z", "a", "m"))
        assert list(store) == ["z", "a", "m"]


class TestDirectionalChecks:
    """Random-instance agreement between the tape and central differences."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mlp_directional(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 4, size=6)
        params = dm.ParamStore({
            "W1": rng.standard_normal((5, 7)) * 0.5,
            "b1": rng.standard_normal(7) * 0.1,
            "W2": rng.standard_normal((7, 4)) * 0.5,
            "b2": np.zeros(4),
        })
        direction = random_direction(params, rng)
        for loss in (mlp_loss, mlp_loss_fused):
            grads = dm.grad_scalar(lambda lv: loss(lv, x, y), params)
            analytic = sum((grads[k] * direction[k]).sum() for k in params)

            def value(p):
                leaves = {k: dm.constant(v) for k, v in p.items()}
                return float(loss(leaves, x, y).value)

            fd = directional_derivative(value, params, direction)
            assert rel_err(analytic, fd).max() < 1e-4
