"""Forward/backward correctness for the from-scratch network stack."""

import numpy as np
import pytest

from entroprop.errors import DimensionError
from entroprop.nets import (
    Activation,
    Conv2D,
    Dense,
    LayerParams,
    MaxPool2,
    NetworkSpec,
    backward,
    cross_entropy_loss,
    forward,
    init_weights,
    mse_loss,
    sigmoid,
    softmax,
)

LEAK = 0.01


def flatten_params(weights):
    parts = []
    for p in weights:
        if p is not None:
            parts.append(p.w.ravel())
            parts.append(p.b.ravel())
    return np.concatenate(parts)


def unflatten_params(flat, weights):
    out = []
    pos = 0
    for p in weights:
        if p is None:
            out.append(None)
            continue
        w = flat[pos : pos + p.w.size].reshape(p.w.shape)
        pos += p.w.size
        b = flat[pos : pos + p.b.size].reshape(p.b.shape)
        pos += p.b.size
        out.append(LayerParams(w.copy(), b.copy()))
    return out


class TestForward:
    def test_zero_weights_sigmoid_head(self):
        spec = NetworkSpec((Dense(4, 3), Activation("sigmoid")))
        weights = [LayerParams(np.zeros((3, 4)), np.zeros(3)), None]
        _, out = forward(spec, weights, np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_array_equal(out, np.full((5, 3), 0.5))

    def test_identity_dense_layer(self):
        spec = NetworkSpec((Dense(4, 4),))
        weights = [LayerParams(np.eye(4), np.zeros(4))]
        x = np.random.default_rng(1).normal(size=(6, 4))
        _, out = forward(spec, weights, x)
        np.testing.assert_array_equal(out, x)

    def test_two_layer_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        spec = NetworkSpec((Dense(5, 4), Activation("sigmoid"), Dense(4, 3)))
        weights = init_weights(spec, rng)
        x = rng.normal(size=(7, 5))
        _, out = forward(spec, weights, x)
        expected = np.zeros((7, 3))
        for n in range(7):
            h = np.zeros(4)
            for i in range(4):
                z = weights[0].b[i]
                for j in range(5):
                    z += weights[0].w[i, j] * x[n, j]
                h[i] = 1.0 / (1.0 + np.exp(-z))
            for k in range(3):
                z = weights[2].b[k]
                for i in range(4):
                    z += weights[2].w[k, i] * h[i]
                expected[n, k] = z
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_conv_block_against_primitive_ops(self):
        from entroprop.tensor_ops import conv2d, maxpool2

        rng = np.random.default_rng(3)
        spec = NetworkSpec((Conv2D(2, 1, 3, 3), MaxPool2()))
        weights = init_weights(spec, rng)
        x = rng.normal(size=(2, 1, 7, 7))
        _, out = forward(spec, weights, x)
        for b in range(2):
            for f in range(2):
                z = conv2d(x[b, 0], weights[0].w[f, 0]) + weights[0].b[f]
                pooled, _ = maxpool2(z)
                np.testing.assert_allclose(out[b, f], pooled, atol=1e-12)

    def test_softmax_outputs_sum_to_one(self):
        rng = np.random.default_rng(4)
        spec = NetworkSpec((Dense(6, 10), Activation("softmax")))
        weights = init_weights(spec, rng)
        _, out = forward(spec, weights, rng.normal(size=(9, 6)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(9), atol=1e-12)
        assert np.all(out >= 0)

    def test_shape_mismatch_raises(self):
        spec = NetworkSpec((Dense(4, 3),))
        weights = [LayerParams(np.zeros((3, 4)), np.zeros(3))]
        with pytest.raises(DimensionError):
            forward(spec, weights, np.zeros((2, 5)))


class TestBackward:
    def fd_check(self, spec, weights, x, loss_of_out, out_grad_of_out, rtol=1e-4):
        cache, out = forward(spec, weights, x)
        grads = backward(spec, weights, cache, out_grad_of_out(out))
        flat = flatten_params(weights)
        analytic = flatten_params([g if g is not None else None for g in grads])
        fd = np.zeros_like(flat)
        step = 1e-6
        for i in range(flat.size):
            for s, sign in ((step, 1.0), (-step, -1.0)):
                trial = flat.copy()
                trial[i] += s
                _, o = forward(spec, unflatten_params(trial, weights), x)
                fd[i] += sign * loss_of_out(o)
            fd[i] /= 2 * step
        scale = np.maximum(np.abs(fd), 1e-4)
        assert np.max(np.abs(analytic - fd) / scale) < rtol

    def test_mse_through_dense_sigmoid_net(self):
        rng = np.random.default_rng(5)
        spec = NetworkSpec((Dense(6, 4), Activation("sigmoid"), Dense(4, 6)))
        weights = init_weights(spec, rng)
        x = rng.normal(size=(3, 6))
        target = rng.uniform(size=(3, 6))
        self.fd_check(
            spec, weights, x,
            lambda o: mse_loss(o, target)[0],
            lambda o: mse_loss(o, target)[1],
        )

    def test_cross_entropy_through_cnn(self):
        rng = np.random.default_rng(6)
        spec = NetworkSpec((
            Conv2D(2, 1, 2, 2), Activation("leaky_relu"), MaxPool2(),
            Dense(2 * 3 * 3, 4), Activation("softmax"),
        ))
        weights = init_weights(spec, rng)
        x = rng.uniform(size=(3, 1, 8, 8))
        labels = np.array([0, 2, 3])
        self.fd_check(
            spec, weights, x,
            lambda o: cross_entropy_loss(o, labels)[0],
            lambda o: cross_entropy_loss(o, labels)[1],
        )

    def test_leaky_relu_scales_negative_side_exactly(self):
        spec = NetworkSpec((Dense(1, 1), Activation("leaky_relu"), Dense(1, 1)))
        weights = [
            LayerParams(np.array([[1.0]]), np.array([-5.0])),  # forces z < 0
            None,
            LayerParams(np.array([[1.0]]), np.array([0.0])),
        ]
        x = np.array([[1.0]])
        cache, out = forward(spec, weights, x)
        grads = backward(spec, weights, cache, np.ones_like(out))
        # d out / d w2 path carries slope through the negative pre-activation
        assert grads[0].w[0, 0] == LEAK * 1.0 * weights[2].w[0, 0]

    def test_entropy_grads_added_on_requested_layer(self):
        rng = np.random.default_rng(7)
        spec = NetworkSpec((Dense(3, 3),))
        weights = init_weights(spec, rng)
        x = rng.normal(size=(2, 3))
        cache, out = forward(spec, weights, x)
        g0 = backward(spec, weights, cache, np.ones_like(out))
        extra = rng.normal(size=(3, 3))
        g1 = backward(spec, weights, cache, np.ones_like(out), {0: extra})
        np.testing.assert_allclose(g1[0].w, g0[0].w + extra, atol=1e-15)
        np.testing.assert_array_equal(g1[0].b, g0[0].b)

    def test_cache_mismatch_raises(self):
        spec = NetworkSpec((Dense(3, 3),))
        weights = init_weights(spec, np.random.default_rng(8))
        with pytest.raises(DimensionError):
            backward(spec, weights, [], np.zeros((2, 3)))


class TestLayerProtocol:
    @pytest.mark.parametrize("layer, weight_shape, x_shape", [
        (Dense(12, 5), (5, 12), (2, 3, 2, 2)),
        (Conv2D(4, 3, 3, 2), (4, 3, 3, 2), (2, 3, 7, 6)),
        (MaxPool2(), None, (2, 3, 7, 6)),
        (Activation("leaky_relu"), None, (2, 3, 7, 6)),
        (Activation("sigmoid"), None, (2, 5)),
        (Activation("softmax"), None, (2, 5)),
    ])
    def test_shapes_agree(self, layer, weight_shape, x_shape):
        rng = np.random.default_rng(12)
        spec = NetworkSpec((layer,))
        weights = init_weights(spec, rng)
        assert layer.weight_shape == weight_shape
        if weight_shape is None:
            assert weights == [None]
        else:
            w = weights[0].w
            assert w.shape == weight_shape
            assert weights[0].b.shape == (weight_shape[0],)
            fan_in = int(np.prod(weight_shape[1:]))
            fan_out = weight_shape[0] * int(np.prod(weight_shape[2:]))
            assert np.abs(w).max() <= np.sqrt(6.0 / (fan_in + fan_out))
        x = rng.normal(size=x_shape)
        cache, out = forward(spec, weights, x)
        if out.ndim == 4:
            assert out.shape[2:] == layer.out_hw(0, *x_shape[2:])
        g, grad = layer.backward(np.ones_like(out), weights[0], cache[0])
        assert g.shape == x_shape
        assert (grad is None) == (weight_shape is None)

    @pytest.mark.parametrize("layer, h, w", [
        (Conv2D(1, 1, 3, 3), 2, 5),
        (Conv2D(1, 1, 3, 3), 5, 2),
        (MaxPool2(), 1, 4),
        (MaxPool2(), 4, 1),
    ])
    def test_out_hw_rejects_small_inputs(self, layer, h, w):
        with pytest.raises(DimensionError):
            layer.out_hw(0, h, w)
        spec = NetworkSpec((layer,))
        weights = init_weights(spec, np.random.default_rng(13))
        with pytest.raises(DimensionError):
            forward(spec, weights, np.zeros((1, 1, h, w)))

class TestHeads:
    def test_mse_value_and_grad_shape(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.zeros((2, 2))
        val, grad = mse_loss(pred, target)
        assert val == pytest.approx(30.0 / 4)
        np.testing.assert_allclose(grad, pred / 2)

    def test_cross_entropy_nonnegative(self):
        rng = np.random.default_rng(9)
        probs = softmax(rng.normal(size=(20, 10)))
        labels = rng.integers(0, 10, size=20)
        val, _ = cross_entropy_loss(probs, labels)
        assert val >= 0

    def test_sigmoid_extremes_are_stable(self):
        out = sigmoid(np.array([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)
