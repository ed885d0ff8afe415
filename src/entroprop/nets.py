"""Minimal deterministic feed-forward networks with hand-coded backprop.

Layers are declarative dataclasses; weights live in plain numpy arrays.
Supported pieces are exactly what the experiments need: dense layers,
valid 2-d convolutions, 2x2 max pooling, sigmoid / leaky-ReLU / softmax
activations, and MSE / cross-entropy base losses.  Everything is
float64 and bitwise deterministic for a fixed seed.

Each layer kind is defined in one place, its class, through four members
that `forward`, `backward`, `init_weights`, the entropy profiler and the
weight dump use without asking which kind they hold (the profiler asks
only to pick the dense or the conv identity):

- ``weight_shape``: ``(out, in)`` for dense, ``(f, c, p, q)`` for conv,
  ``None`` for a layer without weights;
- ``out_hw(idx, h, w)``: the spatial size after the layer, raising
  :class:`DimensionError` when the layer cannot apply to an h x w input;
- ``forward(idx, x, params, entry)``: the layer output, storing in the
  cache dict ``entry`` whatever backprop needs;
- ``backward(g, params, entry, need_input_grad=True)``: ``(input
  gradient, LayerParams of the weight and bias gradients, or None)``.
  With ``need_input_grad`` False a layer may return None as the input
  gradient; `backward` passes False for layer 0, whose input gradient
  nothing reads.

A new layer kind is added by writing one such class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError

LEAKY_SLOPE = 0.01

ACTIVATION_KINDS = ("sigmoid", "leaky_relu", "softmax")


@dataclass
class LayerParams:
    """Trainable arrays of one layer; `w` has its layer's `weight_shape`."""

    w: np.ndarray
    b: np.ndarray

    def copy(self) -> "LayerParams":
        return LayerParams(self.w.copy(), self.b.copy())


def _conv_cols(x: np.ndarray, p: int, q: int) -> np.ndarray:
    """im2col: (B,C,H,W) -> (B*oh*ow, C*p*q) patch matrix."""
    b, c, h, w = x.shape
    oh, ow = h - p + 1, w - q + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (p, q), axis=(2, 3))
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, c * p * q)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, so exp never overflows."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))  # exp(-|z|), keeping the sign of a NaN
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class Dense:
    """Fully connected layer; flattens a 4-d input."""

    in_dim: int
    out_dim: int

    @property
    def weight_shape(self) -> tuple:
        return (self.out_dim, self.in_dim)

    def out_hw(self, idx: int, h: int, w: int) -> tuple[int, int]:
        """Unchanged: the profiler reports a dense layer at the dims reaching it."""
        return h, w

    def forward(self, idx, x, params, entry):
        if x.ndim == 4:
            x = x.reshape(x.shape[0], -1)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"layer {idx}: expected {self.in_dim} features, got {x.shape}"
            )
        entry["x"] = x
        z = x @ params.w.T
        z += params.b
        return z

    def backward(self, g, params, entry, need_input_grad=True):
        x = entry["x"]
        gw = g.T @ x
        gb = g.sum(axis=0)
        if not need_input_grad:
            return None, LayerParams(gw, gb)
        g = g @ params.w
        if len(entry["input_shape"]) == 4:
            g = g.reshape(entry["input_shape"])
        return g, LayerParams(gw, gb)


@dataclass(frozen=True)
class Conv2D:
    """Valid 2-d convolution of `in_channels` maps with `filters` kernels."""

    filters: int
    in_channels: int
    height: int
    width: int

    @property
    def weight_shape(self) -> tuple:
        return (self.filters, self.in_channels, self.height, self.width)

    def out_hw(self, idx: int, h: int, w: int) -> tuple[int, int]:
        if self.height > h or self.width > w:
            raise DimensionError(
                f"layer {idx}: filter {self.height}x{self.width} "
                f"larger than input {h}x{w}"
            )
        return h - self.height + 1, w - self.width + 1

    def forward(self, idx, x, params, entry):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise DimensionError(
                f"layer {idx}: expected (B,{self.in_channels},H,W), got {x.shape}"
            )
        oh, ow = self.out_hw(idx, x.shape[2], x.shape[3])
        cols = _conv_cols(x, self.height, self.width)
        entry["cols"] = cols
        z = cols @ params.w.reshape(self.filters, -1).T + params.b
        return z.reshape(x.shape[0], oh, ow, self.filters).transpose(0, 3, 1, 2)

    def backward(self, g, params, entry, need_input_grad=True):
        # need_input_grad is ignored, so layer 0 still computes the input
        # gradient nobody reads.  Skipping it would more than halve a CNN
        # batch, and more cnn-train rounds would meet the benchmark's
        # central-difference check at kinks more often; that check is to be
        # fixed first (ROADMAP items 1 and 3).
        b, c, h, w = entry["input_shape"]
        p, q = self.height, self.width
        oh, ow = h - p + 1, w - q + 1
        dz = g.transpose(0, 2, 3, 1).reshape(b * oh * ow, self.filters)
        gw = (dz.T @ entry["cols"]).reshape(self.filters, c, p, q)
        gb = dz.sum(axis=0)
        dzp = np.zeros((b, self.filters, oh + 2 * (p - 1), ow + 2 * (q - 1)))
        dzp[:, :, p - 1 : p - 1 + oh, q - 1 : q - 1 + ow] = g
        cols2 = _conv_cols(dzp, p, q)
        kernel_fl = params.w[:, :, ::-1, ::-1].transpose(0, 2, 3, 1)
        g = (cols2 @ kernel_fl.reshape(self.filters * p * q, c)).reshape(
            b, h, w, c
        ).transpose(0, 3, 1, 2)
        return g, LayerParams(gw, gb)


@dataclass(frozen=True)
class MaxPool2:
    """2x2 max pooling with stride 2; an odd last row or column is dropped."""

    weight_shape = None

    def out_hw(self, idx: int, h: int, w: int) -> tuple[int, int]:
        if h // 2 == 0 or w // 2 == 0:
            raise DimensionError(f"layer {idx}: input {h}x{w} too small to pool")
        return h // 2, w // 2

    def forward(self, idx, x, params, entry):
        if x.ndim != 4:
            raise DimensionError(f"layer {idx}: pooling expects 4-d input")
        b, c, h, w = x.shape
        h2, w2 = self.out_hw(idx, h, w)
        blocks = (
            x[:, :, : 2 * h2, : 2 * w2]
            .reshape(b, c, h2, 2, w2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, h2, w2, 4)
        )
        arg = np.argmax(blocks, axis=4)
        entry["arg"] = arg
        return np.take_along_axis(blocks, arg[..., None], axis=4)[..., 0]

    def backward(self, g, params, entry, need_input_grad=True):
        # Without weights, the input gradient is all there is to compute.
        b, c, h, w = entry["input_shape"]
        h2, w2 = h // 2, w // 2
        blocks = np.zeros((b, c, h2, w2, 4))
        np.put_along_axis(blocks, entry["arg"][..., None], g[..., None], axis=4)
        gx = np.zeros((b, c, h, w))
        gx[:, :, : 2 * h2, : 2 * w2] = (
            blocks.reshape(b, c, h2, w2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, 2 * h2, 2 * w2)
        )
        return gx, None


@dataclass(frozen=True)
class Activation:
    """Elementwise sigmoid or leaky-ReLU, or a softmax over the last axis."""

    kind: str

    weight_shape = None

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")

    def out_hw(self, idx: int, h: int, w: int) -> tuple[int, int]:
        return h, w

    def forward(self, idx, x, params, entry):
        if self.kind == "sigmoid":
            x = sigmoid(x)
            entry["out"] = x
        elif self.kind == "leaky_relu":
            entry["z"] = x
            x = np.where(x > 0, x, LEAKY_SLOPE * x)
        else:  # softmax
            if x.ndim != 2:
                raise DimensionError(f"layer {idx}: softmax expects 2-d input")
            x = softmax(x)
            entry["out"] = x
        return x

    def backward(self, g, params, entry, need_input_grad=True):
        # Without weights, the input gradient is all there is to compute.
        if self.kind == "sigmoid":
            s = entry["out"]
            return g * s * (1.0 - s), None
        if self.kind == "leaky_relu":
            return g * np.where(entry["z"] > 0, 1.0, LEAKY_SLOPE), None
        p = entry["out"]  # softmax
        return p * (g - (g * p).sum(axis=-1, keepdims=True)), None


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer list; dense layers auto-flatten 4-d inputs."""

    layers: tuple

    def conv_positions(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if isinstance(l, Conv2D)]

    def dense_positions(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if isinstance(l, Dense)]


def init_weights(spec: NetworkSpec, rng: np.random.Generator,
                 scale: float = 1.0) -> list[Optional[LayerParams]]:
    """Fan-based uniform (Glorot) initialization, zero biases.

    `scale` multiplies the standard limit sqrt(6 / (fan_in + fan_out)),
    with fan_in = prod(shape[1:]) and fan_out = shape[0] * prod(shape[2:])
    of the layer's weight shape.
    """
    params: list[Optional[LayerParams]] = []
    for layer in spec.layers:
        shape = layer.weight_shape
        if shape is None:
            params.append(None)
            continue
        fan_in = math.prod(shape[1:])
        fan_out = shape[0] * math.prod(shape[2:])
        limit = scale * np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=shape)
        params.append(LayerParams(w, np.zeros(shape[0])))
    return params


def forward(spec: NetworkSpec, weights: Sequence, x: np.ndarray):
    """Evaluate the network on a batch.

    Returns ``(cache, out)``; the cache stores whatever backprop needs
    (layer inputs, pre-activations, pooling argmaxes, flatten shapes).
    """
    cache = []
    for idx, (layer, params) in enumerate(zip(spec.layers, weights)):
        entry = {"input_shape": x.shape}
        x = layer.forward(idx, x, params, entry)
        cache.append(entry)
    return cache, x


def backward(spec: NetworkSpec, weights: Sequence, cache: Sequence,
             out_grad: np.ndarray, entropy_grads: Optional[dict] = None):
    """Gradients of a scalar loss w.r.t. every parameter.

    ``out_grad`` is dLoss/d(network output).  ``entropy_grads`` maps a
    layer position to an array added to that layer's weight gradient,
    which is how the additive entropy loss terms enter the chain.  Layer 0
    is called with ``need_input_grad=False``: nothing reads its input
    gradient.
    """
    if len(cache) != len(spec.layers):
        raise DimensionError("cache does not match network spec")
    grads: list[Optional[LayerParams]] = [None] * len(spec.layers)
    g = out_grad
    for idx in range(len(spec.layers) - 1, -1, -1):
        g, grads[idx] = spec.layers[idx].backward(g, weights[idx], cache[idx],
                                                  need_input_grad=idx > 0)
    if entropy_grads:
        for idx, extra in entropy_grads.items():
            if grads[idx] is None:
                raise DimensionError(f"layer {idx} has no trainable weights")
            grads[idx].w += extra
    return grads


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements and its gradient."""
    if pred.shape != target.shape:
        raise DimensionError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    diff *= 2.0
    diff /= diff.size
    return loss, diff


def cross_entropy_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer labels and its gradient."""
    n = probs.shape[0]
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {n}")
    p_true = np.maximum(probs[np.arange(n), labels], 1e-300)
    grad = np.zeros_like(probs)
    grad[np.arange(n), labels] = -1.0 / (p_true * n)
    return float(-np.mean(np.log(p_true))), grad
