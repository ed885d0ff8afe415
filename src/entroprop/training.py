"""Training loops: Adam, early stopping, and the two experiment tasks.

A run is fully determined by its seed: initialization and epoch
shuffling draw from independent seeded generators, batches are visited
in a fixed order, and evaluation batching is fixed, so repeated runs
are bitwise identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError
from .losses import (
    LambdaSchedule,
    LossForm,
    conv_entropy_terms,
    dense_entropy_terms,
)
from .nets import (
    Activation,
    Conv2D,
    Dense,
    LayerParams,
    MaxPool2,
    NetworkSpec,
    accuracy,
    backward,
    cross_entropy_loss,
    forward,
    init_weights,
    mse_loss,
)

EVAL_BATCH = 512


@dataclass(frozen=True)
class AdamHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates matching the parameter structure."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def zeros_like(cls, params: Sequence) -> "AdamState":
        m = [None if p is None else LayerParams(np.zeros_like(p.w), np.zeros_like(p.b))
             for p in params]
        v = [None if p is None else LayerParams(np.zeros_like(p.w), np.zeros_like(p.b))
             for p in params]
        return cls(m, v, 0)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a single training run.

    ``min_delta`` defaults per task when left as None: 1e-5 for MSE
    validation, 0 for accuracy.  ``entropy_loss_layers`` holds 1-based
    layer numbers (dense numbering for autoencoders, conv numbering for
    CNNs); the schedule's coefficients apply only on those layers.
    """

    base_loss: str = "mse"
    schedule: LambdaSchedule = field(default_factory=LambdaSchedule)
    form: LossForm = field(default_factory=LossForm)
    entropy_loss_layers: frozenset = frozenset()
    adam: AdamHyper = field(default_factory=AdamHyper)
    batch_size: int = 128
    max_epochs: int = 50
    patience: int = 7
    min_delta: Optional[float] = None
    seed: int = 0
    init_scale: float = 1.0

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.adam.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.base_loss not in ("mse", "cross_entropy"):
            raise ConfigError(f"unknown base loss {self.base_loss!r}")


@dataclass
class RunResult:
    """Per-epoch traces and final state of one training run."""

    train_loss: tuple
    val_metric: tuple
    stopping_epoch: int
    weights: list
    wall_seconds: float
    seed: int


def adam_step(params: Sequence, grads: Sequence, state: AdamState,
              hyper: AdamHyper) -> tuple[list, AdamState]:
    """One Adam update with bias correction; purely functional."""
    t = state.t + 1
    c1 = 1.0 - hyper.beta1 ** t
    c2 = 1.0 - hyper.beta2 ** t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p is None:
            new_params.append(None)
            new_m.append(None)
            new_v.append(None)
            continue
        if g.w.shape != p.w.shape or g.b.shape != p.b.shape:
            raise DimensionError("gradient shape does not match parameters")
        mw = hyper.beta1 * m.w + (1.0 - hyper.beta1) * g.w
        mb = hyper.beta1 * m.b + (1.0 - hyper.beta1) * g.b
        vw = hyper.beta2 * v.w + (1.0 - hyper.beta2) * g.w * g.w
        vb = hyper.beta2 * v.b + (1.0 - hyper.beta2) * g.b * g.b
        new_w = p.w - hyper.lr * (mw / c1) / (np.sqrt(vw / c2) + hyper.eps)
        new_b = p.b - hyper.lr * (mb / c1) / (np.sqrt(vb / c2) + hyper.eps)
        new_params.append(LayerParams(new_w, new_b))
        new_m.append(LayerParams(mw, mb))
        new_v.append(LayerParams(vw, vb))
    return new_params, AdamState(new_m, new_v, t)


def early_stop_check(trace: Sequence[float], patience: int, min_delta: float,
                     mode: str) -> bool:
    """True when the best value has gone unimproved for `patience` epochs.

    ``mode`` is "min" (losses) or "max" (accuracies).  An epoch improves
    when it beats the best seen so far by at least ``min_delta`` and by
    a strictly positive amount, so plateaus stop even at min_delta 0.
    """
    if len(trace) == 0:
        raise ConfigError("trace must be nonempty")
    if mode not in ("min", "max"):
        raise ConfigError(f"unknown mode {mode!r}")
    best = trace[0]
    wait = 0
    for v in trace[1:]:
        delta = (best - v) if mode == "min" else (v - best)
        if delta > 0 and delta >= min_delta:
            best = v
            wait = 0
        else:
            wait += 1
    return wait >= patience


def _effective_schedule(config: TrainConfig, n_dense: int,
                        conv_shapes: Sequence[tuple[int, int]]) -> LambdaSchedule:
    """Schedule with coefficients zeroed outside `entropy_loss_layers`."""
    active = config.entropy_loss_layers
    sched = config.schedule
    dense_weights = {
        layer: (sched.dense_coeff(layer) if layer in active else 0.0)
        for layer in range(1, n_dense + 1)
    }
    conv_weights = {}
    for layer, (n_filters, n_channels) in enumerate(conv_shapes, start=1):
        for f in range(n_filters):
            for ch in range(n_channels):
                conv_weights[(layer, f, ch)] = (
                    sched.conv_coeff(layer, f, ch) if layer in active else 0.0
                )
    return LambdaSchedule(0.0, 0.0, dense_weights, conv_weights)


def _entropy_grad_map(spec: NetworkSpec, weights: Sequence,
                      schedule: LambdaSchedule, form: LossForm):
    """Entropy loss value plus {layer position: weight-grad array}."""
    dense_pos = spec.dense_positions()
    conv_pos = spec.conv_positions()
    dense_mats = [weights[i].w for i in dense_pos]
    filters = {}
    for layer, pos in enumerate(conv_pos, start=1):
        kernel = weights[pos].w
        for f in range(kernel.shape[0]):
            for ch in range(kernel.shape[1]):
                filters[(layer, f, ch)] = kernel[f, ch]
    loss = 0.0
    grad_map = {}
    if dense_mats:
        d_loss, d_grads = dense_entropy_terms(dense_mats, schedule, form)
        loss += d_loss
        for pos, g in zip(dense_pos, d_grads):
            if np.any(g):
                grad_map[pos] = g
    if filters:
        c_loss, c_grads = conv_entropy_terms(filters, schedule, form)
        loss += c_loss
        for layer, pos in enumerate(conv_pos, start=1):
            kernel = weights[pos].w
            acc = np.zeros_like(kernel)
            hot = False
            for f in range(kernel.shape[0]):
                for ch in range(kernel.shape[1]):
                    g = c_grads[(layer, f, ch)]
                    if g[0, 0] != 0.0:
                        acc[f, ch, 0, 0] = g[0, 0]
                        hot = True
            if hot:
                grad_map[pos] = acc
    return loss, grad_map


def _schedule_is_zero(schedule: LambdaSchedule) -> bool:
    return (
        schedule.dense_default == 0.0
        and schedule.conv_default == 0.0
        and all(v == 0.0 for v in schedule.dense_weights.values())
        and all(v == 0.0 for v in schedule.conv_weights.values())
    )


def _eval_mse(spec, weights, x):
    sse = 0.0
    for lo in range(0, x.shape[0], EVAL_BATCH):
        batch = x[lo : lo + EVAL_BATCH]
        _, out = forward(spec, weights, batch)
        sse += float(np.sum((out - batch.reshape(out.shape)) ** 2))
    return sse / x.size


def _eval_accuracy(spec, weights, x, labels):
    correct = 0
    for lo in range(0, x.shape[0], EVAL_BATCH):
        _, out = forward(spec, weights, x[lo : lo + EVAL_BATCH])
        correct += int(np.sum(np.argmax(out, axis=1) == labels[lo : lo + EVAL_BATCH]))
    return correct / x.shape[0]


def _run(spec: NetworkSpec, config: TrainConfig, train_x, train_y, evaluate,
         mode: str, min_delta: float, batch_loss) -> RunResult:
    """Shared epoch loop used by both tasks."""
    start = time.perf_counter()
    rng_init = np.random.default_rng([config.seed, 0])
    rng_shuffle = np.random.default_rng([config.seed, 1])
    weights = init_weights(spec, rng_init, config.init_scale)
    state = AdamState.zeros_like(weights)

    n_dense = len(spec.dense_positions())
    conv_shapes = [
        (spec.layers[i].filters, spec.layers[i].in_channels)
        for i in spec.conv_positions()
    ]
    schedule = _effective_schedule(config, n_dense, conv_shapes)
    entropy_active = not _schedule_is_zero(schedule)

    n = train_x.shape[0]
    train_trace, val_trace = [], []
    for _epoch in range(config.max_epochs):
        perm = rng_shuffle.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            x = train_x[idx]
            y = None if train_y is None else train_y[idx]
            cache, out = forward(spec, weights, x)
            base, out_grad = batch_loss(out, x, y)
            if entropy_active:
                ent_loss, ent_grads = _entropy_grad_map(spec, weights, schedule,
                                                        config.form)
            else:
                ent_loss, ent_grads = 0.0, None
            grads = backward(spec, weights, cache, out_grad, ent_grads)
            weights, state = adam_step(weights, grads, state, config.adam)
            epoch_loss += base + ent_loss
            n_batches += 1
        train_trace.append(epoch_loss / n_batches)
        val_trace.append(evaluate(weights))
        if early_stop_check(val_trace, config.patience, min_delta, mode):
            break
    return RunResult(
        tuple(train_trace), tuple(val_trace), len(val_trace), weights,
        time.perf_counter() - start, config.seed,
    )


def autoencoder_spec(input_dim: int, latent_dim: int) -> NetworkSpec:
    """dense(in -> latent), sigmoid, dense(latent -> in)."""
    if latent_dim < 1:
        raise ConfigError("latent dim must be >= 1")
    return NetworkSpec((
        Dense(input_dim, latent_dim),
        Activation("sigmoid"),
        Dense(latent_dim, input_dim),
    ))


def cnn_spec(in_channels: int, input_h: int, input_w: int,
             widths: Sequence[int], n_classes: int = 10) -> NetworkSpec:
    """Conv(3x3)+leaky-ReLU+2x2-pool blocks, then a softmax classifier."""
    layers = []
    c, h, w = in_channels, input_h, input_w
    for width in widths:
        layers += [Conv2D(width, c, 3, 3), Activation("leaky_relu"), MaxPool2()]
        c, h, w = width, (h - 2) // 2, (w - 2) // 2
        if h < 1 or w < 1:
            raise ConfigError("input too small for the requested depth")
    layers += [Dense(c * h * w, n_classes), Activation("softmax")]
    return NetworkSpec(tuple(layers))


def train_autoencoder(config: TrainConfig, train_x: np.ndarray,
                      val_x: np.ndarray, latent_dim: int) -> RunResult:
    """Reconstruction training with MSE and optional dense entropy loss.

    ``train_x`` / ``val_x`` are flattened images in [0, 1].  Early
    stopping watches validation MSE with min_delta 1e-5 unless the
    config overrides it.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    spec = autoencoder_spec(train_x.shape[1], latent_dim)
    min_delta = 1e-5 if config.min_delta is None else config.min_delta

    def batch_loss(out, x, _y):
        return mse_loss(out, x)

    return _run(spec, config, train_x, None,
                lambda ws: _eval_mse(spec, ws, val_x), "min", min_delta,
                batch_loss)


def train_cnn(config: TrainConfig, train_images: np.ndarray,
              train_labels: np.ndarray, val_images: np.ndarray,
              val_labels: np.ndarray, widths: Sequence[int],
              n_classes: int = 10) -> RunResult:
    """Classification training with cross-entropy and conv entropy loss.

    Images are (n, c, h, w) in [0, 1] with integer labels.  Early
    stopping watches validation accuracy with min_delta 0 unless the
    config overrides it.
    """
    train_images = np.asarray(train_images, dtype=np.float64)
    val_images = np.asarray(val_images, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    val_labels = np.asarray(val_labels)
    _, c, h, w = train_images.shape
    spec = cnn_spec(c, h, w, widths, n_classes)
    min_delta = 0.0 if config.min_delta is None else config.min_delta

    def batch_loss(out, _x, y):
        return cross_entropy_loss(out, y)

    return _run(spec, config, train_images, train_labels,
                lambda ws: _eval_accuracy(spec, ws, val_images, val_labels),
                "max", min_delta, batch_loss)


def untrained_accuracy(config: TrainConfig, images: np.ndarray,
                       labels: np.ndarray, widths: Sequence[int],
                       n_classes: int = 10) -> float:
    """Validation accuracy of a freshly initialized CNN (no training)."""
    images = np.asarray(images, dtype=np.float64)
    _, c, h, w = images.shape
    spec = cnn_spec(c, h, w, widths, n_classes)
    rng = np.random.default_rng([config.seed, 0])
    weights = init_weights(spec, rng, config.init_scale)
    return _eval_accuracy(spec, weights, images, np.asarray(labels))
