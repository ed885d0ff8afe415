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
from .losses import (  # conv_entropy_terms: the benchmark probe calls it from here
    LambdaSchedule,
    LossForm,
    _conv_terms,
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
    backward,
    cross_entropy_loss,
    forward,
    init_weights,
    mse_loss,
)

EVAL_BATCH = 512
ADAM_SLICE = 32768  # elements per Adam slice: 256 KB of float64


@dataclass(frozen=True)
class AdamHyper:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates matching the parameter structure.

    ``adam_step`` advances them in place, so each array must be
    C-contiguous; ``zeros_like`` makes them so.
    """

    m: list
    v: list
    t: int = 0

    @classmethod
    def zeros_like(cls, params: Sequence) -> "AdamState":
        m = [None if p is None else LayerParams(np.zeros(p.w.shape), np.zeros(p.b.shape))
             for p in params]
        v = [None if p is None else LayerParams(np.zeros(p.w.shape), np.zeros(p.b.shape))
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
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 < self.adam.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.adam.lr}")
        if not 0.0 <= self.init_scale < np.inf:
            raise ConfigError(f"init_scale must be finite and >= 0, got {self.init_scale}")
        if self.min_delta is not None and not np.isfinite(self.min_delta):
            raise ConfigError(f"min_delta must be finite, got {self.min_delta}")
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
    """One Adam update with bias correction (Kingma & Ba 2015).

    Returns ``(new_params, state)``: every new parameter is a fresh array,
    and the given ``state`` is advanced in place (its moments ``m`` and
    ``v`` and its step ``t``).  ``params`` and ``grads`` are only read.
    All shapes are checked before any moment changes.  Each flattened
    array is updated in slices of ``ADAM_SLICE`` elements through two
    scratch buffers, so every operand stays in cache, in the operation
    order ``m = β1·m + (1-β1)·g``, ``v = β2·v + ((1-β2)·g)·g`` and
    ``p - (lr·(m/c1)) / (sqrt(v/c2) + eps)``.
    """
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p is None:
            continue
        if g.w.shape != p.w.shape or g.b.shape != p.b.shape:
            raise DimensionError("gradient shape does not match parameters")
        if any(a.shape != ref.shape or not a.flags.c_contiguous
               for a, ref in ((m.w, p.w), (m.b, p.b), (v.w, p.w), (v.b, p.b))):
            raise DimensionError("Adam moments must be C-contiguous and shaped "
                                 "like the parameters")
    state.t += 1
    c1 = 1.0 - hyper.beta1 ** state.t
    c2 = 1.0 - hyper.beta2 ** state.t
    s1, s2 = np.empty(ADAM_SLICE), np.empty(ADAM_SLICE)

    def update(param, grad, m, v):
        new = np.empty(param.shape)
        flat = [x.reshape(-1) for x in (param, grad, m, v, new)]
        for lo in range(0, param.size, ADAM_SLICE):
            p, g, m, v, out = (x[lo : lo + ADAM_SLICE] for x in flat)
            a, b = s1[: g.size], s2[: g.size]
            m *= hyper.beta1
            m += np.multiply(g, 1.0 - hyper.beta1, out=a)
            v *= hyper.beta2
            np.multiply(g, 1.0 - hyper.beta2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, c1, out=a)
            a *= hyper.lr
            np.sqrt(np.divide(v, c2, out=b), out=b)
            b += hyper.eps
            np.subtract(p, np.divide(a, b, out=a), out=out)
        return new

    new_params = [None if p is None else
                  LayerParams(update(p.w, g.w, m.w, v.w), update(p.b, g.b, m.b, v.b))
                  for p, g, m, v in zip(params, grads, state.m, state.v)]
    return new_params, state


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


def _layer_lambdas(spec: NetworkSpec, schedule: LambdaSchedule,
                   layers: Optional[frozenset]) -> tuple[dict, list]:
    """{dense layer: lambda}, and a (filters, channels) array per conv layer.

    Layers are numbered from 1 within each kind.  Lambda is 0 outside
    ``layers`` (None: every layer); out-of-range conv keys are ignored.
    """
    if layers is None:
        layers = range(1, len(spec.layers) + 1)
    dense = {k: schedule.dense_coeff(k) if k in layers else 0.0
             for k in range(1, len(spec.dense_positions()) + 1)}
    conv = []
    for k, pos in enumerate(spec.conv_positions(), start=1):
        lam = np.zeros(spec.layers[pos].weight_shape[:2])
        if k in layers:
            lam[:] = schedule.conv_default
            for (key_k, f, ch), value in schedule.conv_weights.items():
                if key_k == k and 0 <= f < lam.shape[0] and 0 <= ch < lam.shape[1]:
                    lam[f, ch] = value
        conv.append(lam)
    return dense, conv


def _entropy_grad_map(spec: NetworkSpec, weights: Sequence, schedule: LambdaSchedule,
                      form: LossForm, layers: Optional[frozenset] = None):
    """Entropy loss value plus {layer position: weight-grad array}.

    ``layers`` holds the penalised 1-based layer numbers; None means all.
    """
    dense_lams, conv_lams = _layer_lambdas(spec, schedule, layers)
    dense_pos, conv_pos = spec.dense_positions(), spec.conv_positions()
    loss, d_grads = dense_entropy_terms([weights[i].w for i in dense_pos],
                                        LambdaSchedule(dense_weights=dense_lams), form)
    grad_map = {pos: g for pos, g in zip(dense_pos, d_grads) if np.any(g)}
    if conv_pos:
        corners = np.concatenate([weights[i].w[:, :, 0, 0].ravel() for i in conv_pos])
        lams = np.concatenate([lam.ravel() for lam in conv_lams])
        c_loss, c_grad = _conv_terms(corners, lams, form, with_grad=True)
        loss += c_loss
        lo = 0
        for pos, lam in zip(conv_pos, conv_lams):
            g, lo = c_grad[lo : lo + lam.size].reshape(lam.shape), lo + lam.size
            if np.any(g):
                grad_map[pos] = np.zeros_like(weights[pos].w)
                grad_map[pos][:, :, 0, 0] = g + 0.0  # stores -0.0 as +0.0
    return loss, grad_map


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

    layers = config.entropy_loss_layers
    dense_lams, conv_lams = _layer_lambdas(spec, config.schedule, layers)
    entropy_active = any(dense_lams.values()) or any(lam.any() for lam in conv_lams)

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
                ent_loss, ent_grads = _entropy_grad_map(spec, weights, config.schedule,
                                                        config.form, layers)
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
