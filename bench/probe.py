"""Reference calls that give every per-layer metric a measured value.

A traced run first traces the workload's own rounds.  It then runs these
probes under a second tracer.  The nets metrics always come from here:
each layer kind's public forward/backward on a one-layer NetworkSpec.
Any other metric the workload's rounds never reached (training phases
on identities, the CLI on the training workloads) is taken from small
fixed calls below.  The README lists which metrics each workload takes
from its own rounds.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from entroprop import datasets, training
from entroprop.losses import LambdaSchedule, LossForm
from entroprop.nets import (Activation, Conv2D, Dense, MaxPool2, NetworkSpec,
                            backward, forward, init_weights)

import inputs
from workloads import Identities, run_cli

BATCH = 128
# Reference shapes: ae-sweep's dense and sigmoid layers, cnn-train's conv
# block and classifier output.  A workload overrides the kinds it runs.
REFERENCE_SHAPES = {
    "dense": (784, 180),
    "sigmoid": (180,),
    "conv2d": (3, 32, 32),          # channels, h, w; 32 filters of 3x3
    "maxpool2": (32, 30, 30),
    "leaky_relu": (32, 30, 30),
    "softmax": (10,),
}
CONV_FILTERS = 32
REPS = {"conv2d": 3}                # conv backward is ~0.35 s per call
DEFAULT_REPS = 5
PROBE_ORACLE_CASES = 25


def _layer(kind: str, shape: tuple):
    if kind == "dense":
        return Dense(shape[0], shape[1]), (BATCH, shape[0])
    if kind == "conv2d":
        return Conv2D(CONV_FILTERS, shape[0], 3, 3), (BATCH, *shape)
    if kind == "maxpool2":
        return MaxPool2(), (BATCH, *shape)
    return Activation(kind), (BATCH, *shape)


def conv_flops(shape: tuple) -> float:
    """Forward, weight-gradient and input-gradient flops of nets' im2col conv.

    Computed from the shapes (2 flops per multiply-add), not counted.
    """
    c, h, w = shape
    oh, ow = h - 2, w - 2
    per_output = 2.0 * CONV_FILTERS * c * 9
    # The input gradient is a full convolution over the padded output grad.
    return BATCH * per_output * (2 * oh * ow + h * w)


def nets_probe(tr, overrides: dict, seed: int) -> dict:
    """Time forward/backward per layer kind; returns the computed conv rate."""
    rng = np.random.default_rng([seed, 7])
    shapes = {**REFERENCE_SHAPES, **overrides}
    for kind, shape in shapes.items():
        layer, x_shape = _layer(kind, shape)
        spec = NetworkSpec((layer,))
        weights = init_weights(spec, rng)
        x = rng.uniform(0.0, 1.0, size=x_shape)
        for _ in range(REPS.get(kind, DEFAULT_REPS)):
            with tr.span(f"nets.{kind}.forward"):
                cache, out = forward(spec, weights, x)
            g = np.ones_like(out) / out.size
            with tr.span(f"nets.{kind}.backward"):
                backward(spec, weights, cache, g)
    seconds = (statistics.median(tr.durations("nets.conv2d.forward"))
               + statistics.median(tr.durations("nets.conv2d.backward")))
    return {"nets.conv2d.gflop_s": conv_flops(shapes["conv2d"]) / seconds / 1e9}


def fill_probe(tr, work: Path, seed: int) -> None:
    """Small fixed calls reaching every traced name outside the nets layer."""
    work.mkdir(parents=True, exist_ok=True)
    inputs.write_mnist(work / "mnist", seed, n_train=1000, n_test=200)
    with tr.span("datasets.load"):
        train = datasets.load_mnist(work / "mnist", "train")
    with tr.span("datasets.normalize"):
        train = datasets.normalize_and_subset(train, inputs.AE_SUBSET, seed)
    x = train.images.reshape(len(train.labels), -1)

    cfg = training.TrainConfig(schedule=LambdaSchedule(dense_default=1e-2),
                               form=LossForm.reciprocal(1e-4),
                               entropy_loss_layers=frozenset({1}),
                               max_epochs=1, patience=2, seed=seed)
    with tr.span("op.train"):
        training.train_autoencoder(cfg, x[:128], x[128:], 180)

    # The training module's name is the traced one.
    rng = np.random.default_rng([seed, 8])
    filters = {(1, f, c): rng.uniform(-0.3, 0.3, size=(3, 3))
               for f in range(CONV_FILTERS) for c in range(3)}
    training.conv_entropy_terms(filters, LambdaSchedule(conv_default=1e-2),
                                LossForm.reciprocal(1e-4))

    ident = Identities()
    ident.prepare(work, seed)
    run_cli(["oracle-check", "--max-dim", "10", "--cases", str(PROBE_ORACLE_CASES)])
    for kind, h, w in ident.dumps:
        run_cli(["profile", str(work / f"{kind}.entw"), "--input-h", str(h),
                         "--input-w", str(w), "--out-dir", str(work / kind)])
    run_cli(["compare", str(work / "runs.csv"), "--out-dir", str(work)])
