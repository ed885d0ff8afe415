"""Seeded benchmark inputs, written in the program's file formats.

Everything here is independent of the package: the IDX, CIFAR-10 and
ENTW writers are re-implemented from the format descriptions, so the
program only ever sees finished files.  The same seed always gives the
same bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

N_CLASSES = 10

# ae-sweep: MNIST-format corpus, of which a 20% stratified subset is trained on.
AE_TRAIN, AE_TEST = 12000, 2000
AE_SUBSET = 0.2
# cnn-train: CIFAR-10-format corpus, used whole.
CNN_TRAIN, CNN_TEST = 384, 256
# identities: runs.csv groups for `compare`.
RUNS_LAMBDAS = (0.0, 1e-4, 1e-3, 1e-2, 1e-1)
RUNS_SHIFTS = (0.0, 0.0005, 0.002, 0.004, 0.01)
RUNS_REPLICATIONS = 8

MNIST_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "validation": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """Independent stream per (seed, purpose), stable across Python runs."""
    return np.random.default_rng([seed, sum(ord(c) * 31**i for i, c in enumerate(purpose))])


def class_images(rng: np.random.Generator, n: int, channels: int,
                 size: int) -> tuple[np.ndarray, np.ndarray]:
    """uint8 (n, channels, size, size) images and cyclic labels 0-9.

    Each class is a mixture of four Gaussian bumps per channel on a dark
    background; samples are shifted by up to 2 pixels and noised.  Labels
    cycle 0..9, so every block of ten samples is class-balanced.  The
    classes are far apart, so a few hundred Adam steps separate them and
    an autoencoder beats the mean image within two epochs.
    """
    grid = np.mgrid[0:size, 0:size] / size
    protos = np.zeros((N_CLASSES, channels, size, size))
    for cls in range(N_CLASSES):
        for ch in range(channels):
            for _ in range(4):
                cy, cx = rng.uniform(0.2, 0.8, size=2)
                s = rng.uniform(0.06, 0.15)
                protos[cls, ch] += np.exp(
                    -((grid[0] - cy) ** 2 + (grid[1] - cx) ** 2) / (2 * s * s))
            protos[cls, ch] /= protos[cls, ch].max()
    labels = np.arange(n) % N_CLASSES
    shifts = rng.integers(-2, 3, size=(n, 2))
    out = np.empty((n, channels, size, size))
    for i in range(n):
        out[i] = np.roll(protos[labels[i]], tuple(shifts[i]), axis=(1, 2))
    out += rng.normal(0.0, 0.04, size=out.shape)
    return np.round(np.clip(out, 0.0, 1.0) * 255.0).astype(np.uint8), labels


def write_idx(path: Path, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array, dtype=np.uint8)
    magic = {3: 0x00000803, 1: 0x00000801}[array.ndim]
    header = struct.pack(f">I{array.ndim}I", magic, *array.shape)
    path.write_bytes(header + array.tobytes())


def read_idx(path: Path) -> np.ndarray:
    """The uint8 payload of an IDX file written by :func:`write_idx`."""
    raw = path.read_bytes()
    ndim = raw[3]
    dims = struct.unpack(f">{ndim}I", raw[4 : 4 + 4 * ndim])
    return np.frombuffer(raw, dtype=np.uint8, offset=4 + 4 * ndim).reshape(dims)


def read_cifar(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """uint8 images (n, 3, 32, 32) and labels of a batch from :func:`write_cifar`."""
    records = np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(-1, 3073)
    return records[:, 1:].reshape(-1, 3, 32, 32), records[:, 0]


def write_mnist(data_dir: Path, seed: int, n_train: int = AE_TRAIN,
                n_test: int = AE_TEST) -> None:
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, "mnist")
    images, labels = class_images(rng, n_train + n_test, 1, 28)
    for split, sl in (("train", slice(0, n_train)),
                      ("validation", slice(n_train, None))):
        image_name, label_name = MNIST_NAMES[split]
        write_idx(data_dir / image_name, images[sl, 0])
        write_idx(data_dir / label_name, labels[sl])


def write_cifar(data_dir: Path, seed: int, n_train: int = CNN_TRAIN,
                n_test: int = CNN_TEST) -> None:
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, "cifar")
    images, labels = class_images(rng, n_train + n_test, 3, 32)
    records = np.concatenate(
        [labels[:, None].astype(np.uint8), images.reshape(len(images), 3072)], axis=1)
    (data_dir / "data_batch_1.bin").write_bytes(records[:n_train].tobytes())
    (data_dir / "test_batch.bin").write_bytes(records[n_train:].tobytes())


def _glorot(rng, shape, fan_in, fan_out) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def cnn_dump_tensors(seed: int) -> list[np.ndarray]:
    """A many-filter CNN: three 3x3 convs (3->64->128->128), then dense 128->10."""
    rng = rng_for(seed, "cnn-dump")
    tensors = []
    for f, c in ((64, 3), (128, 64), (128, 128)):
        tensors.append(_glorot(rng, (f, c, 3, 3), 9 * c, 9 * f))
    tensors.append(_glorot(rng, (10, 128), 128, 10))
    return tensors


def ae_dump_tensors(seed: int) -> list[np.ndarray]:
    """An autoencoder 784->180->784: both square parts are 180x180."""
    rng = rng_for(seed, "ae-dump")
    return [_glorot(rng, (180, 784), 784, 180), _glorot(rng, (784, 180), 180, 784)]


def entw_bytes(tensors: list[np.ndarray]) -> bytes:
    """ENTW v1: magic, version, count, then (kind, ndim, dims, f64 payload)."""
    blob = [b"ENTW", struct.pack("<II", 1, len(tensors))]
    for t in tensors:
        kind = {2: 0, 4: 1}[t.ndim]
        blob.append(struct.pack(f"<BB{t.ndim}I", kind, t.ndim, *t.shape))
        blob.append(np.ascontiguousarray(t, dtype="<f8").tobytes())
    return b"".join(blob)


def runs_rows(seed: int) -> list[list]:
    """runs.csv rows: five lambda groups whose metric means are spread so
    that the significance grid holds +, - and blank cells."""
    rng = rng_for(seed, "runs")
    rows = []
    for lam, shift in zip(RUNS_LAMBDAS, RUNS_SHIFTS):
        for rep in range(RUNS_REPLICATIONS):
            rows.append(["latent180", repr(lam), seed + rep, rep,
                         int(rng.integers(8, 30)),
                         repr(float(0.03 + rng.normal(0.0, 0.002))),
                         repr(float(0.02 + shift + rng.normal(0.0, 0.002)))])
    return rows


def write_runs_csv(path: Path, seed: int) -> None:
    header = ["architecture", "lambda", "seed", "replication",
              "stopping_epoch", "final_train_loss", "final_val_metric"]
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in runs_rows(seed)]
    path.write_text("\n".join(lines) + "\n")
