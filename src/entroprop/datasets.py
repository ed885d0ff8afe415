"""Dataset ingestion: IDX image/label files and CIFAR-10 binary batches.

Parsers return raw byte-valued arrays; :func:`normalize_and_subset`
scales pixels to [0, 1] and draws a seeded class-stratified subset for
desk-scale runs.  Gzipped files are handled transparently.  No file is
ever downloaded: callers supply paths.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, FormatError
from .files import write_file

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 pixel bytes

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "validation": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_VAL_FILES = ["test_batch.bin"]


@dataclass
class Dataset:
    """Images as (n, channels, h, w) with integer labels 0-9.

    Parsers give the raw uint8 pixels; :func:`normalize_and_subset`
    gives float64 pixels in [0, 1].
    """

    images: np.ndarray
    labels: np.ndarray
    split: str


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise FormatError(f"{path}: corrupt gzip data ({exc})") from exc
    return raw


def read_idx(path) -> np.ndarray:
    """Parse one IDX file into a uint8 array (raw 0-255 values).

    Accepts exactly the two standard magics: 0x00000803 (3-d image
    tensor) and 0x00000801 (1-d label vector); header integers are
    big-endian u32.
    """
    raw = _read_bytes(path)
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated header")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == IDX_MAGIC_IMAGES:
        ndim = 3
    elif magic == IDX_MAGIC_LABELS:
        ndim = 1
    else:
        raise FormatError(f"{path}: bad magic 0x{magic:08x}")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise FormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    count = 1
    for d in dims:
        count *= d
    if count > 1 << 40:
        raise FormatError(f"{path}: dimensions overflow ({dims})")
    payload_len = len(raw) - header_len
    if payload_len != count:
        raise FormatError(
            f"{path}: payload is {payload_len} bytes, header declares {count}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=header_len).reshape(dims)


def write_idx(path, array: np.ndarray) -> None:
    """Serialize a uint8 array (1-d labels or 3-d images) as IDX."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    if array.ndim == 3:
        magic = IDX_MAGIC_IMAGES
    elif array.ndim == 1:
        magic = IDX_MAGIC_LABELS
    else:
        raise FormatError(f"IDX stores 1-d or 3-d arrays, got {array.ndim}-d")
    header = struct.pack(">I", magic) + struct.pack(
        f">{array.ndim}I", *array.shape
    )
    write_file(path, header + array.tobytes())


def read_cifar10(paths: Sequence, split: str = "train") -> Dataset:
    """Parse CIFAR-10 binary batches (3073-byte records) into a Dataset.

    Each record is one label byte followed by 3072 pixel bytes laid out
    as three 32x32 channel planes.  Pixels stay raw uint8 here.
    """
    images, labels = [], []
    for path in paths:
        raw = _read_bytes(path)
        if len(raw) % CIFAR_RECORD_BYTES != 0:
            raise FormatError(
                f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}"
            )
        n = len(raw) // CIFAR_RECORD_BYTES
        if n == 0:
            continue
        records = np.frombuffer(raw, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
        batch_labels = records[:, 0]
        if np.any(batch_labels > 9):
            bad = int(batch_labels[batch_labels > 9][0])
            raise FormatError(f"{path}: label {bad} out of range 0-9")
        labels.append(batch_labels)
        images.append(records[:, 1:].reshape(n, 3, 32, 32))
    if not images:
        return Dataset(
            np.zeros((0, 3, 32, 32), dtype=np.uint8), np.zeros(0, dtype=np.int64), split
        )
    return Dataset(
        np.concatenate(images), np.concatenate(labels).astype(np.int64), split
    )


def write_cifar10(path, images: np.ndarray, labels: np.ndarray) -> None:
    """Serialize (n, 3, 32, 32) uint8 images + labels as one binary batch."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if images.shape[1:] != (3, 32, 32) or labels.shape != (images.shape[0],):
        raise FormatError(
            f"expected (n,3,32,32) images with n labels, got "
            f"{images.shape} / {labels.shape}"
        )
    records = np.concatenate(
        [labels[:, None], images.reshape(len(images), 3072)], axis=1
    )
    write_file(path, records.tobytes())


def load_mnist(data_dir, split: str = "train") -> Dataset:
    """Load an MNIST-format split from its conventional IDX file pair."""
    image_name, label_name = MNIST_FILES[split]
    base = Path(data_dir)
    images = read_idx(_existing(base, image_name))
    labels = read_idx(_existing(base, label_name))
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"{data_dir}: {images.shape[0]} images but {labels.shape[0]} labels"
        )
    if np.any(labels > 9):
        raise FormatError(f"{data_dir}: label out of range 0-9")
    return Dataset(images[:, None, :, :], labels.astype(np.int64), split)


def load_cifar10(data_dir, split: str = "train") -> Dataset:
    """Load CIFAR-10-format binary batches from a directory."""
    names = CIFAR_TRAIN_FILES if split == "train" else CIFAR_VAL_FILES
    base = Path(data_dir)
    paths = [_existing(base, n) for n in names if (base / n).exists()
             or (base / (n + ".gz")).exists()]
    if not paths:
        raise FormatError(f"{data_dir}: no CIFAR-10 batch files found")
    return read_cifar10(paths, split)


def _existing(base: Path, name: str) -> Path:
    for candidate in (base / name, base / (name + ".gz")):
        if candidate.exists():
            return candidate
    raise FormatError(f"{base / name}: file not found")


def normalize_and_subset(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Draw a stratified subset and scale its pixels to float64 in [0, 1].

    Each class contributes round(fraction * class_count) samples (at
    least 1 when the class is nonempty), chosen by a seeded generator;
    the selection is identical across calls with the same seed.  Only
    the kept images are scaled, and uint8 or float64 input of the same
    values gives the same bytes.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return Dataset(dataset.images / 255.0, dataset.labels.copy(), dataset.split)
    rng = np.random.default_rng(seed)
    chosen = []
    for cls in np.unique(dataset.labels):
        idx = np.flatnonzero(dataset.labels == cls)
        k = max(1, int(round(fraction * len(idx))))
        chosen.append(rng.permutation(idx)[:k])
    keep = np.sort(np.concatenate(chosen))
    return Dataset(dataset.images[keep] / 255.0, dataset.labels[keep], dataset.split)
