"""IDX / CIFAR-10 binary parsing, round trips, and stratified subsetting."""

import gzip
import struct

import numpy as np
import pytest

from entroprop.datasets import (
    Dataset,
    load_mnist,
    normalize_and_subset,
    read_cifar10,
    read_idx,
    write_cifar10,
    write_idx,
)
from entroprop.errors import ConfigError, FormatError
from entroprop.synthetic import make_images, write_synthetic_cifar10, write_synthetic_mnist


def idx_bytes(magic, dims, payload):
    return struct.pack(">I", magic) + struct.pack(f">{len(dims)}I", *dims) + payload


class TestReadIdx:
    def test_image_header(self, tmp_path):
        n, h, w = 12, 28, 28
        payload = bytes(range(256)) * (n * h * w // 256 + 1)
        path = tmp_path / "images"
        path.write_bytes(idx_bytes(0x00000803, (n, h, w), payload[: n * h * w]))
        arr = read_idx(path)
        assert arr.shape == (12, 28, 28)
        assert arr.dtype == np.uint8

    def test_label_header(self, tmp_path):
        path = tmp_path / "labels"
        path.write_bytes(idx_bytes(0x00000801, (10,), bytes(range(10))))
        arr = read_idx(path)
        assert arr.shape == (10,)
        np.testing.assert_array_equal(arr, np.arange(10))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(idx_bytes(0x00000703, (2, 2, 2), bytes(8)))
        with pytest.raises(FormatError, match="magic"):
            read_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(idx_bytes(0x00000803, (2, 2, 2), bytes(7)))
        with pytest.raises(FormatError, match="payload"):
            read_idx(path)

    def test_oversized_payload(self, tmp_path):
        path = tmp_path / "long"
        path.write_bytes(idx_bytes(0x00000801, (3,), bytes(9)))
        with pytest.raises(FormatError):
            read_idx(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge"
        path.write_bytes(idx_bytes(0x00000803, (2**20, 2**20, 2**10), b""))
        with pytest.raises(FormatError, match="overflow"):
            read_idx(path)

    @pytest.mark.parametrize("blob", [
        b"\x1f\x8b",
        b"\x1f\x8b\x08\x00",
        gzip.compress(idx_bytes(0x00000801, (4,), bytes(4)), mtime=0)[:-9],
        gzip.compress(bytes(64), mtime=0)[:10] + b"\xff" * 20,
        b"\x1f\x8b\x07" + bytes(20),
    ], ids=["magic-only", "header-cut", "truncated", "bad-deflate", "bad-method"])
    def test_corrupt_gzip_is_format_error(self, blob, tmp_path):
        path = tmp_path / "labels.gz"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="gzip"):
            read_idx(path)
        with pytest.raises(FormatError, match="gzip"):
            read_cifar10([path])

    def test_gzip_transparent(self, tmp_path):
        raw = idx_bytes(0x00000801, (4,), bytes([1, 2, 3, 4]))
        path = tmp_path / "labels.gz"
        path.write_bytes(gzip.compress(raw))
        np.testing.assert_array_equal(read_idx(path), [1, 2, 3, 4])

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, size=(5, 9, 7), dtype=np.uint8)
        path = tmp_path / "rt"
        write_idx(path, arr)
        back = read_idx(path)
        np.testing.assert_array_equal(back, arr)
        write_idx(tmp_path / "rt2", back)
        assert (tmp_path / "rt").read_bytes() == (tmp_path / "rt2").read_bytes()


class TestReadCifar10:
    def test_single_record(self, tmp_path):
        record = bytes([5]) + bytes(range(256)) * 12
        path = tmp_path / "batch.bin"
        path.write_bytes(record)
        ds = read_cifar10([path])
        assert ds.images.shape == (1, 3, 32, 32)
        assert ds.images.dtype == np.uint8
        assert ds.images.tobytes() == record[1:]
        assert ds.labels.tolist() == [5]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        ds = read_cifar10([path])
        assert len(ds.labels) == 0
        assert ds.images.shape == (0, 3, 32, 32)
        assert ds.images.dtype == np.uint8

    def test_bad_size(self, tmp_path):
        path = tmp_path / "off.bin"
        path.write_bytes(bytes(3074))
        with pytest.raises(FormatError, match="3073"):
            read_cifar10([path])

    def test_label_out_of_range(self, tmp_path):
        record = bytes([11]) + bytes(3072)
        path = tmp_path / "badlabel.bin"
        path.write_bytes(record)
        with pytest.raises(FormatError, match="label"):
            read_cifar10([path])

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(7, 3, 32, 32), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        path = tmp_path / "rt.bin"
        write_cifar10(path, images, labels)
        ds = read_cifar10([path])
        np.testing.assert_array_equal(ds.images, images)
        np.testing.assert_array_equal(ds.labels, labels)
        write_cifar10(tmp_path / "rt2.bin", ds.images, ds.labels.astype(np.uint8))
        assert path.read_bytes() == (tmp_path / "rt2.bin").read_bytes()


class TestSyntheticCorpora:
    def test_mnist_files_load(self, tmp_path):
        write_synthetic_mnist(tmp_path, 60, 20, seed=2)
        train = load_mnist(tmp_path, "train")
        val = load_mnist(tmp_path, "validation")
        assert train.images.shape == (60, 1, 28, 28)
        assert val.images.shape == (20, 1, 28, 28)
        assert train.images.dtype == val.images.dtype == np.uint8
        assert set(np.unique(train.labels)) <= set(range(10))

    def test_cifar_files_load(self, tmp_path):
        from entroprop.datasets import load_cifar10

        write_synthetic_cifar10(tmp_path, 40, 20, seed=2)
        train = load_cifar10(tmp_path, "train")
        val = load_cifar10(tmp_path, "validation")
        assert train.images.shape == (40, 3, 32, 32)
        assert val.images.shape == (20, 3, 32, 32)
        assert train.images.dtype == val.images.dtype == np.uint8

    def test_generation_deterministic(self):
        a, la = make_images(30, 1, 28, seed=9)
        b, lb = make_images(30, 1, 28, seed=9)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(la, lb)


class TestNormalizeAndSubset:
    def make_balanced(self, per_class=20, dtype=np.float64):
        rng = np.random.default_rng(3)
        n = per_class * 10
        images = rng.integers(0, 256, size=(n, 1, 4, 4)).astype(dtype)
        labels = np.repeat(np.arange(10), per_class)
        return Dataset(images, labels, "train")

    @pytest.mark.parametrize("fraction", [0.3, 1.0])
    def test_uint8_and_float64_give_same_bytes(self, fraction):
        a = normalize_and_subset(self.make_balanced(dtype=np.uint8), fraction, seed=4)
        b = normalize_and_subset(self.make_balanced(), fraction, seed=4)
        assert a.images.dtype == b.images.dtype == np.float64
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_full_fraction_normalizes(self):
        ds = normalize_and_subset(self.make_balanced(), 1.0, seed=0)
        assert len(ds.labels) == 200
        assert ds.images.max() <= 1.0
        assert ds.images.min() >= 0.0

    def test_stratified_counts(self):
        ds = normalize_and_subset(self.make_balanced(), 0.1, seed=0)
        counts = np.bincount(ds.labels, minlength=10)
        assert np.all(np.abs(counts - 2) <= 1)

    def test_same_seed_same_subset(self):
        base = self.make_balanced()
        a = normalize_and_subset(base, 0.3, seed=5)
        b = normalize_and_subset(base, 0.3, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_fraction_out_of_range(self):
        with pytest.raises(ConfigError):
            normalize_and_subset(self.make_balanced(), 0.0, seed=0)
        with pytest.raises(ConfigError):
            normalize_and_subset(self.make_balanced(), 1.5, seed=0)
