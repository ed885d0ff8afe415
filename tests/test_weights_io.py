"""ENTW weight-dump format: round trips and strict validation."""

import struct

import numpy as np
import pytest

from entroprop.entropy import profile_network
from entroprop.errors import FormatError
from entroprop.nets import (
    Activation,
    Conv2D,
    Dense,
    LayerParams,
    MaxPool2,
    NetworkSpec,
    init_weights,
)
from entroprop.weights_io import read_dump, write_dump


def random_net(rng):
    widths = rng.integers(1, 4, size=int(rng.integers(1, 3)))
    layers = []
    c = int(rng.integers(1, 3))
    first_c = c
    for width in widths:
        layers += [Conv2D(int(width), c, 3, 3), Activation("leaky_relu"), MaxPool2()]
        c = int(width)
    layers += [Dense(int(rng.integers(4, 40)), int(rng.integers(2, 12)))]
    spec = NetworkSpec(tuple(layers))
    return spec, init_weights(spec, rng), first_c


class TestWriteDump:
    def test_empty_network_is_twelve_bytes(self, tmp_path):
        path = tmp_path / "empty.entw"
        write_dump(NetworkSpec(()), [], path)
        raw = path.read_bytes()
        assert len(raw) == 12  # magic + version + zero layer count
        assert raw[:4] == b"ENTW"
        assert struct.unpack("<II", raw[4:]) == (1, 0)

    def test_dense_identity_payload(self, tmp_path):
        spec = NetworkSpec((Dense(2, 2),))
        weights = [LayerParams(np.eye(2), np.zeros(2))]
        path = tmp_path / "id.entw"
        write_dump(spec, weights, path)
        raw = path.read_bytes()
        floats = struct.unpack("<4d", raw[-32:])
        assert floats == (1.0, 0.0, 0.0, 1.0)

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        spec, weights, _ = random_net(rng)
        write_dump(spec, weights, tmp_path / "a.entw")
        write_dump(spec, weights, tmp_path / "b.entw")
        assert (tmp_path / "a.entw").read_bytes() == (tmp_path / "b.entw").read_bytes()

    @pytest.mark.parametrize("layer, bad_shape", [
        (Dense(3, 2), (3, 2)),
        (Conv2D(2, 1, 3, 3), (2, 1, 2, 2)),
    ])
    def test_mismatched_weights_raise(self, tmp_path, layer, bad_shape):
        weights = [LayerParams(np.zeros(bad_shape), np.zeros(bad_shape[0]))]
        with pytest.raises(FormatError):
            write_dump(NetworkSpec((layer,)), weights, tmp_path / "bad.entw")
        assert not (tmp_path / "bad.entw").exists()


class TestRoundTrip:
    def test_random_networks_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(25):
            spec, weights, _ = random_net(rng)
            path = tmp_path / f"net{i}.entw"
            write_dump(spec, weights, path)
            spec2, weights2 = read_dump(path)
            trainable = [
                (l, p) for l, p in zip(spec.layers, weights)
                if isinstance(l, (Dense, Conv2D))
            ]
            assert len(spec2.layers) == len(trainable)
            for (layer, params), layer2, params2 in zip(
                trainable, spec2.layers, weights2
            ):
                assert layer == layer2
                np.testing.assert_array_equal(params.w, params2.w)
            write_dump(spec2, weights2, tmp_path / "again.entw")
            assert path.read_bytes() == (tmp_path / "again.entw").read_bytes()

    def test_parsed_dump_profiles_cleanly(self, tmp_path):
        rng = np.random.default_rng(2)
        spec = NetworkSpec((Conv2D(4, 1, 3, 3), Dense(10, 5)))
        weights = init_weights(spec, rng)
        path = tmp_path / "prof.entw"
        write_dump(spec, weights, path)
        spec2, weights2 = read_dump(path)
        report = profile_network(spec2.layers, weights2, 8, 8)
        assert [p.kind for p in report.layers] == ["conv2d", "dense"]


class TestReadValidation:
    def write_valid(self, tmp_path):
        spec = NetworkSpec((Dense(3, 2),))
        weights = [LayerParams(np.arange(6.0).reshape(2, 3), np.zeros(2))]
        path = tmp_path / "valid.entw"
        write_dump(spec, weights, path)
        return path

    def test_corrupt_magic(self, tmp_path):
        path = self.write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        bad = tmp_path / "bad.entw"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_dump(bad)

    def test_version_mismatch(self, tmp_path):
        path = self.write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        bad = tmp_path / "v9.entw"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_dump(bad)

    def test_truncation_reports_offset(self, tmp_path):
        path = self.write_valid(tmp_path)
        raw = path.read_bytes()[:-5]
        bad = tmp_path / "trunc.entw"
        bad.write_bytes(raw)
        with pytest.raises(FormatError, match="byte"):
            read_dump(bad)

    def test_unknown_kind(self, tmp_path):
        path = self.write_valid(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[12] = 7  # first entry's kind byte
        bad = tmp_path / "kind.entw"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="kind"):
            read_dump(bad)

    def test_dim_overflow(self, tmp_path):
        header = b"ENTW" + struct.pack("<II", 1, 1)
        entry = struct.pack("<BB", 0, 2) + struct.pack("<2I", 2**31, 2**31)
        bad = tmp_path / "dims.entw"
        bad.write_bytes(header + entry)
        with pytest.raises(FormatError, match="range"):
            read_dump(bad)

    def test_trailing_garbage(self, tmp_path):
        path = self.write_valid(tmp_path)
        bad = tmp_path / "extra.entw"
        bad.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_dump(bad)
