"""ENTW binary weight dumps.

Layout (all little-endian):

    magic   4 bytes  "ENTW"
    version u32      1
    count   u32      number of layer entries
    entry:  kind u8 (0 = dense, 1 = conv2d)
            ndim u8 (2 for dense, 4 for conv2d)
            dims u32 * ndim   (dense: out, in; conv: f, c, p, q)
            payload f64 * prod(dims), row-major

Only the entropy-relevant weight tensors are stored (no biases, no
pooling/activation markers), which is all the profiler needs; a parsed
dump therefore reconstructs a spec of bare dense/conv layers.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import FormatError
from .nets import Conv2D, Dense, LayerParams, NetworkSpec

MAGIC = b"ENTW"
VERSION = 1
KIND_DENSE = 0
KIND_CONV = 1
_MAX_ELEMENTS = 1 << 32


def write_dump(spec: NetworkSpec, weights: Sequence, path) -> None:
    """Serialize a network's dense/conv weight tensors; deterministic."""
    entries = []
    for layer, params in zip(spec.layers, weights):
        shape = layer.weight_shape
        if shape is None:
            continue
        w = np.asarray(params.w, dtype=np.float64)
        if w.shape != shape:
            raise FormatError(f"weights {w.shape} do not match spec {shape}")
        kind = KIND_DENSE if w.ndim == 2 else KIND_CONV
        header = struct.pack("<BB", kind, w.ndim) + struct.pack(
            f"<{w.ndim}I", *w.shape
        )
        entries.append(header + np.ascontiguousarray(w).astype("<f8").tobytes())
    blob = MAGIC + struct.pack("<II", VERSION, len(entries)) + b"".join(entries)
    Path(path).write_bytes(blob)


def read_dump(path) -> tuple[NetworkSpec, list]:
    """Parse an ENTW dump back into (spec, weights); strict validation."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    version, count = struct.unpack("<II", raw[4:12])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    offset = 12
    layers, weights = [], []
    for i in range(count):
        if len(raw) < offset + 2:
            raise FormatError(f"{path}: truncated entry header at byte {offset}")
        kind, ndim = struct.unpack_from("<BB", raw, offset)
        offset += 2
        if kind not in (KIND_DENSE, KIND_CONV):
            raise FormatError(f"{path}: unknown layer kind {kind} at byte {offset - 2}")
        expected_ndim = 2 if kind == KIND_DENSE else 4
        if ndim != expected_ndim:
            raise FormatError(
                f"{path}: kind {kind} entry declares {ndim} dims at byte {offset - 1}"
            )
        if len(raw) < offset + 4 * ndim:
            raise FormatError(f"{path}: truncated dims at byte {offset}")
        dims = struct.unpack_from(f"<{ndim}I", raw, offset)
        offset += 4 * ndim
        n_elem = 1
        for d in dims:
            n_elem *= d
        if n_elem == 0 or n_elem > _MAX_ELEMENTS:
            raise FormatError(f"{path}: entry {i} dims {dims} out of range")
        nbytes = 8 * n_elem
        if len(raw) < offset + nbytes:
            raise FormatError(f"{path}: truncated payload at byte {offset}")
        w = (
            np.frombuffer(raw, dtype="<f8", count=n_elem, offset=offset)
            .astype(np.float64)
            .reshape(dims)
        )
        offset += nbytes
        layers.append(Dense(dims[1], dims[0]) if kind == KIND_DENSE else Conv2D(*dims))
        weights.append(LayerParams(w, np.zeros(dims[0])))
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes at {offset}")
    return NetworkSpec(tuple(layers)), weights
