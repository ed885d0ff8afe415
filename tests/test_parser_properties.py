"""Property tests: the binary parsers reject bad bytes only as FormatError.

Arbitrary bytes are tried bare, behind each valid magic (so the header
checks run), and behind the gzip magic, either as a whole gzip stream or
a cut one.  Each example goes to a new file, because rewriting one file
in place makes ext4 flush it on every close.
"""

import gzip
import itertools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroprop.datasets import read_cifar10, read_idx
from entroprop.errors import FormatError
from entroprop.weights_io import read_dump

MAGICS = [
    b"",
    struct.pack(">I", 0x00000803),
    struct.pack(">I", 0x00000801),
    struct.pack(">II", 0x00000801, 3),
    b"ENTW",
    b"ENTW" + struct.pack("<I", 1),
    b"ENTW" + struct.pack("<II", 1, 1) + bytes([0, 2]),
    b"ENTW" + struct.pack("<II", 1, 2) + bytes([1, 4]),
    b"\x1f\x8b",
    b"\x1f\x8b\x08\x00",
]


@st.composite
def blobs(draw):
    data = draw(st.sampled_from(MAGICS)) + draw(st.binary(max_size=80))
    wrap = draw(st.sampled_from(["raw", "gzip", "cut-gzip"]))
    if wrap == "raw":
        return data
    packed = gzip.compress(data, mtime=0)
    if wrap == "cut-gzip":
        return packed[: draw(st.integers(0, len(packed) - 1))]
    return packed


PARSERS = {
    "read_idx": read_idx,
    "read_cifar10": lambda path: read_cifar10([path]),
    "read_dump": read_dump,
}


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_arbitrary_bytes_raise_only_format_error(name, tmp_path_factory):
    parse = PARSERS[name]
    base = tmp_path_factory.mktemp(name)
    counter = itertools.count()

    @settings(max_examples=500, deadline=None, database=None)
    @given(blob=blobs())
    def check(blob):
        path = base / f"{next(counter)}.bin"
        path.write_bytes(blob)
        try:
            parse(path)
        except FormatError:
            pass

    check()
