"""Property tests: the conv-matrix identities and the squarify law for any
shape, and the ENTW round trip for any spec and any float64 weights.

Each round-trip example goes to a new file, because rewriting one file
in place makes ext4 flush it on every close.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entroprop.entropy import build_conv_matrix, square_part, squarify_dense
from entroprop.nets import Conv2D, Dense, LayerParams, NetworkSpec
from entroprop.tensor_ops import SINGULAR, conv2d, lu_logabsdet
from entroprop.weights_io import read_dump, write_dump

FINITE = st.floats(-100.0, 100.0, allow_subnormal=False)


@st.composite
def conv_cases(draw, max_dim=8):
    """An l x w input and a p x q filter with p <= l, q <= w."""
    l, w = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    p, q = draw(st.integers(1, l)), draw(st.integers(1, w))
    return l, w, draw(arrays(np.float64, (p, q), elements=FINITE))


@settings(max_examples=200, deadline=None, database=None)
@given(case=conv_cases(), data=st.data())
def test_conv_matrix_acts_as_direct_convolution(case, data):
    l, w, c = case
    x = data.draw(arrays(np.float64, (l, w), elements=FINITE))
    via = build_conv_matrix(c, l, w).matrix @ x.ravel()
    direct = conv2d(x, c).ravel()
    # Each output sums p*q products; the two sum them in different orders.
    scale = np.abs(c).sum() * np.abs(x).max()
    np.testing.assert_allclose(via, direct, rtol=0, atol=1e-12 * max(scale, 1.0))


@settings(max_examples=200, deadline=None, database=None)
@given(case=conv_cases(max_dim=7),
       corner=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
def test_square_embedding_log_det_is_power_of_corner(case, corner):
    l, w, c = case
    c[0, 0] = corner
    p, q = c.shape
    got = lu_logabsdet(build_conv_matrix(c, l, w).square_embedding).log_abs
    expected = (l - p + 1) * (w - q + 1) * np.log(abs(corner))
    assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


# Entries are 0 or of magnitude 1e-3..100.  Nonzero entries near 1e-300 are
# left out: there lu_logabsdet's per-pivot SINGULAR threshold can fire on one
# side only, e.g. W = [[2.2e-308], [3.6e-180]] is SINGULAR as square_part but
# not as its embedding, whose pivots are 3.6e-180 and 6e-129.
SCALED = st.just(0.0) | st.floats(1e-3, 100.0) | st.floats(-100.0, -1e-3)


@st.composite
def matrices(draw, max_dim=12):
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    return draw(arrays(np.float64, (rows, cols), elements=SCALED, fill=st.nothing()))


@settings(max_examples=200, deadline=None, database=None)
@given(w=matrices())
def test_squarify_embeds_w_and_keeps_its_log_det(w):
    rows, cols = w.shape
    embedded = squarify_dense(w).embedded
    assert embedded.shape == (max(rows, cols), max(rows, cols))
    assert np.array_equal(embedded[:rows, :cols], w)
    part = square_part(w)
    assume(np.linalg.cond(part) <= 1e3)
    got, expected = lu_logabsdet(embedded), lu_logabsdet(part)
    assert got.sign == expected.sign
    if expected.sign != 0:  # else both are SINGULAR: a pivot below the threshold
        assert abs(got.log_abs - expected.log_abs) <= 1e-9  # oracle-check's tolerance


def test_squarify_of_a_zero_row_is_singular_on_both_sides():
    w = np.arange(1.0, 16.0).reshape(3, 5)
    w[1] = 0.0
    assert lu_logabsdet(squarify_dense(w).embedded) == SINGULAR
    assert lu_logabsdet(square_part(w)) == SINGULAR


@st.composite
def dumps(draw):
    dims = st.integers(1, 5)
    layers = draw(st.lists(
        st.one_of(st.builds(Dense, dims, dims),
                  st.builds(Conv2D, dims, dims, st.integers(1, 3), st.integers(1, 3))),
        min_size=1, max_size=4))
    weights = [LayerParams(draw(arrays(np.float64, layer.weight_shape)),
                           np.zeros(layer.weight_shape[0]))
               for layer in layers]
    return NetworkSpec(tuple(layers)), weights


def test_dump_round_trip_is_bitwise(tmp_path):
    counter = itertools.count()

    @settings(max_examples=150, deadline=None, database=None)
    @given(dump=dumps())
    def check(dump):
        spec, weights = dump
        path = tmp_path / f"{next(counter)}.entw"
        write_dump(spec, weights, path)
        read_spec, read_weights = read_dump(path)
        assert read_spec == spec
        for got, sent in zip(read_weights, weights):
            assert got.w.shape == sent.w.shape
            assert got.w.tobytes() == sent.w.tobytes()

    check()
