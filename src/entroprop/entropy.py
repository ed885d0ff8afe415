"""Closed-form entropy changes across dense and convolutional layers.

A dense layer with weight matrix W shifts the differential entropy of
its input by log|det S|, where S is the top-left square part of W (the
rectangular remainder can be embedded in a block-triangular square
matrix with unit diagonal that leaves the determinant untouched).  A
valid 2-d convolution with filter C over an l x w input shifts it by
(l-p+1)(w-q+1) * log|c11|, with c11 the filter's top-left coefficient:
the convolution is a band-block-Toeplitz matrix acting on the flattened
image, and its square embedding is upper triangular with c11 repeated
along the diagonal once per output element.

The profiler walks a network and aggregates these per-layer deltas into
box-plot style statistics (mean, quartiles, IQR outliers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, NonFiniteError
from .nets import Conv2D, Dense
from .tensor_ops import LogDet, lu_logabsdet


@dataclass(frozen=True)
class SquarifiedDense:
    """A rectangular weight matrix embedded in a square one.

    ``embedded`` is max(rows, cols) square, block triangular with an
    identity block padding the long side, and satisfies
    ``det(embedded) = det(square_part)``.
    """

    original_rows: int
    original_cols: int
    embedded: np.ndarray
    square_part: np.ndarray


@dataclass(frozen=True)
class ConvMatrix:
    """A valid 2-d convolution written as matrix operators.

    ``matrix`` is the (l-p+1)(w-q+1) x lw operator with
    ``matrix @ x.ravel() == conv2d(x, filter).ravel()``.
    ``square_embedding`` is its lw x lw square extension, upper
    triangular with unit padding, whose determinant is
    ``c11 ** ((l-p+1) * (w-q+1))``.
    """

    filter: np.ndarray
    input_h: int
    input_w: int
    matrix: np.ndarray
    square_embedding: np.ndarray


@dataclass(frozen=True)
class EntropyDelta:
    """Entropy change across one conv filter slice, in nats.

    ``delta_total = n_out_elements * delta_per_element`` with
    ``delta_per_element = log|c11|``.
    """

    delta_total: float
    delta_per_element: float


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer entropy-change statistics over that layer's units."""

    layer_index: int
    kind: str                                  # "dense" or "conv2d"
    input_h: int
    input_w: int
    unit_totals: np.ndarray                    # per unit, channel-averaged
    unit_per_element: np.ndarray
    mean_total: float
    q1_total: float
    q3_total: float
    mean_per_element: float
    q1_per_element: float
    q3_per_element: float
    outliers: tuple[tuple[int, float], ...]    # (unit_index, delta_total)


@dataclass(frozen=True)
class ProfileReport:
    input_h: int
    input_w: int
    layers: tuple[LayerProfile, ...]


def square_part(w: np.ndarray) -> np.ndarray:
    """Top-left k x k submatrix of W, k = min(rows, cols)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise DimensionError(f"expected a nonempty matrix, got shape {w.shape}")
    k = min(w.shape)
    return w[:k, :k].copy()


def squarify_dense(w: np.ndarray) -> SquarifiedDense:
    """Embed a rectangular weight matrix in a determinant-preserving square.

    A wide N x d matrix (N < d) keeps its rows on top and gains
    ``[0 | I]`` rows below; a tall one keeps its columns on the left and
    gains ``[0 / I]`` columns on the right; a square matrix is returned
    unchanged.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise DimensionError(f"expected a nonempty matrix, got shape {w.shape}")
    rows, cols = w.shape
    if rows == cols:
        embedded = w.copy()
    elif rows < cols:
        pad = np.hstack([np.zeros((cols - rows, rows)), np.eye(cols - rows)])
        embedded = np.vstack([w, pad])
    else:
        pad = np.vstack([np.zeros((cols, rows - cols)), np.eye(rows - cols)])
        embedded = np.hstack([w, pad])
    return SquarifiedDense(rows, cols, embedded, square_part(w))


def dense_entropy_delta(w: np.ndarray) -> LogDet:
    """Entropy change across a dense layer: log|det| of W's square part."""
    return lu_logabsdet(square_part(w))


def _band_matrix(row_coeffs: np.ndarray, width: int) -> np.ndarray:
    """(width-q+1) x width band matrix with `row_coeffs` on each row."""
    q = row_coeffs.shape[0]
    band = np.zeros((width - q + 1, width))
    for i in range(width - q + 1):
        band[i, i : i + q] = row_coeffs
    return band


def build_conv_matrix(c: np.ndarray, input_h: int, input_w: int) -> ConvMatrix:
    """Materialize the matrix form of a valid 2-d convolution.

    The operator consists of one band block per filter row arranged in
    block-Toeplitz fashion; the square embedding appends a unit row to
    each block and an identity block at the bottom right.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.size == 0:
        raise DimensionError(f"expected a nonempty filter, got shape {c.shape}")
    p, q = c.shape
    l, w = int(input_h), int(input_w)
    if p > l or q > w:
        raise DimensionError(f"filter {p}x{q} larger than input {l}x{w}")

    out_h, out_w = l - p + 1, w - q + 1
    bands = [_band_matrix(c[j], w) for j in range(p)]

    cm = np.zeros((out_h * out_w, l * w))
    for i in range(out_h):
        for j in range(p):
            cm[i * out_w : (i + 1) * out_w, (i + j) * w : (i + j + 1) * w] = bands[j]

    # Square w x w version of each band: unit rows fill the q-1 trimmed ones.
    square_bands = [
        np.vstack([b, np.hstack([np.zeros((q - 1, out_w)), np.eye(q - 1)])])
        for b in bands
    ]
    cm_sq = np.zeros((l * w, l * w))
    for i in range(out_h):
        for j in range(p):
            cm_sq[i * w : (i + 1) * w, (i + j) * w : (i + j + 1) * w] = square_bands[j]
    tail = (p - 1) * w
    if tail:
        cm_sq[out_h * w :, out_h * w :] = np.eye(tail)
    return ConvMatrix(c.copy(), l, w, cm, cm_sq)


def conv_entropy_delta(c: np.ndarray, input_h: int, input_w: int) -> EntropyDelta:
    """Entropy change of one conv filter over an l x w single-channel input.

    Per output element the change is log|c11|; the total scales with the
    number of output elements and is -inf when c11 is exactly zero.  A
    non-finite c11 raises :class:`NonFiniteError`.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.size == 0:
        raise DimensionError(f"expected a nonempty filter, got shape {c.shape}")
    p, q = c.shape
    l, w = int(input_h), int(input_w)
    if p > l or q > w:
        raise DimensionError(f"filter {p}x{q} larger than input {l}x{w}")
    corner = abs(float(c[0, 0]))
    if not np.isfinite(corner):
        raise NonFiniteError(f"non-finite filter corner c11 = {c[0, 0]!r}")
    per_element = np.log(corner) if corner > 0.0 else float("-inf")
    n_out = (l - p + 1) * (w - q + 1)
    return EntropyDelta(n_out * per_element, float(per_element))


def _quartiles(values: np.ndarray) -> tuple[float, float]:
    """Linearly interpolated q1 and q3, with -inf (a zero c11) absorbing.

    A quartile whose interpolation gives positive weight to a -inf value
    is -inf.  In sorted order that is exactly when the lower of its two
    interpolation points is -inf; otherwise both points are finite and
    numpy's value stands.
    """
    qs = [0.25, 0.75]
    lower = np.quantile(values, qs, method="lower")
    with np.errstate(invalid="ignore"):     # nan where it interpolates -inf
        q = np.quantile(values, qs)
    q1, q3 = np.where(np.isneginf(lower), -np.inf, q)
    return float(q1), float(q3)


def _quartile_stats(values: np.ndarray) -> tuple[float, float, float]:
    return (float(np.mean(values)), *_quartiles(values))


def _iqr_outliers(values: np.ndarray) -> tuple[tuple[int, float], ...]:
    q1, q3 = _quartiles(values)
    iqr = q3 - q1
    if not np.isfinite(iqr):
        return ()
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    return tuple(
        (int(i), float(v)) for i, v in enumerate(values) if v < lo or v > hi
    )


def profile_network(
    layers: Sequence, weights: Sequence, input_h: int, input_w: int
) -> ProfileReport:
    """Entropy-change profile of every dense and conv layer in a network.

    Spatial dimensions are tracked with each layer's ``out_hw``: valid
    convolutions (l <- l-p+1, w <- w-q+1) and floor-halving 2x2 pooling.
    Each conv filter contributes the mean over its channel slices of the
    :func:`conv_entropy_delta` values, computed for the whole layer at
    once from ``log|kernel[:, :, 0, 0]|``; a non-finite c11 raises
    :class:`NonFiniteError`.  A dense layer contributes the single
    log|det| of its square part.
    Per-layer statistics use linearly interpolated quartiles and 1.5 IQR
    outlier fences over the per-unit totals.  A quartile that interpolates
    with a -inf total is -inf, and a layer whose IQR is not finite has
    no outliers.
    """
    l, w = int(input_h), int(input_w)
    if l <= 0 or w <= 0:
        raise DimensionError(f"input dims must be positive, got {l}x{w}")
    profiles = []
    for idx, (layer, params) in enumerate(zip(layers, weights)):
        out_l, out_w = layer.out_hw(idx, l, w)
        if layer.weight_shape is not None:
            tensor = np.asarray(params.w, dtype=np.float64)
            if tensor.shape != layer.weight_shape:
                raise DimensionError(
                    f"layer {idx}: weights {tensor.shape} do not match spec"
                )
        if isinstance(layer, Conv2D):
            corners = tensor[:, :, 0, 0]
            if not np.all(np.isfinite(corners)):
                raise NonFiniteError(f"layer {idx}: non-finite filter corner c11")
            with np.errstate(divide="ignore"):
                slice_pe = np.log(np.abs(corners))    # -inf where c11 == 0
            unit_totals = (out_l * out_w * slice_pe).mean(axis=1)
            unit_pe = slice_pe.mean(axis=1)
            mean_t, q1_t, q3_t = _quartile_stats(unit_totals)
            mean_p, q1_p, q3_p = _quartile_stats(unit_pe)
            profiles.append(
                LayerProfile(
                    idx, "conv2d", l, w, unit_totals, unit_pe,
                    mean_t, q1_t, q3_t, mean_p, q1_p, q3_p,
                    _iqr_outliers(unit_totals),
                )
            )
        elif isinstance(layer, Dense):
            ld = dense_entropy_delta(tensor)
            value = ld.log_abs if ld.sign != 0 else float("-inf")
            vals = np.array([value])
            profiles.append(
                LayerProfile(
                    idx, "dense", l, w, vals, vals.copy(),
                    float(value), float(value), float(value),
                    float(value), float(value), float(value),
                    (),
                )
            )
        l, w = out_l, out_w
    return ProfileReport(int(input_h), int(input_w), tuple(profiles))
