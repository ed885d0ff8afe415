"""Dense linear algebra and spatial primitives.

Everything here works on plain float64 numpy arrays: 2-d arrays are
matrices, 3-d arrays are channel-major stacks of feature maps.  The
log-determinant and the inverse come from LAPACK's LU factorization with
partial pivoting (``dgetrf``, then ``dgetri`` on the same factors), so
determinants far outside double range stay usable in log space and one
factorization serves both.  Non-finite input is rejected before LAPACK
sees it, since ``dgetrf`` does not check for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetri

from .errors import DimensionError, NonFiniteError, SingularMatrixError

# Pivot magnitudes at or below this are treated as exact zeros: they sit
# below anything double precision can meaningfully invert.
SINGULAR_PIVOT_THRESHOLD = 1e-300


@dataclass(frozen=True)
class LogDet:
    """A determinant held in log-magnitude form.

    ``log_abs`` is log|det| in nats, ``sign`` is -1, 0, or +1, and
    ``sign == 0`` exactly when ``log_abs == -inf``.
    """

    log_abs: float
    sign: int

    def magnitude(self) -> float:
        """|det| recovered from log space; 0.0 for a singular matrix."""
        return float(np.exp(self.log_abs)) if self.sign != 0 else 0.0


SINGULAR = LogDet(float("-inf"), 0)


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {a.shape}")
    return a


def lu_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """LU factorization with partial pivoting (LAPACK ``dgetrf``).

    Returns ``(lu, piv, parity)`` where ``lu`` packs the unit-lower L
    below the diagonal and U on and above it, ``piv`` holds LAPACK's
    0-based pivot rows (row ``i`` was swapped with row ``piv[i]``), and
    ``parity`` is +1/-1 for an even/odd number of row swaps.  Zero
    pivots are left on the diagonal for the caller to inspect.  Raises
    :class:`NonFiniteError` if any entry is NaN or infinite.
    """
    a = _as_matrix(m)
    n, nc = a.shape
    if n != nc:
        raise DimensionError(f"matrix must be square, got {n}x{nc}")
    if n == 0:
        raise DimensionError("matrix must be nonempty")
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix has NaN or infinite entries")
    lu, piv, _ = dgetrf(a)
    swaps = np.count_nonzero(piv != np.arange(n))
    return lu, piv, -1 if swaps % 2 else 1


def _logdet_of_factors(lu: np.ndarray, parity: int) -> LogDet:
    pivots = lu.diagonal()
    magnitudes = np.abs(pivots)
    if magnitudes.min() <= SINGULAR_PIVOT_THRESHOLD:
        return SINGULAR
    sign = -parity if np.count_nonzero(pivots < 0) % 2 else parity
    return LogDet(float(np.log(magnitudes).sum()), sign)


def lu_logabsdet(m: np.ndarray) -> LogDet:
    """log|det| and determinant sign via LU with partial pivoting.

    The result is exact ``(-inf, 0)`` whenever any pivot magnitude falls
    at or below :data:`SINGULAR_PIVOT_THRESHOLD`; otherwise
    ``log_abs = sum(log|pivot|)`` and ``sign`` is the product of pivot
    signs times the permutation parity.
    """
    lu, _, parity = lu_factor(m)
    return _logdet_of_factors(lu, parity)


def logabsdet_and_inverse_transpose(m: np.ndarray) -> tuple[LogDet, np.ndarray]:
    """One LU factorization yielding both log|det| and the inverse transpose.

    Raises :class:`SingularMatrixError` for numerically singular input;
    the inverse comes from ``dgetri`` on the same factors.
    """
    lu, piv, parity = lu_factor(m)
    logdet = _logdet_of_factors(lu, parity)
    if logdet.sign == 0:
        raise SingularMatrixError("matrix is numerically singular")
    # Every pivot is nonzero here, so dgetri cannot report a zero pivot.
    inv, _ = dgetri(lu, piv, overwrite_lu=True)
    return logdet, inv.T


def conv2d(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Valid 2-d cross-correlation of an image with a filter.

    ``out[i, j] = sum_{k, m} c[k, m] * x[i + k, j + m]`` with unit
    stride and no padding, so an ``l x w`` image and ``p x q`` filter
    give an ``(l - p + 1) x (w - q + 1)`` map.
    """
    x = _as_matrix(x)
    c = _as_matrix(c)
    l, w = x.shape
    p, q = c.shape
    if p == 0 or q == 0 or l == 0 or w == 0:
        raise DimensionError("inputs must be nonempty")
    if p > l or q > w:
        raise DimensionError(
            f"filter {p}x{q} larger than input {l}x{w}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(x, (p, q))
    return np.einsum("ijpq,pq->ij", windows, c)


def maxpool2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max pooling with stride 2.

    Odd trailing rows/columns are trimmed.  Returns ``(pooled, arg)``
    where ``arg[i, j]`` in 0..3 is the row-major position of the max
    inside its 2x2 block, as needed to route gradients in backprop.
    """
    x = _as_matrix(x)
    l, w = x.shape
    h2, w2 = l // 2, w // 2
    if h2 == 0 or w2 == 0:
        raise DimensionError(f"input {l}x{w} too small for 2x2 pooling")
    blocks = (
        x[: 2 * h2, : 2 * w2]
        .reshape(h2, 2, w2, 2)
        .transpose(0, 2, 1, 3)
        .reshape(h2, w2, 4)
    )
    arg = np.argmax(blocks, axis=2)
    pooled = np.take_along_axis(blocks, arg[:, :, None], axis=2)[:, :, 0]
    return pooled, arg
