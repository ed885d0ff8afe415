"""Welch t-tests, t confidence intervals, and significance grids.

The Student-t CDF and its inverse are scipy's ``stdtr`` and ``stdtrit``
(Cephes), which accept fractional degrees of freedom.  Welch's
unequal-variance statistic with Welch-Satterthwaite degrees of freedom
is used for every pairwise comparison between replication samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import UndefinedVarianceError

PLUS = "+"
MINUS = "-"
BLANK = ""


@dataclass(frozen=True)
class TTestResult:
    t: float
    dof: float
    p_two_tailed: float
    p_one_tailed: float  # P(T >= t): small when the first mean is larger


@dataclass(frozen=True)
class SignificanceGrid:
    """Pairwise +/-/blank comparison matrix between labeled groups.

    ``cells[i][j]`` is "+" when group i's mean is significantly higher
    than group j's at ``alpha`` (two-tailed), "-" when significantly
    lower, and "" otherwise; the matrix is antisymmetric by
    construction with a blank diagonal.
    """

    labels: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]
    alpha: float


def student_t_cdf(t: float, dof: float) -> float:
    """P(T <= t) for Student's t with `dof` (possibly fractional) dof."""
    if dof <= 0:
        raise ValueError("dof must be positive")
    # Imported on first use: scipy.special adds about 70 ms and 3 MB to
    # importing the package, which every CLI command would pay.
    from scipy.special import stdtr
    return float(stdtr(dof, t))


def student_t_ppf(p: float, dof: float) -> float:
    """Inverse of :func:`student_t_cdf`."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if dof <= 0:
        raise ValueError("dof must be positive")
    from scipy.special import stdtrit  # on first use, as in student_t_cdf
    return float(stdtrit(dof, p))


def welch_t(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Welch's unequal-variance t-test between two samples.

    Raises :class:`UndefinedVarianceError` when both samples are
    constant (zero pooled variance).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise UndefinedVarianceError("each sample needs at least 2 values")
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    sa, sb = va / na, vb / nb
    se2 = sa + sb
    if se2 == 0.0:
        raise UndefinedVarianceError("both samples are constant")
    t = float((np.mean(a) - np.mean(b)) / math.sqrt(se2))
    dof = se2 * se2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    p_one = 1.0 - student_t_cdf(t, dof)   # P(T >= t)
    p_two = 2.0 * min(p_one, 1.0 - p_one)
    return TTestResult(t, float(dof), p_two, p_one)


def mean_ci95(sample: Sequence[float]) -> tuple[float, float]:
    """Sample mean and 95% t-interval half-width t_{0.975,n-1} * s / sqrt(n)."""
    x = np.asarray(sample, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise UndefinedVarianceError("need at least 2 values")
    s = float(np.std(x, ddof=1))
    half = student_t_ppf(0.975, n - 1) * s / math.sqrt(n)
    return float(np.mean(x)), float(half)


def significance_grid(samples: Mapping[str, Sequence[float]],
                      alpha: float) -> SignificanceGrid:
    """Pairwise Welch-test grid between every pair of labeled groups.

    ``cells[i][j]`` is "+" when mean_i > mean_j with two-tailed
    p < alpha, "-" for the mirror case, blank otherwise (including the
    diagonal).
    """
    labels = tuple(samples.keys())
    if len(labels) < 2:
        raise ValueError("need at least 2 groups")
    means = {k: float(np.mean(np.asarray(v, dtype=np.float64))) for k, v in samples.items()}
    cells = []
    for i, li in enumerate(labels):
        row = []
        for j, lj in enumerate(labels):
            if i == j:
                row.append(BLANK)
                continue
            res = welch_t(samples[li], samples[lj])
            if res.p_two_tailed < alpha and means[li] > means[lj]:
                row.append(PLUS)
            elif res.p_two_tailed < alpha and means[li] < means[lj]:
                row.append(MINUS)
            else:
                row.append(BLANK)
        cells.append(tuple(row))
    return SignificanceGrid(labels, tuple(cells), float(alpha))
