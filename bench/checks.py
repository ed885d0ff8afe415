"""Reference computations the workloads' outputs are checked against.

Each function takes the program's output and recomputes the expected
value with numpy or scipy, never with the package.  A check returns
None when the output is right and a one-line description otherwise.
"""

from __future__ import annotations

import math

import numpy as np

PROFILE_RTOL = 1e-7   # profile.csv holds 9 significant digits
PROFILE_ATOL = 1e-9


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= atol + rtol * abs(want)


def dense_identity(lam: float, w1: np.ndarray, loss: float, grads) -> str | None:
    """Log-form dense term on layer 1 only: -lam*log|det S| and -lam*inv(S)^T."""
    k = min(w1.shape)
    s = w1[:k, :k]
    sign, logabs = np.linalg.slogdet(s)
    if sign == 0:
        return "square part is singular in numpy"
    want = -lam * logabs
    if not _close(loss, want, 1e-9, 1e-12):
        return f"log-form loss {loss!r} != -lam*slogdet {want!r}"
    want_g = -lam * np.linalg.inv(s).T
    err = np.max(np.abs(grads[0][:k, :k] - want_g)) / np.max(np.abs(want_g))
    if not err <= 1e-6:
        return f"log-form gradient differs from -lam*inv(S)^T by {err:.3e} (relative)"
    outside = grads[0].copy()
    outside[:k, :k] = 0.0
    if np.any(outside) or any(np.any(g) for g in grads[1:]):
        return "gradient is nonzero outside the penalised square part"
    return None


def conv_term(lam: float, eps: float, kernel: np.ndarray, loss: float) -> str | None:
    """Reciprocal conv term: sum over slices of lam / (|c11| + eps)."""
    want = float(np.sum(lam / (np.abs(kernel[:, :, 0, 0]) + eps)))
    if not _close(loss, want, 1e-10, 0.0):
        return f"conv term {loss!r} != numpy {want!r}"
    return None


def gradient_agreement(analytic: np.ndarray, numeric: np.ndarray,
                       tol: float = 1e-4) -> str | None:
    """Worst |analytic - numeric| relative to the largest numeric entry."""
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    err = float(np.max(np.abs(analytic - numeric))) / scale
    if not err <= tol:
        return f"analytic gradient differs from central differences by {err:.3e}"
    return None


def expected_profile(tensors, input_h: int, input_w: int) -> list[list]:
    """profile.csv rows recomputed from the raw weight tensors.

    Conv: per filter, the channel mean of n_out*log|c11| (n_out is the
    valid-conv output size at the tracked input dims); mean, linear
    quartiles and 1.5-IQR outliers over filters.  Dense: numpy slogdet
    of the top-left square part.
    """
    rows = []
    h, w = input_h, input_w
    for idx, t in enumerate(tensors):
        if t.ndim == 4:
            _, _, p, q = t.shape
            n_out = (h - p + 1) * (w - q + 1)
            per_element = np.log(np.abs(t[:, :, 0, 0]))
            totals = (n_out * per_element).mean(axis=1)
            pe = per_element.mean(axis=1)
            q1, q3 = np.quantile(totals, [0.25, 0.75])
            lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
            p1, p3 = np.quantile(pe, [0.25, 0.75])
            rows.append([idx, "conv2d", t.shape[0], h, w,
                         totals.mean(), q1, q3, pe.mean(), p1, p3,
                         int(np.sum((totals < lo) | (totals > hi)))])
            h, w = h - p + 1, w - q + 1
        else:
            k = min(t.shape)
            sign, logabs = np.linalg.slogdet(t[:k, :k])
            v = float(logabs) if sign != 0 else float("-inf")
            rows.append([idx, "dense", 1, h, w, v, v, v, v, v, v, 0])
    return rows


def profile_rows(got: list[list[str]], want: list[list]) -> str | None:
    if len(got) != len(want):
        return f"profile has {len(got)} rows, expected {len(want)}"
    for g, e in zip(got, want):
        if len(g) != len(e):
            return f"profile row {g} has {len(g)} fields"
        if [g[0], g[1], g[2], g[3], g[4], g[11]] != [str(v) for v in
                                                    (e[0], e[1], e[2], e[3], e[4], e[11])]:
            return f"profile row {g[:5]} / outliers {g[11]} != {e[:5]} / {e[11]}"
        for col in range(5, 11):
            if not _close(float(g[col]), float(e[col]), PROFILE_RTOL, PROFILE_ATOL):
                return f"profile layer {g[0]} column {col}: {g[col]} != {e[col]!r}"
    return None


def expected_grid(groups: dict[str, list[float]], alpha: float) -> dict:
    """(row, col) -> '+', '-' or '' from scipy's Welch test."""
    from scipy.stats import ttest_ind

    cells = {}
    for a, xa in groups.items():
        for b, xb in groups.items():
            cell = ""
            if a != b:
                p = ttest_ind(xa, xb, equal_var=False).pvalue
                if p < alpha:
                    cell = "+" if np.mean(xa) > np.mean(xb) else "-"
            cells[(a, b)] = cell
    return cells


def grid_cells(got: list[list[str]], want: dict, alpha: float) -> str | None:
    seen = {}
    for row in got:
        if len(row) != 5:
            return f"grid row {row} has {len(row)} fields"
        if float(row[1]) != alpha:
            return f"grid row alpha {row[1]} != {alpha}"
        seen[(row[2], row[3])] = row[4]
    if seen != want:
        diff = sorted(k for k in set(seen) | set(want) if seen.get(k) != want.get(k))
        return f"grid cells differ from scipy Welch tests at {diff[:3]}"
    return None
