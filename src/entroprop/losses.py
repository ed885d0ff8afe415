"""Entropy-based loss terms and their analytic gradients.

The dense term penalizes (or rewards) the entropy change of each dense
layer through log|det| of the weight matrix's square part; the conv
term does the same through the top-left coefficient of every
(layer, filter, channel) slice.  Both come in two shapes:

* ``log``: -lambda * log|value|, unbounded as the value approaches 0;
* ``recip``: lambda / (|value| + eps), bounded by lambda / eps, the
  stabilized variant used for training.

All gradients are exact.  The dense gradient lives only on square-part
entries and is built from the same LU factorization that produced the
determinant; the conv gradient touches only each slice's (0, 0) entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .entropy import square_part
from .errors import NonFiniteError, SingularMatrixError
from .tensor_ops import SINGULAR, logabsdet_and_inverse_transpose, lu_logabsdet

LOG_FORM = "log"
RECIP_FORM = "recip"
Slices = Mapping[tuple[int, int, int], np.ndarray]  # (layer, filter, channel) -> kernel


@dataclass(frozen=True)
class LossForm:
    """Which functional shape the entropy terms take.

    ``epsilon`` only matters for the reciprocal form; the default keeps
    it below 1e-3, the largest value that behaves well in training.
    """

    kind: str = RECIP_FORM
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.kind not in (LOG_FORM, RECIP_FORM):
            raise ValueError(f"unknown loss form {self.kind!r}")
        if self.kind == RECIP_FORM and not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    @classmethod
    def log(cls) -> "LossForm":
        return cls(kind=LOG_FORM)

    @classmethod
    def reciprocal(cls, epsilon: float = 1e-4) -> "LossForm":
        return cls(kind=RECIP_FORM, epsilon=epsilon)


@dataclass(frozen=True)
class LambdaSchedule:
    """Strength coefficients for the entropy terms.

    Dense layers are keyed by 1-based layer number, conv slices by
    (layer, filter, channel); missing keys fall back to the global
    defaults.  Negative values flip a term from entropy promotion to
    suppression.
    """

    dense_default: float = 0.0
    conv_default: float = 0.0
    dense_weights: Mapping[int, float] = field(default_factory=dict)
    conv_weights: Mapping[tuple[int, int, int], float] = field(default_factory=dict)

    def dense_coeff(self, layer: int) -> float:
        return self.dense_weights.get(layer, self.dense_default)

    def conv_coeff(self, layer: int, unit: int, channel: int) -> float:
        return self.conv_weights.get((layer, unit, channel), self.conv_default)


def _dense_terms(weights: Sequence[np.ndarray], schedule: LambdaSchedule,
                 form: LossForm, with_grad: bool
                 ) -> tuple[float, list[np.ndarray] | None]:
    """The dense entropy term, layer by layer; every public view uses it.

    Each layer with lambda != 0 is factored once: with ``with_grad`` its
    square part goes through :func:`logabsdet_and_inverse_transpose`,
    otherwise through :func:`lu_logabsdet`.  A singular square part
    counts as log|det| = -inf.
    """
    total = 0.0
    grads = [] if with_grad else None
    for layer, w in enumerate(weights, start=1):
        w = np.asarray(w, dtype=np.float64)
        lam = schedule.dense_coeff(layer)
        # np.zeros takes pre-zeroed memory; zeros_like writes zeros through
        # the whole matrix, which costs about as much as the factorization.
        grad = np.zeros(w.shape) if with_grad else None
        if lam != 0.0:
            sq = square_part(w)
            inv_t = None
            if with_grad:
                try:
                    ld, inv_t = logabsdet_and_inverse_transpose(sq)
                except SingularMatrixError:
                    ld = SINGULAR
            else:
                ld = lu_logabsdet(sq)
            # The gradient is grad_scale * inv(S)^T on the square part.
            if form.kind == LOG_FORM:
                total += -lam * ld.log_abs
                grad_scale = -lam
            else:
                # lambda / (|det| + eps) and the factor |det| / (|det| + eps)^2,
                # in log space so huge and tiny determinants stay finite; the
                # factor is exactly 0 at |det| = 0.
                log_denom = np.logaddexp(ld.log_abs, np.log(form.epsilon))
                total += lam * np.exp(-log_denom)
                grad_scale = -lam * np.exp(ld.log_abs - 2.0 * log_denom)
            if inv_t is not None:
                k = min(w.shape)
                np.multiply(inv_t, grad_scale, out=grad[:k, :k])
            elif with_grad and form.kind == LOG_FORM:
                raise SingularMatrixError(
                    f"dense layer {layer}: log-form gradient needs an "
                    "invertible square part"
                )
        if with_grad:
            grads.append(grad)
    return float(total), grads


def dense_entropy_loss(weights: Sequence[np.ndarray], schedule: LambdaSchedule,
                       form: LossForm) -> float:
    """Entropy loss summed over dense layers (1-based numbering).

    Log form: -sum_l lambda_l * log|det S_l|; a singular square part
    with positive lambda yields +inf.  Reciprocal form:
    sum_l lambda_l / (|det S_l| + eps), bounded by lambda / eps.
    """
    return _dense_terms(weights, schedule, form, with_grad=False)[0]


def dense_entropy_loss_grad(weights: Sequence[np.ndarray], schedule: LambdaSchedule,
                            form: LossForm) -> list[np.ndarray]:
    """Gradient of :func:`dense_entropy_loss` for every weight matrix.

    Entries outside the square part are exactly zero.  In the log form a
    singular square part raises; in the reciprocal form the gradient at
    |det| = 0 is defined as zero so training steps stay finite.
    """
    return _dense_terms(weights, schedule, form, with_grad=True)[1]


def _conv_terms(corners: np.ndarray, lams: np.ndarray, form: LossForm,
                with_grad: bool) -> tuple[float, np.ndarray | None]:
    """The conv term over c11 values, summed in order; every view uses it.

    Entries with lambda == 0 take no part, and a non-finite c11 with
    lambda != 0 raises.  The gradient is taken with respect to each c11.
    """
    hot = lams != 0.0
    corner, lam = corners[hot], lams[hot]
    if not np.all(np.isfinite(corner)):
        raise NonFiniteError("non-finite filter corner c11 with lambda != 0")
    mag = np.abs(corner)
    grad = np.zeros(corners.shape) if with_grad else None
    if form.kind == LOG_FORM:
        with np.errstate(divide="ignore"):
            terms = -lam * np.log(mag)
        if with_grad:
            if np.any(corner == 0.0):
                raise SingularMatrixError("log-form gradient needs c11 != 0")
            grad[hot] = -lam / corner
    else:
        shifted = mag + form.epsilon
        terms = lam / shifted
        if with_grad:
            # float_power is libm pow, as a float's ** is (shifted * shifted
            # rounds a few squares apart); sign(0) makes the c11 = 0 gradient 0.
            with np.errstate(over="ignore"):
                grad[hot] = -lam * np.sign(corner) / np.float_power(shifted, 2)
    # A running total, not np.sum's pairwise one, keeps a slice-by-slice
    # sum's bits; "0.0 +" makes an all -0.0 sum +0.0.
    return (float(0.0 + np.cumsum(terms)[-1]) if terms.size else 0.0), grad


def _slice_terms(filters: Slices, schedule: LambdaSchedule, form: LossForm,
                 with_grad: bool) -> tuple[float, dict | None]:
    """:func:`_conv_terms` on a slice dict, in ``sorted(filters)`` order."""
    keys = sorted(filters)
    corners = np.array([np.asarray(filters[k], dtype=np.float64)[0, 0] for k in keys])
    lams = np.array([schedule.conv_coeff(*k) for k in keys], dtype=np.float64)
    total, corner_grads = _conv_terms(corners, lams, form, with_grad)
    if corner_grads is None:
        return total, None
    grads = {key: np.zeros(np.shape(mat)) for key, mat in filters.items()}
    for key, g in zip(keys, corner_grads):
        grads[key][0, 0] = g
    return total, grads


def conv_entropy_loss(filters: Slices, schedule: LambdaSchedule,
                      form: LossForm) -> float:
    """Entropy loss summed over every (layer, filter, channel) slice.

    Log form: -sum lambda * log|c11|, which is +inf (not an error) when
    any penalized slice has c11 == 0.  Reciprocal form:
    sum lambda / (|c11| + eps).  A NaN or infinite penalized c11 raises
    :class:`NonFiniteError`.
    """
    return _slice_terms(filters, schedule, form, with_grad=False)[0]


def conv_entropy_loss_grad(filters: Slices, schedule: LambdaSchedule,
                           form: LossForm) -> dict[tuple[int, int, int], np.ndarray]:
    """Gradient of :func:`conv_entropy_loss` per slice.

    Each returned array is zero except at (0, 0).  The log form raises
    on c11 == 0; the reciprocal form's gradient there is defined as 0.
    """
    return _slice_terms(filters, schedule, form, with_grad=True)[1]


def compound_loss(acc_loss: float, weights: Sequence[np.ndarray], filters: Slices,
                  schedule: LambdaSchedule, form: LossForm) -> float:
    """Task loss plus both entropy terms (strengths live in the schedule)."""
    return (
        float(acc_loss)
        + dense_entropy_loss(weights, schedule, form)
        + conv_entropy_loss(filters, schedule, form)
    )


def dense_entropy_terms(weights: Sequence[np.ndarray], schedule: LambdaSchedule,
                        form: LossForm) -> tuple[float, list[np.ndarray]]:
    """Loss and gradient together, one factorization per dense layer.

    Matches :func:`dense_entropy_loss` / :func:`dense_entropy_loss_grad`
    exactly, and raises where the gradient does; meant for training
    loops that need both every step.
    """
    return _dense_terms(weights, schedule, form, with_grad=True)


def conv_entropy_terms(filters: Slices, schedule: LambdaSchedule, form: LossForm
                       ) -> tuple[float, dict[tuple[int, int, int], np.ndarray]]:
    """Conv loss and per-slice gradient together (see the paired functions)."""
    return _slice_terms(filters, schedule, form, with_grad=True)
