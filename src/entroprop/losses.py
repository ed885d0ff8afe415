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
from .errors import SingularMatrixError
from .tensor_ops import SINGULAR, logabsdet_and_inverse_transpose, lu_logabsdet

LOG_FORM = "log"
RECIP_FORM = "recip"


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


def conv_entropy_loss(filters: Mapping[tuple[int, int, int], np.ndarray],
                      schedule: LambdaSchedule, form: LossForm) -> float:
    """Entropy loss summed over every (layer, filter, channel) slice.

    Log form: -sum lambda * log|c11|, which is +inf (not an error) when
    any penalized slice has c11 == 0.  Reciprocal form:
    sum lambda / (|c11| + eps).
    """
    total = 0.0
    for key in sorted(filters):
        lam = schedule.conv_coeff(*key)
        if lam == 0.0:
            continue
        corner = abs(float(np.asarray(filters[key])[0, 0]))
        if form.kind == LOG_FORM:
            log_corner = np.log(corner) if corner > 0.0 else float("-inf")
            total += -lam * log_corner
        else:
            total += lam / (corner + form.epsilon)
    return float(total)


def conv_entropy_loss_grad(filters: Mapping[tuple[int, int, int], np.ndarray],
                           schedule: LambdaSchedule, form: LossForm
                           ) -> dict[tuple[int, int, int], np.ndarray]:
    """Gradient of :func:`conv_entropy_loss` per slice.

    Each returned array is zero except at (0, 0).  The log form raises
    on c11 == 0; the reciprocal form's gradient there is defined as 0.
    """
    grads = {}
    for key, mat in filters.items():
        mat = np.asarray(mat, dtype=np.float64)
        grad = np.zeros_like(mat)
        lam = schedule.conv_coeff(*key)
        if lam != 0.0:
            corner = float(mat[0, 0])
            if form.kind == LOG_FORM:
                if corner == 0.0:
                    raise SingularMatrixError(
                        f"slice {key}: log-form gradient needs c11 != 0"
                    )
                grad[0, 0] = -lam / corner
            else:
                grad[0, 0] = -lam * np.sign(corner) / (abs(corner) + form.epsilon) ** 2
        grads[key] = grad
    return grads


def compound_loss(acc_loss: float, weights: Sequence[np.ndarray],
                  filters: Mapping[tuple[int, int, int], np.ndarray],
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


def conv_entropy_terms(filters: Mapping[tuple[int, int, int], np.ndarray],
                       schedule: LambdaSchedule, form: LossForm
                       ) -> tuple[float, dict[tuple[int, int, int], np.ndarray]]:
    """Conv loss and per-slice gradient together (see the paired functions)."""
    return (
        conv_entropy_loss(filters, schedule, form),
        conv_entropy_loss_grad(filters, schedule, form),
    )
