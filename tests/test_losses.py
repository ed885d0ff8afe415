"""Entropy loss terms and analytic gradients, checked by finite differences."""

import numpy as np
import pytest

from entroprop import losses
from entroprop.errors import SingularMatrixError
from entroprop.losses import (
    LambdaSchedule,
    LossForm,
    compound_loss,
    conv_entropy_loss,
    conv_entropy_loss_grad,
    conv_entropy_terms,
    dense_entropy_loss,
    dense_entropy_loss_grad,
    dense_entropy_terms,
)

LOG = LossForm.log()
RECIP = LossForm.reciprocal(1e-4)
W_2X2 = np.array([[2.0, 1.0], [4.0, 3.0]])


def fd_grad(fn, w, step=1e-6):
    g = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp = w.copy()
            wp[i, j] += step
            wm = w.copy()
            wm[i, j] -= step
            g[i, j] = (fn(wp) - fn(wm)) / (2 * step)
    return g


class TestLossForm:
    def test_default_is_stabilized(self):
        form = LossForm()
        assert form.kind == "recip"
        assert 0 < form.epsilon < 1e-3

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            LossForm(kind="quadratic")

    def test_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            LossForm.reciprocal(0.0)


class TestLambdaSchedule:
    def test_fallback_to_global(self):
        sched = LambdaSchedule(dense_default=0.5, conv_default=0.25,
                               dense_weights={2: 1.0})
        assert sched.dense_coeff(1) == 0.5
        assert sched.dense_coeff(2) == 1.0
        assert sched.conv_coeff(1, 0, 0) == 0.25

    def test_negative_values_allowed(self):
        sched = LambdaSchedule(conv_weights={(1, 0, 0): -2.0})
        assert sched.conv_coeff(1, 0, 0) == -2.0


class TestDenseEntropyLoss:
    def test_zero_schedule(self):
        assert dense_entropy_loss([W_2X2], LambdaSchedule(), LOG) == 0.0

    def test_log_form_value(self):
        sched = LambdaSchedule(dense_default=1.0)
        np.testing.assert_allclose(
            dense_entropy_loss([W_2X2], sched, LOG), -np.log(2.0), rtol=1e-12
        )

    def test_reciprocal_form_value(self):
        sched = LambdaSchedule(dense_default=1.0)
        np.testing.assert_allclose(
            dense_entropy_loss([W_2X2], sched, RECIP), 1.0 / (2.0 + 1e-4),
            rtol=1e-12,
        )

    def test_singular_log_form_is_inf(self):
        sched = LambdaSchedule(dense_default=1.0)
        w = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert dense_entropy_loss([w], sched, LOG) == float("inf")

    def test_singular_reciprocal_hits_ceiling(self):
        sched = LambdaSchedule(dense_default=1.0)
        w = np.array([[1.0, 2.0], [2.0, 4.0]])
        np.testing.assert_allclose(
            dense_entropy_loss([w], sched, RECIP), 1.0 / 1e-4, rtol=1e-12
        )

    def test_reciprocal_bounded_log_not(self):
        sched = LambdaSchedule(dense_default=1.0)
        rng = np.random.default_rng(0)
        for scale in (1e-8, 1e-3, 1.0, 1e3):
            w = scale * rng.normal(size=(3, 3))
            r = dense_entropy_loss([w], sched, RECIP)
            assert 0 < r <= 1.0 / RECIP.epsilon

    def test_negating_lambda_negates_loss(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 6))
        pos = dense_entropy_loss([w], LambdaSchedule(dense_default=0.7), LOG)
        neg = dense_entropy_loss([w], LambdaSchedule(dense_default=-0.7), LOG)
        assert pos == -neg


class TestDenseEntropyLossGrad:
    def test_log_form_2x2_value(self):
        sched = LambdaSchedule(dense_default=1.0)
        (g,) = dense_entropy_loss_grad([W_2X2], sched, LOG)
        # -inv(W).T for det 2: inv = [[3,-1],[-4,2]]/2
        np.testing.assert_allclose(g, [[-1.5, 2.0], [0.5, -1.0]], rtol=1e-10)

    def test_zero_lambda_zero_grad(self):
        (g,) = dense_entropy_loss_grad([W_2X2], LambdaSchedule(), LOG)
        np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_rectangular_grad_zero_outside_square_part(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 3))
        sched = LambdaSchedule(dense_default=1.3)
        for form in (LOG, RECIP):
            (g,) = dense_entropy_loss_grad([w], sched, form)
            np.testing.assert_array_equal(g[:, 2], np.zeros(2))
            assert np.any(g[:, :2])

    @pytest.mark.parametrize("form", [LOG, RECIP], ids=["log", "recip"])
    def test_matches_finite_differences(self, form):
        rng = np.random.default_rng(3)
        sched = LambdaSchedule(dense_default=0.8, dense_weights={2: -0.3})
        for _ in range(25):
            rows, cols = rng.integers(2, 6, size=2)
            ws = [rng.normal(size=(rows, cols)) + np.eye(rows, cols),
                  rng.normal(size=(3, 3)) + 2 * np.eye(3)]
            grads = dense_entropy_loss_grad(ws, sched, form)
            for li, w in enumerate(ws):
                def f(wp, li=li):
                    trial = [x.copy() for x in ws]
                    trial[li] = wp
                    return dense_entropy_loss(trial, sched, form)
                fd = fd_grad(f, w)
                np.testing.assert_allclose(grads[li], fd, rtol=1e-5, atol=1e-8)

    def test_log_form_singular_raises(self):
        sched = LambdaSchedule(dense_default=1.0)
        with pytest.raises(SingularMatrixError):
            dense_entropy_loss_grad([np.array([[1.0, 2.0], [2.0, 4.0]])], sched, LOG)

    def test_reciprocal_zero_det_gives_zero_grad(self):
        sched = LambdaSchedule(dense_default=1.0)
        (g,) = dense_entropy_loss_grad([np.array([[1.0, 2.0], [2.0, 4.0]])],
                                       sched, RECIP)
        np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_huge_determinant_stays_finite(self):
        sched = LambdaSchedule(dense_default=1.0)
        w = np.diag(np.full(400, 10.0))  # log|det| ~ 921, exp overflows
        (g,) = dense_entropy_loss_grad([w], sched, RECIP)
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(g, np.zeros_like(g), atol=1e-300)


class TestConvEntropyLoss:
    def test_zero_schedule(self):
        filters = {(1, 0, 0): np.array([[2.0, 1.0], [0.0, 1.0]])}
        assert conv_entropy_loss(filters, LambdaSchedule(), LOG) == 0.0

    def test_single_slice_log_value(self):
        filters = {(1, 0, 0): np.array([[2.0, 1.0], [0.0, 1.0]])}
        sched = LambdaSchedule(conv_default=1.0)
        np.testing.assert_allclose(
            conv_entropy_loss(filters, sched, LOG), -np.log(2.0), rtol=1e-12
        )

    def test_two_slices_cancel(self):
        filters = {
            (1, 0, 0): np.array([[2.0, 1.0], [0.0, 1.0]]),
            (1, 1, 0): np.array([[0.5, 1.0], [0.0, 1.0]]),
        }
        sched = LambdaSchedule(conv_default=1.0)
        np.testing.assert_allclose(conv_entropy_loss(filters, sched, LOG), 0.0,
                                   atol=1e-12)

    def test_zero_corner_log_form_reports_inf(self):
        filters = {(1, 0, 0): np.array([[0.0, 1.0], [2.0, 1.0]])}
        sched = LambdaSchedule(conv_default=1.0)
        assert conv_entropy_loss(filters, sched, LOG) == float("inf")

    def test_reciprocal_bounded(self):
        sched = LambdaSchedule(conv_default=2.0)
        for corner in (0.0, 1e-9, 0.3, 100.0):
            filters = {(1, 0, 0): np.array([[corner, 1.0], [2.0, 1.0]])}
            val = conv_entropy_loss(filters, sched, RECIP)
            assert 0 < val <= 2.0 / RECIP.epsilon


class TestConvEntropyLossGrad:
    def test_log_form_value_and_sparsity(self):
        filters = {(1, 0, 0): np.array([[2.0, 1.0], [0.7, 1.0]])}
        sched = LambdaSchedule(conv_default=1.0)
        g = conv_entropy_loss_grad(filters, sched, LOG)[(1, 0, 0)]
        assert g[0, 0] == pytest.approx(-0.5)
        np.testing.assert_array_equal(g.ravel()[1:], np.zeros(3))

    def test_zero_lambda(self):
        filters = {(1, 0, 0): np.array([[2.0, 1.0], [0.7, 1.0]])}
        g = conv_entropy_loss_grad(filters, LambdaSchedule(), LOG)[(1, 0, 0)]
        np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_negative_corner_reciprocal(self):
        filters = {(1, 0, 0): np.array([[-1.0, 1.0], [0.7, 1.0]])}
        sched = LambdaSchedule(conv_default=1.0)
        g = conv_entropy_loss_grad(filters, sched, RECIP)[(1, 0, 0)]
        np.testing.assert_allclose(g[0, 0], 1.0 / (1.0 + 1e-4) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("form", [LOG, RECIP], ids=["log", "recip"])
    def test_matches_finite_differences(self, form):
        rng = np.random.default_rng(5)
        sched = LambdaSchedule(conv_default=0.9, conv_weights={(1, 1, 0): -0.4})
        for _ in range(25):
            filters = {
                (1, 0, 0): rng.normal(size=(3, 3)) + 0.5,
                (1, 1, 0): rng.normal(size=(2, 4)) + 0.5,
            }
            grads = conv_entropy_loss_grad(filters, sched, form)
            for key, mat in filters.items():
                def f(mp, key=key):
                    trial = {k: v.copy() for k, v in filters.items()}
                    trial[key] = mp
                    return conv_entropy_loss(trial, sched, form)
                fd = fd_grad(f, mat)
                np.testing.assert_allclose(grads[key], fd, rtol=1e-5, atol=1e-8)

    def test_log_form_zero_corner_raises(self):
        filters = {(1, 0, 0): np.array([[0.0, 1.0], [2.0, 1.0]])}
        sched = LambdaSchedule(conv_default=1.0)
        with pytest.raises(SingularMatrixError):
            conv_entropy_loss_grad(filters, sched, LOG)

    def test_reciprocal_zero_corner_gives_zero(self):
        filters = {(1, 0, 0): np.array([[0.0, 1.0], [2.0, 1.0]])}
        sched = LambdaSchedule(conv_default=1.0)
        g = conv_entropy_loss_grad(filters, sched, RECIP)[(1, 0, 0)]
        np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_negating_lambda_negates_loss_and_grad(self):
        rng = np.random.default_rng(8)
        filters = {(1, 0, 0): rng.normal(size=(3, 3)) + 0.4}
        pos, neg = LambdaSchedule(conv_default=0.7), LambdaSchedule(conv_default=-0.7)
        for form in (LOG, RECIP):
            assert (conv_entropy_loss(filters, pos, form)
                    == -conv_entropy_loss(filters, neg, form))
            gp = conv_entropy_loss_grad(filters, pos, form)[(1, 0, 0)]
            gn = conv_entropy_loss_grad(filters, neg, form)[(1, 0, 0)]
            np.testing.assert_array_equal(gp, -gn)


class TestCompoundLoss:
    def test_zero_schedule_identity(self):
        filters = {(1, 0, 0): np.array([[2.0, 1.0], [0.0, 1.0]])}
        assert compound_loss(1.25, [W_2X2], filters, LambdaSchedule(), LOG) == 1.25

    def test_dense_only(self):
        sched = LambdaSchedule(dense_default=1.0)
        np.testing.assert_allclose(
            compound_loss(1.0, [W_2X2], {}, sched, LOG), 1.0 - np.log(2.0),
            rtol=1e-12,
        )

    def test_additivity(self):
        sched = LambdaSchedule(dense_default=0.6, conv_default=1.1)
        filters = {(1, 0, 0): np.array([[2.0, 1.0], [0.0, 1.0]])}
        total = compound_loss(0.5, [W_2X2], filters, sched, RECIP)
        expected = (
            0.5
            + dense_entropy_loss([W_2X2], sched, RECIP)
            + conv_entropy_loss(filters, sched, RECIP)
        )
        np.testing.assert_allclose(total, expected, atol=1e-12)


class TestCombinedTerms:
    def test_dense_terms_match_pair(self):
        rng = np.random.default_rng(6)
        ws = [rng.normal(size=(3, 5)), rng.normal(size=(4, 4))]
        sched = LambdaSchedule(dense_default=0.8)
        for form in (LOG, RECIP):
            loss, grads = dense_entropy_terms(ws, sched, form)
            assert loss == dense_entropy_loss(ws, sched, form)
            for g, ref in zip(grads, dense_entropy_loss_grad(ws, sched, form)):
                np.testing.assert_array_equal(g, ref)

    def test_conv_terms_match_pair(self):
        rng = np.random.default_rng(7)
        filters = {(1, 0, 0): rng.normal(size=(3, 3)),
                   (2, 1, 2): rng.normal(size=(2, 2))}
        sched = LambdaSchedule(conv_default=-0.5)
        for form in (LOG, RECIP):
            loss, grads = conv_entropy_terms(filters, sched, form)
            assert loss == conv_entropy_loss(filters, sched, form)
            ref = conv_entropy_loss_grad(filters, sched, form)
            for key in filters:
                np.testing.assert_array_equal(grads[key], ref[key])


class TestDenseTermsAgainstNumpy:
    """dense_entropy_terms against numpy's slogdet and inverse."""

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 180])
    @pytest.mark.parametrize("extra", [(0, 3), (3, 0)], ids=["wide", "tall"])
    def test_matches_slogdet_and_inverse(self, n, extra):
        rng = np.random.default_rng(100 + n)
        lam = 0.37
        w = rng.normal(size=(n + extra[0], n + extra[1])) * 0.3 / np.sqrt(n)
        w[:n, :n] += np.eye(n)
        s = w[:n, :n]
        sign, logdet = np.linalg.slogdet(s)
        inv_t = np.linalg.inv(s).T
        det = np.exp(logdet)
        eps = RECIP.epsilon
        expected = {
            "log": (-lam * logdet, -lam * inv_t),
            "recip": (lam / (det + eps), -lam * det / (det + eps) ** 2 * inv_t),
        }
        sched = LambdaSchedule(dense_default=lam)
        for form in (LOG, RECIP):
            loss, (g,) = dense_entropy_terms([w], sched, form)
            want_loss, want_grad = expected[form.kind]
            np.testing.assert_allclose(loss, want_loss, rtol=1e-9)
            np.testing.assert_allclose(
                g[:n, :n], want_grad, rtol=1e-9,
                atol=1e-12 * np.max(np.abs(want_grad)),
            )
            outside = np.ones(w.shape, dtype=bool)
            outside[:n, :n] = False
            np.testing.assert_array_equal(g[outside], 0.0)


class TestDenseFactorizationCount:
    """Each name losses looks up for a factorization, with the shapes passed."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in ("logabsdet_and_inverse_transpose", "lu_logabsdet"):
            def counting(m, name=name, real=getattr(losses, name)):
                seen.append((name, np.shape(m)))
                return real(m)
            monkeypatch.setattr(losses, name, counting)
        return seen

    def test_one_factorization_per_penalised_layer(self, calls):
        rng = np.random.default_rng(8)
        ws = [rng.normal(size=(5, 7)), rng.normal(size=(4, 4)),
              rng.normal(size=(6, 3))]
        sched = LambdaSchedule(dense_weights={1: 0.5, 2: 0.0, 3: -0.2})
        for form in (LOG, RECIP):
            calls.clear()
            dense_entropy_terms(ws, sched, form)
            assert calls == [("logabsdet_and_inverse_transpose", (5, 5)),
                             ("logabsdet_and_inverse_transpose", (3, 3))]

    def test_no_factorization_at_zero_lambda(self, calls):
        rng = np.random.default_rng(9)
        ws = [rng.normal(size=(5, 7)), rng.normal(size=(4, 4))]
        for form in (LOG, RECIP):
            loss, grads = dense_entropy_terms(ws, LambdaSchedule(), form)
            assert loss == 0.0
            assert not any(np.any(g) for g in grads)
        assert calls == []
