"""Adam, early stopping, and the autoencoder / CNN training loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroprop.errors import ConfigError, NonFiniteError
from entroprop.losses import LambdaSchedule, LossForm, dense_entropy_terms
from entroprop.nets import LayerParams, init_weights
from entroprop.synthetic import make_images
from entroprop.training import (
    AdamHyper,
    AdamState,
    TrainConfig,
    _entropy_grad_map,
    adam_step,
    cnn_spec,
    early_stop_check,
    train_autoencoder,
    train_cnn,
)


def weights_equal(a, b):
    for pa, pb in zip(a, b):
        if pa is None and pb is None:
            continue
        if not (np.array_equal(pa.w, pb.w) and np.array_equal(pa.b, pb.b)):
            return False
    return True


@pytest.fixture(scope="module")
def gray_data():
    imgs, labels = make_images(240, 1, 28, seed=3)
    x = imgs.reshape(240, -1) / 255.0
    return x[:200], x[200:]


@pytest.fixture(scope="module")
def rgb_data():
    imgs, labels = make_images(700, 3, 32, seed=4)
    x = imgs / 255.0
    return x[:500], labels[:500], x[500:], labels[500:]


class TestAdamStep:
    def setup_method(self):
        self.params = [LayerParams(np.array([[1.0, -2.0]]), np.array([0.5])), None]
        self.state = AdamState.zeros_like(self.params)
        self.hyper = AdamHyper()

    def test_zero_gradient_leaves_params(self):
        grads = [LayerParams(np.zeros((1, 2)), np.zeros(1)), None]
        new_params, new_state = adam_step(self.params, grads, self.state, self.hyper)
        np.testing.assert_array_equal(new_params[0].w, self.params[0].w)
        np.testing.assert_array_equal(new_params[0].b, self.params[0].b)
        assert new_state.t == 1

    def test_first_step_magnitude(self):
        g = np.array([[0.3, -4.0]])
        grads = [LayerParams(g, np.array([2.0])), None]
        new_params, _ = adam_step(self.params, grads, self.state, self.hyper)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        expected = self.params[0].w - self.hyper.lr * g / (np.abs(g) + self.hyper.eps)
        np.testing.assert_allclose(new_params[0].w, expected, rtol=1e-12)
        np.testing.assert_allclose(
            new_params[0].w - self.params[0].w,
            -self.hyper.lr * np.sign(g), rtol=1e-6,
        )

    def test_two_steps_match_scalar_reference(self):
        # Reference trace computed by an independent scalar loop for
        # f(theta) = theta^2, grad = 2 theta.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta, m, v = 3.0, 0.0, 0.0
        ref = []
        for t in (1, 2):
            g = 2.0 * theta
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            ref.append(theta)

        params = [LayerParams(np.array([[3.0]]), np.zeros(1))]
        state = AdamState.zeros_like(params)
        hyper = AdamHyper(lr=lr, beta1=b1, beta2=b2, eps=eps)
        for expected in ref:
            grads = [LayerParams(2.0 * params[0].w, np.zeros(1))]
            params, state = adam_step(params, grads, state, hyper)
            np.testing.assert_allclose(params[0].w[0, 0], expected, rtol=1e-12)

    def test_shape_mismatch_raises(self):
        from entroprop.errors import DimensionError

        grads = [LayerParams(np.zeros((2, 2)), np.zeros(1)), None]
        with pytest.raises(DimensionError):
            adam_step(self.params, grads, self.state, self.hyper)


def reference_adam_step(params, grads, state, hyper):
    """The purely functional update that adam_step replaced, kept as the oracle."""
    t = state.t + 1
    c1 = 1.0 - hyper.beta1 ** t
    c2 = 1.0 - hyper.beta2 ** t
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p is None:
            new_params.append(None)
            new_m.append(None)
            new_v.append(None)
            continue
        mw = hyper.beta1 * m.w + (1.0 - hyper.beta1) * g.w
        mb = hyper.beta1 * m.b + (1.0 - hyper.beta1) * g.b
        vw = hyper.beta2 * v.w + (1.0 - hyper.beta2) * g.w * g.w
        vb = hyper.beta2 * v.b + (1.0 - hyper.beta2) * g.b * g.b
        new_w = p.w - hyper.lr * (mw / c1) / (np.sqrt(vw / c2) + hyper.eps)
        new_b = p.b - hyper.lr * (mb / c1) / (np.sqrt(vb / c2) + hyper.eps)
        new_params.append(LayerParams(new_w, new_b))
        new_m.append(LayerParams(mw, mb))
        new_v.append(LayerParams(vw, vb))
    return new_params, AdamState(new_m, new_v, t)


def _bits(layers):
    return [None if p is None else (p.w.tobytes(), p.b.tobytes()) for p in layers]


class TestAdamInPlace:
    """The sliced in-place update against the functional reference."""

    # Around one slice (ADAM_SLICE = 32768 elements), and the AE's first layer.
    @pytest.mark.parametrize("shape", [(1,), (32767,), (32768,), (32769,), (180, 784)],
                             ids=["1", "32767", "32768", "32769", "180x784"])
    def test_bitwise_equal_to_functional_reference(self, shape):
        rng = np.random.default_rng(21)
        params = [LayerParams(rng.normal(size=shape), rng.normal(size=shape[:1])), None]
        hyper = AdamHyper(lr=3e-3)
        state = AdamState.zeros_like(params)
        ref_params, ref_state = params, AdamState.zeros_like(params)
        for _ in range(5):
            grads = [LayerParams(rng.normal(size=shape) * rng.uniform(0, 2, size=shape),
                                 rng.normal(size=shape[:1])), None]
            params, state = adam_step(params, grads, state, hyper)
            ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, hyper)
            assert _bits(params) == _bits(ref_params)
            assert _bits(state.m) == _bits(ref_state.m)
            assert _bits(state.v) == _bits(ref_state.v)
            assert state.t == ref_state.t

    def test_reads_params_and_grads_and_returns_the_given_state(self):
        rng = np.random.default_rng(22)
        params = [LayerParams(rng.normal(size=(3, 40000)), rng.normal(size=3)), None]
        grads = [LayerParams(rng.normal(size=(3, 40000)), rng.normal(size=3)), None]
        before = _bits(params), _bits(grads)
        state = AdamState.zeros_like(params)
        new_params, new_state = adam_step(params, grads, state, AdamHyper())
        assert (_bits(params), _bits(grads)) == before
        assert new_state is state and state.t == 1
        assert not np.shares_memory(new_params[0].w, params[0].w)
        assert np.any(state.m[0].w != 0.0)

    def test_shape_mismatch_in_a_later_layer_changes_no_moment(self):
        from entroprop.errors import DimensionError

        rng = np.random.default_rng(23)
        params = [LayerParams(rng.normal(size=(4, 5)), rng.normal(size=4)), None,
                  LayerParams(rng.normal(size=(2, 4)), rng.normal(size=2))]
        state = AdamState.zeros_like(params)
        ok = [None if p is None else LayerParams(rng.normal(size=p.w.shape),
                                                  rng.normal(size=p.b.shape))
              for p in params]
        params, state = adam_step(params, ok, state, AdamHyper())
        moments = _bits(state.m), _bits(state.v)
        bad = [ok[0], None, LayerParams(np.zeros((4, 2)), np.zeros(2))]
        with pytest.raises(DimensionError):
            adam_step(params, bad, state, AdamHyper())
        assert (_bits(state.m), _bits(state.v)) == moments
        assert state.t == 1


class TestEarlyStopCheck:
    def test_strictly_improving_continues(self):
        trace = [0.5, 0.4, 0.3, 0.2, 0.1]
        assert not early_stop_check(trace, patience=3, min_delta=1e-5, mode="min")

    def test_flat_trace_stops_at_patience_plus_one(self):
        assert early_stop_check([0.4] * 8, patience=7, min_delta=1e-5, mode="min")
        assert not early_stop_check([0.4] * 7, patience=7, min_delta=1e-5, mode="min")

    def test_walkthrough_trace(self):
        trace = [0.5, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4]
        # Higher-is-better trace: the best value (0.5) goes unimproved
        # through the seven following epochs, so epoch 8 stops.
        assert early_stop_check(trace, patience=7, min_delta=1e-5, mode="max")
        assert not early_stop_check(trace[:-1], patience=7, min_delta=1e-5,
                                    mode="max")

    def test_min_delta_zero_requires_strict_improvement(self):
        assert early_stop_check([0.5, 0.5, 0.5], patience=2, min_delta=0.0,
                                mode="max")
        assert not early_stop_check([0.5, 0.6, 0.7], patience=2, min_delta=0.0,
                                    mode="max")

    def test_sub_threshold_improvement_counts_as_plateau(self):
        trace = [0.5, 0.5 - 1e-7, 0.5 - 2e-7]
        assert early_stop_check(trace, patience=2, min_delta=1e-5, mode="min")

    def test_empty_trace_raises(self):
        with pytest.raises(ConfigError):
            early_stop_check([], patience=2, min_delta=0.0, mode="min")


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_epochs": 0}, {"seed": -1}, {"adam": AdamHyper(lr=0.0)},
        {"adam": AdamHyper(lr=float("nan"))}, {"adam": AdamHyper(lr=float("inf"))},
        {"init_scale": -1.0}, {"init_scale": float("nan")},
        {"init_scale": float("inf")}, {"min_delta": float("nan")},
        {"min_delta": float("-inf")},
    ], ids=["max_epochs=0", "seed=-1", "lr=0", "lr=nan", "lr=inf", "init_scale=-1",
            "init_scale=nan", "init_scale=inf", "min_delta=nan", "min_delta=-inf"])
    def test_unusable_setting_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_boundary_settings_accepted(self):
        cfg = TrainConfig(max_epochs=1, seed=0, init_scale=0.0, min_delta=0.0,
                          adam=AdamHyper(lr=1e-300))
        assert cfg.min_delta == 0.0


class TestTrainAutoencoder:
    def test_single_epoch_run(self, gray_data):
        train_x, val_x = gray_data
        cfg = TrainConfig(max_epochs=1, seed=0, batch_size=32)
        res = train_autoencoder(cfg, train_x, val_x, 8)
        assert res.stopping_epoch == 1
        assert len(res.val_metric) == 1
        assert len(res.train_loss) == 1

    def test_same_seed_identical_results(self, gray_data):
        train_x, val_x = gray_data
        cfg = TrainConfig(max_epochs=3, seed=11, batch_size=32)
        a = train_autoencoder(cfg, train_x, val_x, 8)
        b = train_autoencoder(cfg, train_x, val_x, 8)
        assert a.val_metric == b.val_metric
        assert a.train_loss == b.train_loss
        assert weights_equal(a.weights, b.weights)

    def test_validation_mse_decreases_initially(self, gray_data):
        train_x, val_x = gray_data
        cfg = TrainConfig(max_epochs=3, seed=5, batch_size=16)
        res = train_autoencoder(cfg, train_x, val_x, 8)
        assert res.val_metric[0] > res.val_metric[1] > res.val_metric[2]

    def test_zero_schedule_bit_identical_to_base(self, gray_data):
        train_x, val_x = gray_data
        base = TrainConfig(max_epochs=2, seed=7, batch_size=32)
        zeroed = TrainConfig(
            max_epochs=2, seed=7, batch_size=32,
            schedule=LambdaSchedule(dense_weights={1: 0.0}),
            entropy_loss_layers=frozenset({1}),
        )
        a = train_autoencoder(base, train_x, val_x, 8)
        b = train_autoencoder(zeroed, train_x, val_x, 8)
        assert a.val_metric == b.val_metric
        assert weights_equal(a.weights, b.weights)

    def test_early_stopping_fires(self, gray_data):
        train_x, val_x = gray_data
        cfg = TrainConfig(max_epochs=40, seed=1, batch_size=32, patience=2,
                          min_delta=0.05)
        res = train_autoencoder(cfg, train_x, val_x, 8)
        assert res.stopping_epoch < 40
        assert len(res.val_metric) == res.stopping_epoch

    def test_invalid_latent_raises(self, gray_data):
        train_x, val_x = gray_data
        with pytest.raises(ConfigError):
            train_autoencoder(TrainConfig(), train_x, val_x, 0)


class TestTrainCnn:
    def test_same_seed_identical_traces(self, rgb_data):
        train_x, train_y, val_x, val_y = rgb_data
        cfg = TrainConfig(base_loss="cross_entropy", max_epochs=2, seed=3,
                          batch_size=64)
        a = train_cnn(cfg, train_x, train_y, val_x, val_y, [8])
        b = train_cnn(cfg, train_x, train_y, val_x, val_y, [8])
        assert a.val_metric == b.val_metric
        assert a.train_loss == b.train_loss
        assert weights_equal(a.weights, b.weights)

    def test_smoke_run_beats_chance(self, rgb_data):
        train_x, train_y, val_x, val_y = rgb_data
        cfg = TrainConfig(base_loss="cross_entropy", max_epochs=5, seed=0,
                          batch_size=64)
        res = train_cnn(cfg, train_x, train_y, val_x, val_y, [32])
        assert res.val_metric[-1] > 0.2
        assert res.stopping_epoch <= 5

    def test_entropy_loss_raises_corner_magnitudes(self, rgb_data):
        train_x, train_y, val_x, val_y = rgb_data
        base_cfg = TrainConfig(base_loss="cross_entropy", max_epochs=2, seed=9,
                               batch_size=64)
        ent_cfg = TrainConfig(
            base_loss="cross_entropy", max_epochs=2, seed=9, batch_size=64,
            schedule=LambdaSchedule(conv_default=0.01),
            form=LossForm.reciprocal(1e-4),
            entropy_loss_layers=frozenset({1}),
        )
        base = train_cnn(base_cfg, train_x, train_y, val_x, val_y, [8])
        ent = train_cnn(ent_cfg, train_x, train_y, val_x, val_y, [8])
        conv_pos = 0
        base_corners = np.abs(base.weights[conv_pos].w[:, :, 0, 0]).mean()
        ent_corners = np.abs(ent.weights[conv_pos].w[:, :, 0, 0]).mean()
        assert ent_corners > base_corners


def _per_slice_reference(spec, weights, schedule, form, layers):
    """The entropy term slice by slice, from conv_coeff and dense_coeff."""
    def on(layer):
        return layers is None or layer in layers

    dense_pos = spec.dense_positions()
    dense_sched = LambdaSchedule(dense_weights={
        k: schedule.dense_coeff(k) if on(k) else 0.0
        for k in range(1, len(dense_pos) + 1)})
    d_loss, d_grads = dense_entropy_terms([weights[i].w for i in dense_pos],
                                          dense_sched, form)
    grads = {pos: g for pos, g in zip(dense_pos, d_grads) if np.any(g)}
    total = 0.0
    for layer, pos in enumerate(spec.conv_positions(), start=1):
        kernel = weights[pos].w
        acc = np.zeros_like(kernel)
        for f in range(kernel.shape[0]):
            for ch in range(kernel.shape[1]):
                lam = schedule.conv_coeff(layer, f, ch) if on(layer) else 0.0
                if lam == 0.0:
                    continue
                corner = float(kernel[f, ch, 0, 0])
                if form.kind == "log":
                    total += -lam * np.log(abs(corner))
                    g = -lam / corner
                else:
                    total += lam / (abs(corner) + form.epsilon)
                    g = -lam * np.sign(corner) / (abs(corner) + form.epsilon) ** 2
                if g != 0.0:
                    acc[f, ch, 0, 0] = g
        if np.any(acc):
            grads[pos] = acc
    return 0.0 + d_loss + total, grads


LAMBDAS = st.sampled_from([0.0, 1e-2, -0.5, 3.0])


@settings(max_examples=60, deadline=None, database=None)
@given(
    in_channels=st.integers(1, 4),
    widths=st.lists(st.integers(1, 6), min_size=1, max_size=2),
    n_classes=st.integers(2, 5),
    seed=st.integers(0, 2 ** 32 - 1),
    scale=st.sampled_from([0.3, 1.0, 4.0]),
    dense_default=LAMBDAS,
    conv_default=LAMBDAS,
    dense_weights=st.dictionaries(st.integers(0, 2), LAMBDAS, max_size=2),
    conv_weights=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(-1, 7), st.integers(-1, 5)),
        st.sampled_from([0.0, 0.25, -2.0, 1e-3]), max_size=8),
    layers=st.one_of(st.none(), st.frozensets(st.integers(1, 3))),
    form=st.sampled_from([LossForm.log(), LossForm.reciprocal(1e-4),
                          LossForm.reciprocal(0.5)]),
    zero_corner=st.booleans(),
)
def test_entropy_grad_map_matches_per_slice_reference(
        in_channels, widths, n_classes, seed, scale, dense_default, conv_default,
        dense_weights, conv_weights, layers, form, zero_corner):
    spec = cnn_spec(in_channels, 10, 10, widths, n_classes)
    weights = init_weights(spec, np.random.default_rng(seed), scale)
    if zero_corner and form.kind == "recip":
        weights[0].w[0, 0, 0, 0] = 0.0
    schedule = LambdaSchedule(dense_default, conv_default, dense_weights, conv_weights)
    expected_loss, expected = _per_slice_reference(spec, weights, schedule, form,
                                                   layers)
    if layers is None:
        loss, grads = _entropy_grad_map(spec, weights, schedule, form)
    else:
        loss, grads = _entropy_grad_map(spec, weights, schedule, form, layers)
    assert float(loss).hex() == float(expected_loss).hex()
    assert sorted(grads) == sorted(expected)
    for pos, g in grads.items():
        assert g.shape == expected[pos].shape
        assert g.tobytes() == expected[pos].tobytes()


def test_entropy_grad_map_rejects_non_finite_corner():
    spec = cnn_spec(2, 10, 10, [3])
    weights = init_weights(spec, np.random.default_rng(0))
    weights[0].w[1, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        _entropy_grad_map(spec, weights, LambdaSchedule(conv_default=0.1),
                          LossForm.reciprocal(1e-4))
