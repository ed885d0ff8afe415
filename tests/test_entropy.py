"""Entropy-change math: squarification, conv matrices, deltas, profiling.

The worked 4x4-image / 3x2-filter example and the 3x5 weight matrix
embedding are pinned exactly; randomized suites verify the structural
laws (matrix-form equivalence, the corner-power determinant, squarify
determinant preservation, and the Gaussian covariance identity).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entroprop.entropy import (
    build_conv_matrix,
    conv_entropy_delta,
    dense_entropy_delta,
    profile_network,
    square_part,
    squarify_dense,
)
from entroprop.errors import DimensionError, NonFiniteError
from entroprop.nets import Activation, Conv2D, Dense, LayerParams, MaxPool2
from entroprop.tensor_ops import conv2d, lu_logabsdet

EXAMPLE_W = np.array(
    [[3, 0, 9, -3, 4], [1, 5, -1, 4, 2], [0, 4, -2, 1, 5]], dtype=float
)
EXAMPLE_X = np.array(
    [[3, 4, 1, 2], [0, 0, 5, 6], [2, 1, 0, 3], [1, 4, 2, 5]], dtype=float
)
EXAMPLE_C = np.array([[2, 1], [4, 3], [-2, 1]], dtype=float)

# The 6x16 matrix form of the worked convolution, one band block per
# filter row, shifted one block per output row.
EXAMPLE_CM = np.array([
    [2, 1, 0, 0, 4, 3, 0, 0, -2, 1, 0, 0, 0, 0, 0, 0],
    [0, 2, 1, 0, 0, 4, 3, 0, 0, -2, 1, 0, 0, 0, 0, 0],
    [0, 0, 2, 1, 0, 0, 4, 3, 0, 0, -2, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 1, 0, 0, 4, 3, 0, 0, -2, 1, 0, 0],
    [0, 0, 0, 0, 0, 2, 1, 0, 0, 4, 3, 0, 0, -2, 1, 0],
    [0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 4, 3, 0, 0, -2, 1],
], dtype=float)


class TestSquarePart:
    def test_worked_example(self):
        np.testing.assert_array_equal(
            square_part(EXAMPLE_W), [[3, 0, 9], [1, 5, -1], [0, 4, -2]]
        )

    def test_square_input_unchanged(self):
        m = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(square_part(m), m)

    def test_tall_matrix_leading_rows(self):
        m = np.arange(15.0).reshape(5, 3)
        np.testing.assert_array_equal(square_part(m), m[:3, :3])

    def test_empty_raises(self):
        with pytest.raises(DimensionError):
            square_part(np.zeros((0, 3)))


class TestSquarifyDense:
    def test_worked_example_embedding(self):
        sq = squarify_dense(EXAMPLE_W)
        expected = np.array([
            [3, 0, 9, -3, 4],
            [1, 5, -1, 4, 2],
            [0, 4, -2, 1, 5],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ], dtype=float)
        np.testing.assert_array_equal(sq.embedded, expected)
        assert (sq.original_rows, sq.original_cols) == (3, 5)

    def test_square_passthrough(self):
        m = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(squarify_dense(m).embedded, m)

    def test_tall_embedding_determinant(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 2))
        sq = squarify_dense(w)
        assert sq.embedded.shape == (4, 4)
        a = lu_logabsdet(sq.embedded)
        b = lu_logabsdet(sq.square_part)
        np.testing.assert_allclose(a.log_abs, b.log_abs, rtol=1e-12)
        assert a.sign == b.sign

    def test_determinant_preserved_all_shapes(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            rows, cols = rng.integers(1, 8, size=2)
            w = rng.normal(size=(rows, cols))
            sq = squarify_dense(w)
            assert sq.embedded.shape == (max(rows, cols),) * 2
            a = lu_logabsdet(sq.embedded)
            b = lu_logabsdet(sq.square_part)
            assert a.sign == b.sign
            if a.sign != 0:
                np.testing.assert_allclose(a.log_abs, b.log_abs, rtol=1e-10)


class TestDenseEntropyDelta:
    def test_worked_example_is_log_18(self):
        # Cofactor oracle: det [[3,0,9],[1,5,-1],[0,4,-2]]
        #   = 3*(5*-2 - -1*4) - 0 + 9*(1*4 - 5*0) = -18 + 36 = 18
        ld = dense_entropy_delta(EXAMPLE_W)
        np.testing.assert_allclose(ld.log_abs, np.log(18.0), rtol=1e-12)
        np.testing.assert_allclose(ld.log_abs, 2.890372, atol=1e-6)

    def test_identity_preserves_entropy(self):
        assert dense_entropy_delta(np.eye(5)).log_abs == 0.0

    def test_equals_full_embedding_logdet(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(6, 3))
        sq = squarify_dense(w)
        np.testing.assert_allclose(
            dense_entropy_delta(w).log_abs,
            lu_logabsdet(sq.embedded).log_abs,
            rtol=1e-12,
        )


class TestBuildConvMatrix:
    def test_worked_example_matrix(self):
        cm = build_conv_matrix(EXAMPLE_C, 4, 4)
        np.testing.assert_array_equal(cm.matrix, EXAMPLE_CM)

    def test_worked_example_flat_product(self):
        cm = build_conv_matrix(EXAMPLE_C, 4, 4)
        np.testing.assert_array_equal(
            cm.matrix @ EXAMPLE_X.ravel(), [7, 22, 45, 13, 3, 26]
        )

    def test_worked_example_embedding_determinant(self):
        cm = build_conv_matrix(EXAMPLE_C, 4, 4)
        assert cm.square_embedding.shape == (16, 16)
        ld = lu_logabsdet(cm.square_embedding)
        assert ld.sign == 1
        np.testing.assert_allclose(ld.magnitude(), 64.0, rtol=1e-12)

    def test_identity_filter_gives_identity_operators(self):
        cm = build_conv_matrix([[1.0]], 3, 3)
        np.testing.assert_array_equal(cm.matrix, np.eye(9))
        np.testing.assert_array_equal(cm.square_embedding, np.eye(9))

    def test_matrix_form_equivalence(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            l, w = rng.integers(2, 9, size=2)
            p = int(rng.integers(1, l + 1))
            q = int(rng.integers(1, w + 1))
            c = rng.normal(size=(p, q))
            x = rng.normal(size=(l, w))
            cm = build_conv_matrix(c, l, w)
            direct = conv2d(x, c)
            via_matrix = (cm.matrix @ x.ravel()).reshape(direct.shape)
            np.testing.assert_allclose(via_matrix, direct, atol=1e-12)

    def test_embedding_determinant_is_corner_power(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            l, w = rng.integers(2, 9, size=2)
            p = int(rng.integers(1, min(l, 4) + 1))
            q = int(rng.integers(1, min(w, 4) + 1))
            c = rng.normal(size=(p, q))
            c[0, 0] = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            cm = build_conv_matrix(c, l, w)
            expected = (l - p + 1) * (w - q + 1) * np.log(abs(c[0, 0]))
            np.testing.assert_allclose(
                lu_logabsdet(cm.square_embedding).log_abs, expected, atol=1e-9
            )

    def test_filter_larger_than_input(self):
        with pytest.raises(DimensionError):
            build_conv_matrix(np.ones((3, 3)), 2, 4)


class TestConvEntropyDelta:
    def test_worked_example_total(self):
        d = conv_entropy_delta(EXAMPLE_C, 4, 4)
        np.testing.assert_allclose(d.delta_total, 6 * np.log(2.0), rtol=1e-12)
        np.testing.assert_allclose(d.delta_total, 4.158883, atol=1e-6)
        np.testing.assert_allclose(d.delta_per_element, np.log(2.0), rtol=1e-12)

    def test_unit_corner_gives_zero(self):
        c = np.array([[1.0, 3.0], [2.0, -1.0]])
        assert conv_entropy_delta(c, 5, 5).delta_total == 0.0

    def test_zero_corner_gives_neg_inf(self):
        c = np.array([[0.0, 3.0], [2.0, -1.0]])
        assert conv_entropy_delta(c, 5, 5).delta_total == float("-inf")

    @pytest.mark.parametrize("corner", [np.nan, np.inf, -np.inf])
    def test_non_finite_corner_raises(self, corner):
        c = np.array([[corner, 3.0], [2.0, -1.0]])
        with pytest.raises(NonFiniteError):
            conv_entropy_delta(c, 5, 5)

    def test_total_matches_embedding_logdet(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            p, q = rng.integers(1, 4, size=2)
            c = rng.normal(size=(p, q))
            c[0, 0] = rng.uniform(0.2, 5.0)
            d = conv_entropy_delta(c, 7, 6)
            cm = build_conv_matrix(c, 7, 6)
            np.testing.assert_allclose(
                d.delta_total, lu_logabsdet(cm.square_embedding).log_abs,
                atol=1e-9,
            )

    def test_total_scales_with_output_elements(self):
        c = np.array([[2.0, 1.0], [0.5, 3.0]])
        d = conv_entropy_delta(c, 9, 6)
        assert d.delta_total == pytest.approx((9 - 1) * (6 - 1) * d.delta_per_element)

    def test_scale_covariance(self):
        rng = np.random.default_rng(17)
        c = rng.normal(size=(3, 3))
        c[0, 0] = 1.7
        base = conv_entropy_delta(c, 8, 8)
        for s in (0.1, 2.0, 7.5):
            scaled = conv_entropy_delta(s * c, 8, 8)
            np.testing.assert_allclose(
                scaled.delta_per_element - base.delta_per_element, np.log(s),
                rtol=1e-10,
            )


class TestGaussianClosedForm:
    def test_covariance_identity(self):
        # For Gaussian data, the entropy change across a linear map
        # equals half the log-det change of the covariance.
        rng = np.random.default_rng(18)
        for _ in range(30):
            rows, cols = rng.integers(2, 7, size=2)
            w = rng.normal(size=(rows, cols))
            emb = squarify_dense(w).embedded
            n = emb.shape[0]
            a = rng.normal(size=(n, n))
            sigma = a @ a.T + 0.5 * np.eye(n)
            lhs = 0.5 * (
                lu_logabsdet(emb @ sigma @ emb.T).log_abs
                - lu_logabsdet(sigma).log_abs
            )
            np.testing.assert_allclose(lhs, lu_logabsdet(emb).log_abs, atol=1e-8)


class TestProfileNetwork:
    def test_single_filter_one_point_stats(self):
        layer = Conv2D(filters=1, in_channels=1, height=2, width=2)
        kernel = np.zeros((1, 1, 2, 2))
        kernel[0, 0] = [[3.0, 1.0], [0.5, 2.0]]
        report = profile_network([layer], [LayerParams(kernel, np.zeros(1))], 6, 6)
        prof = report.layers[0]
        expected = 25 * np.log(3.0)
        np.testing.assert_allclose(prof.mean_total, expected, rtol=1e-12)
        assert prof.q1_total == prof.q3_total == pytest.approx(expected)
        assert prof.outliers == ()

    def test_opposite_corners_cancel(self):
        layer = Conv2D(filters=2, in_channels=1, height=2, width=2)
        kernel = np.ones((2, 1, 2, 2))
        kernel[0, 0, 0, 0] = 2.0
        kernel[1, 0, 0, 0] = 0.5
        report = profile_network([layer], [LayerParams(kernel, np.zeros(2))], 5, 5)
        np.testing.assert_allclose(report.layers[0].mean_total, 0.0, atol=1e-12)

    def test_outliers_match_quantile_oracle(self):
        rng = np.random.default_rng(19)
        layer = Conv2D(filters=32, in_channels=1, height=3, width=3)
        kernel = rng.normal(size=(32, 1, 3, 3))
        kernel[:, :, 0, 0] = rng.uniform(0.05, 3.0, size=(32, 1))
        kernel[0, 0, 0, 0] = 40.0  # force one extreme unit
        report = profile_network([layer], [LayerParams(kernel, np.zeros(32))], 10, 10)
        prof = report.layers[0]
        values = prof.unit_totals
        q1, q3 = np.quantile(values, [0.25, 0.75])
        iqr = q3 - q1
        expected = {
            i for i, v in enumerate(values)
            if v < q1 - 1.5 * iqr or v > q3 + 1.5 * iqr
        }
        assert {i for i, _ in prof.outliers} == expected
        assert prof.q1_total <= np.median(values) <= prof.q3_total
        for _, v in prof.outliers:
            assert v < q1 - 1.5 * iqr or v > q3 + 1.5 * iqr

    @pytest.mark.parametrize("corners, q1, q3", [
        ((0.0, 0.0, 0.0, np.e), -np.inf, -np.inf),
        ((0.0, 0.0, 1.0, np.e), -np.inf, 9.0),
        ((0.0, 1.0, 1.0, 1.0), -np.inf, 0.0),
    ])
    def test_zero_corners_give_neg_inf_quartiles(self, corners, q1, q3):
        # Totals are 36*log|c11| on a 9x9 output; a quartile that puts any
        # weight on a -inf total is -inf, and a non-finite IQR has no outliers.
        layer = Conv2D(filters=4, in_channels=1, height=3, width=3)
        kernel = np.ones((4, 1, 3, 3))
        kernel[:, 0, 0, 0] = corners
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = profile_network([layer], [LayerParams(kernel, np.zeros(4))], 8, 8).layers[0]
        assert (prof.q1_total, prof.q3_total) == (q1, q3)
        assert (prof.q1_per_element, prof.q3_per_element) == (q1, q3 / 36.0)
        assert prof.outliers == ()

    def test_multichannel_filter_averages_slices(self):
        layer = Conv2D(filters=1, in_channels=2, height=2, width=2)
        kernel = np.ones((1, 2, 2, 2))
        kernel[0, 0, 0, 0] = 4.0
        kernel[0, 1, 0, 0] = 0.25
        report = profile_network([layer], [LayerParams(kernel, np.zeros(1))], 4, 4)
        np.testing.assert_allclose(report.layers[0].unit_totals[0], 0.0, atol=1e-12)

    @pytest.mark.parametrize("corner", [np.nan, np.inf, -np.inf])
    def test_non_finite_corner_raises(self, corner):
        kernel = np.ones((2, 3, 2, 2))
        kernel[1, 2, 0, 0] = corner
        with pytest.raises(NonFiniteError):
            profile_network([Conv2D(2, 3, 2, 2)],
                            [LayerParams(kernel, np.zeros(2))], 5, 5)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_unit_values_equal_mean_of_scalar_deltas(self, data):
        # The array path must reproduce, bit for bit, the mean over
        # channel slices of the scalar identity, -inf corners included.
        f = data.draw(st.integers(1, 5))
        c = data.draw(st.integers(1, 9))
        p, q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        h, w = data.draw(st.integers(p, 9)), data.draw(st.integers(q, 9))
        corners = data.draw(hnp.arrays(np.float64, (f, c), elements=st.one_of(
            st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))))
        kernel = np.ones((f, c, p, q))
        kernel[:, :, 0, 0] = corners
        with np.errstate(invalid="ignore"):
            prof = profile_network([Conv2D(f, c, p, q)],
                                   [LayerParams(kernel, np.zeros(f))], h, w).layers[0]
        scalar = [[conv_entropy_delta(kernel[i, ch], h, w) for ch in range(c)]
                  for i in range(f)]
        totals = np.array([np.mean([d.delta_total for d in row]) for row in scalar])
        per_element = np.array(
            [np.mean([d.delta_per_element for d in row]) for row in scalar])
        assert prof.unit_totals.tobytes() == totals.tobytes()
        assert prof.unit_per_element.tobytes() == per_element.tobytes()

    def test_dimension_tracking_through_blocks(self):
        layers = [
            Conv2D(2, 1, 3, 3), Activation("leaky_relu"), MaxPool2(),
            Conv2D(2, 2, 3, 3), Activation("leaky_relu"), MaxPool2(),
            Dense(2 * 5 * 5, 10), Activation("softmax"),
        ]
        rng = np.random.default_rng(20)
        weights = [
            LayerParams(rng.normal(size=(2, 1, 3, 3)), np.zeros(2)), None, None,
            LayerParams(rng.normal(size=(2, 2, 3, 3)), np.zeros(2)), None, None,
            LayerParams(rng.normal(size=(10, 50)), np.zeros(10)), None,
        ]
        report = profile_network(layers, weights, 28, 28)
        kinds = [(p.kind, p.input_h, p.input_w) for p in report.layers]
        # 28 -> conv 26 -> pool 13 -> conv 11 -> pool 5
        assert kinds == [("conv2d", 28, 28), ("conv2d", 13, 13), ("dense", 5, 5)]

    def test_shape_mismatch_raises(self):
        layer = Conv2D(filters=2, in_channels=1, height=3, width=3)
        bad = LayerParams(np.zeros((2, 1, 2, 2)), np.zeros(2))
        with pytest.raises(DimensionError):
            profile_network([layer], [bad], 8, 8)

    def test_pooling_below_one_pixel_raises(self):
        layers = [Conv2D(1, 1, 3, 3), MaxPool2(), MaxPool2()]
        weights = [LayerParams(np.ones((1, 1, 3, 3)), np.zeros(1)), None, None]
        # 6x6 -> 4x4 -> 2x2 -> 1x1 is fine; 5x5 -> 3x3 -> 1x1 cannot pool.
        assert len(profile_network(layers, weights, 6, 6).layers) == 1
        with pytest.raises(DimensionError):
            profile_network(layers, weights, 5, 5)

    def test_filter_exceeding_dims_raises(self):
        layer = Conv2D(filters=1, in_channels=1, height=5, width=5)
        params = LayerParams(np.ones((1, 1, 5, 5)), np.zeros(1))
        with pytest.raises(DimensionError):
            profile_network([layer], [params], 4, 8)
