"""Linear algebra and spatial primitive tests.

Determinant values are checked against cofactor expansions and
numpy's independent slogdet; convolution and pooling are checked
against brute-force nested-loop oracles.
"""

import numpy as np
import pytest

from entroprop.errors import DimensionError, NonFiniteError, SingularMatrixError
from entroprop.tensor_ops import (
    LogDet,
    conv2d,
    logabsdet_and_inverse_transpose,
    lu_logabsdet,
    maxpool2,
)


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def conv2d_oracle(x, c):
    l, w = x.shape
    p, q = c.shape
    out = np.zeros((l - p + 1, w - q + 1))
    for i in range(l - p + 1):
        for j in range(w - q + 1):
            for k in range(p):
                for m in range(q):
                    out[i, j] += c[k, m] * x[i + k, j + m]
    return out


class TestLuLogAbsDet:
    def test_identity(self):
        assert lu_logabsdet(np.eye(3)) == LogDet(0.0, 1)

    def test_2x2_against_cofactor(self):
        m = [[2.0, 1.0], [4.0, 3.0]]
        ld = lu_logabsdet(m)
        assert ld.sign == 1
        np.testing.assert_allclose(ld.log_abs, np.log(det2(m)), rtol=1e-12)
        np.testing.assert_allclose(ld.log_abs, 0.693147, atol=1e-6)

    def test_rank_deficient_rows(self):
        ld = lu_logabsdet([[1.0, 2.0], [2.0, 4.0]])
        assert ld.sign == 0
        assert ld.log_abs == float("-inf")
        assert ld.magnitude() == 0.0

    def test_negative_determinant_sign(self):
        m = [[0.0, 1.0], [1.0, 0.0]]
        ld = lu_logabsdet(m)
        assert ld.sign == -1
        assert ld.log_abs == pytest.approx(0.0, abs=1e-14)

    def test_matches_numpy_slogdet(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8, 20):
            for _ in range(20):
                m = rng.normal(size=(n, n))
                sign, logdet = np.linalg.slogdet(m)
                ld = lu_logabsdet(m)
                assert ld.sign == int(sign)
                np.testing.assert_allclose(ld.log_abs, logdet, rtol=1e-9)

    def test_product_law(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n)) + 2 * np.eye(n)
            b = rng.normal(size=(n, n)) + 2 * np.eye(n)
            lhs = lu_logabsdet(a @ b).log_abs
            rhs = lu_logabsdet(a).log_abs + lu_logabsdet(b).log_abs
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_permutation_invariance_of_magnitude(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            perm = np.eye(n)[rng.permutation(n)]
            np.testing.assert_allclose(
                lu_logabsdet(perm @ a).log_abs,
                lu_logabsdet(a).log_abs,
                rtol=1e-10,
            )

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            lu_logabsdet(np.ones((2, 3)))

    def test_empty_raises(self):
        with pytest.raises(DimensionError):
            lu_logabsdet(np.ones((0, 0)))

    def test_tiny_pivot_treated_as_singular(self):
        ld = lu_logabsdet([[1e-301]])
        assert ld.sign == 0
        assert ld.log_abs == float("-inf")


class TestInverseTranspose:
    def test_matches_numpy_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            m = rng.normal(size=(n, n)) + 1.5 * np.eye(n)
            ld, inv_t = logabsdet_and_inverse_transpose(m)
            np.testing.assert_allclose(inv_t, np.linalg.inv(m).T, rtol=1e-9,
                                       atol=1e-12)
            np.testing.assert_allclose(ld.log_abs, np.linalg.slogdet(m)[1],
                                       rtol=1e-9)


    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            logabsdet_and_inverse_transpose([[1.0, 2.0], [2.0, 4.0]])

    def test_permutation_sign_and_inverse(self):
        # A permutation matrix's determinant is the parity of its swaps,
        # and its inverse transpose is itself.
        rng = np.random.default_rng(4)
        for n in (2, 3, 6, 11):
            for _ in range(10):
                p = np.eye(n)[rng.permutation(n)]
                ld, inv_t = logabsdet_and_inverse_transpose(p)
                assert ld.sign == int(round(np.linalg.det(p)))
                assert ld.log_abs == pytest.approx(0.0, abs=1e-14)
                np.testing.assert_array_equal(inv_t, p)


NON_FINITE = [
    [[np.nan, 1.0], [1.0, 1.0]],
    [[1.0, np.inf], [1.0, 1.0]],
    [[1.0, 1.0], [-np.inf, 1.0]],
    [[np.nan]],
]


class TestNonFiniteInput:
    @pytest.mark.parametrize("m", NON_FINITE)
    def test_logabsdet_rejects(self, m):
        with pytest.raises(NonFiniteError):
            lu_logabsdet(m)

    @pytest.mark.parametrize("m", NON_FINITE)
    def test_inverse_transpose_rejects(self, m):
        with pytest.raises(NonFiniteError):
            logabsdet_and_inverse_transpose(m)


class TestConv2d:
    def test_worked_example(self):
        x = np.array([[3, 4, 1, 2], [0, 0, 5, 6], [2, 1, 0, 3], [1, 4, 2, 5]],
                     dtype=float)
        c = np.array([[2, 1], [4, 3], [-2, 1]], dtype=float)
        np.testing.assert_array_equal(
            conv2d(x, c), [[7.0, 22.0, 45.0], [13.0, 3.0, 26.0]]
        )

    def test_identity_filter(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 7))
        np.testing.assert_array_equal(conv2d(x, [[1.0]]), x)

    def test_against_nested_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            l, w = rng.integers(2, 9, size=2)
            p = int(rng.integers(1, l + 1))
            q = int(rng.integers(1, w + 1))
            x = rng.normal(size=(l, w))
            c = rng.normal(size=(p, q))
            np.testing.assert_allclose(conv2d(x, c), conv2d_oracle(x, c),
                                       atol=1e-12)

    def test_filter_larger_than_input(self):
        with pytest.raises(DimensionError):
            conv2d(np.ones((2, 2)), np.ones((3, 2)))


class TestMaxPool2:
    def test_constant_input(self):
        pooled, _ = maxpool2(np.full((4, 4), 2.5))
        np.testing.assert_array_equal(pooled, np.full((2, 2), 2.5))

    def test_single_block(self):
        pooled, arg = maxpool2([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(pooled, [[4.0]])
        assert arg[0, 0] == 3  # row-major position inside the block

    def test_against_nested_loop_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(6, 6))
        pooled, _ = maxpool2(x)
        for i in range(3):
            for j in range(3):
                assert pooled[i, j] == x[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()

    def test_odd_dims_trimmed(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(5, 7))
        pooled, _ = maxpool2(x)
        assert pooled.shape == (2, 3)
        expected, _ = maxpool2(x[:4, :6])
        np.testing.assert_array_equal(pooled, expected)

    def test_output_dominates_covered_elements(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(8, 8))
        pooled, _ = maxpool2(x)
        tiled = np.repeat(np.repeat(pooled, 2, axis=0), 2, axis=1)
        assert np.all(tiled >= x)

    def test_too_small_raises(self):
        with pytest.raises(DimensionError):
            maxpool2(np.ones((1, 4)))
