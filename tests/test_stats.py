"""Welch tests, t confidence intervals, and significance grids.

The Student-t functions are scipy's own, so the comparisons against
scipy.stats below check only the wiring.  The oracle is the frozen
values: t_{0.975,1} = 12.7062 and the {1,2,3} vs {2,3,4} Welch case
(t = -1.224745, dof = 4), frozen from a reference implementation.
"""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from entroprop.errors import UndefinedVarianceError
from entroprop.stats import (
    mean_ci95,
    significance_grid,
    student_t_cdf,
    student_t_ppf,
    welch_t,
)


class TestStudentTCdf:
    def test_symmetry_at_zero(self):
        assert student_t_cdf(0.0, 5) == 0.5

    def test_agrees_with_scipy_over_grid(self):
        ts = np.linspace(-10, 10, 81)
        dofs = [1, 1.5, 2, 3.7, 5, 10, 30.2, 64, 100]
        for dof in dofs:
            for t in ts:
                mine = student_t_cdf(float(t), dof)
                ref = float(scipy_stats.t.cdf(t, dof))
                assert abs(mine - ref) < 1e-7

    def test_monotone_in_t(self):
        ts = np.linspace(-8, 8, 200)
        vals = [student_t_cdf(float(t), 4.3) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_ppf_roundtrip(self):
        for dof in (1, 2, 7, 33.5):
            for p in (0.6, 0.9, 0.975, 0.999):
                t = student_t_ppf(p, dof)
                assert student_t_cdf(t, dof) == pytest.approx(p, abs=1e-10)

    def test_ppf_classic_table_value(self):
        assert student_t_ppf(0.975, 1) == pytest.approx(12.7062, abs=1e-4)

    @pytest.mark.parametrize("dof", [0, -1.5])
    def test_nonpositive_dof_raises(self, dof):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, dof)
        with pytest.raises(ValueError):
            student_t_ppf(0.9, dof)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_ppf_outside_unit_interval_raises(self, p):
        with pytest.raises(ValueError):
            student_t_ppf(p, 3)


class TestWelchT:
    def test_identical_samples(self):
        res = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0
        assert res.p_two_tailed == pytest.approx(1.0)
        assert res.p_one_tailed == pytest.approx(0.5)

    def test_frozen_reference_case(self):
        res = welch_t([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert res.t == pytest.approx(-1.224745, abs=1e-5)
        assert res.dof == pytest.approx(4.0, abs=1e-9)
        assert res.p_two_tailed == pytest.approx(0.2878, abs=1e-3)

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(0, 1, size=int(rng.integers(2, 12)))
            b = rng.normal(0.5, 2, size=int(rng.integers(2, 12)))
            res = welch_t(a, b)
            ref = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert res.t == pytest.approx(ref.statistic, rel=1e-10)
            assert res.p_two_tailed == pytest.approx(ref.pvalue, rel=1e-8)

    def test_scale_invariance(self):
        a = np.array([1.0, 2.0, 3.5, 2.2])
        b = np.array([2.0, 3.0, 4.0])
        base = welch_t(a, b)
        scaled = welch_t(7.0 * a, 7.0 * b)
        assert scaled.t == pytest.approx(base.t, rel=1e-12)
        assert scaled.dof == pytest.approx(base.dof, rel=1e-12)
        assert scaled.p_two_tailed == pytest.approx(base.p_two_tailed, rel=1e-10)

    def test_antisymmetry_of_t(self):
        a = [1.0, 2.0, 3.0]
        b = [2.5, 3.5, 5.0]
        assert welch_t(a, b).t == -welch_t(b, a).t

    def test_one_tailed_consistent_with_sign(self):
        res = welch_t([5.0, 6.0, 7.0], [1.0, 2.0, 3.0])
        assert res.t > 0
        assert res.p_one_tailed < 0.5
        assert res.p_one_tailed == pytest.approx(res.p_two_tailed / 2)

    def test_pvalue_decreases_with_larger_t(self):
        p_prev = 1.0
        for shift in (0.0, 0.5, 1.0, 2.0, 4.0):
            res = welch_t([1.0 + shift, 2.0 + shift, 3.0 + shift],
                          [1.0, 2.0, 3.1])
            if shift > 0:
                assert res.p_two_tailed <= p_prev
            p_prev = res.p_two_tailed

    def test_degenerate_samples_raise(self):
        with pytest.raises(UndefinedVarianceError):
            welch_t([1.0, 1.0, 1.0], [2.0, 2.0])

    def test_too_small_samples_raise(self):
        with pytest.raises(UndefinedVarianceError):
            welch_t([1.0], [2.0, 3.0])


class TestMeanCi95:
    def test_constant_sample(self):
        mean, half = mean_ci95([3.0, 3.0, 3.0])
        assert mean == 3.0
        assert half == 0.0

    def test_two_point_sample(self):
        mean, half = mean_ci95([0.0, 1.0])
        assert mean == 0.5
        assert half == pytest.approx(6.3531, abs=1e-3)

    def test_large_sample_asymptotics(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4000)
        _, half = mean_ci95(x)
        gauss = 1.96 * np.std(x, ddof=1) / np.sqrt(len(x))
        assert abs(half - gauss) / gauss < 0.05

    def test_single_value_raises(self):
        with pytest.raises(UndefinedVarianceError):
            mean_ci95([1.0])


class TestSignificanceGrid:
    def test_identical_groups_blank(self):
        grid = significance_grid(
            {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]}, alpha=0.01
        )
        assert grid.cells == (("", ""), ("", ""))

    def test_separated_groups_signed(self):
        grid = significance_grid(
            {"lo": [0.0, 0.0, 0.001], "hi": [1.0, 1.0, 1.001]}, alpha=0.01
        )
        assert grid.cells[0][1] == "-"
        assert grid.cells[1][0] == "+"

    def test_antisymmetry_on_random_group_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = int(rng.integers(2, 8))
            samples = {
                f"g{i}": rng.normal(rng.uniform(-1, 1), 1.0, size=5)
                for i in range(k)
            }
            grid = significance_grid(samples, alpha=0.05)
            for i in range(k):
                assert grid.cells[i][i] == ""
                for j in range(k):
                    if grid.cells[i][j] == "+":
                        assert grid.cells[j][i] == "-"
                    elif grid.cells[i][j] == "-":
                        assert grid.cells[j][i] == "+"
                    else:
                        assert grid.cells[j][i] == ""

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            significance_grid({"only": [1.0, 2.0]}, alpha=0.05)
