"""Density and local moment estimates on the grid.

The expected point values are computed in-test from the raw kernel
formula with explicit grid renormalization (the weights are scaled so
their trapezoid-rule integral is exactly one per observation, which is
what keeps all discrete identities of the backfitting system exact).
"""

import numpy as np
import pytest

from smoothfit import (
    BIWEIGHT,
    Dataset,
    Grid,
    cross_moments,
    local_moments,
    marginal_density,
    pair_density,
    weight_matrix,
)
from smoothfit.errors import EmptyNeighborhoodError, InvalidBandwidthError


def grid_weight_oracle(grid, h, v):
    """Direct evaluation of the grid-normalized kernel weight column."""
    raw = BIWEIGHT.fn((v - grid.points) / h)
    return raw / (grid.weights @ raw)


class TestDataset:
    def test_rejects_non_finite_values(self):
        x = np.full((4, 2), 0.5)
        with pytest.raises(ValueError, match="responses must be finite; row 2"):
            Dataset(x=x, y=[0.0, 1.0, np.inf, 2.0])
        x[1, 1] = np.nan
        with pytest.raises(ValueError, match="covariates must be finite; row 1"):
            Dataset(x=x, y=np.zeros(4))

    def test_rejects_zero_covariates(self):
        with pytest.raises(ValueError, match="at least one covariate"):
            Dataset(x=np.empty((4, 0)), y=np.zeros(4))


class TestGrid:
    def test_regular(self):
        g = Grid.regular(25)
        assert g.size == 25
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(np.linspace(0, 1, 4))
        with pytest.raises(ValueError):
            Grid(np.linspace(0.1, 1, 25))
        with pytest.raises(ValueError):
            Grid(np.concatenate([[0.0], np.geomspace(0.01, 1.0, 24)]))

    def test_integrate(self):
        g = Grid.regular(101)
        assert g.integrate(g.points) == pytest.approx(0.5, abs=1e-12)


class TestWeightMatrix:
    def test_columns_integrate_to_one(self, grid25):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 40)
        w = weight_matrix(BIWEIGHT, 0.13, grid25, x)
        np.testing.assert_allclose(grid25.weights @ w, 1.0, atol=1e-13)

    def test_bandwidth_validation(self, grid25):
        with pytest.raises(InvalidBandwidthError):
            weight_matrix(BIWEIGHT, 0.0, grid25, np.array([0.5]))

    def test_unreachable_observation(self, grid25):
        # With a bandwidth below half the grid spacing, a point between
        # nodes is invisible to the grid.
        with pytest.raises(EmptyNeighborhoodError):
            weight_matrix(BIWEIGHT, 0.012, grid25, np.array([0.5208]))


class TestMarginalDensity:
    def test_single_point_values(self, grid25):
        data = Dataset(x=np.array([[0.5]]), y=np.zeros(1))
        curve = marginal_density(data, 0, 0.1, grid25, BIWEIGHT)
        expected = grid_weight_oracle(grid25, 0.1, 0.5)
        assert curve.values[12] == pytest.approx(expected[12], rel=1e-12)
        # One grid-normalization factor away from the continuous value.
        assert curve.values[12] == pytest.approx(9.375, rel=5e-3)
        assert curve.values[7] == 0.0  # u = 0.29, outside the support

    def test_integral_exactly_one(self, grid25):
        rng = np.random.default_rng(11)
        data = Dataset(x=rng.uniform(0, 1, (60, 1)), y=np.zeros(60))
        for h in (0.07, 0.15, 0.4):
            curve = marginal_density(data, 0, h, grid25, BIWEIGHT)
            assert grid25.integrate(curve.values) == pytest.approx(1.0, abs=1e-6)
            assert np.all(curve.values >= 0)

    def test_duplicate_points_average(self, grid25):
        one = Dataset(x=np.array([[0.5]]), y=np.zeros(1))
        two = Dataset(x=np.array([[0.5], [0.5]]), y=np.zeros(2))
        c1 = marginal_density(one, 0, 0.1, grid25, BIWEIGHT)
        c2 = marginal_density(two, 0, 0.1, grid25, BIWEIGHT)
        np.testing.assert_allclose(c1.values, c2.values, atol=1e-15)

    def test_continuity_in_h(self, grid25):
        rng = np.random.default_rng(12)
        data = Dataset(x=rng.uniform(0, 1, (80, 1)), y=np.zeros(80))
        base = marginal_density(data, 0, 0.2, grid25, BIWEIGHT).values
        bump = marginal_density(data, 0, 0.2 + 1e-6, grid25, BIWEIGHT).values
        rel = np.abs(bump - base).max() / np.abs(base).max()
        assert rel < 1e-3


class TestPairDensity:
    def test_single_point_product(self, grid25):
        data = Dataset(x=np.array([[0.5, 0.5]]), y=np.zeros(1))
        surf = pair_density(data, 0, 1, 0.1, 0.1, grid25, grid25, BIWEIGHT)
        w = grid_weight_oracle(grid25, 0.1, 0.5)
        assert surf.values[12, 12] == pytest.approx(w[12] ** 2, rel=1e-12)
        # Grid-normalized square of the continuous interior value.
        assert surf.values[12, 12] == pytest.approx(87.890625, rel=1e-2)

    def test_double_integral_one(self, grid25):
        rng = np.random.default_rng(13)
        data = Dataset(x=rng.uniform(0, 1, (50, 2)), y=np.zeros(50))
        surf = pair_density(data, 0, 1, 0.12, 0.2, grid25, grid25, BIWEIGHT)
        total = grid25.weights @ surf.values @ grid25.weights
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_axis_exchange_symmetry(self, grid25):
        rng = np.random.default_rng(14)
        data = Dataset(x=rng.uniform(0, 1, (40, 2)), y=np.zeros(40))
        a = pair_density(data, 0, 1, 0.1, 0.25, grid25, grid25, BIWEIGHT)
        b = pair_density(data, 1, 0, 0.25, 0.1, grid25, grid25, BIWEIGHT)
        np.testing.assert_allclose(a.values, b.values.T, atol=1e-15)

    def test_same_axis_rejected(self, grid25):
        data = Dataset(x=np.zeros((3, 2)) + 0.5, y=np.zeros(3))
        with pytest.raises(ValueError):
            pair_density(data, 1, 1, 0.1, 0.1, grid25, grid25, BIWEIGHT)

    def test_marginalizing_recovers_marginal(self, grid25):
        rng = np.random.default_rng(15)
        data = Dataset(x=rng.uniform(0, 1, (70, 2)), y=np.zeros(70))
        surf = pair_density(data, 0, 1, 0.15, 0.3, grid25, grid25, BIWEIGHT)
        marg = marginal_density(data, 0, 0.15, grid25, BIWEIGHT)
        np.testing.assert_allclose(
            surf.values @ grid25.weights, marg.values, atol=1e-4
        )


class TestLocalMoments:
    def test_zero_offset(self, grid25):
        data = Dataset(x=np.array([[0.5]]), y=np.zeros(1))
        mom = local_moments(data, 0, 0.1, grid25, BIWEIGHT)
        assert mom.m01[12] == 0.0
        assert mom.m11[12] == 0.0

    def test_symmetric_pair_cancels(self, grid25):
        data = Dataset(x=np.array([[0.4], [0.6]]), y=np.zeros(2))
        mom = local_moments(data, 0, 0.2, grid25, BIWEIGHT)
        assert mom.m01[12] == pytest.approx(0.0, abs=1e-15)

    def test_offset_point_values(self, grid25):
        data = Dataset(x=np.array([[0.55]]), y=np.zeros(1))
        mom = local_moments(data, 0, 0.1, grid25, BIWEIGHT)
        w = grid_weight_oracle(grid25, 0.1, 0.55)
        assert mom.m00[12] == pytest.approx(w[12], rel=1e-12)
        # Continuous interior value is K(0.5)/h = 5.2734; the grid
        # renormalization shifts it by a fraction of a percent.
        assert mom.m00[12] == pytest.approx(5.2734375, rel=5e-3)
        assert mom.m01[12] == pytest.approx(0.05 * mom.m00[12], rel=1e-12)
        assert mom.m11[12] == pytest.approx(0.05**2 * mom.m00[12], rel=1e-12)
        assert mom.p1[12] == mom.m01[12]

    def test_gram_inequality(self, grid25):
        rng = np.random.default_rng(16)
        data = Dataset(x=rng.uniform(0, 1, (50, 1)), y=np.zeros(50))
        mom = local_moments(data, 0, 0.2, grid25, BIWEIGHT)
        assert np.all(mom.m00 > 0)
        assert np.all(mom.m00 * mom.m11 - mom.m01**2 >= -1e-12)


class TestCrossMoments:
    def test_first_entry_is_pair_density(self, grid25):
        rng = np.random.default_rng(17)
        data = Dataset(x=rng.uniform(0, 1, (40, 2)), y=np.zeros(40))
        s = cross_moments(data, 0, 1, 0.1, 0.2, grid25, grid25, BIWEIGHT)
        p = pair_density(data, 0, 1, 0.1, 0.2, grid25, grid25, BIWEIGHT)
        np.testing.assert_allclose(s.s11, p.values, atol=1e-15)

    def test_zero_offsets(self, grid25):
        data = Dataset(x=np.array([[0.5, 0.5]]), y=np.zeros(1))
        s = cross_moments(data, 0, 1, 0.1, 0.1, grid25, grid25, BIWEIGHT)
        assert s.s12[12, 12] == 0.0
        assert s.s21[12, 12] == 0.0
        assert s.s22[12, 12] == 0.0

    def test_offset_entries(self, grid25):
        # Data point offset by 0.05 on the first axis only: the entry
        # weighted by the first-axis offset picks up the factor, the
        # entry weighted by the second-axis offset vanishes.
        data = Dataset(x=np.array([[0.55, 0.5]]), y=np.zeros(1))
        s = cross_moments(data, 0, 1, 0.1, 0.1, grid25, grid25, BIWEIGHT)
        assert s.s12[12, 12] == pytest.approx(0.05 * s.s11[12, 12], rel=1e-12)
        assert s.s21[12, 12] == pytest.approx(0.0, abs=1e-15)
        assert s.s22[12, 12] == pytest.approx(0.0, abs=1e-15)

    def test_transpose_relation(self, grid25):
        rng = np.random.default_rng(18)
        data = Dataset(x=rng.uniform(0, 1, (30, 2)), y=np.zeros(30))
        a = cross_moments(data, 0, 1, 0.1, 0.3, grid25, grid25, BIWEIGHT)
        b = cross_moments(data, 1, 0, 0.3, 0.1, grid25, grid25, BIWEIGHT)
        np.testing.assert_allclose(a.s11, b.s11.T, atol=1e-15)
        np.testing.assert_allclose(a.s12, b.s21.T, atol=1e-15)
        np.testing.assert_allclose(a.s21, b.s12.T, atol=1e-15)
        np.testing.assert_allclose(a.s22, b.s22.T, atol=1e-15)

    def test_same_axis_rejected(self, grid25):
        data = Dataset(x=np.zeros((3, 2)) + 0.5, y=np.zeros(3))
        with pytest.raises(ValueError):
            cross_moments(data, 0, 0, 0.1, 0.1, grid25, grid25, BIWEIGHT)
