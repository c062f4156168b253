"""Local linear smooth backfitting: levels and slopes jointly."""

import warnings

import numpy as np
import pytest

from smoothfit import (
    BIWEIGHT,
    Dataset,
    backfit_ll,
    fixed_point_residual_ll,
    local_moments,
    marginal_ll,
    predict_ll,
)
from smoothfit.errors import EmptyNeighborhoodError, NonConvergenceError

from conftest import make_additive_dataset, make_gap_dataset


class TestMarginalLL:
    def test_reproduces_lines(self, grid25):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, (60, 1))
        data = Dataset(x=x, y=2.0 + 3.0 * x[:, 0])
        level, slope = marginal_ll(data, 0, 0.17, grid25)
        np.testing.assert_allclose(level, 2.0 + 3.0 * grid25.points, atol=1e-10)
        np.testing.assert_allclose(slope, 3.0, atol=1e-9)

    def test_constant_response(self, grid25):
        rng = np.random.default_rng(8)
        data = Dataset(x=rng.uniform(0, 1, (40, 1)), y=np.full(40, 4.0))
        level, slope = marginal_ll(data, 0, 0.3, grid25)
        np.testing.assert_allclose(level, 4.0, atol=1e-11)
        np.testing.assert_allclose(slope, 0.0, atol=1e-9)

    def test_single_point_ridge(self, grid25):
        # One observation at the center: the local moment matrix is rank
        # one everywhere, the ridge keeps the solve defined, and at the
        # design point the fit passes through the observation with zero
        # slope.
        data = Dataset(x=np.array([[0.5]]), y=np.array([1.0]))
        level, slope = marginal_ll(data, 0, 0.6, grid25)
        assert level[12] == pytest.approx(1.0, abs=1e-6)
        assert slope[12] == pytest.approx(0.0, abs=1e-6)

    def test_grid_point_without_observations_raises(self, grid25):
        # No observation within h = 0.1 of 0.458333 (grid point 11): its
        # moment matrix is zero, and the fit fails there, loudly and
        # without a warning, instead of returning NaN levels.
        data = make_gap_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyNeighborhoodError) as err:
                marginal_ll(data, 0, 0.1, grid25)
            level, slope = marginal_ll(data, 0, 0.2, grid25)
        assert (err.value.axis, err.value.where) == (0, grid25.points[11])
        assert "on axis 0 at 0.458333" in str(err.value)
        assert np.all(np.isfinite(level)) and np.all(np.isfinite(slope))


class TestBackfitLL:
    def test_grid_point_without_observations_raises(self, grid25):
        data = make_gap_dataset(d=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyNeighborhoodError) as err:
                backfit_ll(data, [0.1, 0.2], grid25)
        assert (err.value.axis, err.value.where) == (0, grid25.points[11])

    def test_single_axis_equals_centered_marginal(self, grid25):
        data = make_additive_dataset(seed=9, n=80, d=1)
        fit = backfit_ll(data, [0.2], grid25, tol=1e-12)
        level, slope = marginal_ll(data, 0, 0.2, grid25)
        np.testing.assert_allclose(
            fit.components[0], level - data.y.mean(), atol=1e-10
        )
        np.testing.assert_allclose(fit.slopes[0], slope, atol=1e-10)
        assert fit.iterations <= 2

    def test_reproduces_additive_linear(self, grid25):
        # Exactly additive-linear responses are reproduced at the data
        # for arbitrary bandwidth vectors.
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, (100, 3))
        y = 1.5 * x[:, 0] - 2.0 * x[:, 1] + 0.7 * x[:, 2]
        data = Dataset(x=x, y=y)
        for h in ([0.1, 0.1, 0.1], [0.3, 0.12, 0.45], [0.6, 0.08, 0.2]):
            fit = backfit_ll(data, h, grid25, tol=1e-11, max_sweeps=500)
            np.testing.assert_allclose(predict_ll(fit, x), y, atol=1e-8)

    def test_constant_response(self, grid25, dataset2):
        data = Dataset(x=dataset2.x, y=np.full(dataset2.n, -0.75))
        fit = backfit_ll(data, [0.2, 0.2], grid25)
        np.testing.assert_allclose(fit.components, 0.0, atol=1e-12)
        np.testing.assert_allclose(fit.slopes, 0.0, atol=1e-12)
        assert fit.intercept == -0.75

    def test_fixed_point_residual(self, grid25, dataset3):
        fit = backfit_ll(dataset3, [0.15, 0.2, 0.3], grid25, tol=1e-10)
        assert fixed_point_residual_ll(dataset3, fit) < 1e-8

    def test_norming_and_intercept(self, grid25, dataset3):
        fit = backfit_ll(dataset3, [0.18, 0.22, 0.27], grid25)
        assert fit.intercept == dataset3.y.mean()
        for j in range(3):
            mom = local_moments(dataset3, j, fit.bandwidths[j], grid25, BIWEIGHT)
            norming = grid25.integrate(
                mom.m00 * fit.components[j]
            ) + grid25.integrate(mom.p1 * fit.slopes[j])
            assert abs(norming) < 1e-8

    def test_geometric_sweep_decay(self, grid25, dataset3):
        fit = backfit_ll(dataset3, [0.15, 0.2, 0.3], grid25, tol=1e-10)
        assert len(fit.sweep_changes) >= 2
        assert fit.sweep_changes[-1] < fit.sweep_changes[-2]

    @pytest.mark.parametrize("controls", [
        dict(tol=0.0), dict(tol=-1e-6), dict(tol=np.nan), dict(tol=np.inf),
        dict(max_sweeps=0), dict(max_sweeps=2.5),
    ])
    def test_bad_stopping_controls_fail_before_any_sweep(self, grid25, dataset3, controls):
        with pytest.raises(ValueError):
            backfit_ll(dataset3, [0.15, 0.2, 0.3], grid25, **controls)

    def test_nonconvergence_error(self, grid25, dataset3):
        with pytest.raises(NonConvergenceError):
            backfit_ll(dataset3, [0.15, 0.2, 0.3], grid25, max_sweeps=1)


class TestPredictLL:
    @pytest.fixture
    def fit(self, grid25, dataset2):
        return backfit_ll(dataset2, [0.2, 0.25], grid25)

    def test_grid_point_exact(self, fit, grid25):
        x = np.array([grid25.points[6], grid25.points[18]])
        expected = fit.intercept + fit.components[0][6] + fit.components[1][18]
        assert predict_ll(fit, x) == pytest.approx(expected, abs=1e-14)

    def test_midpoint_averages_neighbors(self, fit, grid25):
        mid = 0.5 * (grid25.points[10] + grid25.points[11])
        x = np.array([grid25.points[0], mid])
        expected = (
            fit.intercept
            + fit.components[0][0]
            + 0.5 * (fit.components[1][10] + fit.components[1][11])
        )
        assert predict_ll(fit, x) == pytest.approx(expected, abs=1e-13)

    def test_zero_components_give_intercept(self, fit):
        flat = type(fit)(
            intercept=2.5,
            components=np.zeros_like(fit.components),
            slopes=np.zeros_like(fit.slopes),
            bandwidths=fit.bandwidths,
            grid=fit.grid,
            iterations=1,
            converged=True,
        )
        pts = np.random.default_rng(3).uniform(0, 1, (5, 2))
        np.testing.assert_allclose(predict_ll(flat, pts), 2.5)

    def test_domain_error(self, fit):
        with pytest.raises(ValueError):
            predict_ll(fit, np.array([-0.1, 0.5]))
