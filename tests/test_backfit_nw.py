"""Locally constant (Nadaraya-Watson) smooth backfitting."""

import numpy as np
import pytest

from smoothfit import (
    BIWEIGHT,
    Dataset,
    Grid,
    backfit_nw,
    fixed_point_residual_nw,
    marginal_density,
    marginal_nw,
    pair_density,
    predict_nw,
)
from smoothfit._engine import Workspace
from smoothfit.errors import EmptyNeighborhoodError, NonConvergenceError

from conftest import make_additive_dataset


class TestMarginalNW:
    def test_constant_response(self, grid25):
        rng = np.random.default_rng(0)
        data = Dataset(x=rng.uniform(0, 1, (30, 1)), y=np.full(30, 3.25))
        curve = marginal_nw(data, 0, 0.3, grid25)
        np.testing.assert_allclose(curve, 3.25, atol=1e-12)

    def test_single_observation(self, grid25):
        # One observation, bandwidth wide enough to cover the grid: the
        # weights normalize and the curve is flat at the response.
        data = Dataset(x=np.array([[0.5]]), y=np.array([2.0]))
        curve = marginal_nw(data, 0, 0.6, grid25)
        np.testing.assert_allclose(curve, 2.0, atol=1e-12)

    def test_empty_neighborhood_error(self, grid25):
        data = Dataset(x=np.array([[0.1]]), y=np.array([1.0]))
        with pytest.raises(EmptyNeighborhoodError):
            marginal_nw(data, 0, 0.1, grid25)

    def test_weighted_average_oracle(self, grid25):
        # Response equal to the covariate, design symmetric about the
        # center: the local average there recovers the center exactly,
        # and matches a direct weighted-average computation.
        x = np.linspace(0.0, 1.0, 41)
        data = Dataset(x=x[:, None], y=x)
        for h in (0.3, 0.15, 0.075):
            curve = marginal_nw(data, 0, h, grid25)
            raw = BIWEIGHT.fn((x[None, :] - grid25.points[:, None]) / h)
            w = raw[12] / (grid25.weights @ raw)
            oracle = float(w @ x / w.sum())
            assert curve[12] == pytest.approx(oracle, abs=1e-12)
            # symmetric design around the center: exact recovery there
            assert curve[12] == pytest.approx(0.5, abs=1e-12)


class TestBackfitNW:
    def test_single_axis_reduces_to_centered_marginal(self, grid25):
        data = make_additive_dataset(seed=5, n=90, d=1)
        fit = backfit_nw(data, [0.2], grid25, tol=1e-12)
        marg = marginal_nw(data, 0, 0.2, grid25)
        np.testing.assert_allclose(
            fit.components[0], marg - data.y.mean(), atol=1e-10
        )
        assert fit.intercept == data.y.mean()

    def test_constant_response(self, grid25, dataset2):
        data = Dataset(x=dataset2.x, y=np.full(dataset2.n, 1.5))
        fit = backfit_nw(data, [0.25, 0.25], grid25)
        np.testing.assert_allclose(fit.components, 0.0, atol=1e-12)
        assert fit.intercept == 1.5

    def test_fixed_point_residual(self, grid25, dataset2):
        fit = backfit_nw(data=dataset2, h=[0.2, 0.3], grid=grid25, tol=1e-10)
        assert fixed_point_residual_nw(dataset2, fit) < 1e-8

    def test_dense_solve_oracle(self, grid25, dataset2):
        # Solve the discretized component system directly as one sparse
        # linear system (constant shifts are a nullspace, so least
        # squares plus recentering) and compare with the sweep solution.
        data = dataset2
        h = [0.22, 0.17]
        fit = backfit_nw(data, h, grid25, tol=1e-13)
        d, g = data.d, grid25.size
        tau = grid25.weights
        ws = Workspace(data, grid25, BIWEIGHT, "nw")
        a = np.eye(d * g)
        rhs = np.zeros(d * g)
        for j in range(d):
            ax = ws.axis(j, h[j])
            rhs[j * g:(j + 1) * g] = ax.a0 / ax.p - ws.ybar
            for k in range(d):
                if k == j:
                    continue
                block = pair_density(
                    data, k, j, h[k], h[j], grid25, grid25, BIWEIGHT
                ).values
                a[j * g:(j + 1) * g, k * g:(k + 1) * g] += (
                    block.T * tau[None, :] / ax.p[:, None]
                )
        sol = np.linalg.lstsq(a, rhs, rcond=None)[0].reshape(d, g)
        for j in range(d):
            pj = marginal_density(data, j, h[j], grid25, BIWEIGHT).values
            sol[j] -= tau @ (pj * sol[j])
        np.testing.assert_allclose(sol, fit.components, atol=1e-8)

    def test_norming_constraint(self, grid25, dataset3):
        fit = backfit_nw(dataset3, [0.15, 0.2, 0.25], grid25)
        for j in range(3):
            pj = marginal_density(dataset3, j, fit.bandwidths[j], grid25, BIWEIGHT)
            assert abs(grid25.integrate(pj.values * fit.components[j])) < 1e-8

    def test_geometric_sweep_decay(self, grid25, dataset3):
        fit = backfit_nw(dataset3, [0.15, 0.2, 0.25], grid25, tol=1e-10)
        changes = fit.sweep_changes
        assert len(changes) >= 2
        assert changes[-1] < changes[-2]

    @pytest.mark.parametrize("controls", [
        dict(tol=0.0), dict(tol=-1e-6), dict(tol=np.nan), dict(tol=np.inf),
        dict(max_sweeps=0), dict(max_sweeps=2.5),
    ])
    def test_bad_stopping_controls_fail_before_any_sweep(self, grid25, dataset3, controls):
        with pytest.raises(ValueError):
            backfit_nw(dataset3, [0.15, 0.2, 0.25], grid25, **controls)

    def test_nonconvergence_error(self, grid25, dataset3):
        with pytest.raises(NonConvergenceError) as err:
            backfit_nw(dataset3, [0.15, 0.2, 0.25], grid25, max_sweeps=1)
        assert err.value.last_change > 0

    def test_bandwidth_count_validation(self, grid25, dataset3):
        with pytest.raises(ValueError):
            backfit_nw(dataset3, [0.1, 0.1], grid25)


class TestPredictNW:
    @pytest.fixture
    def fit(self, grid25, dataset2):
        return backfit_nw(dataset2, [0.2, 0.25], grid25)

    def test_grid_point_exact(self, fit, grid25):
        x = np.array([grid25.points[4], grid25.points[20]])
        expected = fit.intercept + fit.components[0][4] + fit.components[1][20]
        assert predict_nw(fit, x) == pytest.approx(expected, abs=1e-14)

    def test_midpoint_averages_neighbors(self, fit, grid25):
        mid = 0.5 * (grid25.points[3] + grid25.points[4])
        x = np.array([mid, grid25.points[10]])
        expected = (
            fit.intercept
            + 0.5 * (fit.components[0][3] + fit.components[0][4])
            + fit.components[1][10]
        )
        assert predict_nw(fit, x) == pytest.approx(expected, abs=1e-13)

    def test_zero_components_give_intercept(self, fit):
        flat = type(fit)(
            intercept=fit.intercept,
            components=np.zeros_like(fit.components),
            bandwidths=fit.bandwidths,
            grid=fit.grid,
            iterations=1,
            converged=True,
        )
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (10, 2))
        np.testing.assert_allclose(predict_nw(flat, pts), fit.intercept)

    def test_domain_error(self, fit):
        with pytest.raises(ValueError):
            predict_nw(fit, np.array([1.2, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_rejected(self, fit, bad):
        # NaN used to pass the domain test and predict NaN.
        with pytest.raises(ValueError, match="finite"):
            predict_nw(fit, np.array([bad, 0.5]))
        pts = np.random.default_rng(4).uniform(0, 1, (6, 2))
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            predict_nw(fit, pts)

    def test_batch_shape(self, fit):
        pts = np.random.default_rng(2).uniform(0, 1, (7, 2))
        assert predict_nw(fit, pts).shape == (7,)
