"""Local quadratic curvature estimation on fitted curves."""

import numpy as np
import pytest

from smoothfit import (
    BIWEIGHT,
    EPANECHNIKOV,
    Dataset,
    Grid,
    curvature_at_points,
    equivalent_kernel_check,
    pilot_bandwidth,
    second_derivative,
    select_pl,
    select_pl_star,
    select_single,
)
from smoothfit import selectors
from smoothfit._engine import _RIDGE_SCALE, _SING_RTOL, Workspace
from smoothfit.curvature import CurvatureCurve, _quadratic_coefficient
from smoothfit.errors import SingularMomentError
from smoothfit.selectors import _component_curvature
from smoothfit.simulate import SimConfig, generate


class TestSecondDerivative:
    def test_quadratic_exact(self, grid25):
        u = grid25.points
        curve = 1.3 - 0.4 * u + 2.5 * u**2
        for g in (0.08, 0.15, 0.3):
            cc = second_derivative(curve, grid25, g)
            interior = (u >= g) & (u <= 1 - g)
            np.testing.assert_allclose(cc.values[interior], 5.0, atol=1e-6)
            # truncated windows do not break polynomial exactness either
            np.testing.assert_allclose(cc.values, 5.0, atol=1e-6)

    def test_constant_curve(self, grid25):
        cc = second_derivative(np.full(25, 2.0), grid25, 0.1)
        np.testing.assert_allclose(cc.values, 0.0, atol=1e-9)

    def test_sine_curve_interior_accuracy(self, grid25):
        curve = np.sin(2 * np.pi * grid25.points)
        cc = second_derivative(curve, grid25, 0.1)
        target = -4 * np.pi**2 * np.sin(np.pi / 2)
        # grid point 6 sits at u = 0.25
        assert cc.values[6] == pytest.approx(target, rel=0.10)

    def test_linearity_in_curve(self, grid25):
        rng = np.random.default_rng(6)
        c1, c2 = rng.normal(size=25), rng.normal(size=25)
        a, b = 1.7, -0.6
        combo = second_derivative(a * c1 + b * c2, grid25, 0.12).values
        parts = (
            a * second_derivative(c1, grid25, 0.12).values
            + b * second_derivative(c2, grid25, 0.12).values
        )
        np.testing.assert_allclose(combo, parts, atol=1e-9)

    def test_narrow_window_widens(self, grid25):
        # Pilot below the grid spacing: windows must stretch to the
        # three nearest nodes and stay exact for quadratics.
        curve = grid25.points**2
        cc = second_derivative(curve, grid25, 0.01)
        assert cc.widened.all()
        np.testing.assert_allclose(cc.values, 2.0, atol=1e-6)

    def test_size_mismatch(self, grid25):
        with pytest.raises(ValueError):
            second_derivative(np.zeros(10), grid25, 0.1)

    def test_positive_pilot_required(self, grid25):
        for g in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                second_derivative(np.zeros(25), grid25, g)


class TestEquivalentKernel:
    def test_interior_moments(self):
        out = equivalent_kernel_check(BIWEIGHT, 0.1, 0.5)
        assert out["i0"] == pytest.approx(0.0, abs=1e-8)
        assert out["i1"] == pytest.approx(0.0, abs=1e-8)
        assert out["i2"] == pytest.approx(1.0, abs=1e-8)

    def test_off_center_interior(self):
        out = equivalent_kernel_check(BIWEIGHT, 0.1, 0.45)
        assert out["i0"] == pytest.approx(0.0, abs=1e-8)
        assert out["i1"] == pytest.approx(0.0, abs=1e-8)
        assert out["i2"] == pytest.approx(1.0, abs=1e-8)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            equivalent_kernel_check(BIWEIGHT, 0.1, 0.05)


class TestHelpers:
    def test_pilot_rules(self):
        assert pilot_bandwidth(0.2, 1.5) == pytest.approx(0.3)
        assert pilot_bandwidth(0.2, 1.5, rule="power") == pytest.approx(
            1.5 * 0.2 ** (5 / 7)
        )
        with pytest.raises(ValueError):
            pilot_bandwidth(0.2, 1.5, rule="cubic")
        for factor in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError):
                pilot_bandwidth(0.2, factor)

    def test_interpolation_at_points(self, grid25):
        cc = second_derivative(grid25.points**2, grid25, 0.2)
        vals = curvature_at_points(cc, np.array([0.1, 0.55, 0.9]))
        np.testing.assert_allclose(vals, 2.0, atol=1e-6)


# The estimator and the straight-line guard as they were before the
# moment sums became one reduction, the guard a closed-form line, the
# normal systems a closed-form quadratic coefficient and the curvature at
# the data an interpolation through the workspace; the current code must
# reproduce them to rounding.


def _ref_solve_quadratic(mom, rhs, grid):
    """Batched ridged solve of the 3x3 normal systems."""
    det = np.linalg.det(mom)
    diag = np.einsum("gii->gi", mom)
    bad = np.abs(det) < _SING_RTOL * np.power(np.sum(diag * diag, axis=1), 1.5)
    if np.any(bad):
        lam = _RIDGE_SCALE * diag.sum(axis=1)
        mom = mom.copy()
        for k in range(3):
            mom[bad, k, k] += lam[bad]
        det = np.linalg.det(mom)
        if np.any(np.abs(det) <= 0.0):
            g = int(np.argmax(np.abs(det) <= 0.0))
            raise SingularMomentError(None, float(grid.points[g]))
    return np.linalg.solve(mom, rhs[..., None])[..., 0]


def _ref_quad_moments(grid, g, kernel):
    if g <= 0:
        raise ValueError("pilot bandwidth must be positive")
    pts = grid.points
    delta = (pts[None, :] - pts[:, None]) / g
    omega = kernel.fn(delta) * grid.weights[None, :]
    s = [np.sum(omega * delta**k, axis=1) for k in range(5)]
    mom = np.empty((pts.size, 3, 3))
    for r in range(3):
        for c in range(3):
            mom[:, r, c] = s[r + c]
    return omega, delta, mom


def _ref_second_derivative(curve, grid, g, kernel=BIWEIGHT):
    curve = np.asarray(curve, dtype=float).ravel()
    if curve.size != grid.size:
        raise ValueError("curve and grid sizes disagree")
    omega, delta, mom = _ref_quad_moments(grid, g, kernel)
    scale = np.full(grid.size, g)
    active = omega > omega.max(axis=1, keepdims=True) * 1e-9
    widened = active.sum(axis=1) < 3
    if np.any(widened):
        pts = grid.points
        for a in np.nonzero(widened)[0]:
            dist = np.sort(np.abs(pts - pts[a]))
            g_eff = dist[2] * 1.5
            d_row = (pts - pts[a]) / g_eff
            w_row = kernel.fn(d_row) * grid.weights
            omega[a] = w_row
            delta[a] = d_row
            scale[a] = g_eff
            for r in range(3):
                for c in range(3):
                    mom[a, r, c] = np.sum(w_row * d_row ** (r + c))
    rhs = np.stack(
        [np.sum(omega * delta**k * curve[None, :], axis=1) for k in range(3)],
        axis=1,
    )
    beta = _ref_solve_quadratic(mom, rhs, grid)
    return CurvatureCurve(
        grid=grid,
        values=2.0 * beta[:, 2] / (scale * scale),
        pilot_bandwidth=g,
        widened=widened,
    )


def _ref_component_curvature(ws, j, curve, g):
    grid, x, kernel = ws.grid, ws.data.x[:, j], ws.kernel
    design = np.column_stack([np.ones(grid.size), grid.points])
    coef, *_ = np.linalg.lstsq(design, curve, rcond=None)
    line_resid = np.abs(curve - design @ coef).max()
    if line_resid <= 1e-9 * max(1.0, float(np.abs(curve).max())):
        return np.zeros(x.size)
    return curvature_at_points(_ref_second_derivative(curve, grid, g, kernel), x)


def _curves(grid, rng):
    t = grid.points
    yield t**2
    yield np.sin(2 * np.pi * t)
    yield np.exp(-3 * t) + 0.3 * t**4
    yield np.cumsum(rng.normal(size=grid.size)) / 5
    yield rng.normal(size=grid.size)


class TestAgainstReference:
    @pytest.mark.parametrize("size", [9, 25])
    @pytest.mark.parametrize("kernel", [BIWEIGHT, EPANECHNIKOV])
    def test_values_and_flags_match(self, size, kernel):
        # Pilots from below the grid spacing (every window widens)
        # through partial widening to windows wider than the interval,
        # on curves with curvature (a line's is rounding, and the
        # selectors set it to zero before estimating).
        grid = Grid.regular(size)
        rng = np.random.default_rng(size)
        spacing = 1.0 / (size - 1)
        pilots = [0.3 * spacing, 0.9 * spacing, 1.6 * spacing, 0.1, 0.35, 2.0]
        seen_widened = seen_plain = False
        for g in pilots:
            for curve in _curves(grid, rng):
                new = second_derivative(curve, grid, g, kernel)
                ref = _ref_second_derivative(curve, grid, g, kernel)
                np.testing.assert_array_equal(new.widened, ref.widened)
                scale = max(float(np.abs(ref.values).max()), 1e-300)
                assert np.abs(new.values - ref.values).max() <= 1e-12 * scale
                seen_widened |= bool(ref.widened.any())
                seen_plain |= bool(not ref.widened.all())
        assert seen_widened and seen_plain

    def test_quadratic_coefficient_matches_the_batched_solve(self, grid25):
        # Moment sums of random windows, plus two rows of two nodes each,
        # which are singular and go through the ridge.
        rng = np.random.default_rng(11)
        delta = rng.uniform(-1.0, 1.0, (25, 9))
        omega = rng.uniform(0.0, 1.0, (25, 9))
        omega[[3, 8], 2:] = 0.0
        sums = np.stack([(omega * delta**k).sum(axis=1) for k in range(5)])
        rhs = rng.normal(size=(3, 25))
        mom = sums[np.add.outer(np.arange(3), np.arange(3))].transpose(2, 0, 1)
        ref = _ref_solve_quadratic(mom, rhs.T, grid25)[:, 2]
        new = _quadratic_coefficient(sums, rhs, grid25)
        plain = np.ones(25, dtype=bool)
        plain[[3, 8]] = False
        np.testing.assert_allclose(new[plain], ref[plain], rtol=1e-12, atol=0)
        # A ridged system's condition number is about 1 / _RIDGE_SCALE.
        np.testing.assert_allclose(new[~plain], ref[~plain], rtol=1e-5, atol=0)

    def test_line_guard_matches_least_squares(self, grid25):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 50)
        ws = Workspace(Dataset(x=x[:, None], y=x), grid25, BIWEIGHT, "ll")
        t = grid25.points
        cases = [0.4 + 2.0 * t, 3.0 - t + 1e-13 * rng.normal(size=25),
                 1e5 * t, t + 1e-6 * t**2, np.zeros(25), t**2]
        for curve in cases:
            new = _component_curvature(ws, 0, curve, 0.2)
            ref = _ref_component_curvature(ws, 0, curve, 0.2)
            assert (np.abs(new).max() == 0.0) == (np.abs(ref).max() == 0.0)
            # Rounding in the estimate scales with the curve, so a faint
            # curvature on a large line is compared on the curve's scale.
            scale = max(float(np.abs(ref).max()), float(np.abs(curve).max()))
            assert np.abs(new - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("seed", [1, 2])
    def test_plug_in_selectors_keep_their_iterations(self, grid25, seed, monkeypatch):
        m1 = SimConfig(model="m1", n=150, seed=seed)
        m2 = SimConfig(model="m2", n=150, seed=seed)
        data1, _ = generate(m1, 0)
        data2, _ = generate(m2, 0)
        runs = {
            "pl_star": lambda: select_pl_star(data1, m1.search_spec(), grid25),
            "pl": lambda: select_pl(data1, m1.search_spec(), "full_grid", grid25),
            "pl_coord": lambda: select_pl(data1, m1.search_spec(), "coordinate", grid25),
            "pl1": lambda: select_single(data2, "pl1", m2.search_spec(), grid25),
        }
        new = {name: run() for name, run in runs.items()}
        monkeypatch.setattr(selectors, "second_derivative", _ref_second_derivative)
        monkeypatch.setattr(selectors, "_component_curvature", _ref_component_curvature)
        for name, run in runs.items():
            ref = run()
            assert new[name].outer_iterations == ref.outer_iterations, name
            assert new[name].converged == ref.converged, name
            assert new[name].flags == ref.flags, name
            np.testing.assert_allclose(new[name].bandwidths, ref.bandwidths, rtol=1e-12)
