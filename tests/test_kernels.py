"""Kernel shapes, moments, and boundary renormalization on [0,1]."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from smoothfit import (
    BIWEIGHT,
    EPANECHNIKOV,
    boundary_weight,
    custom_kernel,
    get_kernel,
    kernel_moments,
)
from smoothfit.errors import InvalidBandwidthError


def _symbolic_moments(expr_factory):
    """Closed-form kernel moments by symbolic integration."""
    u = sympy.Symbol("u")
    k = expr_factory(u)
    total = sympy.integrate(k, (u, -1, 1))
    r_k = sympy.integrate(k**2, (u, -1, 1))
    mu2 = sympy.integrate(u**2 * k, (u, -1, 1))
    return float(total), float(r_k), float(mu2)


class TestMoments:
    def test_biweight_closed_forms(self):
        total, r_k, mu2 = _symbolic_moments(
            lambda u: sympy.Rational(15, 16) * (1 - u**2) ** 2
        )
        assert total == pytest.approx(1.0, abs=1e-15)
        m = kernel_moments(BIWEIGHT)
        assert m["k0"] == pytest.approx(15 / 16, abs=1e-15)
        assert m["r_k"] == pytest.approx(r_k, abs=1e-12)
        assert m["r_k"] == pytest.approx(5 / 7, abs=1e-12)
        assert m["mu2"] == pytest.approx(mu2, abs=1e-12)
        assert m["mu2"] == pytest.approx(1 / 7, abs=1e-12)

    def test_epanechnikov_closed_forms(self):
        total, r_k, mu2 = _symbolic_moments(
            lambda u: sympy.Rational(3, 4) * (1 - u**2)
        )
        assert total == pytest.approx(1.0, abs=1e-15)
        m = kernel_moments(EPANECHNIKOV)
        assert m["k0"] == pytest.approx(0.75, abs=1e-15)
        assert m["r_k"] == pytest.approx(r_k, abs=1e-12)
        assert m["mu2"] == pytest.approx(mu2, abs=1e-12)

    def test_density_normalized(self):
        for kern in (BIWEIGHT, EPANECHNIKOV):
            val, _ = quad(kern.fn, -1, 1)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_support_and_cdf(self):
        assert BIWEIGHT.fn(np.array([-1.2, 1.2])).tolist() == [0.0, 0.0]
        assert BIWEIGHT.cdf(-1.0) == pytest.approx(0.0, abs=1e-15)
        assert BIWEIGHT.cdf(1.0) == pytest.approx(1.0, abs=1e-15)
        assert BIWEIGHT.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, t):
        assert BIWEIGHT.fn(np.array(t)) == pytest.approx(
            BIWEIGHT.fn(np.array(-t)), abs=1e-15
        )
        assert EPANECHNIKOV.fn(np.array(t)) == pytest.approx(
            EPANECHNIKOV.fn(np.array(-t)), abs=1e-15
        )

    def test_get_kernel(self):
        assert get_kernel("biweight") is BIWEIGHT
        assert get_kernel("epanechnikov") is EPANECHNIKOV
        with pytest.raises(ValueError):
            get_kernel("gaussian")


class TestCustomKernel:
    def test_matches_builtin(self):
        k = custom_kernel(BIWEIGHT.fn, name="custom-biweight")
        assert k.k0 == pytest.approx(15 / 16, abs=1e-12)
        assert k.r_k == pytest.approx(5 / 7, abs=1e-9)
        assert k.mu2 == pytest.approx(1 / 7, abs=1e-9)
        assert k.cdf(0.0) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            custom_kernel(lambda t: np.clip(1.0 - np.abs(t - 0.1), 0, None))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="integrate"):
            custom_kernel(lambda t: 2.0 * BIWEIGHT.fn(t))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            custom_kernel(lambda t: np.where(np.abs(t) <= 1, np.cos(4 * t), 0.0))


class TestBoundaryWeight:
    def test_interior_value(self):
        # Interior point: denominator equals h, value K(0)/h.
        assert boundary_weight(BIWEIGHT, 0.1, 0.5, 0.5) == pytest.approx(
            9.375, abs=1e-12
        )

    def test_outside_support(self):
        assert boundary_weight(BIWEIGHT, 0.1, 0.5, 0.95) == 0.0

    def test_corner_value(self):
        # Half of the kernel mass falls outside [0,1] at the corner, so
        # the weight doubles: K(0) / (h/2).
        assert boundary_weight(BIWEIGHT, 0.1, 0.0, 0.0) == pytest.approx(
            18.75, abs=1e-10
        )

    def test_invalid_bandwidth(self):
        with pytest.raises(InvalidBandwidthError):
            boundary_weight(BIWEIGHT, 0.0, 0.5, 0.5)
        with pytest.raises(InvalidBandwidthError):
            boundary_weight(BIWEIGHT, -0.2, 0.5, 0.5)
        for h in (np.nan, np.inf):
            with pytest.raises(InvalidBandwidthError):
                boundary_weight(BIWEIGHT, h, 0.5, 0.5)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            boundary_weight(BIWEIGHT, 0.1, 1.5, 0.5)

    @given(
        st.floats(0.02, 0.9),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_integrates_to_one_in_u(self, h, v):
        # The weight must integrate to 1 over u for every data point v.
        # Tell the quadrature where the compact support lives, so a
        # narrow kernel cannot slip between its sample points.
        breaks = sorted({max(0.0, v - h), min(1.0, v + h)})
        val, _ = quad(
            lambda u: boundary_weight(BIWEIGHT, h, u, v),
            0.0, 1.0, points=breaks, limit=200,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    @given(st.floats(0.05, 0.45), st.floats(0.0, 1.0), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interior_identity(self, h, u, data):
        # For data points at least h from both edges the boundary factor
        # drops out exactly, whatever the grid argument is.
        v = data.draw(st.floats(h, 1.0 - h))
        expected = float(BIWEIGHT.fn(np.array((v - u) / h))) / h
        assert boundary_weight(BIWEIGHT, h, u, v) == pytest.approx(
            expected, abs=1e-12 * max(1.0, expected)
        )

    def test_vectorized_over_u(self):
        u = np.linspace(0, 1, 11)
        vals = boundary_weight(BIWEIGHT, 0.2, u, 0.5)
        assert vals.shape == (11,)
        assert vals[5] == pytest.approx(BIWEIGHT.k0 / 0.2, abs=1e-12)
