"""Second-derivative estimation from a fitted component curve.

The estimator fits a quadratic in ``v - u`` to the curve by weighted
least squares, with kernel weights of pilot bandwidth ``g`` and the
integral discretized by the trapezoid rule on the curve's own grid, and
returns twice the quadratic coefficient.  Near the boundary the weight
window is truncated at [0, 1] and used as-is; this avoids the boundary
blow-up that plagues smoothed differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._engine import _RIDGE_SCALE, _SING_RTOL
from .data import Grid
from .errors import SingularMomentError
from .kernels import BIWEIGHT, KernelSpec, check_bandwidth

__all__ = [
    "CurvatureCurve",
    "second_derivative",
    "equivalent_kernel_check",
    "pilot_bandwidth",
    "curvature_at_points",
]

@dataclass(frozen=True)
class CurvatureCurve:
    """Estimated second derivative of a component on its grid.

    ``widened`` flags grid points where fewer than three nodes carried
    kernel weight and the window was stretched to the three nearest.
    """

    grid: Grid
    values: np.ndarray
    pilot_bandwidth: float
    widened: np.ndarray


def pilot_bandwidth(h, factor: float = 1.5, rule: str = "linear"):
    """Pilot bandwidth for curvature estimation.

    ``linear`` gives ``factor * h``; ``power`` gives ``factor * h**(5/7)``,
    a rate-motivated alternative for the pilot scale.  The factor must be
    positive and finite.
    """
    if not 0.0 < factor < np.inf:
        raise ValueError(f"pilot factor must be positive and finite, got {factor}")
    h = np.asarray(h, dtype=float)
    if rule == "linear":
        return factor * h
    if rule == "power":
        return factor * h ** (5.0 / 7.0)
    raise ValueError(f"unknown pilot rule {rule!r}")


def _last_column_cofactors(m00, m11, m22, m01, m02, m12):
    """Cofactors of the last column of the symmetric 3x3 matrices with
    these entries (one per grid point), and the determinants expanded
    along that column."""
    c0 = m01 * m12 - m11 * m02
    c1 = m01 * m02 - m00 * m12
    c2 = m00 * m11 - m01 * m01
    return (c0, c1, c2), m02 * c0 + m12 * c1 + m22 * c2


def _quadratic_coefficient(sums: np.ndarray, rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """Per grid point, the quadratic coefficient of the ridged normal
    system ``[[s0, s1, s2], [s1, s2, s3], [s2, s3, s4]] @ beta = rhs``,
    by Cramer's rule on the cofactors of its last column.

    ``sums`` holds the moment sums s0..s4 as rows and ``rhs`` the three
    right-hand sides as rows.
    """
    s0, s1, s2, s3, s4 = sums
    diag = [s0, s2, s4]
    cof, det = _last_column_cofactors(*diag, s1, s2, s3)
    bad = np.abs(det) < _SING_RTOL * np.power(s0 * s0 + s2 * s2 + s4 * s4, 1.5)
    if np.any(bad):
        lam = np.where(bad, _RIDGE_SCALE * (s0 + s2 + s4), 0.0)
        diag = [m + lam for m in diag]
        cof, det = _last_column_cofactors(*diag, s1, s2, s3)
        if np.any(np.abs(det) <= 0.0):
            g = int(np.argmax(np.abs(det) <= 0.0))
            raise SingularMomentError(None, float(grid.points[g]))
    return (rhs[0] * cof[0] + rhs[1] * cof[1] + rhs[2] * cof[2]) / det


def second_derivative(
    curve: np.ndarray,
    grid: Grid,
    g: float,
    kernel: KernelSpec = BIWEIGHT,
) -> CurvatureCurve:
    """Estimate the second derivative of a grid curve by local quadratics.

    At every grid point a quadratic in the offset is fit to the whole
    curve with kernel weights of bandwidth ``g`` (trapezoid-discretized,
    truncated at the interval ends), and twice the quadratic coefficient
    is returned.  Exact for curves that are polynomials of degree at
    most two wherever at least three nodes carry weight.

    Windows covering fewer than three grid nodes are widened to the
    three nearest nodes and flagged in ``widened``.
    """
    curve = np.asarray(curve, dtype=float).ravel()
    if curve.size != grid.size:
        raise ValueError("curve and grid sizes disagree")
    check_bandwidth(g)
    pts = grid.points
    # Row a holds the fit at node a: the offsets of every node scaled by
    # the row's bandwidth, and their trapezoid-weighted kernel weights.
    delta = (pts[None, :] - pts[:, None]) / g
    omega = kernel.fn(delta) * grid.weights[None, :]
    scale = np.full(grid.size, g)
    # Nodes with vanishing relative weight cannot stabilize the fit.
    active = omega > omega.max(axis=1, keepdims=True) * 1e-9
    widened = active.sum(axis=1) < 3
    if np.any(widened):
        # Stretch those windows so the third-nearest node carries real
        # weight (compact kernels vanish at the support edge).
        offsets = pts[None, :] - pts[widened, None]
        scale[widened] = np.partition(np.abs(offsets), 2, axis=1)[:, 2] * 1.5
        delta[widened] = offsets / scale[widened, None]
        omega[widened] = kernel.fn(delta[widened]) * grid.weights[None, :]
    # Stacked omega * delta**k for k = 0..4: the normal matrices of the
    # scaled basis (1, t, t^2) hold their row sums s_(r+c), and the
    # right-hand sides are the row sums of the first three times the curve
    # less its value at the row's node.  That shift moves only the
    # constant coefficient, and it keeps the curve's level out of the
    # closed-form quadratic coefficient, which it would otherwise have to
    # cancel.
    powers = np.empty((5,) + delta.shape)
    powers[0] = omega
    for k in range(1, 5):
        np.multiply(powers[k - 1], delta, out=powers[k])
    rhs = (powers[:3] * (curve[None, :] - curve[:, None])).sum(axis=2)
    quad = _quadratic_coefficient(powers.sum(axis=2), rhs, grid)
    return CurvatureCurve(
        grid=grid,
        values=2.0 * quad / (scale * scale),
        pilot_bandwidth=g,
        widened=widened,
    )


def equivalent_kernel_check(
    kernel: KernelSpec, g: float, u: float, grid: Grid | None = None
) -> dict:
    """Moments of the effective weights the local quadratic fit applies.

    For an interior center ``u`` (at least ``g`` from both edges) the
    curvature coefficient is a linear functional of the curve whose
    effective weights must annihilate constants and linear trends and
    assign unit mass to the scaled squared offset: the returned moments
    ``(i0, i1, i2)`` equal ``(0, 0, 1)`` up to rounding.

    Raises
    ------
    ValueError
        If ``u`` is within ``g`` of a boundary, where the truncated
        window changes the moments by construction.
    """
    if grid is None:
        grid = Grid.regular(25)
    if not g < u < 1.0 - g:
        raise ValueError(f"center {u} is within one pilot bandwidth of a boundary")
    pts = grid.points
    delta = (pts - u) / g
    omega = kernel.fn(delta) * grid.weights
    mom = np.array(
        [[np.sum(omega * delta ** (r + c)) for c in range(3)] for r in range(3)]
    )
    # Effective weights of the quadratic coefficient.
    eff = np.linalg.solve(mom, np.eye(3))[2] @ (
        np.stack([np.ones_like(delta), delta, delta**2]) * omega
    )
    return {
        "i0": float(eff.sum()),
        "i1": float(eff @ delta),
        "i2": float(eff @ delta**2),
    }


def curvature_at_points(curve: CurvatureCurve, x) -> np.ndarray:
    """Linear interpolation of a curvature curve at arbitrary points."""
    return np.interp(np.asarray(x, dtype=float), curve.grid.points, curve.values)
