"""Smooth backfitting with local linear smoothing.

Each additive component carries a level curve and a slope curve that
are updated jointly: the marginal local linear fit minus the moment
matrix inverse applied to the cross-moment integrals of the other
components.  The intercept equals the response mean once the components
are normalized so that each norming functional (density-weighted mean
of the level plus first-moment-weighted mean of the slope) vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _engine
from .data import Dataset, Grid
from .density import _check_axis, cross_moments, local_moments, weight_matrix
from .kernels import BIWEIGHT, KernelSpec
from .backfit_nw import _backfit, _predict_additive

__all__ = [
    "AdditiveFitLL",
    "marginal_ll",
    "backfit_ll",
    "predict_ll",
    "fixed_point_residual_ll",
]


@dataclass(frozen=True)
class AdditiveFitLL:
    """Additive local linear backfit on a grid.

    ``components`` holds the level curves, ``slopes`` the derivative
    curves, both of shape (d, grid size).  Levels are normalized so the
    norming functional of every axis vanishes and the intercept is the
    sample mean of the response.  ``kernel`` is the kernel the fit was
    solved with.
    """

    intercept: float
    components: np.ndarray
    slopes: np.ndarray
    bandwidths: np.ndarray
    grid: Grid
    iterations: int
    converged: bool
    sweep_changes: list = field(repr=False, default_factory=list)
    kernel: KernelSpec = BIWEIGHT

    def predict(self, x) -> np.ndarray:
        return predict_ll(self, x)


def marginal_ll(
    data: Dataset, j: int, h: float, grid: Grid, kernel: KernelSpec = BIWEIGHT
):
    """Ordinary local linear regression of y on covariate ``j``.

    Returns ``(levels, slopes)`` on the grid.  Near-singular moment
    matrices are ridged.

    Raises
    ------
    ValueError
        If ``j`` is out of range, or ``h`` is not finite and positive.
    EmptyNeighborhoodError
        If a grid point has no observation within ``h`` (its moment
        matrix is zero), or an observation has no grid mass.
    SingularMomentError
        If a local moment matrix is singular beyond the ridge.
    """
    _check_axis(data, j)
    levels, slopes = _engine.workspace_for(data, "ll", grid, kernel).axis(j, h).ll
    return levels.copy(), slopes.copy()


def backfit_ll(
    data: Dataset,
    h,
    grid: Grid | None = None,
    kernel: KernelSpec | None = None,
    tol: float = _engine.DEFAULT_TOL,
    max_sweeps: int = _engine.DEFAULT_MAX_SWEEPS,
    workspace: "_engine.Workspace | None" = None,
    init=None,
) -> AdditiveFitLL:
    """Fit the additive model by local linear smooth backfitting.

    Levels and slopes are swept jointly in axis order until the sup-norm
    change of a sweep drops below ``tol`` relative to the curve scale.
    The returned fit satisfies the norming constraints exactly and its
    intercept is the response mean.  ``grid`` and ``kernel`` default to
    those of ``workspace``, else to the regular 25-point grid and the
    biweight kernel.

    Raises
    ------
    ValueError
        If a bandwidth (InvalidBandwidthError) or ``tol`` is not finite
        and positive, ``max_sweeps`` is not an integer of at least 1, or
        ``workspace`` was built on other data, on another grid or kernel
        than the ones passed, or for the other smoother.
    NonConvergenceError
        With the last sup-norm change attached, if sweeps run out.
    EmptyNeighborhoodError
        If, on some axis, a grid point has no observation within its
        bandwidth, or an observation has no grid mass.
    SingularMomentError
        If a local moment matrix is singular beyond the ridge.
    """
    return _backfit(AdditiveFitLL, "ll", data, h, grid, kernel, tol, max_sweeps, workspace, init)


def predict_ll(fit: AdditiveFitLL, x):
    """Evaluate the fitted additive surface by linear interpolation.

    Uses the level curves only; slopes describe derivatives and do not
    enter prediction.
    """
    return _predict_additive(fit, x)


def fixed_point_residual_ll(
    data: Dataset, fit: AdditiveFitLL, kernel: KernelSpec | None = None
) -> float:
    """Sup-norm residual of the local linear fixed-point system.

    Rebuilds the right-hand side from the density module (marginal local
    moments and cross-moment surfaces), which is an independent path
    from the cached solver, and compares against the stored curves.
    ``kernel`` defaults to the fit's; another one raises ValueError.
    """
    kernel = _engine.own_kernel(kernel, fit.kernel, "fit")
    grid = fit.grid
    tau = grid.weights
    d = data.d
    h = fit.bandwidths
    resid = 0.0
    for j in range(d):
        mom = local_moments(data, j, h[j], grid, kernel)
        i11, i12, i22 = _engine._ridged_inverse(mom.m00, mom.m01, mom.m11, j, grid.points)
        w = weight_matrix(kernel, h[j], grid, data.x[:, j])
        b = w * (data.x[:, j][None, :] - grid.points[:, None])
        a0 = w @ data.y / data.n
        a1 = b @ data.y / data.n
        mt_level = i11 * a0 + i12 * a1
        mt_slope = i12 * a0 + i22 * a1
        c0 = np.zeros(grid.size)
        c1 = np.zeros(grid.size)
        for k in range(d):
            if k == j:
                continue
            s = cross_moments(data, k, j, h[k], h[j], grid, grid, kernel)
            tm, ts = tau * fit.components[k], tau * fit.slopes[k]
            c0 += tm @ s.s11 + ts @ s.s12
            c1 += tm @ s.s21 + ts @ s.s22
        rhs_level = mt_level - fit.intercept - (i11 * c0 + i12 * c1)
        rhs_slope = mt_slope - (i12 * c0 + i22 * c1)
        resid = max(
            resid,
            float(np.abs(rhs_level - fit.components[j]).max()),
            float(np.abs(rhs_slope - fit.slopes[j]).max()),
        )
    return resid
