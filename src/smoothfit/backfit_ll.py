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
from .density import cross_moments, local_moments
from .kernels import BIWEIGHT, KernelSpec
from .backfit_nw import _predict_additive

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
    sample mean of the response.
    """

    intercept: float
    components: np.ndarray
    slopes: np.ndarray
    bandwidths: np.ndarray
    grid: Grid
    iterations: int
    converged: bool
    sweep_changes: list = field(repr=False, default_factory=list)

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
    EmptyNeighborhoodError
        If a grid point has no observation within ``h`` (its moment
        matrix is zero), or an observation has no grid mass.
    SingularMomentError
        If a local moment matrix is singular beyond the ridge.
    """
    ws = _engine.Workspace(data, grid, kernel)
    levels, slopes = ws.ll_marginal(j, h)
    return levels.copy(), slopes.copy()


def backfit_ll(
    data: Dataset,
    h,
    grid: Grid,
    kernel: KernelSpec = BIWEIGHT,
    tol: float = _engine.DEFAULT_TOL,
    max_sweeps: int = _engine.DEFAULT_MAX_SWEEPS,
    workspace: "_engine.Workspace | None" = None,
    init=None,
) -> AdditiveFitLL:
    """Fit the additive model by local linear smooth backfitting.

    Levels and slopes are swept jointly in axis order until the sup-norm
    change of a sweep drops below ``tol`` relative to the curve scale.
    The returned fit satisfies the norming constraints exactly and its
    intercept is the response mean.

    Raises
    ------
    ValueError
        If ``tol`` is not finite and positive, or ``max_sweeps`` is not an
        integer of at least 1.
    NonConvergenceError
        With the last sup-norm change attached, if sweeps run out.
    EmptyNeighborhoodError
        If, on some axis, a grid point has no observation within its
        bandwidth, or an observation has no grid mass.
    SingularMomentError
        If a local moment matrix is singular beyond the ridge.
    """
    h = np.asarray(h, dtype=float).ravel()
    if h.size != data.d:
        raise ValueError(f"need {data.d} bandwidths, got {h.size}")
    _engine.check_tolerance("tol", tol)
    _engine.check_count("max_sweeps", max_sweeps)
    ws = workspace if workspace is not None else _engine.Workspace(data, grid, kernel)
    comps, slopes, sweeps, changes = _engine.ll_solve(
        ws, h, init=init, tol=tol, max_sweeps=max_sweeps
    )
    return AdditiveFitLL(
        intercept=ws.ybar,
        components=comps,
        slopes=slopes,
        bandwidths=h,
        grid=grid,
        iterations=sweeps,
        converged=True,
        sweep_changes=changes,
    )


def predict_ll(fit: AdditiveFitLL, x):
    """Evaluate the fitted additive surface by linear interpolation.

    Uses the level curves only; slopes describe derivatives and do not
    enter prediction.
    """
    return _predict_additive(
        fit.intercept, fit.components, fit.grid, x, fit.components.shape[0]
    )


def fixed_point_residual_ll(
    data: Dataset, fit: AdditiveFitLL, kernel: KernelSpec = BIWEIGHT
) -> float:
    """Sup-norm residual of the local linear fixed-point system.

    Rebuilds the right-hand side from the density module (marginal local
    moments and cross-moment surfaces), which is an independent path
    from the cached solver, and compares against the stored curves.
    """
    grid = fit.grid
    tau = grid.weights
    d = data.d
    h = fit.bandwidths
    resid = 0.0
    for j in range(d):
        mom = local_moments(data, j, h[j], grid, kernel)
        i11, i12, i22 = _engine._ridged_inverse(mom.m00, mom.m01, mom.m11, j, grid.points)
        raw = kernel.fn((data.x[:, j][None, :] - grid.points[:, None]) / h[j])
        w = raw / (tau @ raw)
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
