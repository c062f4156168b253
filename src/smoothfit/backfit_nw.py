"""Smooth backfitting with Nadaraya-Watson (locally constant) smoothing.

The additive fit solves a coupled fixed-point system on the grid: each
component equals its marginal kernel regression minus the integrals of
the other components against pair-to-marginal density ratios, minus the
intercept.  The intercept is the sample mean of the response, and each
component is normalized to zero density-weighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _engine
from .data import Dataset, Grid
from .density import _check_axis, marginal_density, pair_density, weight_matrix
from .kernels import BIWEIGHT, KernelSpec, check_bandwidth

__all__ = [
    "AdditiveFitNW",
    "marginal_nw",
    "backfit_nw",
    "predict_nw",
    "fixed_point_residual_nw",
]


@dataclass(frozen=True)
class AdditiveFitNW:
    """Additive Nadaraya-Watson backfit on a grid.

    Attributes
    ----------
    intercept : float
        Sample mean of the response.
    components : ndarray of shape (d, grid size)
        Component curves, each with zero density-weighted mean.
    bandwidths : ndarray of shape (d,)
    grid : Grid
    iterations : int
        Number of Gauss-Seidel sweeps performed.
    converged : bool
    sweep_changes : list[float]
        Sup-norm change after each sweep.
    kernel : KernelSpec
        The kernel the fit was solved with.
    """

    intercept: float
    components: np.ndarray
    bandwidths: np.ndarray
    grid: Grid
    iterations: int
    converged: bool
    sweep_changes: list = field(repr=False, default_factory=list)
    kernel: KernelSpec = BIWEIGHT

    def predict(self, x) -> np.ndarray:
        return predict_nw(self, x)


def marginal_nw(
    data: Dataset, j: int, h: float, grid: Grid, kernel: KernelSpec = BIWEIGHT
) -> np.ndarray:
    """Marginal Nadaraya-Watson regression of y on covariate ``j``.

    Returns the curve of kernel-weighted response averages on the grid.

    Raises
    ------
    ValueError
        If ``j`` is out of range, or ``h`` is not finite and positive.
    EmptyNeighborhoodError
        If the marginal density vanishes at some grid point (no
        observation within ``h``), or an observation has no grid mass.
    """
    _check_axis(data, j)
    axis = _engine.workspace_for(data, "nw", grid, kernel).axis(j, h)
    return axis.a0 / axis.p


def backfit_nw(
    data: Dataset,
    h,
    grid: Grid | None = None,
    kernel: KernelSpec | None = None,
    tol: float = _engine.DEFAULT_TOL,
    max_sweeps: int = _engine.DEFAULT_MAX_SWEEPS,
    workspace: "_engine.Workspace | None" = None,
    init: np.ndarray | None = None,
) -> AdditiveFitNW:
    """Fit the additive model by Nadaraya-Watson smooth backfitting.

    Components are updated in axis order, each update using the newest
    versions of the others, until the sup-norm change of a full sweep
    drops below ``tol`` relative to the component scale.

    Parameters
    ----------
    data : Dataset
    h : sequence of d positive bandwidths
    grid : Grid, default the workspace's, else the regular 25-point grid
    kernel : KernelSpec, default the workspace's, else biweight
    tol, max_sweeps : stopping rule for the sweeps
    workspace : reuse a cached engine workspace built on ``data`` (the
        command line does this)
    init : optional (d, grid size) warm start

    Raises
    ------
    ValueError
        If a bandwidth (InvalidBandwidthError) or ``tol`` is not finite
        and positive, ``max_sweeps`` is not an integer of at least 1, or
        ``workspace`` was built on other data, on another grid or kernel
        than the ones passed, or for the other smoother.
    NonConvergenceError
        If ``max_sweeps`` sweeps do not reach ``tol``; carries the last
        sup-norm change.
    EmptyNeighborhoodError
        If some marginal density vanishes on the grid, or an observation
        has no grid mass.
    """
    return _backfit(AdditiveFitNW, "nw", data, h, grid, kernel, tol, max_sweeps, workspace, init)


def _backfit(fit_type, smoother, data, h, grid, kernel, tol, max_sweeps, workspace, init):
    """``backfit_nw`` or ``backfit_ll`` (``smoother`` "nw" or "ll") on a
    workspace built for ``smoother``, recording its grid and kernel.  The
    solver is looked up on ``_engine`` at each call, so that a wrapper put
    in its place sees every backfit."""
    h = np.asarray(h, dtype=float).ravel()
    if h.size != data.d:
        raise ValueError(f"need {data.d} bandwidths, got {h.size}")
    for hj in h.tolist():
        check_bandwidth(hj)
    _engine.check_tolerance("tol", tol)
    _engine.check_count("max_sweeps", max_sweeps)
    ws = _engine.workspace_for(data, smoother, grid, kernel, workspace)
    solve = getattr(_engine, f"{smoother}_solve")
    *curves, sweeps, changes = solve(ws, h, init=init, tol=tol, max_sweeps=max_sweeps)
    return fit_type(ws.ybar, *curves, h, ws.grid, sweeps, True, changes, ws.kernel)


def _predict_additive(fit, x):
    d = fit.components.shape[0]
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != d:
        raise ValueError(f"expected points with {d} coordinates, got {pts.shape[1]}")
    # NaN fails both comparisons, so this also rejects non-finite points.
    if not np.all((pts >= 0.0) & (pts <= 1.0)):
        raise ValueError("prediction points must be finite and lie in [0, 1]^d")
    out = np.full(pts.shape[0], float(fit.intercept))
    for j in range(d):
        out += np.interp(pts[:, j], fit.grid.points, fit.components[j])
    return float(out[0]) if squeeze else out


def predict_nw(fit: AdditiveFitNW, x):
    """Evaluate the fit at points in [0,1]^d by linear interpolation.

    ``x`` may be a single point of shape (d,) or a batch (m, d).
    """
    return _predict_additive(fit, x)


def fixed_point_residual_nw(
    data: Dataset, fit: AdditiveFitNW, kernel: KernelSpec | None = None
) -> float:
    """Sup-norm residual of the backfitting fixed-point system.

    Recomputes the right-hand side of the component equations from the
    density module (an independent code path from the solver) and
    returns the largest absolute deviation from the stored components.
    ``kernel`` defaults to the fit's; another one raises ValueError.
    """
    kernel = _engine.own_kernel(kernel, fit.kernel, "fit")
    grid = fit.grid
    tau = grid.weights
    d = data.d
    h = fit.bandwidths
    resid = 0.0
    for j in range(d):
        pj = marginal_density(data, j, h[j], grid, kernel).values
        w = weight_matrix(kernel, h[j], grid, data.x[:, j])
        mtilde = (w @ data.y) / w.sum(axis=1)
        rhs = mtilde - fit.intercept
        for k in range(d):
            if k == j:
                continue
            surf = pair_density(data, j, k, h[j], h[k], grid, grid, kernel).values
            rhs -= (surf @ (tau * fit.components[k])) / pj
        resid = max(resid, float(np.abs(rhs - fit.components[j]).max()))
    return resid
