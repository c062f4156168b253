"""Kernel density and local moment estimates on the evaluation grid.

Everything downstream of this module (backfitting, error criteria,
bandwidth selection) replaces integrals over [0,1] by trapezoid-rule
sums over a fixed grid.  For those discrete sums to inherit the exact
algebra of the continuous estimator (densities integrating to one,
additive linear responses reproduced exactly, norming constants
conserved), the kernel weights themselves must integrate to one under
the same trapezoid rule.  ``weight_matrix`` therefore renormalizes the
boundary kernel per observation so that the discrete normalization
holds exactly; the renormalization factor is a quadrature correction of
order (grid spacing)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Grid
from .errors import EmptyNeighborhoodError
from .kernels import KernelSpec, check_bandwidth

__all__ = [
    "DensityCurve",
    "PairDensitySurface",
    "LocalMomentField",
    "CrossMomentSurface",
    "weight_matrix",
    "marginal_density",
    "pair_density",
    "local_moments",
    "cross_moments",
]


@dataclass(frozen=True)
class DensityCurve:
    """Marginal kernel density estimate on a grid."""

    grid: Grid
    values: np.ndarray


@dataclass(frozen=True)
class PairDensitySurface:
    """Bivariate kernel density estimate on a product grid.

    ``values[a, b]`` estimates the pair density at
    ``(grid_j.points[a], grid_k.points[b])``.
    """

    grid_j: Grid
    grid_k: Grid
    values: np.ndarray


@dataclass(frozen=True)
class LocalMomentField:
    """Entries of the symmetric 2x2 local moment matrix along one axis.

    At grid point ``u`` the matrix is ``[[m00, m01], [m01, m11]]`` with
    ``m0r`` the kernel-weighted mean of ``(X - u)**r``.  ``p1`` is an
    alias for ``m01``, the first local moment of the design.
    """

    grid: Grid
    m00: np.ndarray
    m01: np.ndarray
    m11: np.ndarray

    @property
    def p1(self) -> np.ndarray:
        return self.m01


@dataclass(frozen=True)
class CrossMomentSurface:
    """The four entries of the 2x2 cross-moment surface for axes (l, j).

    With weights ``K_l(u_l, X_l) * K_j(u_j, X_j)`` averaged over the
    sample, the entries at ``(u_l, u_j)`` are

    - ``s11``: plain weight (the pair density),
    - ``s12``: weighted by ``X_l - u_l``,
    - ``s21``: weighted by ``X_j - u_j``,
    - ``s22``: weighted by ``(X_j - u_j) * (X_l - u_l)``.

    Rows index ``grid_l``, columns index ``grid_j``.  This is the block
    that couples the level and slope of component ``l`` into the
    two-component update of axis ``j`` in local linear backfitting;
    swapping the axes transposes the surface and exchanges s12 with s21.
    """

    grid_l: Grid
    grid_j: Grid
    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray


def weight_matrix(kernel: KernelSpec, h: float, grid: Grid, x: np.ndarray) -> np.ndarray:
    """Grid-normalized kernel weights, shape (grid size, n).

    Column ``i`` holds the weights the kernel with bandwidth ``h``
    assigns to observation ``x[i]`` at every grid point, scaled so that
    the trapezoid-rule integral of each column over [0,1] is exactly 1.

    Raises
    ------
    InvalidBandwidthError
        If ``h`` is not a finite positive scalar.
    EmptyNeighborhoodError
        If some observation is farther than ``h`` from every grid point,
        so no grid mass covers it.
    """
    x = np.asarray(x, dtype=float).ravel()
    return _band_weights(kernel, h, grid, x, grid.size, [(0, 0, x.size)])


def _band_weights(kernel, h, grid, x, width, runs, rank=None, out=None, each_run=None):
    """Grid-normalized kernel weights on a band of the grid, of shape
    (width, n), written into ``out`` when given.

    Each run ``(first, start, stop)`` gives the observations
    ``x[start:stop]`` the ``width`` grid points from index ``first`` on,
    which must hold every grid point where their kernel is nonzero.
    ``weight_matrix`` is the one run over the whole grid.  ``rank`` maps
    input positions to positions in ``x`` (None: ``x`` is in input
    order), so that an empty neighborhood is reported at the first such
    observation in input order.  Raises as ``weight_matrix``.

    The weights are formed run by run, the scaled offsets ``(X - u) / h``
    in the output itself, so that every temporary spans one run.
    ``each_run``, when given, is called as ``each_run(run, offset)`` once a
    run's weights are in place, with ``offset`` the run's ``X - u``.
    """
    check_bandwidth(h)
    t = np.empty((width, x.size)) if out is None else out
    mass = np.empty(x.size)
    for run in runs:
        first, start, stop = run
        cols = slice(start, stop)
        diff = np.subtract(x[cols], grid.points[first : first + width, None], out=t[:, cols])
        offset = None if each_run is None else diff.copy()
        raw = kernel.fn(np.divide(diff, h, out=diff))
        m = np.matmul(grid.weights[first : first + width], raw, out=mass[cols])
        if not m.min() <= 0.0:  # a NaN mass divides, as a positive one
            np.divide(raw, m, out=t[:, cols])
            if each_run is not None:
                each_run(run, offset)
    if mass.min() <= 0.0:
        if rank is not None:
            x, mass = x[rank], mass[rank]
        i = int(np.argmin(mass))
        raise EmptyNeighborhoodError(
            axis=None, where=float(x[i]), detail=f"observation {i}, bandwidth {h:g}"
        )
    return t


def _check_axis(data: Dataset, j: int) -> np.ndarray:
    if not 0 <= j < data.d:
        raise ValueError(f"axis {j} out of range for d={data.d}")
    return data.x[:, j]


def marginal_density(
    data: Dataset, j: int, h: float, grid: Grid, kernel: KernelSpec
) -> DensityCurve:
    """Kernel density estimate of covariate ``j`` on the grid.

    The curve integrates to one exactly under the grid trapezoid rule.
    """
    xj = _check_axis(data, j)
    w = weight_matrix(kernel, h, grid, xj)
    return DensityCurve(grid=grid, values=w.mean(axis=1))


def pair_density(
    data: Dataset,
    j: int,
    k: int,
    h_j: float,
    h_k: float,
    grid_j: Grid,
    grid_k: Grid,
    kernel: KernelSpec,
) -> PairDensitySurface:
    """Bivariate kernel density estimate for covariates ``(j, k)``."""
    if j == k:
        raise ValueError("pair_density needs two distinct axes")
    wj = weight_matrix(kernel, h_j, grid_j, _check_axis(data, j))
    wk = weight_matrix(kernel, h_k, grid_k, _check_axis(data, k))
    return PairDensitySurface(
        grid_j=grid_j, grid_k=grid_k, values=wj @ wk.T / data.n
    )


def local_moments(
    data: Dataset, j: int, h: float, grid: Grid, kernel: KernelSpec
) -> LocalMomentField:
    """Local moment matrix entries of covariate ``j`` along the grid."""
    xj = _check_axis(data, j)
    w = weight_matrix(kernel, h, grid, xj)
    offset = xj[None, :] - grid.points[:, None]
    return LocalMomentField(
        grid=grid,
        m00=w.mean(axis=1),
        m01=(w * offset).mean(axis=1),
        m11=(w * offset * offset).mean(axis=1),
    )


def cross_moments(
    data: Dataset,
    l: int,
    j: int,
    h_l: float,
    h_j: float,
    grid_l: Grid,
    grid_j: Grid,
    kernel: KernelSpec,
) -> CrossMomentSurface:
    """Cross-moment surface coupling axis ``l`` into axis ``j``."""
    if l == j:
        raise ValueError("cross_moments needs two distinct axes")
    xl, xj = _check_axis(data, l), _check_axis(data, j)
    wl = weight_matrix(kernel, h_l, grid_l, xl)
    wj = weight_matrix(kernel, h_j, grid_j, xj)
    bl = wl * (xl[None, :] - grid_l.points[:, None])
    bj = wj * (xj[None, :] - grid_j.points[:, None])
    n = data.n
    return CrossMomentSurface(
        grid_l=grid_l,
        grid_j=grid_j,
        s11=wl @ wj.T / n,
        s12=bl @ wj.T / n,
        s21=wl @ bj.T / n,
        s22=bl @ bj.T / n,
    )
