"""Core data containers: regression datasets and evaluation grids.

All smoothing in this package happens on the unit cube: covariates live
in ``[0, 1]^d`` and every curve is represented by its values on a fixed
equally spaced grid over ``[0, 1]``.  Integrals against such curves are
trapezoid-rule sums over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """n observations of a d-vector covariate in [0,1]^d plus a response.

    Parameters
    ----------
    x : ndarray of shape (n, d)
        Covariates, all entries in ``[0, 1]``.
    y : ndarray of shape (n,)
        Responses, all finite.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(np.atleast_2d(np.asarray(self.x, dtype=float)))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float).ravel())
        if x.ndim != 2:
            raise ValueError("covariates must form a 2-d array of shape (n, d)")
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"covariate rows ({x.shape[0]}) and responses ({y.shape[0]}) disagree"
            )
        if x.shape[0] == 0:
            raise ValueError("dataset is empty")
        if x.shape[1] == 0:
            raise ValueError("dataset needs at least one covariate")
        for name, arr in (("covariates", x), ("responses", y)):
            finite = np.isfinite(arr)
            if not finite.all():
                bad = int(np.argwhere(~finite)[0, 0])
                raise ValueError(f"{name} must be finite; row {bad} is not")
        if np.any(x < 0.0) or np.any(x > 1.0):
            bad = int(np.argwhere((x < 0.0) | (x > 1.0))[0, 0])
            raise ValueError(
                f"covariates must lie in [0, 1]; row {bad} is outside"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class Grid:
    """Equally spaced evaluation grid spanning [0, 1].

    ``weights`` are trapezoid-rule quadrature weights, so for values ``v``
    on the grid, ``v @ grid.weights`` is the discrete integral over [0,1].
    """

    points: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        if pts.size < 5:
            raise ValueError("grid needs at least 5 points")
        if not (pts[0] == 0.0 and pts[-1] == 1.0):
            raise ValueError("grid must start at 0 and end at 1")
        steps = np.diff(pts)
        if np.any(steps <= 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-10, atol=1e-12):
            raise ValueError("grid points must be equally spaced")
        w = np.full(pts.size, steps[0])
        w[0] = w[-1] = steps[0] / 2.0
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def regular(cls, num: int = 25) -> "Grid":
        """Grid of ``num`` equally spaced points from 0 to 1 inclusive."""
        return cls(np.linspace(0.0, 1.0, num))

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoid-rule integral of grid values over [0, 1]."""
        return float(np.asarray(values) @ self.weights)
