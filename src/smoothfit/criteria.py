"""Error criteria for additive fits: RSS, PLS, ASE, and plug-in targets.

All criteria are averages over the full sample (division by n, not by
the number of retained observations).  Trimming, when active, excludes
observations near the boundary of the unit cube; it is used with the
locally constant smoother, whose boundary bias would otherwise distort
the comparison of residual sums across bandwidths.

Each formula lives here once, the weighted mean square, the error
expansion and its per-axis optimum included; the selectors call them
and only search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .density import _check_axis
from .kernels import KernelSpec

__all__ = [
    "TrimSpec",
    "CriterionValue",
    "rss",
    "pls",
    "ase",
    "ase_j",
    "aase_hat",
]


@dataclass(frozen=True)
class TrimSpec:
    """Per-axis boundary trimming for criterion sums.

    An observation is kept when ``lower[j] <= x_j <= upper[j]`` for all
    axes.  The cuts are fixed up front (not per candidate bandwidth) so
    residual sums stay comparable during a bandwidth search.
    """

    lower: np.ndarray
    upper: np.ndarray
    active: bool = True

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("lower and upper cuts must have equal length")
        if self.active and not np.all((lo < hi) & np.isfinite(lo) & np.isfinite(hi)):
            raise ValueError("each cut must be finite and each lower cut below its upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def from_margin(cls, d: int, margin: float) -> "TrimSpec":
        """Symmetric trim keeping ``[margin, 1 - margin]`` on every axis."""
        return cls(lower=np.full(d, margin), upper=np.full(d, 1.0 - margin))

    @classmethod
    def disabled(cls, d: int) -> "TrimSpec":
        return cls(lower=np.zeros(d), upper=np.ones(d), active=False)

    def mask(self, x: np.ndarray) -> np.ndarray:
        """Boolean keep-mask for rows of the covariate matrix."""
        if not self.active:
            return np.ones(x.shape[0], dtype=bool)
        return np.all((x >= self.lower) & (x <= self.upper), axis=1)


@dataclass(frozen=True)
class CriterionValue:
    """A nonnegative criterion value plus the number of observations
    that actually entered the sum (after trimming and weighting)."""

    value: float
    n_used: int

    def __float__(self) -> float:
        return self.value


def _weights_vector(weights, x: np.ndarray) -> np.ndarray:
    if weights is None:
        return np.ones(x.shape[0])
    if callable(weights):
        return np.asarray(weights(x), dtype=float)
    return np.asarray(weights, dtype=float)


def _criterion_weights(weights, trim, x: np.ndarray) -> np.ndarray:
    """Per-observation weights of a criterion sum: ``weights`` (as in
    ``rss``) times the keep-mask of ``trim`` when one is given."""
    w = _weights_vector(weights, x)
    if trim is not None:
        w = w * trim.mask(x)
    return w


def _mean_square(values, weights, n: int) -> float:
    """``sum(weights * values**2) / n``; ``weights=None`` is unweighted."""
    if weights is None:
        return float(values @ values) / n
    return float(weights @ (values * values)) / n


def _mean_weighted_square(data, errors, weights, trim):
    w = _criterion_weights(weights, trim, data.x)
    return CriterionValue(_mean_square(errors, w, data.n), int(np.count_nonzero(w)))


def rss(data: Dataset, fit, weights=None, trim: TrimSpec | None = None) -> CriterionValue:
    """Weighted mean squared residual of an additive fit.

    ``fit`` is any object with a ``predict`` method over rows of the
    covariate matrix (both backfit result types qualify).  ``weights``
    may be None (all ones), a callable on the covariate matrix, or a
    vector.  ``trim=None`` disables boundary trimming, appropriate for
    the local linear smoother; pass a TrimSpec for locally constant
    fits.
    """
    return _mean_weighted_square(data, data.y - fit.predict(data.x), weights, trim)


def pls(rss_value, h, k0: float, n: int) -> CriterionValue:
    """Penalized least squares criterion.

    Inflates the residual criterion by ``1 + 2 * sum_j k0 / (n h_j)``,
    the first-order correction that aligns the residual sum with the
    average squared error as a function of the bandwidths.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    penalty = 1.0 + 2.0 * k0 * float(np.sum(1.0 / (n * h)))
    if isinstance(rss_value, CriterionValue):
        return CriterionValue(value=rss_value.value * penalty, n_used=rss_value.n_used)
    return CriterionValue(value=float(rss_value) * penalty, n_used=n)


def ase(
    data: Dataset, fit, true_m, weights=None, trim: TrimSpec | None = None
) -> CriterionValue:
    """Average squared error against a known regression surface.

    ``true_m`` maps the covariate matrix to the true regression values;
    only available in simulations.
    """
    return _mean_weighted_square(
        data, fit.predict(data.x) - np.asarray(true_m(data.x), dtype=float),
        weights, trim,
    )


def ase_j(data: Dataset, fit, j: int, true_mj_centered, weights_j=None) -> CriterionValue:
    """Average squared error of one fitted component.

    The fitted level curve is interpolated at the j-th covariate values
    and compared against the centered true component (the backfit
    estimates the component only up to its norming constant).
    """
    xj = _check_axis(data, j)
    fitted = np.interp(xj, fit.grid.points, fit.components[j])
    truth = np.asarray(true_mj_centered(xj), dtype=float)
    w = _weights_vector(weights_j, xj)
    return CriterionValue(_mean_square(fitted - truth, w, data.n), int(np.count_nonzero(w)))


def aase_hat(
    data: Dataset,
    rss_value,
    curvatures: np.ndarray,
    h,
    kernel: KernelSpec,
    weights=None,
) -> CriterionValue:
    """Estimated first-order expansion of the average squared error.

    Variance part: residual criterion times the kernel roughness times
    ``sum_j 1/(n h_j)``.  Bias part: quarter of the average squared
    bandwidth-weighted curvature, ``(1/4n) sum_i w_i (sum_j h_j^2
    c_ij)^2 * mu2^2``, where ``curvatures[i, j]`` estimates the second
    derivative of component j at the i-th observation.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    c = np.atleast_2d(np.asarray(curvatures, dtype=float))
    if c.shape != (data.n, h.size):
        raise ValueError(f"curvature matrix must be (n, d) = {(data.n, h.size)}")
    w = _weights_vector(weights, data.x)
    rssv = rss_value.value if isinstance(rss_value, CriterionValue) else float(rss_value)
    value = _expansion(rssv, (c * w[:, None]).T @ c / data.n, h, data.n, kernel)
    return CriterionValue(value=float(value), n_used=int(np.count_nonzero(w)))


def _expansion(rss, q, h, n: int, kernel: KernelSpec):
    """The error expansion ``sum_j rss r_k / (n h_j) + mu2^2 / 4 sum_jk
    q_jk h_j^2 h_k^2`` of ``aase_hat``, with ``q = (C w)' C / n`` the
    weighted mean products of the curvature columns.

    Each ``h[j]`` is a scalar or an array, and they broadcast together,
    so one call scores a product grid of candidates or one axis's
    candidates with the other axes fixed.
    """
    val = 0.0
    for hj in h:
        val = val + rss * kernel.r_k / (n * hj)
    sq = [hj * hj for hj in h]
    bias = 0.0
    for j, sj in enumerate(sq):
        for k, sk in enumerate(sq):
            bias = bias + q[j, k] * sj * sk
    return val + 0.25 * kernel.mu2**2 * bias


def _optimal_bandwidth(n: int, rss: float, q_jj: float, kernel: KernelSpec) -> float:
    """The minimizer of one axis's own terms of the expansion, ``rss r_k /
    (n h) + mu2^2 q_jj h^4 / 4``: ``n**(-1/5) (rss r_k)**(1/5) (q_jj
    mu2^2)**(-1/5)``, or ``inf`` where ``q_jj mu2^2`` is not positive (no
    bias to balance)."""
    denom = q_jj * kernel.mu2**2
    if denom <= 0.0:
        return float(np.inf)
    return float(n) ** (-0.2) * (rss * kernel.r_k) ** 0.2 * denom ** (-0.2)
