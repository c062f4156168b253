"""Automatic bandwidth selection for smooth backfitting.

Three fully automatic selectors are provided:

- ``select_pls``: coordinate descent on the penalized residual
  criterion, one axis at a time over a fixed candidate grid, refitting
  the backfit for every candidate (works for both smoothers).
- ``select_pl``: iterative minimization of the estimated average
  squared error expansion, with the residual criterion and curvature
  estimates frozen at the previous iterate (local linear only); either
  a full product-grid search or a cheaper per-axis search.
- ``select_pl_star``: component-wise closed-form plug-in update built
  from the residual criterion and per-axis curvature (local linear
  only).

Oracle searches (minimizing the true average squared error, available
in simulations) and single-covariate variants of the selectors are also
implemented, plus the closed-form asymptotically optimal bandwidth for
a known model.

Every selector is one of two searches over a fit interface that returns
the fitted values at the data and the level curves for a bandwidth
tuple: a grid search (per-axis candidate scans, repeated by coordinate
descent) or a plug-in iteration, both driven by one outer loop.  The
selectors above and the oracle search the smooth backfit, for any
number of covariates.  The single-covariate variants (``select_single``'s
pls1 and pl1, and the simulation's ase1 oracle) are the same searches
over the marginal local linear fit, which with one covariate is the
backfit up to centring and needs no solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _engine
from .criteria import TrimSpec, _criterion_weights, _weights_vector, aase_hat, pls
from .curvature import curvature_at_points, pilot_bandwidth, second_derivative
from .data import Dataset, Grid
from .errors import SelectorFailureError, SmoothfitError
from .kernels import BIWEIGHT, KernelSpec

__all__ = [
    "BandwidthSearchSpec",
    "SelectionResult",
    "select_pls",
    "select_pl",
    "select_pl_star",
    "select_single",
    "oracle_ase_bandwidth",
    "theoretical_hstar",
]


# The smoothers each selector runs with, by the selector names of the
# command line and the simulation harness.  The plug-in selectors expand
# the local linear error, and the single-covariate variants search the
# marginal local linear fit, so only the grid searches over the backfit
# also run with Nadaraya-Watson.
_SMOOTHERS = {
    "ase": ("nw", "ll"),
    "pls": ("nw", "ll"),
    "pl": ("ll",),
    "pl_coord": ("ll",),
    "pl_star": ("ll",),
    "ase1": ("ll",),
    "pls1": ("ll",),
    "pl1": ("ll",),
}


def _check_smoother(selector: str, smoother: str) -> None:
    """Raise ValueError unless ``selector`` runs with ``smoother``."""
    if selector not in _SMOOTHERS:
        raise ValueError(f"unknown selector {selector!r}")
    if smoother not in _SMOOTHERS[selector]:
        names = {"nw": "Nadaraya-Watson", "ll": "local linear"}
        allowed = " or ".join(names[s] for s in _SMOOTHERS[selector])
        raise ValueError(f"selector {selector!r} needs the {allowed} smoother")


@dataclass(frozen=True)
class BandwidthSearchSpec:
    """Search box, candidate grid, and outer-loop controls.

    ``candidates`` is a strictly increasing vector of bandwidths shared
    by all axes; grid-search selectors pick from it, closed-form updates
    are clamped into its range.  ``h0`` is the starting bandwidth
    vector.
    """

    candidates: np.ndarray
    h0: np.ndarray
    outer_tol: float = 1e-3
    max_outer: int = 25

    def __post_init__(self):
        cands = np.asarray(self.candidates, dtype=float).ravel()
        h0 = np.asarray(self.h0, dtype=float).ravel()
        if cands.size < 5:
            raise ValueError("need at least 5 bandwidth candidates")
        if cands[0] <= 0 or np.any(np.diff(cands) <= 0):
            raise ValueError("candidates must be positive and increasing")
        if np.any(h0 < cands[0]) or np.any(h0 > cands[-1]):
            raise ValueError("initial bandwidths must lie inside the search box")
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "h0", h0)

    @classmethod
    def for_sample_size(
        cls,
        n: int,
        d: int,
        lo_factor: float = 0.25,
        hi_factor: float = 2.5,
        num: int = 25,
        h0: float = 0.1,
        outer_tol: float = 1e-3,
        max_outer: int = 25,
    ) -> "BandwidthSearchSpec":
        """Default box ``[lo_factor, hi_factor] * n**(-1/5)`` with
        log-spaced candidates and a constant initial bandwidth (clipped
        into the box)."""
        scale = float(n) ** (-0.2)
        lo, hi = lo_factor * scale, hi_factor * scale
        return cls(
            candidates=np.geomspace(lo, hi, num),
            h0=np.full(d, float(np.clip(h0, lo, hi))),
            outer_tol=outer_tol,
            max_outer=max_outer,
        )

    @property
    def b_lo(self) -> float:
        return float(self.candidates[0])

    @property
    def b_hi(self) -> float:
        return float(self.candidates[-1])

    def nw_trim(self, d: int) -> TrimSpec:
        """Boundary trim for locally constant criteria.

        The margin is the box's upper bandwidth, capped at 0.25 so the
        trimmed region can never be empty (the default box upper end
        exceeds half the interval at small n).  Fixed across candidates
        so residual sums stay comparable during the search.
        """
        return TrimSpec.from_margin(d, min(self.b_hi, 0.25))


@dataclass
class SelectionResult:
    """Outcome of a bandwidth selection run.

    ``trace`` records the bandwidth vector and criterion value at the
    end of every outer iteration.  ``flags`` collects soft diagnostics
    (failed candidates, clamped or degenerate updates).
    """

    bandwidths: np.ndarray
    method: str
    outer_iterations: int
    converged: bool
    criterion: float
    trace: list = field(default_factory=list)
    flags: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# fits and search loops shared by every selector


class _FitCache:
    """Memoized backfits over one selection run, with warm starts.

    ``fit(key)`` returns (fitted values at the data, level curves) at the
    bandwidth tuple ``key``, or None when the backfit failed.
    """

    def __init__(self, ws, smoother, tol, max_sweeps):
        self.ws = ws
        self.smoother = smoother
        self.tol = tol
        self.max_sweeps = max_sweeps
        self.memo = {}
        self.warm = None
        self.failures = 0

    def prepare(self, keys):
        """Build the caches that fits at ``keys`` will read, in parallel
        where the workspace finds that worthwhile."""
        if self.smoother == "ll":
            self.ws.switch_to_slopes()
        self.ws.prepare(keys)

    def fit(self, key):
        if key not in self.memo:
            try:
                if self.smoother == "nw":
                    levels, _, _ = _engine.nw_solve(
                        self.ws, key, self.warm, self.tol, self.max_sweeps
                    )
                    self.warm = levels
                else:
                    levels, slopes, _, _ = _engine.ll_solve(
                        self.ws, key, self.warm, self.tol, self.max_sweeps
                    )
                    self.warm = (levels, slopes)
            except SmoothfitError:
                levels = None
                self.failures += 1
            self.memo[key] = levels
        levels = self.memo[key]
        if levels is None:
            return None
        return self.ws.fitted_at_data(self.ws.ybar, levels), levels


class _MarginalFit:
    """The fit interface of ``_FitCache`` for one covariate.

    Returns the uncentred marginal local linear fit, read from the
    workspace with no solve; with one covariate, smooth backfitting is
    this fit centred.  Its errors propagate instead of being counted.
    """

    failures = 0

    def __init__(self, ws):
        self.ws = ws

    def prepare(self, keys):
        self.ws.switch_to_slopes()
        self.ws.prepare(keys)

    def fit(self, key):
        levels = self.ws.ll_marginal(0, key[0])[0]
        return self.ws.component_at_data(0, levels), levels[None]


def _mean_square(values, weights, n: int) -> float:
    """``sum(weights * values**2) / n``; ``weights=None`` is unweighted."""
    if weights is None:
        return float(values @ values) / n
    return float(weights @ (values * values)) / n


def _pls_criterion(data, mw, k0):
    """Penalized residual criterion of a fit, residuals weighted by ``mw``."""

    def criterion(key, fitted, levels):
        return pls(_mean_square(data.y - fitted, mw, data.n), key, k0, data.n).value

    return criterion


def _ase_criterion(ws, target, mw, component=None):
    """True average squared error of the fitted surface against
    ``target``, or with ``component`` of that level curve alone."""

    def criterion(key, fitted, levels):
        if component is not None:
            fitted = ws.component_at_data(component, levels[component])
        return _mean_square(fitted - target, mw, ws.data.n)

    return criterion


def _relative_change(h_new, h_old) -> float:
    return float(np.max(np.abs(h_new - h_old) / h_old))


def _scan(evaluate, cands, h, j) -> float:
    """Set ``h[j]`` to the candidate minimizing the objective with the
    other axes fixed, and return that minimum.

    ``evaluate`` maps a list of bandwidth tuples to their objective
    values (``inf`` marks a failed candidate).  Ties break toward the
    smaller bandwidth because the candidate grid is ascending and
    ``argmin`` takes the first hit.
    """
    trial = h.copy()
    keys = []
    for cand in cands:
        trial[j] = cand
        keys.append(tuple(trial))
    vals = np.array(evaluate(keys), dtype=float)
    best = int(np.argmin(vals))
    if not np.isfinite(vals[best]):
        raise SelectorFailureError(f"every bandwidth candidate failed on axis {j}")
    h[j] = cands[best]
    return float(vals[best])


def _outer_loop(fits, update, spec: BandwidthSearchSpec, method: str, once=False):
    """The outer loop of every selector.

    Iterates ``h, criterion = update(h, flags)`` from ``spec.h0`` (the
    update returns a new array) until no bandwidth moves by
    ``outer_tol`` relative; ``once`` makes a single pass, for an update
    that is exhaustive by itself.
    """
    h = spec.h0.astype(float).copy()
    trace = []
    flags = []
    converged = once
    for iterations in range(1, 2 if once else spec.max_outer + 1):
        prev = h
        h, crit = update(prev, flags)
        trace.append({"h": h.copy(), "criterion": crit})
        if _relative_change(h, prev) < spec.outer_tol:
            converged = True
            break
    if fits.failures:
        flags.append(f"{fits.failures} candidate fits failed")
    return SelectionResult(
        bandwidths=h,
        method=method,
        outer_iterations=iterations,
        converged=converged,
        criterion=crit,
        trace=trace,
        flags=flags,
    )


def _grid_search(fits, criterion, spec: BandwidthSearchSpec, method: str, once=False):
    """Minimize ``criterion(key, fitted, levels)`` over the candidate grid.

    Coordinate descent: per-axis scans with immediate updates, repeated
    until the bandwidths settle.  With ``once``, a single scan of the
    single axis, which is already exhaustive.
    """
    memo = {}

    def objective(key):
        val = memo.get(key)
        if val is None:
            fit = fits.fit(key)
            val = np.inf if fit is None else criterion(key, *fit)
            memo[key] = val
        return val

    def evaluate(keys):
        # The scan's caches are built up front, so that they can be built
        # in parallel; the fits themselves stay in order for warm starts.
        fits.prepare([key for key in keys if key not in memo])
        return [objective(key) for key in keys]

    def update(prev, flags):
        h = prev.copy()
        for j in range(h.size):
            # The last scan ends at h, so its minimum is the criterion there.
            crit = _scan(evaluate, spec.candidates, h, j)
        return h, crit

    return _outer_loop(fits, update, spec, method, once=once)


def _plug_in(data, fits, step, spec, method, mw, kernel, pilot_factor, pilot_rule):
    """Plug-in selection: each outer iteration fits at the current
    bandwidths, freezes there the residual criterion (weighted by ``mw``,
    None for unweighted) and the curvature estimates, and takes
    ``step(h, rss, curvature, flags)`` as the next bandwidths and the
    iteration's criterion value."""

    def update(prev, flags):
        fit = fits.fit(tuple(prev))
        if fit is None:
            raise SelectorFailureError(
                f"backfit failed at the current iterate {prev.tolist()}"
            )
        rss_val = _mean_square(data.y - fit[0], mw, data.n)
        curv = _curvature_matrix(fits.ws, fit[1], prev, pilot_factor, pilot_rule, kernel)
        return step(prev, rss_val, curv, flags)

    return _outer_loop(fits, update, spec, method)


# ---------------------------------------------------------------------------
# penalized least squares


def select_pls(
    data: Dataset,
    smoother: str,
    spec: BandwidthSearchSpec,
    grid: Grid | None = None,
    kernel: KernelSpec = BIWEIGHT,
    weights=None,
    trim: TrimSpec | None = None,
    workspace=None,
    fit_tol: float = _engine.DEFAULT_TOL,
    max_sweeps: int = _engine.DEFAULT_MAX_SWEEPS,
) -> SelectionResult:
    """Penalized least squares bandwidth by coordinate descent.

    Every candidate evaluation performs a full backfit (warm-started),
    computes the residual criterion, and applies the penalty factor.
    For the locally constant smoother the residual criterion is trimmed
    near the boundary (see ``BandwidthSearchSpec.nw_trim``); the local
    linear criterion uses the full sample.
    """
    if smoother not in ("nw", "ll"):
        raise ValueError("smoother must be 'nw' or 'll'")
    grid = grid or Grid.regular(25)
    ws = workspace or _engine.Workspace(data, grid, kernel)
    if trim is None and smoother == "nw":
        trim = spec.nw_trim(data.d)
    mw = _criterion_weights(weights, trim, data.x)
    fits = _FitCache(ws, smoother, fit_tol, max_sweeps)
    return _grid_search(fits, _pls_criterion(data, mw, kernel.k0), spec, "pls")


# ---------------------------------------------------------------------------
# plug-in on the global error expansion


def _component_curvature(curve, grid, g, kernel, x):
    """Curvature of a fitted curve at the covariate values.

    A curve that is a straight line up to solver rounding has zero
    curvature by definition; without this guard the local quadratic
    amplifies rounding wiggle into an arbitrary tiny value, which the
    plug-in updates would then take seriously.
    """
    design = np.column_stack([np.ones(grid.size), grid.points])
    coef, *_ = np.linalg.lstsq(design, curve, rcond=None)
    line_resid = np.abs(curve - design @ coef).max()
    if line_resid <= 1e-9 * max(1.0, float(np.abs(curve).max())):
        return np.zeros(x.size)
    return curvature_at_points(second_derivative(curve, grid, g, kernel), x)


def _curvature_matrix(ws, comps, h, pilot_factor, pilot_rule, kernel):
    """Second-derivative estimates of every component at the data points."""
    g = pilot_bandwidth(np.asarray(h), pilot_factor, pilot_rule)
    cols = [
        _component_curvature(comps[j], ws.grid, float(g[j]), kernel, ws.data.x[:, j])
        for j in range(ws.data.d)
    ]
    return np.column_stack(cols)


def select_pl(
    data: Dataset,
    spec: BandwidthSearchSpec,
    mode: str = "full_grid",
    grid: Grid | None = None,
    kernel: KernelSpec = BIWEIGHT,
    weights=None,
    pilot_factor: float = 1.5,
    pilot_rule: str = "linear",
    workspace=None,
    fit_tol: float = _engine.DEFAULT_TOL,
    max_sweeps: int = _engine.DEFAULT_MAX_SWEEPS,
) -> SelectionResult:
    """Plug-in bandwidth minimizing the estimated error expansion.

    Local linear only.  Each outer iteration backfits at the current
    bandwidths, freezes the residual criterion and the curvature
    estimates there, and minimizes the resulting explicit function of
    the candidate bandwidths; ``full_grid`` searches the whole product
    grid, ``coordinate`` searches one axis at a time around the previous
    iterate.
    """
    if mode not in ("full_grid", "coordinate"):
        raise ValueError("mode must be 'full_grid' or 'coordinate'")
    grid = grid or Grid.regular(25)
    ws = workspace or _engine.Workspace(data, grid, kernel)
    d, n = data.d, data.n
    cands = spec.candidates
    if mode == "full_grid" and cands.size**d > 10_000_000:
        raise ValueError("product grid too large; use mode='coordinate'")
    mw = _criterion_weights(weights, None, data.x)
    mu2sq = kernel.mu2**2

    def full_grid(prev, rss_val, curv, flags):
        q = (curv * mw[:, None]).T @ curv / n
        shape = (cands.size,) * d
        # cands and their squares laid along axis j of the product grid
        along = [[cands.size if k == j else 1 for k in range(d)] for j in range(d)]
        val = np.zeros(shape)
        for j in range(d):
            val += rss_val * kernel.r_k / (n * cands.reshape(along[j]))
        bias = np.zeros(shape)
        sq = cands * cands
        for j in range(d):
            for k in range(d):
                bias = bias + q[j, k] * sq.reshape(along[j]) * sq.reshape(along[k])
        val += 0.25 * mu2sq * bias
        idx = np.unravel_index(int(np.argmin(val)), shape)
        return np.array([cands[i] for i in idx]), float(val[idx])

    def coordinate(prev, rss_val, curv, flags):
        # Every axis is updated from the previous iterate: the frozen
        # parts of the objective use prev, not freshly updated axes.
        h = prev.copy()
        inv_prev = float(np.sum(1.0 / (n * prev)))
        weighted_curv = prev * prev * curv
        for j in range(d):
            rest = weighted_curv.sum(axis=1) - weighted_curv[:, j]
            others = inv_prev - 1.0 / (n * prev[j])
            combined = cands[:, None] ** 2 * curv[None, :, j] + rest[None, :]
            vals = rss_val * kernel.r_k * (1.0 / (n * cands) + others)
            vals += 0.25 * mu2sq * (combined * combined) @ mw / n
            h[j] = cands[int(np.argmin(vals))]
        # Record this iteration's objective at the chosen point.
        return h, aase_hat(data, rss_val, curv, h, kernel, weights).value

    fits = _FitCache(ws, "ll", fit_tol, max_sweeps)
    if mode == "full_grid":
        step, method = full_grid, "pl_grid"
    else:
        step, method = coordinate, "pl_coord"
    return _plug_in(data, fits, step, spec, method, mw, kernel, pilot_factor, pilot_rule)


# ---------------------------------------------------------------------------
# component-wise closed-form plug-in


def _pl_star_step(data, spec, kernel, weights_j):
    """The closed-form update of ``select_pl_star`` as a plug-in step."""
    n = data.n
    rate = float(n) ** (-0.2)
    wjs = [
        _weights_vector(None if weights_j is None else weights_j[j], data.x[:, j])
        for j in range(data.d)
    ]

    def step(prev, rss_val, curv, flags):
        h = prev.copy()
        for j, wj in enumerate(wjs):
            denom = _mean_square(curv[:, j], wj, n) * kernel.mu2**2
            if denom <= 0.0:
                h[j] = spec.b_hi
                flags.append(f"axis {j}: zero curvature, clamped to box top")
                continue
            raw = rate * (rss_val * kernel.r_k) ** 0.2 * denom ** (-0.2)
            clamped = float(np.clip(raw, spec.b_lo, spec.b_hi))
            if clamped != raw:
                flags.append(f"axis {j}: update {raw:.4g} clamped into box")
            h[j] = clamped
        return h, rss_val

    return step


def select_pl_star(
    data: Dataset,
    spec: BandwidthSearchSpec,
    grid: Grid | None = None,
    kernel: KernelSpec = BIWEIGHT,
    weights_j=None,
    pilot_factor: float = 1.5,
    pilot_rule: str = "linear",
    workspace=None,
    fit_tol: float = _engine.DEFAULT_TOL,
    max_sweeps: int = _engine.DEFAULT_MAX_SWEEPS,
) -> SelectionResult:
    """Component-wise plug-in bandwidth with a closed-form update.

    Local linear only.  Each iteration backfits at the current
    bandwidths, then maps every axis to

    ``n**(-1/5) * (RSS * r_k)**(1/5) * (mean of w_j * curvature^2 *
    mu2^2)**(-1/5)``,

    clamped into the search box.  A vanishing curvature mean sends the
    axis to the box's upper end (flat component, widest smoothing).
    ``weights_j`` may be None or a per-axis list of weight callables.
    """
    grid = grid or Grid.regular(25)
    ws = workspace or _engine.Workspace(data, grid, kernel)
    fits = _FitCache(ws, "ll", fit_tol, max_sweeps)
    step = _pl_star_step(data, spec, kernel, weights_j)
    return _plug_in(
        data, fits, step, spec, "pl_star", None, kernel, pilot_factor, pilot_rule
    )


# ---------------------------------------------------------------------------
# single-covariate variants: the same searches over the marginal fit


def select_single(
    data: Dataset,
    method: str,
    spec: BandwidthSearchSpec,
    grid: Grid | None = None,
    kernel: KernelSpec = BIWEIGHT,
    pilot_factor: float = 1.5,
    pilot_rule: str = "linear",
    workspace=None,
) -> SelectionResult:
    """Single-covariate selectors built on the plain local linear fit.

    With one covariate, smooth backfitting is the centred marginal fit,
    so these run the multi-covariate searches on that fit without a
    solve: ``pls1`` is ``select_pls``'s penalized residual criterion
    minimized by one exhaustive scan, ``pl1`` is ``select_pl_star``'s
    closed-form update iterated on the curvature of the marginal fit.
    """
    if data.d != 1:
        raise ValueError("single-covariate selection needs d = 1")
    if method not in ("pls1", "pl1"):
        raise ValueError("method must be 'pls1' or 'pl1'")
    grid = grid or Grid.regular(25)
    fits = _MarginalFit(workspace or _engine.Workspace(data, grid, kernel))
    if method == "pls1":
        criterion = _pls_criterion(data, None, kernel.k0)
        return _grid_search(fits, criterion, spec, "pls1", once=True)
    step = _pl_star_step(data, spec, kernel, None)
    return _plug_in(data, fits, step, spec, "pl1", None, kernel, pilot_factor, pilot_rule)


# ---------------------------------------------------------------------------
# oracle searches (truth known)


def oracle_ase_bandwidth(
    data: Dataset,
    truth,
    smoother: str,
    spec: BandwidthSearchSpec,
    criterion: str = "ase",
    component: int | None = None,
    component_truth=None,
    grid: Grid | None = None,
    kernel: KernelSpec = BIWEIGHT,
    weights=None,
    trim: TrimSpec | None = None,
    workspace=None,
    fit_tol: float = _engine.DEFAULT_TOL,
    max_sweeps: int = _engine.DEFAULT_MAX_SWEEPS,
) -> SelectionResult:
    """Minimize the true average squared error over the candidate grid.

    Same coordinate-descent schedule as ``select_pls``.  With
    ``criterion='ase'`` the target is the full-surface error against
    ``truth`` (a callable on the covariate matrix); with ``'ase_j'`` it
    is the error of one component against ``component_truth`` (a
    callable on that covariate, centered like the fitted component).
    """
    if smoother not in ("nw", "ll"):
        raise ValueError("smoother must be 'nw' or 'll'")
    if criterion not in ("ase", "ase_j"):
        raise ValueError("criterion must be 'ase' or 'ase_j'")
    if criterion == "ase_j" and (component is None or component_truth is None):
        raise ValueError("ase_j needs a component index and its centered truth")
    grid = grid or Grid.regular(25)
    ws = workspace or _engine.Workspace(data, grid, kernel)
    if trim is None and smoother == "nw":
        trim = spec.nw_trim(data.d)
    mw = _criterion_weights(weights, trim, data.x)
    if criterion == "ase":
        target = np.asarray(truth(data.x), dtype=float)
        crit = _ase_criterion(ws, target, mw)
    else:
        target = np.asarray(component_truth(data.x[:, component]), dtype=float)
        crit = _ase_criterion(ws, target, mw, component)
    fits = _FitCache(ws, smoother, fit_tol, max_sweeps)
    return _grid_search(fits, crit, spec, "ase_oracle")


def theoretical_hstar(
    noise_var_fn,
    density_fn,
    curvature_fn,
    kernel: KernelSpec,
    n: int,
    weight_fn=None,
) -> float:
    """Asymptotically optimal per-component bandwidth for a known model.

    Computes ``n**(-1/5) * (integral of w p sigma^2 * r_k)**(1/5) *
    (integral of curvature^2 w p * mu2^2)**(-1/5)`` by Gauss-Legendre
    quadrature on [0, 1].  Returns ``inf`` when the curvature integral
    vanishes (no bias to balance).
    """
    nodes, wq = np.polynomial.legendre.leggauss(160)
    t = 0.5 * (nodes + 1.0)
    wq = 0.5 * wq
    w = np.ones_like(t) if weight_fn is None else np.asarray(weight_fn(t), dtype=float)
    p = np.asarray(density_fn(t), dtype=float)
    sig = np.asarray(noise_var_fn(t), dtype=float)
    curv = np.asarray(curvature_fn(t), dtype=float)
    varint = float(wq @ (w * p * sig)) * kernel.r_k
    biasint = float(wq @ (curv * curv * w * p)) * kernel.mu2**2
    if biasint <= 0.0:
        return float(np.inf)
    return float(n) ** (-0.2) * varint**0.2 * biasint ** (-0.2)
