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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _engine
from .criteria import TrimSpec, _criterion_weights, aase_hat, pls
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
# shared machinery


class _FitCache:
    """Memoized backfits over one selection run, with warm starts."""

    def __init__(self, ws, smoother, tol, max_sweeps):
        self.ws = ws
        self.smoother = smoother
        self.tol = tol
        self.max_sweeps = max_sweeps
        self.memo = {}
        self.warm = None
        self.failures = 0

    def fit(self, key):
        if key in self.memo:
            return self.memo[key]
        try:
            if self.smoother == "nw":
                comps, _, _ = _engine.nw_solve(
                    self.ws, key, init=None if self.warm is None else self.warm[0],
                    tol=self.tol, max_sweeps=self.max_sweeps,
                )
                ent = (comps, None)
            else:
                init = None if self.warm is None else self.warm
                m, s, _, _ = _engine.ll_solve(
                    self.ws, key, init=init, tol=self.tol, max_sweeps=self.max_sweeps
                )
                ent = (m, s)
        except SmoothfitError:
            ent = None
            self.failures += 1
        self.memo[key] = ent
        if ent is not None:
            self.warm = ent
        return ent


def _relative_change(h_new, h_old) -> float:
    return float(np.max(np.abs(h_new - h_old) / h_old))


def _coordinate_descent(objective, spec: BandwidthSearchSpec, d: int, method: str):
    """Per-axis exhaustive scans with immediate updates.

    ``objective`` maps a bandwidth tuple to a float (``inf`` marks a
    failed candidate).  Ties break toward the smaller bandwidth because
    the candidate grid is ascending and ``argmin`` takes the first hit.
    """
    cands = spec.candidates
    h = spec.h0.astype(float).copy()
    trace = []
    converged = False
    iterations = 0
    for _ in range(spec.max_outer):
        iterations += 1
        prev = h.copy()
        for j in range(d):
            trial = h.copy()
            vals = np.empty(cands.size)
            for a, cand in enumerate(cands):
                trial[j] = cand
                vals[a] = objective(tuple(trial))
            best = int(np.argmin(vals))
            if not np.isfinite(vals[best]):
                raise SelectorFailureError(
                    f"every bandwidth candidate failed on axis {j}"
                )
            h[j] = cands[best]
        trace.append({"h": h.copy(), "criterion": objective(tuple(h))})
        if _relative_change(h, prev) < spec.outer_tol:
            converged = True
            break
    return SelectionResult(
        bandwidths=h,
        method=method,
        outer_iterations=iterations,
        converged=converged,
        criterion=trace[-1]["criterion"],
        trace=trace,
    )


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
    cache = _FitCache(ws, smoother, fit_tol, max_sweeps)
    memo = {}

    def objective(key):
        val = memo.get(key)
        if val is None:
            ent = cache.fit(key)
            if ent is None:
                val = np.inf
            else:
                res = data.y - ws.fitted_at_data(ws.ybar, ent[0])
                rss_val = float(mw @ (res * res)) / data.n
                val = pls(rss_val, key, kernel.k0, data.n).value
            memo[key] = val
        return val

    result = _coordinate_descent(objective, spec, data.d, method="pls")
    if cache.failures:
        result.flags.append(f"{cache.failures} candidate fits failed")
    return result


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
    cache = _FitCache(ws, "ll", fit_tol, max_sweeps)

    h = spec.h0.astype(float).copy()
    trace = []
    flags = []
    converged = False
    iterations = 0
    mu2sq = kernel.mu2**2
    for _ in range(spec.max_outer):
        iterations += 1
        ent = cache.fit(tuple(h))
        if ent is None:
            raise SelectorFailureError(
                f"backfit failed at the current iterate {h.tolist()}"
            )
        res = data.y - ws.fitted_at_data(ws.ybar, ent[0])
        rss_val = float(mw @ (res * res)) / n
        curv = _curvature_matrix(ws, ent[0], h, pilot_factor, pilot_rule, kernel)
        prev = h.copy()
        if mode == "full_grid":
            q = (curv * mw[:, None]).T @ curv / n
            shape = (cands.size,) * d
            val = np.zeros(shape)
            for j in range(d):
                axis_shape = [1] * d
                axis_shape[j] = cands.size
                val += rss_val * kernel.r_k / (n * cands.reshape(axis_shape))
            bias = np.zeros(shape)
            sq = cands * cands
            for j in range(d):
                sj = [1] * d
                sj[j] = cands.size
                for k in range(d):
                    sk = [1] * d
                    sk[k] = cands.size
                    bias = bias + q[j, k] * sq.reshape(sj) * sq.reshape(sk)
            val += 0.25 * mu2sq * bias
            idx = np.unravel_index(int(np.argmin(val)), shape)
            h = np.array([cands[i] for i in idx])
            crit = float(val[idx])
        else:
            # Every axis is updated from the previous iterate: the frozen
            # parts of the objective use prev, not freshly updated axes.
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
            crit = aase_hat(data, rss_val, curv, h, kernel, weights).value
        trace.append({"h": h.copy(), "criterion": crit})
        if _relative_change(h, prev) < spec.outer_tol:
            converged = True
            break
    if cache.failures:
        flags.append(f"{cache.failures} candidate fits failed")
    return SelectionResult(
        bandwidths=h,
        method="pl_grid" if mode == "full_grid" else "pl_coord",
        outer_iterations=iterations,
        converged=converged,
        criterion=trace[-1]["criterion"],
        trace=trace,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# component-wise closed-form plug-in


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
    d, n = data.d, data.n
    cache = _FitCache(ws, "ll", fit_tol, max_sweeps)
    h = spec.h0.astype(float).copy()
    trace = []
    flags = []
    converged = False
    iterations = 0
    rate = float(n) ** (-0.2)
    for _ in range(spec.max_outer):
        iterations += 1
        ent = cache.fit(tuple(h))
        if ent is None:
            raise SelectorFailureError(
                f"backfit failed at the current iterate {h.tolist()}"
            )
        res = data.y - ws.fitted_at_data(ws.ybar, ent[0])
        rss_val = float(res @ res) / n
        curv = _curvature_matrix(ws, ent[0], h, pilot_factor, pilot_rule, kernel)
        prev = h.copy()
        for j in range(d):
            xj = data.x[:, j]
            if weights_j is None:
                wj = np.ones(n)
            else:
                wj = np.asarray(weights_j[j](xj), dtype=float)
            denom = float(wj @ (curv[:, j] * curv[:, j])) / n * kernel.mu2**2
            if denom <= 0.0:
                h[j] = spec.b_hi
                flags.append(f"axis {j}: zero curvature, clamped to box top")
                continue
            raw = rate * (rss_val * kernel.r_k) ** 0.2 * denom ** (-0.2)
            clamped = float(np.clip(raw, spec.b_lo, spec.b_hi))
            if clamped != raw:
                flags.append(f"axis {j}: update {raw:.4g} clamped into box")
            h[j] = clamped
        trace.append({"h": h.copy(), "criterion": rss_val})
        if _relative_change(h, prev) < spec.outer_tol:
            converged = True
            break
    if cache.failures:
        flags.append(f"{cache.failures} candidate fits failed")
    return SelectionResult(
        bandwidths=h,
        method="pl_star",
        outer_iterations=iterations,
        converged=converged,
        criterion=trace[-1]["criterion"],
        trace=trace,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# single-covariate variants (no backfitting; ordinary local linear fit)


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

    ``pls1`` scans the candidate grid for the penalized residual
    minimum; ``pl1`` iterates the closed-form plug-in update using the
    local quadratic curvature of the marginal fit itself.
    """
    if data.d != 1:
        raise ValueError("single-covariate selection needs d = 1")
    if method not in ("pls1", "pl1"):
        raise ValueError("method must be 'pls1' or 'pl1'")
    grid = grid or Grid.regular(25)
    ws = workspace or _engine.Workspace(data, grid, kernel)
    n = data.n
    x = data.x[:, 0]

    def marginal_curve(h):
        return ws.ll_marginal(0, h)[0]

    def rss1(h):
        res = data.y - ws.component_at_data(0, marginal_curve(h))
        return float(res @ res) / n

    if method == "pls1":
        vals = np.array(
            [pls(rss1(c), c, kernel.k0, n).value for c in spec.candidates]
        )
        best = int(np.argmin(vals))
        h = np.array([spec.candidates[best]])
        return SelectionResult(
            bandwidths=h,
            method="pls1",
            outer_iterations=1,
            converged=True,
            criterion=float(vals[best]),
            trace=[{"h": h.copy(), "criterion": float(vals[best])}],
        )

    h = float(spec.h0[0])
    trace = []
    flags = []
    converged = False
    iterations = 0
    rate = float(n) ** (-0.2)
    for _ in range(spec.max_outer):
        iterations += 1
        curve = marginal_curve(h)
        rss_val = rss1(h)
        g = float(pilot_bandwidth(np.array(h), pilot_factor, pilot_rule))
        curv = _component_curvature(curve, grid, g, kernel, x)
        denom = float(curv @ curv) / n * kernel.mu2**2
        if denom <= 0.0:
            new = spec.b_hi
            flags.append("zero curvature, clamped to box top")
        else:
            raw = rate * (rss_val * kernel.r_k) ** 0.2 * denom ** (-0.2)
            new = float(np.clip(raw, spec.b_lo, spec.b_hi))
            if new != raw:
                flags.append(f"update {raw:.4g} clamped into box")
        prev = h
        h = new
        trace.append({"h": np.array([h]), "criterion": rss_val})
        if abs(h - prev) / prev < spec.outer_tol:
            converged = True
            break
    return SelectionResult(
        bandwidths=np.array([h]),
        method="pl1",
        outer_iterations=iterations,
        converged=converged,
        criterion=trace[-1]["criterion"],
        trace=trace,
        flags=flags,
    )


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
    cache = _FitCache(ws, smoother, fit_tol, max_sweeps)
    memo = {}
    if criterion == "ase":
        target = np.asarray(truth(data.x), dtype=float)
    else:
        target = np.asarray(component_truth(data.x[:, component]), dtype=float)

    def objective(key):
        val = memo.get(key)
        if val is None:
            ent = cache.fit(key)
            if ent is None:
                val = np.inf
            elif criterion == "ase":
                err = ws.fitted_at_data(ws.ybar, ent[0]) - target
                val = float(mw @ (err * err)) / data.n
            else:
                err = ws.component_at_data(component, ent[0][component]) - target
                val = float(mw @ (err * err)) / data.n
            memo[key] = val
        return val

    result = _coordinate_descent(objective, spec, data.d, method="ase_oracle")
    if cache.failures:
        result.flags.append(f"{cache.failures} candidate fits failed")
    return result


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
