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
the level curves for a bandwidth tuple: a grid search (per-axis
candidate scans, repeated by coordinate descent) or a plug-in iteration,
both driven by one outer loop.  The selectors above and the oracle
search the smooth backfit, for any number of covariates.  The
single-covariate variants (``select_single``'s pls1 and pl1, and the
simulation's ase1 oracle) are the same searches over the marginal local
linear fit, which with one covariate is the backfit up to centring and
needs no solve.

Each selector runs on one workspace, which fixes the sample, the grid
and the kernel (``_engine.workspace_for``).  ``grid`` and ``kernel``
default to a given ``workspace``'s, else to the regular 25-point grid
and the biweight kernel; a workspace built on other data, or on another
grid or kernel than the ones passed, raises ValueError.  The searches
and steps read all three from the workspace.

Grid searches score candidates on the grid.  Each criterion (residual
or true error) is a weighted mean square of a target minus the
interpolated level curves, a quadratic form in the grid levels whose
matrix depends only on the sample, the weights and the grid.
``_GridScorer`` builds it once per search, so a candidate costs a
(dG)^2 product instead of a pass over the n observations.  Where the
form would cancel to below ``_GRID_RTOL`` of its terms' magnitude (a
near-perfect fit), the candidate is scored by the direct sum at the
data instead, so kept scores are exact to the bound stated there and
noiseless fits score zero to rounding, never less.  The plug-in
selectors compute their one residual per outer iteration directly.
Every criterion formula, down to the weighted mean square, comes from
``criteria``; this module only searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _engine
from .criteria import (
    TrimSpec,
    _criterion_weights,
    _expansion,
    _mean_square,
    _optimal_bandwidth,
    _weights_vector,
    pls,
)
from .curvature import pilot_bandwidth, second_derivative
from .data import Dataset, Grid
from .density import _check_axis
from .errors import SelectorFailureError, SmoothfitError
from .kernels import KernelSpec

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


# Each selector, by the names of the command line and the simulation
# harness: the smoothers it runs with, and whether it takes one covariate
# (else more than one).  The plug-in selectors expand the local linear
# error, and the single-covariate variants search the marginal local
# linear fit, so only the grid searches over the backfit also run with
# Nadaraya-Watson.
_SELECTORS = {
    "ase": (("nw", "ll"), False),
    "pls": (("nw", "ll"), False),
    "pl": (("ll",), False),
    "pl_coord": (("ll",), False),
    "pl_star": (("ll",), False),
    "ase1": (("ll",), True),
    "pls1": (("ll",), True),
    "pl1": (("ll",), True),
}


def _check_selector(name: str, smoother: str, d: int | None = None) -> None:
    """Raise ValueError unless selector ``name`` runs with ``smoother``
    and, when ``d`` is given, on ``d`` covariates."""
    if name not in _SELECTORS:
        raise ValueError(f"unknown selector {name!r}")
    smoothers, single = _SELECTORS[name]
    if d is not None and single != (d == 1):
        need = "one covariate" if single else "more than one covariate"
        raise ValueError(f"selector {name!r} needs {need}, got d={d}")
    if smoother not in smoothers:
        names = {"nw": "Nadaraya-Watson", "ll": "local linear"}
        allowed = " or ".join(names[s] for s in smoothers)
        raise ValueError(f"selector {name!r} needs the {allowed} smoother")


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
        if not (np.all(np.isfinite(cands)) and np.all(np.isfinite(h0))):
            raise ValueError("candidates and initial bandwidths must be finite")
        if cands[0] <= 0 or np.any(np.diff(cands) <= 0):
            raise ValueError("candidates must be positive and increasing")
        if np.any(h0 < cands[0]) or np.any(h0 > cands[-1]):
            raise ValueError("initial bandwidths must lie inside the search box")
        _engine.check_tolerance("outer_tol", self.outer_tol)
        _engine.check_count("max_outer", self.max_outer)
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
        """Default box ``[lo_factor, hi_factor] * n**(-1/5)``, searched as
        ``in_box`` says."""
        scale = float(n) ** (-0.2)
        return cls.in_box(
            lo_factor * scale, hi_factor * scale, d, num, h0, outer_tol, max_outer
        )

    @classmethod
    def in_box(
        cls,
        lo: float,
        hi: float,
        d: int,
        num: int = 25,
        h0: float = 0.1,
        outer_tol: float = 1e-3,
        max_outer: int = 25,
    ) -> "BandwidthSearchSpec":
        """The box ``[lo, hi]`` with ``num`` log-spaced candidates, the
        first exactly ``lo`` and the last exactly ``hi``, and a constant
        initial bandwidth ``h0`` clipped into the box."""
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
    """Backfits over one selection run, shared through the workspace.

    ``fit(key)`` returns the level curves at the bandwidth tuple ``key``,
    or None when the backfit failed; the fitted surface is ``intercept``
    plus the curves.  Fits are kept in the workspace's store of solved
    backfits under (smoother, tol, max_sweeps, key), so every selector
    run on one workspace reads what any of them solved, as the selectors
    of a simulation replicate do: the first solve of a key wins, whatever
    it was warm-started from.  A run counts each failed key once in
    ``failed``.  The public backfits never read the store and always
    start cold.

    A grid search names the axis it scans (``scan``), and the fits and
    blocks of that scan are solved and folded on that scan's coupling
    blocks (see ``_engine.Workspace._pair_keys``); outside scans, as in
    the plug-in loops, ``scan`` is None.

    A key that is not stored is warm-started from this run's last fit.
    Where the two differ in one axis j, the sweeps update axis j first;
    where the fit before the last one differs from it in axis j alone too,
    as along a candidate scan, the warm start is the linear extrapolation
    of those two fits in h_j.
    """

    def __init__(self, ws, smoother, tol, max_sweeps):
        _engine.check_tolerance("fit_tol", tol)
        _engine.check_count("max_sweeps", max_sweeps)
        self.ws = ws
        self.intercept = ws.ybar
        self.smoother = smoother
        self.tol = tol
        self.max_sweeps = max_sweeps
        self.failed = set()
        # This run's last two fits as (key, solution), the newest last.
        self.recent = []

    def prepare(self, keys, scan=None):
        """Build the caches that fits at ``keys`` in a scan of axis
        ``scan`` will read and fold their coupling blocks, all before the
        first fit: so the pairs are built in sorted key order, in which
        those that share a partner's layout follow each other, and folded
        in chunks.  Keys already in the store of solved backfits are
        skipped, as they will not be solved."""
        head = (self.smoother, self.tol, self.max_sweeps)
        keys = [key for key in keys if (*head, key) not in self.ws._fits]
        self.ws.prepare(keys, self.smoother, scan)

    def fit(self, key, scan=None):
        store = self.ws._fits
        entry = (self.smoother, self.tol, self.max_sweeps, key)
        if entry not in store:
            store[entry] = self._solve(key, scan)
        solution = store[entry]
        if solution is None:
            self.failed.add(key)
            return None
        self.recent = [*self.recent[-1:], (key, solution)]
        return solution[0]

    def _solve(self, key, scan):
        """(levels,) for NW or (levels, slopes) for LL at ``key`` in a scan
        of axis ``scan``, or None when the backfit fails."""
        init, start = self._warm_start(key)
        if init is not None and self.smoother == "nw":
            init = init[0]
        solve = getattr(_engine, f"{self.smoother}_solve")
        try:
            *curves, _, _ = solve(
                self.ws, key, init, self.tol, self.max_sweeps, start_axis=start, scan=scan
            )
        except SmoothfitError:
            return None
        return tuple(curves)

    def _warm_start(self, key):
        """The warm start for ``key`` (None for a cold start) and the axis
        to sweep first."""
        if not self.recent:
            return None, 0
        last_key, last = self.recent[-1]
        moved = _moved_axes(last_key, key)
        if len(moved) != 1:
            return last, 0
        (j,) = moved
        if len(self.recent) == 2:
            prev_key, prev = self.recent[0]
            if _moved_axes(prev_key, last_key) == moved:
                t = (key[j] - last_key[j]) / (last_key[j] - prev_key[j])
                return tuple(a + t * (a - b) for a, b in zip(last, prev)), j
        return last, j


def _moved_axes(old, new) -> list:
    """The axes where two bandwidth tuples differ."""
    return [j for j, (a, b) in enumerate(zip(old, new)) if a != b]


class _MarginalFit:
    """The fit interface of ``_FitCache`` for one covariate.

    Returns the uncentred marginal local linear fit, read from the
    workspace with no solve, and intercept zero; with one covariate,
    smooth backfitting is this fit centred.  A key whose fit raises a
    SmoothfitError is a failed candidate: ``fit`` returns None and the
    run counts the key once in ``failed``, as ``_FitCache`` does.
    """

    intercept = 0.0

    def __init__(self, ws):
        self.ws = ws
        self.failed = set()

    def prepare(self, keys, scan=None):
        self.ws.prepare(keys, "ll")

    def fit(self, key, scan=None):
        try:
            return self.ws.ll_marginal(0, key[0])[0][None]
        except SmoothfitError:
            self.failed.add(key)
            return None


# ``_GridScorer`` recomputes a score at the data where it falls below
# this fraction of m / n, with m the weighted square sum of |r| + L|t|:
# the magnitudes, at the data, of the centred target and of the curves
# that the score is made of (m >= c, and near a fit m is 4c or more).
# Every term of c - 2 b.t + t.A t, as built and as evaluated, is a sum
# of at most n + kG + 5 rounded products bounded by those magnitudes, so
# rounding moves the score by at most 2 (n + kG) u m / n in the worst
# case, with u = 1.1e-16 the unit roundoff; in two sets of 3000 random
# cases with n up to 2000 the form and the direct sum differed by at
# most 3 u m / n.  A score kept at or above _GRID_RTOL * m / n is
# therefore exact to 2 (n + kG) u / _GRID_RTOL relative in the worst
# case (6e-10 at n = 200 and 4.4e-8 at n = 20000 for d = 3 and G = 25),
# and was within 1.5e-12 of the direct sum in those cases.  Below it the
# direct sum is exact to rounding, so a noiseless in-family fit scores
# zero to rounding, never less.  At 1e-3 the true-error oracles, whose
# error sits at 1e-4 to 1e-3 of m at n = 200 to 2000, would score most
# candidates twice.
_GRID_RTOL = 1e-4


class _GridScorer:
    """Weighted mean square of ``target - intercept`` minus the level
    curves of ``axes`` interpolated at the data, as a quadratic form in
    the curves' grid levels.

    With L the n x kG linear-interpolation design of the k axes, W the
    weights and t the stacked levels, the score is ``(c - 2 b.t +
    t.A t) / n`` with c = r.W r, b = L'W r and A = L'W L, built once;
    no score reads the n observations.  The target is expanded about
    its weighted mean s: r = target - intercept - s, and the first curve
    of t is shifted down by s.  That is exact because each row of an
    axis's interpolation weights sums to one, and it keeps c small.
    Scores below ``_GRID_RTOL`` of their magnitude are recomputed at the
    data.  ``weights=None`` is unweighted.
    """

    def __init__(self, ws, target, weights, intercept, axes):
        n, g = ws.data.n, ws.grid.size
        self.ws, self.target, self.weights = ws, target, weights
        self.intercept, self.axes = intercept, np.array(axes)
        w = np.ones(n) if weights is None else weights
        total = float(np.sum(w))
        err = target - intercept
        self.shift = float(w @ err) / total if total > 0.0 else 0.0
        r = err - self.shift
        wr = w * r
        self.c = float(wr @ r)
        # Per observation and axis, the columns of the two grid nodes
        # around it in the stacked levels, with their weights.
        size = len(self.axes) * g
        cols = ws._idx[:, self.axes] + np.arange(len(self.axes)) * g
        frac = ws._frac[:, self.axes]
        nodes = ((cols, 1.0 - frac), (cols + 1, frac))

        def project(u):
            """L'u, for a vector u over the observations."""
            return sum(
                np.bincount(c.ravel(), (v * u[:, None]).ravel(), size) for c, v in nodes
            )

        # The linear terms of the score and, for the rounding guard, of
        # its magnitude (L'W|r|; the weights are nonnegative).
        self.lin = np.stack((-2.0 * project(wr), 2.0 * project(np.abs(wr))))
        a = np.zeros(size * size)
        for ci, vi in nodes:
            wvi = vi * w[:, None]
            for cj, vj in nodes:
                flat = ci[:, :, None] * size + cj[:, None, :]
                prod = wvi[:, :, None] * vj[:, None, :]
                a += np.bincount(flat.ravel(), prod.ravel(), size * size)
        self.a = a.reshape(size, size)

    def __call__(self, levels) -> float:
        # Rows t and |t|, for the score c - 2 b.t + t.A t and its
        # magnitude c + 2 (L'W|r|).|t| + |t|.A|t| in one product.
        pair = np.empty((2, len(self.a)))
        t = pair[0]
        levels.take(self.axes, axis=0, out=t.reshape(len(self.axes), -1))
        t[: self.ws.grid.size] -= self.shift
        np.abs(t, out=pair[1])
        terms = pair @ self.a
        terms += self.lin
        terms *= pair
        val, mag = self.c + terms.sum(axis=1)
        if val < _GRID_RTOL * mag:
            fitted = self.ws.fitted_at_data(self.intercept, levels, self.axes)
            return _mean_square(self.target - fitted, self.weights, self.ws.data.n)
        return float(val) / self.ws.data.n


def _pls_criterion(fits, mw):
    """Penalized residual criterion of a fit's level curves, residuals
    weighted by ``mw``."""
    ws = fits.ws
    score = _GridScorer(ws, ws.data.y, mw, fits.intercept, range(ws.data.d))

    def criterion(key, levels):
        return pls(score(levels), key, ws.kernel.k0, ws.data.n).value

    return criterion


def _ase_criterion(fits, target, mw, component=None):
    """True average squared error of the fitted surface against
    ``target``, or with ``component`` of that level curve alone."""
    ws = fits.ws
    if component is None:
        score = _GridScorer(ws, target, mw, fits.intercept, range(ws.data.d))
    else:
        score = _GridScorer(ws, target, mw, 0.0, [component])
    return lambda key, levels: score(levels)


def _relative_change(h_new, h_old) -> float:
    return float(np.max(np.abs(h_new - h_old) / h_old))


def _scan(evaluate, cands, h, j) -> float:
    """Set ``h[j]`` to the candidate minimizing the objective with the
    other axes fixed, and return that minimum.

    ``evaluate(keys, j)`` maps a list of bandwidth tuples of the scan of
    axis j to their objective values (``inf`` marks a failed candidate).
    Ties break toward the smaller bandwidth because the candidate grid is
    ascending and ``argmin`` takes the first hit.
    """
    trial = h.copy()
    keys = []
    for cand in cands:
        trial[j] = cand
        keys.append(tuple(trial))
    vals = np.array(evaluate(keys, j), dtype=float)
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
    that is exhaustive by itself.  Raises ValueError, before any fit,
    when ``spec.h0`` does not hold one bandwidth per covariate.
    """
    d = fits.ws.data.d
    if spec.h0.size != d:
        raise ValueError(f"h0 holds {spec.h0.size} bandwidths for {d} covariates")
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
    if fits.failed:
        flags.append(f"{len(fits.failed)} candidate fits failed")
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
    """Minimize ``criterion(key, levels)`` over the candidate grid.

    Coordinate descent: per-axis scans with immediate updates, repeated
    until the bandwidths settle.  With ``once``, a single scan of the
    single axis, which is already exhaustive.  An axis whose bandwidth
    ends on the first or last candidate is flagged: the minimum may lie
    outside the search box.
    """
    memo = {}

    def objective(key, scan):
        val = memo.get(key)
        if val is None:
            levels = fits.fit(key, scan)
            val = np.inf if levels is None else criterion(key, levels)
            memo[key] = val
        return val

    def evaluate(keys, scan):
        # The scan's caches are built up front, so that partner layouts are
        # shared in sorted key order and the folds run in chunks; the fits
        # themselves stay in order for warm starts.
        fits.prepare([key for key in keys if key not in memo], scan)
        return [objective(key, scan) for key in keys]

    def update(prev, flags):
        h = prev.copy()
        for j in range(h.size):
            # The last scan ends at h, so its minimum is the criterion there.
            crit = _scan(evaluate, spec.candidates, h, j)
        return h, crit

    sel = _outer_loop(fits, update, spec, method, once=once)
    for j, h in enumerate(sel.bandwidths):
        for end, edge in (("lower", spec.b_lo), ("upper", spec.b_hi)):
            if h == edge:
                sel.flags.append(f"axis {j}: at the {end} end of the search box")
    return sel


def _plug_in(fits, step, spec, method, mw, pilot_factor):
    """Plug-in selection: each outer iteration fits at the current
    bandwidths, freezes there the residual criterion (weighted by ``mw``,
    None for unweighted) and the curvature estimates, and takes
    ``step(h, rss, curvature, flags)`` as the next bandwidths and the
    iteration's criterion value."""
    ws = fits.ws

    def update(prev, flags):
        levels = fits.fit(tuple(prev))
        if levels is None:
            raise SelectorFailureError(
                f"backfit failed at the current iterate {prev.tolist()}"
            )
        fitted = ws.fitted_at_data(fits.intercept, levels)
        rss_val = _mean_square(ws.data.y - fitted, mw, ws.data.n)
        curv = _curvature_matrix(ws, levels, prev, pilot_factor)
        return step(prev, rss_val, curv, flags)

    return _outer_loop(fits, update, spec, method)


# ---------------------------------------------------------------------------
# penalized least squares


def select_pls(
    data: Dataset,
    smoother: str,
    spec: BandwidthSearchSpec,
    grid: Grid | None = None,
    kernel: KernelSpec | None = None,
    weights=None,
    trim: TrimSpec | None = None,
    workspace=None,
    fit_tol: float = _engine.DEFAULT_TOL,
    max_sweeps: int = _engine.DEFAULT_MAX_SWEEPS,
) -> SelectionResult:
    """Penalized least squares bandwidth by coordinate descent.

    Every candidate evaluation performs a full backfit (warm-started,
    or read from the workspace's solved backfits, see ``_FitCache``),
    computes the residual criterion, and applies the penalty factor.
    For the locally constant smoother the residual criterion is trimmed
    near the boundary (see ``BandwidthSearchSpec.nw_trim``); the local
    linear criterion uses the full sample.
    """
    _check_selector("pls", smoother)
    ws = _engine.workspace_for(data, grid, kernel, workspace)
    if trim is None and smoother == "nw":
        trim = spec.nw_trim(data.d)
    mw = _criterion_weights(weights, trim, data.x)
    fits = _FitCache(ws, smoother, fit_tol, max_sweeps)
    return _grid_search(fits, _pls_criterion(fits, mw), spec, "pls")


# ---------------------------------------------------------------------------
# plug-in on the global error expansion


def _component_curvature(ws, j, curve, g):
    """Curvature of axis ``j``'s fitted curve at the data.

    A curve that is a straight line up to solver rounding has zero
    curvature by definition; without this guard the local quadratic
    amplifies rounding wiggle into an arbitrary tiny value, which the
    plug-in updates would then take seriously.
    """
    # The least-squares line through the curve, in closed form.
    offset = ws.grid.points - ws.grid.points.mean()
    slope = float(offset @ curve) / float(offset @ offset)
    line_resid = np.abs(curve - curve.mean() - slope * offset).max()
    if line_resid <= 1e-9 * max(1.0, float(np.abs(curve).max())):
        return np.zeros(ws.data.n)
    values = second_derivative(curve, ws.grid, g, ws.kernel).values
    return ws.component_at_data(j, values)


def _curvature_matrix(ws, comps, h, pilot_factor):
    """Second-derivative estimates of every component at the data points."""
    g = pilot_bandwidth(np.asarray(h), pilot_factor)
    cols = [_component_curvature(ws, j, comps[j], float(g[j])) for j in range(ws.data.d)]
    return np.column_stack(cols)


def select_pl(
    data: Dataset,
    spec: BandwidthSearchSpec,
    mode: str = "full_grid",
    grid: Grid | None = None,
    kernel: KernelSpec | None = None,
    weights=None,
    pilot_factor: float = 1.5,
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
    ws = _engine.workspace_for(data, grid, kernel, workspace)
    d, n, kernel = data.d, data.n, ws.kernel
    cands = spec.candidates
    if mode == "full_grid" and cands.size**d > 10_000_000:
        raise ValueError("product grid too large; use mode='coordinate'")
    mw = _criterion_weights(weights, None, data.x)

    def full_grid(prev, rss_val, q):
        # The candidates laid along axis j of the product grid.
        along = [[cands.size if k == j else 1 for k in range(d)] for j in range(d)]
        val = _expansion(rss_val, q, [cands.reshape(a) for a in along], n, kernel)
        idx = np.unravel_index(int(np.argmin(val)), val.shape)
        return np.array([cands[i] for i in idx]), float(val[idx])

    def coordinate(prev, rss_val, q):
        # Every axis is updated from the previous iterate: the other axes
        # keep their entries of prev, not freshly updated ones.
        h = prev.copy()
        for j in range(d):
            trial = list(prev)
            trial[j] = cands
            h[j] = cands[int(np.argmin(_expansion(rss_val, q, trial, n, kernel)))]
        # Record this iteration's objective at the chosen point.
        return h, float(_expansion(rss_val, q, h, n, kernel))

    if mode == "full_grid":
        search, method = full_grid, "pl_grid"
    else:
        search, method = coordinate, "pl_coord"

    def step(prev, rss_val, curv, flags):
        return search(prev, rss_val, (curv * mw[:, None]).T @ curv / n)

    fits = _FitCache(ws, "ll", fit_tol, max_sweeps)
    return _plug_in(fits, step, spec, method, mw, pilot_factor)


# ---------------------------------------------------------------------------
# component-wise closed-form plug-in


def _pl_star_step(ws, spec, weights_j):
    """The closed-form update of ``select_pl_star`` as a plug-in step on
    the workspace's sample and kernel."""
    data = ws.data
    wjs = [
        _weights_vector(None if weights_j is None else weights_j[j], data.x[:, j])
        for j in range(data.d)
    ]

    def step(prev, rss_val, curv, flags):
        h = prev.copy()
        for j, wj in enumerate(wjs):
            q_jj = _mean_square(curv[:, j], wj, data.n)
            raw = _optimal_bandwidth(data.n, rss_val, q_jj, ws.kernel)
            if raw == np.inf:
                h[j] = spec.b_hi
                flags.append(f"axis {j}: zero curvature, clamped to box top")
                continue
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
    kernel: KernelSpec | None = None,
    weights_j=None,
    pilot_factor: float = 1.5,
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
    ws = _engine.workspace_for(data, grid, kernel, workspace)
    fits = _FitCache(ws, "ll", fit_tol, max_sweeps)
    step = _pl_star_step(ws, spec, weights_j)
    return _plug_in(fits, step, spec, "pl_star", None, pilot_factor)


# ---------------------------------------------------------------------------
# single-covariate variants: the same searches over the marginal fit


def select_single(
    data: Dataset,
    method: str,
    spec: BandwidthSearchSpec,
    grid: Grid | None = None,
    kernel: KernelSpec | None = None,
    pilot_factor: float = 1.5,
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
    fits = _MarginalFit(_engine.workspace_for(data, grid, kernel, workspace))
    if method == "pls1":
        return _grid_search(fits, _pls_criterion(fits, None), spec, "pls1", once=True)
    step = _pl_star_step(fits.ws, spec, None)
    return _plug_in(fits, step, spec, "pl1", None, pilot_factor)


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
    kernel: KernelSpec | None = None,
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
    _check_selector("ase", smoother)
    if criterion == "ase":
        target, component = np.asarray(truth(data.x), dtype=float), None
    elif criterion != "ase_j":
        raise ValueError("criterion must be 'ase' or 'ase_j'")
    elif component is None or component_truth is None:
        raise ValueError("ase_j needs a component index and its centered truth")
    else:
        target = np.asarray(component_truth(_check_axis(data, component)), dtype=float)
    ws = _engine.workspace_for(data, grid, kernel, workspace)
    if trim is None and smoother == "nw":
        trim = spec.nw_trim(data.d)
    mw = _criterion_weights(weights, trim, data.x)
    fits = _FitCache(ws, smoother, fit_tol, max_sweeps)
    crit = _ase_criterion(fits, target, mw, component)
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
    varint = float(wq @ (w * p * sig))
    return float(_optimal_bandwidth(n, varint, float(wq @ (curv * curv * w * p)), kernel))
