"""Correctness checks made outside the program's own output.

Every check refits with the public API (``backfit_ll``/``backfit_nw``,
``marginal_ll``) and recomputes criteria with the public ``rss``/``pls``
or with the benchmark's own truth; the fixed-point residuals go through
the independent ``density`` path.
"""

from __future__ import annotations

import math

import numpy as np
import smoothfit as sf

from harness import Checks

# The solvers stop when a sweep changes the curves by at most tol times
# their scale; the fixed-point residual of such a fit is of the same
# order, and this factor absorbs the contraction constant.
RESIDUAL_FACTOR = 10.0
# Norming functionals and the intercept are exact identities of the
# discrete system, up to rounding.
IDENTITY_TOL = 1e-10
# Criterion comparisons refit at this tolerance.  A selector compares
# warm-started fits at the default tolerance, so a neighbour may beat
# the selected point by at most this relative slack.
CHECK_TOL = 1e-10
NEIGHBOUR_SLACK = 1e-6


def refit(data, smoother, h, grid, kernel, tol):
    fn = sf.backfit_ll if smoother == "ll" else sf.backfit_nw
    return fn(data, np.asarray(h, dtype=float), grid, kernel, tol=tol)


def ase(fit, x, truth_fn) -> float:
    err = fit.predict(x) - truth_fn(x)
    return float(err @ err) / x.shape[0]


def check_fit(checks: Checks, label, data, fit, smoother, kernel, tol) -> None:
    """Fixed point at the solver tolerance, intercept equal to the mean
    response, vanishing norming functionals."""
    grid, h = fit.grid, fit.bandwidths
    curves = [fit.components] + ([fit.slopes] if smoother == "ll" else [])
    scale = max(1.0, *(float(np.abs(c).max()) for c in curves))
    if smoother == "ll":
        resid = sf.fixed_point_residual_ll(data, fit, kernel)
    else:
        resid = sf.fixed_point_residual_nw(data, fit, kernel)
    checks.expect(
        resid <= RESIDUAL_FACTOR * tol * scale,
        f"{label}: fixed-point residual {resid:.3g} exceeds "
        f"{RESIDUAL_FACTOR:g} x tol x scale = {RESIDUAL_FACTOR * tol * scale:.3g}",
    )
    ybar = math.fsum(data.y) / data.n
    checks.expect(
        abs(fit.intercept - ybar) <= IDENTITY_TOL * max(1.0, abs(ybar)),
        f"{label}: intercept {fit.intercept!r} differs from the mean response {ybar!r}",
    )
    tau = grid.weights
    for j in range(data.d):
        if smoother == "ll":
            mom = sf.local_moments(data, j, h[j], grid, kernel)
            norm = tau @ (mom.m00 * fit.components[j]) + tau @ (mom.m01 * fit.slopes[j])
        else:
            dens = sf.marginal_density(data, j, h[j], grid, kernel).values
            norm = tau @ (dens * fit.components[j])
        checks.expect(
            abs(norm) <= IDENTITY_TOL * scale,
            f"{label}: norming functional of axis {j} is {norm:.3g}",
        )


def check_box(checks: Checks, label, h, spec, on_grid: bool) -> None:
    checks.expect(
        bool(np.all((h >= spec.b_lo) & (h <= spec.b_hi))),
        f"{label}: bandwidths {h.tolist()} leave the box [{spec.b_lo:g}, {spec.b_hi:g}]",
    )
    if on_grid:
        checks.expect(
            bool(np.all(np.isin(h, spec.candidates))),
            f"{label}: bandwidths {h.tolist()} are not on the candidate grid",
        )


def pls_criterion(data, smoother, grid, kernel, spec):
    """The penalized criterion as a function of h, from public pieces."""
    trim = spec.nw_trim(data.d) if smoother == "nw" else None

    def criterion(h):
        fit = refit(data, smoother, h, grid, kernel, CHECK_TOL)
        return sf.pls(sf.rss(data, fit, trim=trim), h, kernel.k0, data.n).value
    return criterion


def ase_criterion(data, grid, kernel, truth_fn):
    def criterion(h):
        return ase(refit(data, "ll", h, grid, kernel, CHECK_TOL), data.x, truth_fn)
    return criterion


def check_coordinate_min(checks: Checks, label, h, spec, criterion) -> None:
    """A converged grid search stops at a point that no single-axis move
    to a neighbouring candidate improves."""
    cands = spec.candidates
    base = criterion(h)
    for j in range(h.size):
        at = int(np.searchsorted(cands, h[j]))
        for k in (at - 1, at + 1):
            if not 0 <= k < cands.size:
                continue
            trial = h.copy()
            trial[j] = cands[k]
            value = criterion(trial)
            checks.expect(
                base <= value * (1.0 + NEIGHBOUR_SLACK),
                f"{label}: moving axis {j} to {cands[k]:.6g} lowers the criterion "
                f"from {base:.10g} to {value:.10g}",
            )


def _curvature(curve, grid, g, kernel, x):
    # A fitted straight line has zero curvature by definition (the
    # selector applies the same rule before estimating).
    design = np.column_stack([np.ones(grid.size), grid.points])
    coef, *_ = np.linalg.lstsq(design, curve, rcond=None)
    if np.abs(curve - design @ coef).max() <= 1e-9 * max(1.0, float(np.abs(curve).max())):
        return np.zeros(x.size)
    return sf.curvature_at_points(sf.second_derivative(curve, grid, g, kernel), x)


def pl_star_update(data, h, spec, grid, kernel, pilot_factor=1.5):
    """One closed-form pl_star step from a public refit at h."""
    fit = refit(data, "ll", h, grid, kernel, CHECK_TOL)
    n = data.n
    res = data.y - fit.predict(data.x)
    rss = float(res @ res) / n
    pilot = sf.pilot_bandwidth(h, pilot_factor)
    new = np.empty_like(h)
    for j in range(data.d):
        curv = _curvature(fit.components[j], grid, float(pilot[j]), kernel, data.x[:, j])
        denom = float(curv @ curv) / n * kernel.mu2**2
        if denom <= 0.0:
            new[j] = spec.b_hi
        else:
            raw = n ** -0.2 * (rss * kernel.r_k) ** 0.2 * denom ** -0.2
            new[j] = float(np.clip(raw, spec.b_lo, spec.b_hi))
    return new


def check_pl_star_fixed_point(checks: Checks, label, data, h, spec, grid, kernel) -> None:
    new = pl_star_update(data, h, spec, grid, kernel)
    change = float(np.max(np.abs(new - h) / h))
    checks.expect(
        change < spec.outer_tol,
        f"{label}: one more closed-form update moves h by {change:.3g} "
        f"(outer_tol {spec.outer_tol:g})",
    )


def single_curve_at_data(data, h, grid, kernel):
    levels, _ = sf.marginal_ll(data, 0, float(h), grid, kernel)
    return np.interp(data.x[:, 0], grid.points, levels)


def check_pls1_exhaustive(checks: Checks, label, data, h, spec, grid, kernel) -> None:
    """pls1 must be the minimiser of the penalized criterion over the
    whole candidate grid."""
    values = []
    for c in spec.candidates:
        res = data.y - single_curve_at_data(data, c, grid, kernel)
        values.append(sf.pls(float(res @ res) / data.n, [c], kernel.k0, data.n).value)
    values = np.array(values)
    chosen = int(np.searchsorted(spec.candidates, h))
    checks.expect(
        chosen < values.size and spec.candidates[chosen] == h
        and values[chosen] <= values.min() * (1.0 + 1e-9),
        f"{label}: pls1 picked {h:.6g}; the exhaustive minimiser is "
        f"{spec.candidates[int(np.argmin(values))]:.6g}",
    )
