"""Internal computational core for backfitting and bandwidth search.

A ``Workspace`` memoizes, per dataset, everything that depends only on
(axis, bandwidth) or on a pair of them.  Bandwidth selectors evaluate
hundreds of backfits over a fixed candidate grid, so these caches (plus
warm starts) dominate the running time.

Layout.  A workspace starts level-only, which is all the Nadaraya-Watson
smoother reads.  Per (axis, bandwidth), ``_AxisStats`` then keeps the
grid-normalized kernel weights ``w`` (G x n), the marginal density and
the kernel-weighted response sums; its slope weights ``b`` are empty.
Per ordered axis pair (a, b), a < b, the pair cache holds the sample
average of outer products ``w_a @ w_b.T / n`` (G x G).

The first local linear request (``ll_solve`` or ``Workspace.ll_marginal``)
switches the workspace to (level, slope) statistics for good, before it
fetches any axis.  The switch drops every cached axis and pair, and from
then on each axis is built whole: ``w`` and the offset-weighted weights
``b = w * (X - u)`` are the two halves of one contiguous (2G, n) array
``wb``, and each pair product is the stacked ``wb_a @ wb_b.T / n``, the
2G x 2G block ``[[s11, s21], [s12, s22]]`` with rows on axis a's (level,
slope) and columns on axis b's.  No entry is ever upgraded in place.
Either layout serves both solvers: the local linear solver reads the
whole block, the Nadaraya-Watson solver its top-left G x G corner, which
is ``w_a @ w_b.T / n`` in both.  Asking a level-only axis for local
linear statistics is an internal error and raises.

Solvers.  Once per solve, each solver stacks the pair blocks into one
coupling operator per axis, ``ops[j]`` of shape (r, d * r) with r = G
(NW) or 2G (LL).  Its columns run over the flattened state ``z`` of all
axes, each scaled by its quadrature weight (the columns of axis j itself
are zero); its rows already include the division by the marginal
density (NW) or the ridged 2x2 moment inverse (LL).  A Gauss-Seidel
update of axis j is then one matrix-vector product,
``new_j = c_j - m0 * q_j - ops[j] @ z``, with ``c_j`` the marginal fit,
``m0`` the intercept and ``q_j`` the smoother applied to a constant.

Not part of the public API.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Grid
from .errors import (
    EmptyNeighborhoodError,
    NonConvergenceError,
    NumericError,
    SingularMomentError,
)
from .kernels import KernelSpec
from .density import weight_matrix

DEFAULT_TOL = 1e-6
DEFAULT_MAX_SWEEPS = 200

# Ridge policy for local moment solves (the 2x2 local linear moments
# here, the 3x3 local quadratic ones in ``curvature``): flag a
# determinant as numerically singular relative to the squared diagonal,
# then bump the diagonal by a scale-proportional amount.
_SING_RTOL = 1e-12
_RIDGE_SCALE = 1e-9


def _ridged_inverse(m00, m01, m11, j, points):
    """Inverse entries (i11, i12, i22) of the 2x2 moment matrices
    ``[[m00, m01], [m01, m11]]`` at axis ``j``'s grid ``points``, under
    the ridge policy.  Raises SingularMomentError where a matrix stays
    singular after the ridge."""
    det = m00 * m11 - m01 * m01
    bad = np.abs(det) < _SING_RTOL * (m00 * m00 + m11 * m11)
    if np.any(bad):
        lam = _RIDGE_SCALE * (m00 + m11)
        m00 = np.where(bad, m00 + lam, m00)
        m11 = np.where(bad, m11 + lam, m11)
        det = m00 * m11 - m01 * m01
        still = np.abs(det) <= 0.0
        if np.any(still):
            raise SingularMomentError(j, float(points[int(np.argmax(still))]))
    return m11 / det, -m01 / det, m00 / det


class _AxisStats:
    """Per-(axis, bandwidth) smoothing state.

    ``wb`` holds the weights the pair products read: ``w`` alone for a
    level-only axis (``b`` is then an empty (0, n) array and the slope
    statistics are None), ``w`` over ``b`` when built with slopes.
    """

    __slots__ = ("wb", "w", "b", "p", "p1", "m11", "a0", "a1", "_inv", "_nw", "_ll")

    def __init__(self, ws: "Workspace", j: int, h: float, slopes: bool):
        xj = ws.data.x[:, j]
        try:
            w = weight_matrix(ws.kernel, h, ws.grid, xj)
        except EmptyNeighborhoodError as err:
            raise EmptyNeighborhoodError(j, err.where, f"bandwidth {h:g}") from None
        g, n = w.shape
        if slopes:
            offset = xj[None, :] - ws.grid.points[:, None]
            self.wb = np.empty((2 * g, n))
            self.w = self.wb[:g]
            self.b = self.wb[g:]
            self.w[...] = w
            del w  # free the unstacked copy before the moment temporaries
            np.multiply(self.w, offset, out=self.b)
            self.p1 = self.b.sum(axis=1) / n
            self.m11 = (self.b * offset).sum(axis=1) / n
            self.a1 = self.b @ ws.data.y / n
        else:
            self.wb = self.w = w
            self.b = np.empty((0, n))
            self.p1 = self.m11 = self.a1 = None
        self.p = self.w.sum(axis=1) / n
        self.a0 = self.w @ ws.data.y / n
        self._inv = None
        self._nw = None
        self._ll = None

    def nw_marginal(self, ws: "Workspace", j: int) -> np.ndarray:
        if self._nw is None:
            if np.any(self.p <= 0.0):
                g = int(np.argmin(self.p))
                raise EmptyNeighborhoodError(j, float(ws.grid.points[g]))
            self._nw = self.a0 / self.p
        return self._nw

    def inverse(self, ws: "Workspace", j: int):
        """Entries (i11, i12, i22) of the ridged 2x2 moment inverse."""
        if self._inv is None:
            if self.m11 is None:
                raise RuntimeError(
                    f"local linear statistics requested from a level-only axis {j}"
                )
            self._inv = _ridged_inverse(self.p, self.p1, self.m11, j, ws.grid.points)
        return self._inv

    def ll_marginal(self, ws: "Workspace", j: int):
        """(levels, slopes) of the local linear regression of y on axis j.

        The arrays are cached; callers must not modify them.
        """
        if self._ll is None:
            i11, i12, i22 = self.inverse(ws, j)
            self._ll = (i11 * self.a0 + i12 * self.a1, i12 * self.a0 + i22 * self.a1)
        return self._ll


class Workspace:
    """Caches per-dataset smoothing state across many bandwidths."""

    def __init__(self, data: Dataset, grid: Grid, kernel: KernelSpec):
        self.data = data
        self.grid = grid
        self.kernel = kernel
        self.tau = grid.weights
        self.ybar = float(data.y.mean())
        self._axes: dict = {}
        self._pairs: dict = {}
        self._slopes = False
        pos = data.x * (grid.size - 1)
        idx = np.clip(pos.astype(int), 0, grid.size - 2)
        self._idx = idx
        self._frac = pos - idx

    def switch_to_slopes(self) -> None:
        """Build (level, slope) statistics from now on, for good.

        Drops every cached axis and pair, all of them level-only, so
        they are rebuilt whole on demand.  Called by each local linear
        request before it fetches an axis; a no-op once switched.
        """
        if not self._slopes:
            self._slopes = True
            self._axes.clear()
            self._pairs.clear()

    # -- cached primitives -------------------------------------------------

    def axis(self, j: int, h: float) -> _AxisStats:
        key = (j, float(h))
        st = self._axes.get(key)
        if st is None:
            st = self._axes[key] = _AxisStats(self, j, float(h), self._slopes)
        return st

    def ll_marginal(self, j: int, h: float):
        """(levels, slopes) of the local linear regression of y on axis j.

        Switches the workspace to slopes first.  The arrays are cached;
        callers must not modify them.
        """
        self.switch_to_slopes()
        return self.axis(j, h).ll_marginal(self, j)

    def _pair_blocks(self, a: int, b: int, ha: float, hb: float):
        """Coupling products for the ordered axis pair (a, b), a < b.

        Returns a one-element tuple: the sample average of outer products
        of the weights, ``wb_a @ wb_b.T / n``, which is ``w_a @ w_b.T / n``
        (G x G) on a level-only workspace and the stacked 2G x 2G block
        once it has switched to slopes.
        """
        key = (a, b, float(ha), float(hb))
        blocks = self._pairs.get(key)
        if blocks is None:
            sa, sb = self.axis(a, ha), self.axis(b, hb)
            blocks = self._pairs[key] = (sa.wb @ sb.wb.T / self.data.n,)
        return blocks

    def coupling(self, h, r: int) -> np.ndarray:
        """Grid-weighted pair blocks of all axes, shape (d, r, d * r).

        Columns ``k*r:(k+1)*r`` of entry ``[j]`` map the state of axis k
        (each column scaled by its quadrature weight) into the update of
        axis j (rows); the diagonal blocks are zero.  ``r`` is G for
        levels only, 2G for stacked (level, slope) states.
        """
        d = self.data.d
        out = np.zeros((d, r, d, r))
        for a in range(d):
            for b in range(a + 1, d):
                blk = self._pair_blocks(a, b, h[a], h[b])[0][:r, :r]
                out[a, :, b, :] = blk
                out[b, :, a, :] = blk.T
        out *= np.tile(self.tau, (d, r // self.grid.size))
        return out.reshape(d, r, d * r)

    # -- evaluation at the data points --------------------------------------

    def component_at_data(self, j: int, curve: np.ndarray) -> np.ndarray:
        """Linear interpolation of a grid curve at the j-th covariate."""
        idx, frac = self._idx[:, j], self._frac[:, j]
        return curve[idx] * (1.0 - frac) + curve[idx + 1] * frac

    def fitted_at_data(self, intercept: float, comps: np.ndarray) -> np.ndarray:
        out = np.full(self.data.n, intercept)
        for j in range(self.data.d):
            out += self.component_at_data(j, comps[j])
        return out


# -- solvers ----------------------------------------------------------------


def _sweeps(state, ops, rhs, tol, max_sweeps):
    """Gauss-Seidel sweeps ``state[j] = base[j] - ops[j] @ z`` in axis
    order, ``z`` being the flattened current state and ``base = rhs()``
    taken at the start of each sweep, until the sup-norm change of a
    sweep drops below ``tol`` relative to the state scale.

    Returns the list of sweep changes.  Raises NumericError on a
    non-finite change or iterate and NonConvergenceError when the sweeps
    run out.
    """
    z = state.reshape(-1)
    # Each update must see the newest iterate through ``z``.
    assert np.shares_memory(z, state)
    changes = []
    for sweep in range(1, max_sweeps + 1):
        base = rhs()
        prev = state.copy()
        for j in range(state.shape[0]):
            state[j] = base[j] - ops[j] @ z
        # Any non-finite entry of the new state makes the change
        # non-finite, so this one test also covers the iterate.
        delta = float(np.abs(state - prev).max())
        if not np.isfinite(delta):
            raise NumericError(
                f"backfitting produced a non-finite iterate in sweep {sweep}"
            )
        changes.append(delta)
        if delta <= tol * max(1.0, float(np.abs(state).max())):
            return changes
    raise NonConvergenceError(max_sweeps, changes[-1])


def nw_solve(
    ws: Workspace,
    h,
    init: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
):
    """Gauss-Seidel sweeps for the Nadaraya-Watson backfitting system.

    Returns (components, sweeps, changes) with components already
    normalized to have zero density-weighted mean per axis; the
    intercept is the response mean throughout.
    """
    d, g = ws.data.d, ws.grid.size
    axes = [ws.axis(j, h[j]) for j in range(d)]
    base = np.array([ax.nw_marginal(ws, j) for j, ax in enumerate(axes)]) - ws.ybar
    p = np.array([ax.p for ax in axes])
    ops = ws.coupling(h, g)
    ops /= p[:, :, None]
    m = np.zeros((d, g))
    if init is not None:
        m[:] = init
    changes = _sweeps(m, ops, lambda: base, tol, max_sweeps)
    # Zero-mean normalization against the marginal densities.  At the
    # discrete fixed point the means already sum to zero, so this leaves
    # the fitted surface (and the intercept) unchanged.
    m -= (m * (ws.tau * p)).sum(axis=1, keepdims=True)
    return m, len(changes), changes


def ll_solve(
    ws: Workspace,
    h,
    init=None,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
):
    """Gauss-Seidel sweeps for the local linear backfitting system.

    Iterates the coupled (level, slope) updates with the intercept
    refreshed from the norming functional at the start of every sweep.
    Returns (levels, slopes, sweeps, changes), normalized so that each
    component's norming functional vanishes and the intercept equals the
    response mean.  Switches the workspace to slopes first.
    """
    ws.switch_to_slopes()
    d, g = ws.data.d, ws.grid.size
    axes = [ws.axis(j, h[j]) for j in range(d)]
    inv = np.array([ax.inverse(ws, j) for j, ax in enumerate(axes)])
    i11, i12, i22 = inv[:, 0], inv[:, 1], inv[:, 2]
    p = np.array([ax.p for ax in axes])
    p1 = np.array([ax.p1 for ax in axes])
    # Per axis, as (level, slope) rows of length 2G: the marginal fit c,
    # the moment inverse applied to the intercept's moments q, and the
    # weights of the norming functional.
    c = np.array([np.concatenate(ax.ll_marginal(ws, j)) for j, ax in enumerate(axes)])
    q = np.concatenate([i11 * p + i12 * p1, i12 * p + i22 * p1], axis=1)
    norm = np.concatenate([ws.tau * p, ws.tau * p1], axis=1)
    # Fold the moment inverse into the rows of each axis's operator:
    # (level, slope) rows become (i11, i12; i12, i22) combinations.
    ops = ws.coupling(h, 2 * g)
    rows = ops.reshape(d, 2, g, 2 * d * g)
    swapped = rows[:, ::-1] * i12[:, None, :, None]
    rows *= np.stack([i11, i22], axis=1)[..., None]
    rows += swapped
    state = np.zeros((d, 2 * g))
    if init is not None:
        state[:, :g] = init[0]
        state[:, g:] = init[1]
    z = state.reshape(-1)
    changes = _sweeps(
        state, ops, lambda: c - (ws.ybar - z @ norm.reshape(-1)) * q, tol, max_sweeps
    )
    # Shift each level so its norming functional vanishes; the shifts are
    # absorbed by the intercept, which lands exactly on the response mean.
    shift = (state * norm).sum(axis=1, keepdims=True)
    return state[:, :g] - shift, state[:, g:].copy(), len(changes), changes
