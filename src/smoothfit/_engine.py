"""Internal computational core for backfitting and bandwidth search.

A ``Workspace`` memoizes, per dataset, everything that depends only on
(axis, bandwidth) or on a pair of them.  Bandwidth selectors evaluate
hundreds of backfits over a fixed candidate grid, so these caches (plus
warm starts) dominate the running time.

Layout.  A workspace starts level-only, which is all the Nadaraya-Watson
smoother reads.  Per (axis, bandwidth), ``_AxisStats`` keeps the
grid-normalized kernel weights ``w``, the marginal density and the
kernel-weighted response sums; its slope weights ``b`` are empty.  The
first local linear request (``ll_solve`` or ``Workspace.ll_marginal``)
switches the workspace to (level, slope) statistics for good, before it
fetches any axis.  The switch drops every cached axis and pair, and from
then on each axis also keeps the offset-weighted weights
``b = w * (X - u)``.  No entry is ever upgraded in place, and asking a
level-only axis for local linear statistics is an internal error.

The weights are banded.  Kernels vanish outside [-1, 1] (the contract of
``KernelSpec``), so an observation's weights are nonzero only at the grid
points within h of it.  The workspace sorts each axis once; per (axis,
bandwidth), ``w`` and ``b`` hold, in that order, the ``width`` <= G
weights of each observation from its first grid point on.  Observations
with the same first grid point form contiguous runs, and the statistics
are sums over the runs.  Where the runs would be short on average
(n < ``_BAND_RUN`` * (G - width + 1)), or the support spans the grid, the
band is the whole grid in input order as one run: dense weights, as at
n = 200.  At large n, then, no (G, n) array outlives the call that needs
it.  On an n = 20000 local linear ``pls`` selection the kept weights take
about a third of the dense ones, and ``smoothfit select`` peaks at about
250 MB instead of 650 MB.

Per ordered axis pair (a, b), a < b, the pair cache holds the sample
average of outer products of the weights, G x G level-only and the
stacked 2G x 2G block ``[[s11, s21], [s12, s22]]`` (rows on axis a's
(level, slope), columns on axis b's) after the switch.  It is built from
small products per run of one axis, the band side, against the other
axis's weights laid out densely in the band side's order.  The key alone
picks the band side, so a block never depends on which scan, solve or
thread built it: the wider band, ties going to axis a.  (The wider band
has fewer runs, and selections settle in the narrow part of the search
box, so in a coordinate scan the wider band is mostly the scanned
candidate, and the fixed axes are laid out once for all candidates.)
The level block is a product of its own, so it holds the same numbers on
either layout, and a Nadaraya-Watson fit does not depend on whether the
workspace has switched.

Solvers.  Once per solve, each solver stacks the pair blocks into one
coupling operator per axis, ``ops[j]`` of shape (r, d * r) with r = G
(NW) or 2G (LL).  Its columns run over the flattened state ``z`` of all
axes, each scaled by its quadrature weight (the columns of axis j itself
are zero); its rows already include the division by the marginal
density (NW) or the ridged 2x2 moment inverse (LL).  A Gauss-Seidel
update of axis j is then one matrix-vector product,
``new_j = c_j - m0 * q_j - ops[j] @ z``, with ``c_j`` the marginal fit,
``m0`` the intercept and ``q_j`` the smoother applied to a constant.
A sweep updates the axes in cyclic order from ``start_axis``, 0 unless
the caller says otherwise.  The selectors warm-start each candidate of a
coordinate scan from the fits before it and start the sweep at the
scanned axis, the one whose bandwidth moved (see
``selectors._FitCache``): its curves are the ones the warm start has
wrong.  The fixed point and the stopping rule do not depend on the start
axis, and a cold start, as in ``backfit_ll`` and ``backfit_nw``, sweeps
in the order 0 .. d - 1.

Solved backfits.  ``Workspace`` also keeps the selectors' solved
backfits, keyed by (smoother, tol, max_sweeps, bandwidth tuple), so that
the selectors of one simulation replicate share their solves; it is
read and filled only by ``selectors._FitCache``.

Ahead-of-time fills.  Before a coordinate scan and before each solve,
``Workspace.prepare`` builds the missing axes, then the missing pairs,
that the coming backfits read.  It runs only where one axis build covers
at least ``_PARALLEL_WORK`` (n * G) weights; below that the hand-off
costs more than it saves.  The axes are built on a thread pool with one
thread per CPU available to the process.  The pairs are built on the
calling thread, grouped so that each partner is laid out once per band
side's axis: their many small products gain nothing from a second thread
under the interpreter lock.  Workers run the same code on the same inputs
as an on-demand build, and the results enter the caches from the calling
thread, so every number is bitwise the one a serial fill gives.
Processes of a study's process pool build serially; a forked child starts
its own pool.  The benchmark tracer counts cache lookups, so an entry
built ahead of its lookup reads as a hit there.

Not part of the public API.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import Dataset, Grid
from .errors import (
    EmptyNeighborhoodError,
    NonConvergenceError,
    NumericError,
    SingularMomentError,
    SmoothfitError,
)
from .kernels import KernelSpec
from .density import _band_weights

DEFAULT_TOL = 1e-6
DEFAULT_MAX_SWEEPS = 200

# Ridge policy for local moment solves (the 2x2 local linear moments
# here, the 3x3 local quadratic ones in ``curvature``): flag a
# determinant as numerically singular relative to the squared diagonal,
# then bump the diagonal by a scale-proportional amount.
_SING_RTOL = 1e-12
_RIDGE_SCALE = 1e-9


# ``Workspace.prepare`` fills caches ahead of a scan or solve only when
# one axis build handles at least this many (grid point, observation)
# weights, n * G.  Measured with `smoothfit select` on two cores, one BLAS
# thread and G = 25 (with dense weights, all on the pool), the threaded
# time over the serial one was 0.99-1.13 at n = 500, 0.94-1.01 at
# n = 2000 and 0.81 (pls, either smoother) or 1.07 (pl_star) at n = 5000,
# so the threshold lies between the last two.
_PARALLEL_WORK = 1 << 16

# An axis is stored banded only where its runs of observations with the
# same first grid index are long enough, on average, to pay for a small
# product each: n >= _BAND_RUN * (G - width + 1); a band as wide as the
# grid is always dense.  Measured on m1 samples with one BLAS thread and
# G = 25, banded over dense: at n = 300 (mean runs of 14-38) axis builds
# took 2-4.5x and pair products 4-9x as long; at n = 5000 (217-1250)
# builds 0.25-1.1x and on-demand pair products 0.8-2x, with a third of
# the memory or less.
_BAND_RUN = 200

# Grid points within h + _SUPPORT_SLACK of an observation are kept in its
# band: far above the rounding of ``x - u`` for x, u in [0, 1], so the
# band holds every grid point where a kernel that vanishes outside
# [-1, 1] can be nonzero.
_SUPPORT_SLACK = 1e-12


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The process's build pool: created on first use with one thread per
# available CPU, never in a process that builds serially (one thread).
_build_threads = _available_cpus()
_build_pool = None
_build_pool_lock = threading.Lock()


def _pool():
    """The build pool, or None where caches are built serially."""
    global _build_pool
    if _build_threads < 2:
        return None
    with _build_pool_lock:
        if _build_pool is None:
            _build_pool = ThreadPoolExecutor(
                _build_threads, thread_name_prefix="smoothfit-build"
            )
        return _build_pool


def _build_serially() -> None:
    """Process initializer: this process builds its caches on one thread,
    so that a pool of study processes does not also start threads."""
    global _build_threads
    _build_threads = 1


def _forget_pool() -> None:
    # A forked child inherits the pool object but none of its threads;
    # it creates its own on first use.
    global _build_pool, _build_pool_lock
    _build_pool, _build_pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_builds(pool, build, calls: list) -> list:
    """``[build(*args) for args in calls]``, on ``pool`` unless it is
    None, with None for every call that raised a SmoothfitError; other
    errors propagate."""

    def run(args):
        try:
            return build(*args)
        except SmoothfitError:
            return None

    if pool is None:
        return [run(args) for args in calls]
    futures = [pool.submit(run, args) for args in calls]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()


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
    """Per-(axis, bandwidth) smoothing state, in banded storage.

    Columns run over the observations in ``order`` (the axis's sort
    order; None for input order), and ``runs`` lists each run of
    observations with the same first grid index as ``(first, start,
    stop)``: the ``width`` rows of columns ``start:stop`` hold their
    weights at grid points ``first .. first + width - 1``.  ``wb`` holds
    the weights the pair products read: the grid-normalized kernel
    weights ``w`` over, when built with slopes, the offset-weighted
    weights ``b = w * (X - u)``; without slopes ``b`` is an empty (0, n)
    array and the slope statistics are None.  A dense axis has width G,
    input order and one run.
    """

    __slots__ = (
        "wb", "w", "b", "width", "runs", "order", "rank",
        "p", "p1", "m11", "a0", "a1", "_inv", "_nw", "_ll",
    )

    def __init__(self, ws: "Workspace", j: int, h: float, slopes: bool):
        g, n = ws.grid.size, ws.data.n
        x, y = ws.data.x[:, j], ws.data.y
        self.order = self.rank = None
        self.runs = [(0, 0, n)]
        self.width = g
        # A band narrower than the grid has at least two runs.
        if n >= 2 * _BAND_RUN:
            order = ws._order[j]
            xs = x[order]
            # Grid points within h of each observation, with a slack far
            # above rounding, hold its kernel support; ``width`` is the
            # widest count.  (Sorted queries make the searches faster.)
            points, reach = ws.grid.points, h + _SUPPORT_SLACK
            lo = np.searchsorted(points, xs - reach)
            width = int((np.searchsorted(points, xs + reach, side="right") - lo).max())
            if 0 < width < g and n >= _BAND_RUN * (g - width + 1):
                self.order, self.rank, self.width = order, ws._rank[j], width
                x, y = xs, y[order]
                first = np.minimum(lo, g - width)
                cut = (np.flatnonzero(np.diff(first)) + 1).tolist()
                self.runs = list(zip(first[[0, *cut]].tolist(), [0, *cut], [*cut, n]))
        width = self.width
        self.wb = np.empty((2 * width if slopes else width, n))
        self.w, self.b = self.wb[:width], self.wb[width:]
        try:
            _, offset = _band_weights(
                ws.kernel, h, ws.grid, x, width, self.runs, self.rank, out=self.w
            )
        except EmptyNeighborhoodError as err:
            raise EmptyNeighborhoodError(j, err.where, f"bandwidth {h:g}") from None
        self.p = self._total(g, self.w)
        self.a0 = self._total(g, self.w, y)
        if slopes:
            np.multiply(self.w, offset, out=self.b)
            self.p1 = self._total(g, self.b)
            self.m11 = self._total(g, np.multiply(self.b, offset, out=offset))
            self.a1 = self._total(g, self.b, y)
        else:
            self.p1 = self.m11 = self.a1 = None
        self._inv = None
        self._nw = None
        self._ll = None

    def _total(self, g: int, rows: np.ndarray, y=None) -> np.ndarray:
        """Per grid point, the sample mean of the banded ``rows`` (times
        ``y`` when given), as a length-G array."""
        if self.order is None:
            out = rows.sum(axis=1) if y is None else rows @ y
        else:
            out = np.zeros(g)
            for first, start, stop in self.runs:
                block = rows[:, start:stop]
                out[first : first + self.width] += (
                    block.sum(axis=1) if y is None else block @ y[start:stop]
                )
        return out / rows.shape[1]

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


def _band_side(sa: _AxisStats, sb: _AxisStats) -> bool:
    """Whether the second axis of a pair is its band side: the wider band,
    ties going to the lower axis, so the key alone decides."""
    return sb.width > sa.width


def _lay_out(st: _AxisStats, order, g: int, buf=None) -> np.ndarray:
    """The weights of ``st`` as one dense array, level rows over slope
    rows ((G, n) or (2G, n)), with columns in ``order``, the band side's
    (None for input order).

    A dense axis in input order is returned as it is (``wb``).  Otherwise
    the weights are written into ``buf``, of G more rows than that for
    scratch, or into a fresh array.
    """
    if order is None and st.order is None:
        return st.wb
    halves = (st.w, st.b) if st.b.size else (st.w,)
    rows = len(halves) * g
    if buf is None:
        buf = np.empty((rows + g, st.w.shape[1]))
    if st.order is None:
        pos = order
    else:
        pos = st.rank if order is None else st.rank[order]
    scratch = buf[rows : rows + g]
    for i, half in enumerate(halves):
        if st.order is not None:
            # Dense in the axis's own order, by runs, then one gather.
            scratch.fill(0.0)
            for first, start, stop in st.runs:
                scratch[first : first + st.width, start:stop] = half[:, start:stop]
            half = scratch
        # Every index is in range; 'clip' skips the bounds pass and the
        # copy through a temporary that 'raise' makes for ``out``.
        np.take(half, pos, axis=1, out=buf[i * g : (i + 1) * g], mode="clip")
    return buf[:rows]


def _pair_product(ws: "Workspace", sa: _AxisStats, sb: _AxisStats, layout=None) -> tuple:
    """The cached pair entry of axes a < b: ``(s,)`` with ``s`` the sample
    average of outer products of their weights, rows on a's (level[,
    slope]) and columns on b's; G x G level-only, else 2G x 2G.

    Per run of the band side, small products against the other axis laid
    out densely in the band side's order (``layout``, from ``_lay_out``,
    or laid out here).  The level block is a product of its own, so it
    holds the same numbers whether or not slopes were built.  A dense
    band side is one run over the whole grid, written in place.
    """
    flip = _band_side(sa, sb)
    band, other = (sb, sa) if flip else (sa, sb)
    g, k = ws.grid.size, band.width
    if layout is None:
        layout = _lay_out(other, band.order, g)
    slopes = band.b.size > 0
    out = np.zeros((len(layout), len(layout)))
    prod = out if k == g else np.empty((len(band.wb), len(layout)))
    for first, start, stop in band.runs:
        lay = layout[:, start:stop].T
        w = band.w[:, start:stop]
        np.matmul(w, lay[:, :g], out=prod[:k, :g])
        if slopes:
            np.matmul(w, lay[:, g:], out=prod[:k, g:])
            np.matmul(band.b[:, start:stop], lay, out=prod[k:])
        if prod is not out:
            out[first : first + k] += prod[:k]
            if slopes:
                out[g + first : g + first + k] += prod[k:]
    out /= ws.data.n
    return (out.T if flip else out,)


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
        # The selectors' solved backfits (see ``selectors._FitCache``):
        # (smoother, tol, max_sweeps, bandwidth tuple) -> the levels, and
        # the slopes for local linear, or None where the solve failed.
        self._fits: dict = {}
        # Each axis's sort order and its inverse, for banded axes.
        self._order = np.argsort(data.x, axis=0, kind="stable").T
        self._rank = np.empty_like(self._order)
        np.put_along_axis(self._rank, self._order, np.arange(data.n), axis=1)
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

    def prepare(self, keys) -> None:
        """Build the missing axes and pairs that backfits at the bandwidth
        tuples ``keys`` read; a no-op below ``_PARALLEL_WORK``.

        Axes are built first, on the build pool where there is one;
        worker threads run only ``_AxisStats``, and the results enter the
        cache from this thread in sorted key order.  Then this thread
        builds the pairs that read them, grouped so that each partner is
        laid out once per band side's axis, into one buffer the call
        reuses.  Every entry holds the same numbers as when built on
        demand.  An axis whose build raises a SmoothfitError stays
        unbuilt, with its pairs, and the solve that needs it raises that
        error itself.
        """
        if self.data.n * self.grid.size < _PARALLEL_WORK:
            return
        pool = _pool()
        d = self.data.d
        axes = {(j, float(h[j])) for h in keys for j in range(d)}
        axes = sorted(axes - self._axes.keys())
        calls = [(self, j, h, self._slopes) for j, h in axes]
        for key, st in zip(axes, _run_builds(pool, _AxisStats, calls)):
            if st is not None:
                self._axes[key] = st
        pairs = {
            (a, b, float(h[a]), float(h[b]))
            for h in keys
            for a in range(d)
            for b in range(a + 1, d)
        }
        groups = {}
        for a, b, ha, hb in sorted(pairs - self._pairs.keys()):
            if (a, ha) in self._axes and (b, hb) in self._axes:
                # Through ``axis``, like an on-demand pair build, so that
                # counts of cache lookups do not depend on who built the
                # pair (all hits).
                sa, sb = self.axis(a, ha), self.axis(b, hb)
                flip = _band_side(sa, sb)
                band, other = (sb, sa) if flip else (sa, sb)
                # Pairs whose band sides share an order and whose other
                # axis is the same entry read one layout of it.
                shared = (b if flip else a, band.order is None, id(other))
                group = groups.setdefault(shared, (band, other, []))
                group[2].append(((a, b, ha, hb), sa, sb))
        if not groups:
            return
        g = self.grid.size
        buf = np.empty(((3 if self._slopes else 2) * g, self.data.n))
        for band, other, group in groups.values():
            layout = _lay_out(other, band.order, g, buf)
            for key, sa, sb in group:
                self._pairs[key] = _pair_product(self, sa, sb, layout)

    def _pair_blocks(self, a: int, b: int, ha: float, hb: float):
        """Coupling products for the ordered axis pair (a, b), a < b.

        Returns a one-element tuple: the sample average of outer products
        of the two axes' weights, ``w_a @ w_b.T / n`` (G x G) on a
        level-only workspace and the stacked 2G x 2G block of (level,
        slope) halves once it has switched to slopes.
        """
        key = (a, b, float(ha), float(hb))
        blocks = self._pairs.get(key)
        if blocks is None:
            sa, sb = self.axis(a, ha), self.axis(b, hb)
            blocks = self._pairs[key] = _pair_product(self, sa, sb)
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

    def fitted_at_data(self, intercept: float, comps: np.ndarray, axes=None) -> np.ndarray:
        """``intercept`` plus the curves ``comps[j]`` of ``axes`` (all
        axes by default), interpolated at the data."""
        out = np.full(self.data.n, intercept)
        for j in range(self.data.d) if axes is None else axes:
            out += self.component_at_data(j, comps[j])
        return out


# -- solvers ----------------------------------------------------------------


def _sweeps(state, ops, rhs, tol, max_sweeps, start_axis=0):
    """Gauss-Seidel sweeps ``state[j] = base[j] - ops[j] @ z`` in cyclic
    axis order from ``start_axis``, ``z`` being the flattened current
    state and ``base = rhs()`` taken at the start of each sweep, until the
    sup-norm change of a sweep drops below ``tol`` relative to the state
    scale.

    Returns the list of sweep changes.  Raises NumericError on a
    non-finite change or iterate and NonConvergenceError when the sweeps
    run out.
    """
    z = state.reshape(-1)
    # Each update must see the newest iterate through ``z``.
    assert np.shares_memory(z, state)
    d = state.shape[0]
    order = [*range(start_axis, d), *range(start_axis)]
    changes = []
    for sweep in range(1, max_sweeps + 1):
        base = rhs()
        prev = state.copy()
        for j in order:
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
    start_axis: int = 0,
):
    """Gauss-Seidel sweeps for the Nadaraya-Watson backfitting system,
    each in cyclic axis order from ``start_axis``.

    Returns (components, sweeps, changes) with components already
    normalized to have zero density-weighted mean per axis; the
    intercept is the response mean throughout.
    """
    d, g = ws.data.d, ws.grid.size
    ws.prepare([h])
    axes = [ws.axis(j, h[j]) for j in range(d)]
    base = np.array([ax.nw_marginal(ws, j) for j, ax in enumerate(axes)]) - ws.ybar
    p = np.array([ax.p for ax in axes])
    ops = ws.coupling(h, g)
    ops /= p[:, :, None]
    m = np.zeros((d, g))
    if init is not None:
        m[:] = init
    changes = _sweeps(m, ops, lambda: base, tol, max_sweeps, start_axis)
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
    start_axis: int = 0,
):
    """Gauss-Seidel sweeps for the local linear backfitting system.

    Iterates the coupled (level, slope) updates, in cyclic axis order
    from ``start_axis``, with the intercept refreshed from the norming
    functional at the start of every sweep.
    Returns (levels, slopes, sweeps, changes), normalized so that each
    component's norming functional vanishes and the intercept equals the
    response mean.  Switches the workspace to slopes first.
    """
    ws.switch_to_slopes()
    ws.prepare([h])
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

    def rhs():
        return c - (ws.ybar - z @ norm.reshape(-1)) * q

    changes = _sweeps(state, ops, rhs, tol, max_sweeps, start_axis)
    # Shift each level so its norming functional vanishes; the shifts are
    # absorbed by the intercept, which lands exactly on the response mean.
    shift = (state * norm).sum(axis=1, keepdims=True)
    return state[:, :g] - shift, state[:, g:].copy(), len(changes), changes
