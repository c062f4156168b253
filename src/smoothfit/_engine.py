"""Internal computational core for backfitting and bandwidth search.

A ``Workspace`` memoizes, per dataset, what depends only on (axis,
bandwidth) or on a pair of them: every axis it builds, and the pair
blocks of the last outer iteration of a grid search (see the pair window
below).  Bandwidth selectors evaluate hundreds of backfits over a fixed
candidate grid, so these caches (plus warm starts) dominate the running
time.  A workspace fixes one sample, one grid, one kernel and one
smoother; ``workspace_for`` is the one place that picks their defaults
and builds a workspace for a fit or a selection, and it rejects a given
workspace built on another sample, grid or kernel, or for the other
smoother.

Layout.  Per (axis, bandwidth), ``_AxisStats`` keeps the grid-normalized
kernel weights ``w``, the marginal density ``p`` and the kernel-weighted
response sums: all that the Nadaraya-Watson smoother reads, and all that
an axis of a Nadaraya-Watson workspace holds.  An axis of a local linear
workspace also keeps the slope sums, the ridged moment inverse ``inv``
and the marginal local linear fit ``ll``; ``inv is not None`` marks such
an entry, and a Nadaraya-Watson axis holds None for these.  The rows of
an axis's state and of its coupling blocks number ``Workspace.r``: G for
Nadaraya-Watson and 2G, level over slope, for local linear.

No entry keeps the slope weights ``b = w * (X - u)``: they are one
subtraction and one product away from ``w`` and the covariate, which an
entry references (the workspace holds each covariate once in sorted
order, beside the input).  The build forms them run by run for its
sums, and the pair products form them again where they read them: into
a scratch per run of the band side (``_pair_product``) and, in one pass
over the partner's gathered band, into its layout (``_lay_out``),
operand for operand the build's arithmetic (``_slopes``), so every value
is bitwise the one a stored copy would hold.  Each entry's ``b`` is an
empty (0, n) array.

An axis is built complete or not at all.  Its build fails with
EmptyNeighborhoodError where an observation has no grid mass or a grid
point has no observation within h (``p`` is not positive there), and
with SingularMomentError where a moment matrix stays singular after the
ridge.  So a built axis has every factor that a solve divides by.

The weights are banded.  Kernels vanish outside [-1, 1] (the contract of
``KernelSpec``), so an observation's weights are nonzero only at the grid
points within h of it.  The workspace sorts each axis once; per (axis,
bandwidth), ``w`` holds, in that order, the ``width`` <= G weights of
each observation from its first grid point on.  Observations with the
same first grid point form contiguous runs, and the statistics are sums
over the runs.  Where the runs would be short on average
(n < ``_BAND_RUN`` * (G - width + 1)), or the support spans the grid, the
band is the whole grid in input order as one run: dense weights, as at
n = 200.  At large n, then, no (G, n) array outlives the call that needs
it.  On an n = 20000 local linear ``pls`` selection the kept weights take
83 MiB, a seventh of the dense level and slope weights, and ``smoothfit
select`` peaks at about 140 MB instead of 650 MB.

Per ordered axis pair (a, b), the pair cache holds the sample average of
outer products of the weights: G x G on a Nadaraya-Watson workspace,
and on a local linear one the stacked 2G x 2G block ``[[s11, s21],
[s12, s22]]`` (rows on axis a's (level, slope), columns on axis b's).
It is built from small products per run of axis a, the band side,
against axis b's weights laid out densely in a's order.  A banded
partner is laid out from one gather of its ``width`` rows, its
covariate and its first grid indices into that order, and one scatter
into the layout per half; a dense one is copied (gathered) whole.  The
layout takes exactly its ``r`` rows, with no scratch, in one buffer
that is reset where the last layout wrote.  So a
block depends on its key and its band side alone, never on which scan,
solve or selector built it, and (a, b) and (b, a) hold the same block to
rounding.  The band side is picked per use (``Workspace._pair_keys``).
In a coordinate scan of axis j, every pair of two banded axes with j
takes j, so the scan lays each fixed axis out once in j's order for all
candidates, and a pair of two banded fixed axes takes the one scanned
last, whose scan built its block at their current bandwidths.  Every
other pair, and every pair outside scans (public backfits, plug-in
iterates), takes the wider band, ties going to the lower axis; a dense
axis is always the wider band, so dense pairs, as at n = 200, are
built as they always were.  A public backfit on a selection's workspace
therefore reads the blocks a fresh one would build.

The pair window.  The pair cache keeps the blocks of one outer iteration,
not every block it ever built.  Each coordinate scan's ``prepare`` that
has a key to solve advances a scan clock and, before it builds anything,
drops every block that no ``prepare`` built or read during the last d
scans; the solves' own fills and calls outside scans (public backfits,
plug-in iterates) stamp the blocks they read but leave the clock as it
is.  The scan of an axis one iteration later still finds the blocks of
the partners that did not move, and a block that is dropped and needed
again is rebuilt bitwise, since it depends on its key and band side
alone.  On m1
replicates (n = 200, four selectors on one workspace) the cache ends
with about half the blocks it kept before, at about a tenth more pair
products; a local linear ``pls`` at n = 1000 and d = 10 builds the same
blocks and peaks 8% lower.

Solvers.  Each solver runs on one coupling operator per axis, ``ops[j]``
of shape (r, d * r) with r = G (NW) or 2G (LL).  Its columns run over the
flattened state ``z`` of all axes, each scaled by its quadrature weight
(the columns of axis j itself are zero); its rows already include the
division by the marginal density (NW) or the ridged 2x2 moment inverse
(LL).  A Gauss-Seidel update of axis j is then one matrix-vector product,
``new_j = c_j - m0 * q_j - ops[j] @ z``, with ``c_j`` the marginal fit,
``m0`` the intercept and ``q_j`` the smoother applied to a constant.  A
solve assembles ``ops`` by copying the folded, oriented blocks of its
pairs, which the workspace's fills hold, into a zeroed array, and stacks
the rows of each axis: for NW the marginal fit minus the intercept, for
LL ``c_j``, ``q_j`` and the norming weights, which ``_AxisStats.ll_rows``
keeps.  A sweep updates the axes in cyclic order from
``start_axis``, 0 unless the caller says otherwise.  The selectors
warm-start each candidate of a coordinate scan from the fits before it
and start the sweep at the scanned axis, the one whose bandwidth moved
(see ``selectors._FitCache``): its curves are the ones the warm start
has wrong.  They also name the scanned axis (``scan``), which picks the
band sides of the solve's blocks (see the pair cache above).  The fixed
point and the stopping rule do not depend on the start axis, and a cold
start, as in ``backfit_ll`` and ``backfit_nw``, sweeps in the order
0 .. d - 1.

Solved backfits.  ``Workspace`` also keeps the selectors' solved
backfits, keyed by (tol, max_sweeps, bandwidth tuple), so that
the selectors of one simulation replicate share their solves; it is
read and filled only by ``selectors._FitCache``.

Ahead-of-time fills.  Before a coordinate scan ``Workspace.prepare``,
and before each solve its ``_fill``, builds the missing axes, then the
missing pairs, that the coming backfits read, and then folds their
coupling blocks.  It runs at every n, on the calling thread.  The axes
are built through ``Workspace.axis``, and the pairs through
``Workspace._pair_blocks`` as the folds read them, in sorted key order,
in which the pairs that share a layout of a partner follow each other: a
one-entry memo lays each partner out once for them.  The axis cache
holds the outcome of each axis build: its statistics, or the
SmoothfitError it raised, which is not tried again.  So the benchmark
tracer, which counts lookups at ``axis`` and ``_pair_blocks``, sees
every build, and reads the later lookups of an axis, built or failed, as
hits.  A bandwidth tuple gets pairs and folded blocks if and only if all
of its axes are built.

The folded blocks of a pair are the pair block scaled by the quadrature
weights, with each row multiplied through by its axis's moment inverse
(LL) or divided by its marginal density (NW), once per orientation: the
same arithmetic, element by element, as a fold of the whole operator,
so a solve reads bitwise the numbers it would fold itself.  They are
folded a few pairs at a time (``_FOLD_CHUNK``), and the store is
bounded: it holds only the blocks of the latest ``prepare`` that needed
a new one, that is one scan's candidates or one solve's tuple, reusing
blocks already held.  A block with an axis whose build failed is not
folded, and the solve that needs it raises that axis's error itself.

Not part of the public API.
"""

from __future__ import annotations

import numbers

import numpy as np

from .data import Dataset, Grid
from .errors import (
    EmptyNeighborhoodError,
    NonConvergenceError,
    NumericError,
    SingularMomentError,
    SmoothfitError,
)
from .kernels import BIWEIGHT, KernelSpec
from .density import _band_weights

DEFAULT_TOL = 1e-6
DEFAULT_MAX_SWEEPS = 200


def check_tolerance(name: str, value) -> None:
    """Reject a stopping tolerance that is not finite and positive."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_count(name: str, value) -> None:
    """Reject an iteration budget that is not an integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


# Ridge policy for local moment solves (the 2x2 local linear moments
# here, the 3x3 local quadratic ones in ``curvature``): flag a
# determinant as numerically singular relative to the squared diagonal,
# then bump the diagonal by a scale-proportional amount.
_SING_RTOL = 1e-12
_RIDGE_SCALE = 1e-9


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

# ``Workspace.prepare`` folds coupling blocks this many pairs at a time,
# each chunk into a fresh array.  Measured on one 51-pair m1 scan at
# n = 200 (best of 40): 1.9 ms in chunks of 8, 2.2 ms in chunks of 4 or
# 16 and 2.3 ms pair by pair; one stacked batch, whose temporaries are
# about 2 MB, took twice as long per pair as chunks of 8.
_FOLD_CHUNK = 8


def _built(build, *args):
    """``build(*args)``, or the SmoothfitError it raised.  The error is
    kept in the axis cache, so it is stripped of the frames (and
    arrays) of its traceback and context."""
    try:
        return build(*args)
    except SmoothfitError as err:
        err.__context__ = None
        return err.with_traceback(None)


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


def _band(points: np.ndarray, xs: np.ndarray, h: float):
    """The band of the sorted covariate ``xs`` at bandwidth ``h`` on the
    grid ``points``: ``width``, the most grid points within h of one
    observation, and the runs ``(first, start, stop)`` of observations
    with the same first grid point of their support, clamped to at most
    G - width.

    A slack far above rounding widens each support.  Observation i's
    support starts after the grid points u with u < xs[i] - reach, those
    with ``above[k] <= i``, and ends before those with xs[i] + reach < u,
    all but the ones with ``below[k] <= i``.  So the G grid points are
    searched among the n observations, and the counts are read at these
    boundaries alone: the first point changes only at an ``above``
    boundary, and the support's count rises only at a ``below`` one."""
    g, n = len(points), len(xs)
    reach = h + _SUPPORT_SLACK
    above = np.searchsorted(xs - reach, points, side="right")
    below = np.searchsorted(xs + reach, points)
    # Both boundaries are sorted, and a repeated one does no harm.
    rises = np.concatenate(([0], below[below < n]))
    counts = np.searchsorted(below, rises, side="right")
    width = int((counts - np.searchsorted(above, rises, side="right")).max())
    starts = np.concatenate(([0], above[above < n]))
    first = np.minimum(np.searchsorted(above, starts, side="right"), g - width)
    cut = np.flatnonzero(np.diff(first, prepend=-1))
    bounds = [*starts[cut].tolist(), n]
    return width, list(zip(first[cut].tolist(), bounds[:-1], bounds[1:]))


class _AxisStats:
    """Per-(axis, bandwidth) smoothing state, in banded storage.

    Columns run over the observations in ``order`` (the axis's sort
    order; None for input order), and ``runs`` lists each run of
    observations with the same first grid index as ``(first, start,
    stop)``: the ``width`` rows of columns ``start:stop`` of ``w``, the
    grid-normalized kernel weights, hold their weights at grid points
    ``first .. first + width - 1``.  ``x`` is the covariate in the same
    order, a view of the workspace's.
    A dense axis has width G, input order and one run.

    The build fails, with nothing kept, unless every grid point has a
    positive density ``p`` and, on a local linear workspace, a moment
    matrix that the ridge makes invertible; see ``_ridged_inverse``.  On
    a local linear workspace it also keeps the inverse entries ``inv =
    (i11, i12, i22)`` and the marginal local linear fit ``ll = (levels,
    slopes)``, arrays that callers must not modify; on a
    Nadaraya-Watson one, these and the slope sums are None.
    The slope weights ``w * (X - u)`` are not kept (``_slope_rows`` forms
    them), and ``b`` is an empty (0, n) array.
    """

    __slots__ = (
        "w", "b", "x", "width", "runs", "order", "rank",
        "p", "p1", "m11", "a0", "a1", "inv", "ll", "_rows",
    )

    def __init__(self, ws: "Workspace", j: int, h: float):
        g, n = ws.grid.size, ws.data.n
        slopes = ws.smoother == "ll"
        x, y = ws.data.x[:, j], ws.data.y
        self.order = self.rank = None
        self.runs = [(0, 0, n)]
        self.width = g
        # A band narrower than the grid has at least two runs.
        if n >= 2 * _BAND_RUN:
            xs = ws._sorted[j]
            width, runs = _band(ws.grid.points, xs, h)
            if 0 < width < g and n >= _BAND_RUN * (g - width + 1):
                self.order, self.rank = ws._order[j], ws._rank[j]
                self.width, self.runs = width, runs
                x, y = xs, y[self.order]
        self.x = x
        # Allocated ahead of the build's temporaries, so that freeing them
        # leaves no hole below the kept weights: with the temporaries
        # first, an n = 20000 selection peaked about 20 MB higher.
        self.w, self.b = np.empty((self.width, n)), np.empty((0, n))
        sums = np.zeros((3, g))

        def slope_sums(run, offset):
            # The slope weights w * (X - u) of one run, only for these
            # sums: the pair products form them again (``_slope_rows``).
            first, start, stop = run
            rows = slice(first, first + self.width)
            b = np.multiply(self.w[:, start:stop], offset)
            sums[0, rows] += b.sum(axis=1)
            sums[1, rows] += np.multiply(b, offset, out=offset).sum(axis=1)
            sums[2, rows] += b @ y[start:stop]

        try:
            _band_weights(
                ws.kernel, h, ws.grid, x, self.width, self.runs, self.rank, self.w,
                slope_sums if slopes else None,
            )
        except EmptyNeighborhoodError as err:
            raise EmptyNeighborhoodError(j, err.where, f"bandwidth {h:g}") from None
        self.p = self._total(g, self.w)
        empty = self.p <= 0.0
        if np.any(empty):
            where = float(ws.grid.points[int(np.argmax(empty))])
            raise EmptyNeighborhoodError(j, where, f"bandwidth {h:g}")
        self.a0 = self._total(g, self.w, y)
        self.p1 = self.m11 = self.a1 = self.inv = self.ll = self._rows = None
        if slopes:
            self.p1, self.m11, self.a1 = sums / n
            self.inv = i11, i12, i22 = _ridged_inverse(
                self.p, self.p1, self.m11, j, ws.grid.points
            )
            self.ll = (i11 * self.a0 + i12 * self.a1, i12 * self.a0 + i22 * self.a1)

    def _total(self, g: int, rows: np.ndarray, y=None) -> np.ndarray:
        """Per grid point, the sample mean of the banded ``rows`` (times
        ``y`` when given), as a length-G array: a sum over the runs, of
        which a dense axis has one."""
        out = np.zeros(g)
        for first, start, stop in self.runs:
            block = rows[:, start:stop]
            out[first : first + self.width] += (
                block.sum(axis=1) if y is None else block @ y[start:stop]
            )
        return out / rows.shape[1]

    def ll_rows(self, tau: np.ndarray):
        """The local linear solve's rows of this axis, each (level, slope)
        of length 2G: the marginal fit c, the moment inverse applied to
        the intercept's moments q, and the weights of the norming
        functional (``tau`` the quadrature weights)."""
        if self._rows is None:
            i11, i12, i22 = self.inv
            p, p1 = self.p, self.p1
            self._rows = (
                np.concatenate(self.ll),
                np.concatenate((i11 * p + i12 * p1, i12 * p + i22 * p1)),
                np.concatenate((tau * p, tau * p1)),
            )
        return self._rows


def _band_side(sa: _AxisStats, sb: _AxisStats, recent=None) -> bool:
    """Whether the second axis of a pair is its band side.  In a scan,
    ``recent`` says which of the two was scanned most recently (0 the
    first, 1 the second; see ``Workspace._pair_keys``), and a pair of two
    banded axes takes it as its band side.  Outside scans (``recent``
    None), and wherever an axis is dense, the band side is the wider
    band, ties going to the first axis: a dense axis is always the wider
    band."""
    if recent is not None and sa.order is not None and sb.order is not None:
        return recent == 1
    return sb.width > sa.width


def _slopes(w: np.ndarray, x: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The slope weights ``w * (x - u)``, written into ``out``: operand for
    operand the subtraction and product of the build."""
    np.subtract(x, u, out=out)
    return np.multiply(w, out, out=out)


def _slope_rows(st: _AxisStats, points: np.ndarray, run, out: np.ndarray) -> np.ndarray:
    """The slope weights of ``st`` on one run ``(first, start, stop)``,
    written into ``out`` of shape (width, stop - start)."""
    first, start, stop = run
    return _slopes(st.w[:, start:stop], st.x[start:stop], points[first : first + st.width, None], out)


def _lay_out(st: _AxisStats, order, points: np.ndarray, buf: np.ndarray, written):
    """The weights of ``st`` as one dense array, level rows over slope
    rows ((G, n) or (2G, n)), with columns in ``order``, the band side's
    (None for input order), and where in ``buf`` entries may now be
    nonzero: None for anywhere, or ``(base, width)``, the flat index in a
    (G, n) half of each column's first written row and the count of rows
    written from it.

    A dense Nadaraya-Watson axis in input order is returned as it is
    (``w``), and ``buf`` is left as it was.  Otherwise the weights are
    written into ``buf``, of exactly the layout's rows.  A dense axis is
    copied (gathered) into place.  A banded axis gathers its ``width``
    rows, its covariate and each observation's first grid index into
    ``order`` and scatters the rows into the zeroed layout in one call;
    ``buf`` is zero but where ``written`` says, the last layout's rows,
    and only those are reset.  The slope rows are formed from the
    gathered weights and covariate in one pass (``_slopes``), so every
    value is bitwise the one a layout of stored slope weights would hold.
    """
    slopes = st.inv is not None
    if st.order is None and order is None and not slopes:
        return st.w, written
    g = len(points)
    level, slope = buf[:g], buf[g : 2 * g]
    if st.order is None:
        x = st.x
        if order is None:
            level[...] = st.w
        else:
            np.take(st.w, order, axis=1, out=level)
            x = x[order]
        if slopes:
            _slopes(level, x, points[:, None], slope)
        return buf, None
    pos = st.rank if order is None else st.rank[order]
    n = len(pos)
    runs = np.array(st.runs)
    first = np.repeat(runs[:, 0], runs[:, 2] - runs[:, 1])[pos]
    halves = buf.reshape(len(buf) // g, g * n)
    if written is None:
        buf.fill(0.0)
    else:
        base, width = written
        last = base + np.arange(0, width * n, n)[:, None]
        for half in halves:
            # Per half: one fancy-index call over both halves took twice
            # as long at n = 100000.
            half[last] = 0.0
        del last
    rows = first + np.arange(st.width)[:, None]
    # Flat indices into a (G, n) half, so that each half takes one
    # scatter: over the layouts of an n = 20000 selection, a tenth faster
    # than ``np.put_along_axis`` on ``rows``.
    flat = rows * n
    flat += np.arange(n)
    w = np.take(st.w, pos, axis=1, mode="clip")
    halves[0][flat] = w
    if slopes:
        u = points[rows]
        halves[1][flat] = _slopes(w, st.x[pos], u, u)
    return buf, (flat[0].copy(), st.width)


def _pair_product(ws: "Workspace", band: _AxisStats, layout: np.ndarray) -> tuple:
    """The cached pair entry of the ordered axis pair (a, b): ``(s,)`` with
    ``s`` the sample average of outer products of their weights, rows on
    a's (level[, slope]) and columns on b's; G x G on a Nadaraya-Watson
    workspace, 2G x 2G on a local linear one.

    Per run of ``band``, the pair's band side a, small products against b
    laid out densely in a's order (``layout``, from ``_lay_out``).  The
    band side's slope rows of each run are formed into one reused scratch
    just before its products (``_slope_rows``).  A dense band side is one
    run over the whole grid, written in place.
    """
    g, k = ws.grid.size, band.width
    slopes = band.inv is not None
    out = np.zeros((len(layout), len(layout)))
    prod = out if k == g else np.empty(((2 if slopes else 1) * k, len(layout)))
    if slopes:
        scratch = np.empty((k, max(stop - start for _, start, stop in band.runs)))
    for run in band.runs:
        first, start, stop = run
        lay = layout[:, start:stop].T
        w = band.w[:, start:stop]
        # The level and slope products stay separate, for bitwise outputs:
        # merged into one product per run over the stacked rows, 140 of 140
        # random blocks differed in the last bits, which moves every
        # selection at rounding.
        np.matmul(w, lay[:, :g], out=prod[:k, :g])
        if slopes:
            np.matmul(w, lay[:, g:], out=prod[:k, g:])
            b = _slope_rows(band, ws.grid.points, run, scratch[:, : stop - start])
            np.matmul(b, lay, out=prod[k:])
        if prod is not out:
            out[first : first + k] += prod[:k]
            if slopes:
                out[g + first : g + first + k] += prod[k:]
    out /= ws.data.n
    return (out,)


class Workspace:
    """Caches per-dataset smoothing state across many bandwidths, for one
    smoother, "nw" or "ll"."""

    def __init__(self, data: Dataset, grid: Grid, kernel: KernelSpec, smoother: str):
        self.data = data
        self.grid = grid
        self.kernel = kernel
        self.smoother = smoother
        # The rows of an axis's state and of a coupling block: level, or
        # level over slope.
        self.r = (2 if smoother == "ll" else 1) * grid.size
        self.tau = grid.weights
        self.ybar = float(data.y.mean())
        # The outcome of each (axis, bandwidth) build: its _AxisStats, or
        # the SmoothfitError it raised.
        self._axes: dict = {}
        self._pairs: dict = {}
        # The pair window (see ``_tick``): the scan clock, the count of
        # coordinate scans with a key to solve, and per pair key the
        # clock of the last ``prepare`` that built or read its block.
        self._clock = 0
        self._seen: dict = {}
        # The layout memo of pair builds (see ``_partner``): ((band side's
        # axis, band dense), partner, layout, where in the buffer the
        # layout may have written nonzeros), and the buffer it lays out
        # into; ``prepare`` drops both when it returns.
        self._layout = self._layout_buf = None
        # The selectors' solved backfits (see ``selectors._FitCache``):
        # (tol, max_sweeps, bandwidth tuple) -> the levels, and the slopes
        # for local linear, or None where the solve failed.
        self._fits: dict = {}
        # The folded coupling blocks of the latest ``prepare`` that needed
        # one, keyed as ``_pairs``: (a, b, ha, hb) -> (rows on a, rows on
        # b), a the band side (see ``_pair_keys``).
        self._folded: dict = {}
        # Each axis's sort order, its inverse and its covariate in that
        # order, for banded axes.
        self._order = np.argsort(data.x, axis=0, kind="stable").T
        self._rank = np.empty_like(self._order)
        np.put_along_axis(self._rank, self._order, np.arange(data.n), axis=1)
        self._sorted = np.take_along_axis(data.x.T, self._order, axis=1)
        pos = data.x * (grid.size - 1)
        idx = np.clip(pos.astype(int), 0, grid.size - 2)
        self._idx = idx
        self._frac = pos - idx

    # -- cached primitives -------------------------------------------------

    def axis(self, j: int, h: float) -> _AxisStats:
        """The statistics of axis j at bandwidth h, built on first use.  A
        build that raised a SmoothfitError is kept as that error and not
        tried again: every later call raises it."""
        key = (j, float(h))
        st = self._axes.get(key)
        if st is None:
            st = self._axes[key] = _built(_AxisStats, self, *key)
        if isinstance(st, SmoothfitError):
            raise st.with_traceback(None)
        return st

    def prepare(self, keys, scan=None) -> None:
        """Build the missing axes and pairs that backfits at the bandwidth
        tuples ``keys`` read in a scan of axis ``scan`` (None outside
        scans; see ``_pair_keys``), then fold their coupling blocks.

        A call with a ``scan`` and a key to solve is one coordinate scan:
        before anything is built, it advances the scan clock and drops
        every pair block that no ``prepare`` built or read during the last
        d scans (``_tick``).  A scan whose keys are all solved reads no
        block, and it, the solvers' own fills (``_fill``) and calls
        outside scans leave the clock as it is.

        Everything is built on the calling thread: the missing axes
        through ``axis``, then the pairs through ``_pair_blocks`` as the
        folds read them, in sorted key order, so that the layout memo
        lays each partner out once per run of pairs that share it; the
        memo is dropped when this call returns.  Every entry holds the
        same numbers as when built on demand.  An axis whose build raises
        a SmoothfitError is not tried again (see ``axis``).  A key gets
        pairs and folded blocks if and only if all of its axes are built;
        the solve of a key with a failed axis raises that axis's error
        itself.

        The store of folded blocks is bounded: a call that needs a block
        it does not hold replaces it with exactly its own keys' blocks,
        reusing those already held; a call that needs none leaves it as
        it is.
        """
        if scan is not None and keys:
            self._tick()
        self._fill(keys, scan)

    def _tick(self) -> None:
        """Advance the scan clock, and drop the pair blocks that no
        ``prepare`` built or read during the last d scans: one outer
        iteration of a grid search, after which a scan of the same axis
        reads again the blocks of the partners that did not move."""
        self._clock += 1
        since = self._clock - self.data.d
        self._seen = {key: t for key, t in self._seen.items() if t >= since}
        for key in self._pairs.keys() - self._seen.keys():
            del self._pairs[key]

    def _fill(self, keys, scan=None) -> None:
        """``prepare`` without advancing the scan clock: what each solve
        runs on its own key."""
        d = self.data.d
        keys = [[float(v) for v in h] for h in keys]
        axes = {(j, h[j]) for h in keys for j in range(d)}
        for key in sorted(axes - self._axes.keys()):
            _built(self.axis, *key)
        if d < 2:
            return
        need = set()
        for h in keys:
            if all(isinstance(self._axes[j, h[j]], _AxisStats) for j in range(d)):
                need.update(self._pair_keys(h, scan))
        # Stamped whether built, read or held folded (see ``_tick``).
        self._seen.update(dict.fromkeys(need, self._clock))
        held = self._folded
        # In a scan, the pairs of two fixed axes first: one layout at most
        # each, made while the store holds the fewest new blocks.
        missing = sorted(need - held.keys(), key=lambda key: (scan in key[:2], key))
        if not missing:
            return
        # The held blocks that no key here reads are let go before the
        # folds, so that they and the new ones are never held together.
        self._folded = store = {key: held[key] for key in need.intersection(held)}
        del held
        for i in range(0, len(missing), _FOLD_CHUNK):
            store.update(self._fold(missing[i : i + _FOLD_CHUNK]))
        self._layout = self._layout_buf = None

    def _pair_keys(self, h, scan=None) -> list:
        """The keys (a, b, ha, hb) of the pair blocks, and of their folded
        blocks, that a solve at ``h`` (floats, every axis built) reads in a
        scan of axis ``scan`` (None outside scans), one per pair: a is the
        pair's band side (see ``_band_side``).

        In a scan, of two banded axes the band side is the one scanned
        most recently in the grid search's cyclic order 0, 1, ..., d - 1,
        ``scan`` itself being the most recent.  So each pair with the
        scanned axis lays its fixed partner out once for every candidate,
        and a pair of two fixed axes reads the block that the scan of its
        later axis built at their current bandwidths."""
        d = self.data.d
        axes = [self._axes[j, hj] for j, hj in enumerate(h)]
        keys = []
        for a in range(d):
            for b in range(a + 1, d):
                recent = None if scan is None else int((b - scan - 1) % d > (a - scan - 1) % d)
                if _band_side(axes[a], axes[b], recent):
                    keys.append((b, a, h[b], h[a]))
                else:
                    keys.append((a, b, h[a], h[b]))
        return keys

    def _fold(self, chunk) -> dict:
        """The folded blocks of the pairs ``chunk``, keys (a, b, ha, hb), in
        one fresh array: key -> (rows on a, rows on b)."""
        g, r = self.grid.size, self.r
        blocks = np.empty((2 * len(chunk), r, r))
        axes = []
        for i, (a, b, ha, hb) in enumerate(chunk):
            (blk,) = self._pair_blocks(a, b, ha, hb)
            blocks[2 * i] = blk
            blocks[2 * i + 1] = blk.T
            axes += [self._axes[a, ha], self._axes[b, hb]]
        blocks *= np.tile(self.tau, r // g)
        if self.smoother == "ll":
            # (level, slope) rows become (i11, i12; i12, i22) combinations.
            inv = np.array([st.inv for st in axes])
            halves = blocks.reshape(len(axes), 2, g, r)
            swapped = halves[:, ::-1] * inv[:, 1, None, :, None]
            halves *= inv[:, ::2, :, None]
            halves += swapped
        else:
            blocks /= np.array([st.p for st in axes])[:, :, None]
        return {key: (blocks[2 * i], blocks[2 * i + 1]) for i, key in enumerate(chunk)}

    def _pair_blocks(self, a: int, b: int, ha: float, hb: float):
        """Coupling products for the ordered axis pair (a, b), a != b, with
        a as the band side.

        Returns a one-element tuple: the sample average of outer products
        of the two axes' weights, ``w_a @ w_b.T / n`` (G x G) on a
        Nadaraya-Watson workspace and the stacked 2G x 2G block of (level,
        slope) halves on a local linear one, rows on a.  On a
        miss it is built here, on every path, from products per run of
        axis a against axis b laid out in a's order through the layout
        memo (``_partner``).  (b, a) holds its transpose to rounding,
        built on b's runs.
        """
        key = (a, b, float(ha), float(hb))
        blocks = self._pairs.get(key)
        if blocks is None:
            band = self.axis(a, ha)
            layout = self._partner(a, band, self.axis(b, hb))
            blocks = self._pairs[key] = _pair_product(self, band, layout)
        return blocks

    def _partner(self, j: int, band: _AxisStats, other: _AxisStats) -> np.ndarray:
        """``other`` laid out in the order of ``band``, its pair's band
        side on axis j: the memo's layout where the last pair laid out had
        its band side on axis j, as dense or banded, and the same partner
        entry; otherwise laid out anew into the memo's one buffer, of
        exactly a layout's ``r`` rows, which is reset where the last
        layout wrote (zeroed whole when new)."""
        shared = (j, band.order is None)
        memo = self._layout
        if memo is None or memo[0] != shared or memo[1] is not other:
            written = None if memo is None else memo[3]
            self._layout = None  # until the buffer holds the new layout
            if self._layout_buf is None:
                self._layout_buf = np.empty((self.r, self.data.n))
            layout, written = _lay_out(
                other, band.order, self.grid.points, self._layout_buf, written
            )
            memo = self._layout = (shared, other, layout, written)
        return memo[2]

    def operators(self, h, scan=None) -> np.ndarray:
        """The coupling operators of a solve at ``h`` in a scan of axis
        ``scan``, shape (d, r, d * r), copied from the folded blocks that
        ``_fill([h], scan)`` holds (see Solvers above)."""
        d, r = self.data.d, self.r
        ops = np.zeros((d, r, d, r))
        for key in self._pair_keys([float(v) for v in h], scan):
            a, b, _, _ = key
            ops[a, :, b], ops[b, :, a] = self._folded[key]
        return ops.reshape(d, r, d * r)

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


def workspace_for(
    data: Dataset,
    smoother: str,
    grid: Grid | None = None,
    kernel: KernelSpec | None = None,
    workspace: Workspace | None = None,
) -> Workspace:
    """The workspace that a ``smoother`` ("nw" or "ll") fit or selection
    on ``data`` runs on.

    Without ``workspace``, a new one on ``grid`` (default: the regular
    25-point grid) with ``kernel`` (default: biweight).  A given workspace
    is returned as it is, but only if it was built on ``data`` (the same
    object, or equal covariates and responses) and for ``smoother``, and
    ``grid`` and ``kernel`` are each None or equal to its own; otherwise
    this raises ValueError, so that a fit never mixes one sample's,
    grid's, kernel's or smoother's state with another's.
    """
    if workspace is None:
        return Workspace(
            data,
            Grid.regular() if grid is None else grid,
            BIWEIGHT if kernel is None else kernel,
            smoother,
        )
    ws = workspace
    if ws.data is not data and not (
        np.array_equal(ws.data.x, data.x) and np.array_equal(ws.data.y, data.y)
    ):
        raise ValueError("the workspace was built on other data")
    if grid is not None and grid is not ws.grid and not np.array_equal(
        grid.points, ws.grid.points
    ):
        raise ValueError(
            f"grid of {grid.size} points differs from the workspace's "
            f"{ws.grid.size}-point grid"
        )
    own_kernel(kernel, ws.kernel, "workspace")
    _own_smoother(ws, smoother)
    return ws


def _own_smoother(ws: Workspace, smoother: str) -> None:
    """Raise ValueError unless ``ws`` was built for ``smoother``."""
    if smoother != ws.smoother:
        raise ValueError(
            f"smoother {smoother!r} differs from the workspace's {ws.smoother!r}"
        )


def own_kernel(kernel: KernelSpec | None, own: KernelSpec, owner: str) -> KernelSpec:
    """``own``, the kernel of a workspace or fit (``owner``), once
    ``kernel`` is None or equal to it; otherwise this raises ValueError."""
    if kernel is not None and kernel != own:
        raise ValueError(f"kernel {kernel.name!r} differs from the {owner}'s {own.name!r}")
    return own


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
    scan=None,
):
    """Gauss-Seidel sweeps for the Nadaraya-Watson backfitting system,
    each in cyclic axis order from ``start_axis``, on the coupling blocks
    of a scan of axis ``scan`` (None outside scans; see ``_pair_keys``).

    Returns (components, sweeps, changes) with components already
    normalized to have zero density-weighted mean per axis; the
    intercept is the response mean throughout.  Raises ValueError on a
    local linear workspace.
    """
    _own_smoother(ws, "nw")
    d, g = ws.data.d, ws.grid.size
    ws._fill([h], scan)
    axes = [ws.axis(j, h[j]) for j in range(d)]
    base = np.array([ax.a0 / ax.p - ws.ybar for ax in axes])
    p = np.array([ax.p for ax in axes])
    ops = ws.operators(h, scan)
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
    scan=None,
):
    """Gauss-Seidel sweeps for the local linear backfitting system.

    Iterates the coupled (level, slope) updates, in cyclic axis order
    from ``start_axis``, with the intercept refreshed from the norming
    functional at the start of every sweep, on the coupling blocks of a
    scan of axis ``scan`` (None outside scans; see ``_pair_keys``).
    Returns (levels, slopes, sweeps, changes), normalized so that each
    component's norming functional vanishes and the intercept equals the
    response mean.  Raises ValueError on a Nadaraya-Watson workspace.
    """
    _own_smoother(ws, "ll")
    ws._fill([h], scan)
    d, g = ws.data.d, ws.grid.size
    rows = [ws.axis(j, h[j]).ll_rows(ws.tau) for j in range(d)]
    c, q, norm = (np.array(col) for col in zip(*rows))
    ops = ws.operators(h, scan)
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
