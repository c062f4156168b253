"""The Gauss-Seidel solvers against a per-block reference implementation.

The reference solvers below are the original sweep loops: every update
of axis j walks the other axes and applies their four (local linear) or
one (Nadaraya-Watson) G x G coupling blocks one at a time, with the
blocks computed directly from the cached kernel weights.  The solvers in
``smoothfit._engine`` instead apply one stacked per-axis operator per
update; both must take the same sweeps to the same curves.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothfit import (
    BIWEIGHT,
    BandwidthSearchSpec,
    Dataset,
    Grid,
    backfit_ll,
    backfit_nw,
    local_moments,
    marginal_nw,
    select_pls,
    weight_matrix,
)
from smoothfit import _engine
from smoothfit.errors import NonConvergenceError, NumericError

GRID = Grid.regular(25)


# -- reference implementation -----------------------------------------------


def _dense_halves(ws, j, h):
    """Axis j's dense (level, slope) weights, (G, n) each, in input order."""
    x = ws.data.x[:, j]
    w = weight_matrix(ws.kernel, h, ws.grid, x)
    return w, w * (x[None, :] - ws.grid.points[:, None])


def _ref_pair_blocks(ws, a, b, ha, hb):
    """(wawb, bawb, wabb, babb) for the ordered pair a < b."""
    (wa, ba), (wb, bb) = _dense_halves(ws, a, ha), _dense_halves(ws, b, hb)
    n = ws.data.n
    return (
        wa @ wb.T / n,
        ba @ wb.T / n,
        wa @ bb.T / n,
        ba @ bb.T / n,
    )


def _ref_nw_block(ws, src, dst, h_src, h_dst):
    if src < dst:
        return _ref_pair_blocks(ws, src, dst, h_src, h_dst)[0]
    return _ref_pair_blocks(ws, dst, src, h_dst, h_src)[0].T


def _ref_ll_blocks(ws, src, dst, h_src, h_dst):
    """(s11, s12, s21, s22) oriented src -> dst."""
    if src < dst:
        s11, s12, s21, s22 = _ref_pair_blocks(ws, src, dst, h_src, h_dst)
        return s11, s12, s21, s22
    s11, s12, s21, s22 = _ref_pair_blocks(ws, dst, src, h_dst, h_src)
    return s11.T, s21.T, s12.T, s22.T


def reference_nw_solve(ws, h, init=None, tol=1e-6, max_sweeps=200):
    d, g = ws.data.d, ws.grid.size
    axes = [ws.axis(j, h[j]) for j in range(d)]
    marg = [axes[j].a0 / axes[j].p for j in range(d)]
    m = np.zeros((d, g)) if init is None else np.array(init, dtype=float)
    m0 = ws.ybar
    tau = ws.tau
    changes = []
    converged = False
    for sweep in range(1, max_sweeps + 1):
        delta = 0.0
        for j in range(d):
            acc = np.zeros(g)
            for k in range(d):
                if k == j:
                    continue
                acc += (tau * m[k]) @ _ref_nw_block(ws, k, j, h[k], h[j])
            new = marg[j] - acc / axes[j].p - m0
            delta = max(delta, float(np.abs(new - m[j]).max()))
            m[j] = new
        changes.append(delta)
        if delta <= tol * max(1.0, float(np.abs(m).max())):
            converged = True
            break
    if not converged:
        raise NonConvergenceError(max_sweeps, changes[-1])
    for j in range(d):
        m[j] -= tau @ (axes[j].p * m[j])
    return m, len(changes), changes


def reference_ll_solve(ws, h, init=None, tol=1e-6, max_sweeps=200):
    d, g = ws.data.d, ws.grid.size
    axes = [ws.axis(j, h[j]) for j in range(d)]
    invs = [axes[j].inv for j in range(d)]
    if init is None:
        m = np.zeros((d, g))
        s = np.zeros((d, g))
    else:
        m = np.array(init[0], dtype=float)
        s = np.array(init[1], dtype=float)
    tau = ws.tau
    changes = []
    converged = False
    for sweep in range(1, max_sweeps + 1):
        m0 = ws.ybar
        for j in range(d):
            m0 -= tau @ (axes[j].p * m[j]) + tau @ (axes[j].p1 * s[j])
        delta = 0.0
        for j in range(d):
            ax = axes[j]
            c0 = np.zeros(g)
            c1 = np.zeros(g)
            for k in range(d):
                if k == j:
                    continue
                s11, s12, s21, s22 = _ref_ll_blocks(ws, k, j, h[k], h[j])
                tm, ts = tau * m[k], tau * s[k]
                c0 += tm @ s11 + ts @ s12
                c1 += tm @ s21 + ts @ s22
            r0 = ax.a0 - m0 * ax.p - c0
            r1 = ax.a1 - m0 * ax.p1 - c1
            i11, i12, i22 = invs[j]
            new_m = i11 * r0 + i12 * r1
            new_s = i12 * r0 + i22 * r1
            delta = max(
                delta,
                float(np.abs(new_m - m[j]).max()),
                float(np.abs(new_s - s[j]).max()),
            )
            m[j] = new_m
            s[j] = new_s
        changes.append(delta)
        scale = max(1.0, float(np.abs(m).max()), float(np.abs(s).max()))
        if delta <= tol * scale:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(max_sweeps, changes[-1])
    for j in range(d):
        c = tau @ (axes[j].p * m[j]) + tau @ (axes[j].p1 * s[j])
        m[j] -= c
    return m, s, len(changes), changes


# -- tests ------------------------------------------------------------------


def _dataset(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    y = rng.normal(0.0, 0.2, n)
    for j in range(d):
        y = y + np.sin((j + 2.0) * x[:, j])
    return Dataset(x=x, y=y)


@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 4),
    tol=st.sampled_from([1e-6, 1e-10]),
    data_h=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_solvers_match_reference(seed, d, tol, data_h):
    data = _dataset(seed, n=80, d=d)
    h = np.array([data_h.draw(st.floats(0.12, 0.8)) for _ in range(d)])

    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    ref_m, ref_s, ref_sweeps, _ = reference_ll_solve(ws, h, tol=tol)
    fit = backfit_ll(data, h, GRID, tol=tol, workspace=ws)
    assert fit.iterations == ref_sweeps
    np.testing.assert_allclose(fit.components, ref_m, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fit.slopes, ref_s, rtol=0, atol=1e-12)
    assert fit.intercept == data.y.mean()
    for j in range(d):
        mom = local_moments(data, j, h[j], GRID, BIWEIGHT)
        norming = GRID.integrate(mom.m00 * fit.components[j]) + GRID.integrate(
            mom.p1 * fit.slopes[j]
        )
        assert abs(norming) < 1e-8

    ws = _engine.Workspace(data, GRID, BIWEIGHT, "nw")
    ref_m, ref_sweeps, _ = reference_nw_solve(ws, h, tol=tol)
    fit = backfit_nw(data, h, GRID, tol=tol, workspace=ws)
    assert fit.iterations == ref_sweeps
    np.testing.assert_allclose(fit.components, ref_m, rtol=0, atol=1e-12)
    assert fit.intercept == data.y.mean()
    for j in range(d):
        p = ws.axis(j, h[j]).p
        assert abs(GRID.integrate(p * fit.components[j])) < 1e-8


def test_warm_start_matches_reference():
    data = _dataset(7, n=120, d=3)
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    m, s, _, _ = _engine.ll_solve(ws, [0.2, 0.25, 0.3])
    h = np.array([0.22, 0.25, 0.3])
    ref = reference_ll_solve(ws, h, init=(m, s))
    new = _engine.ll_solve(ws, h, init=(m, s))
    assert new[2] == ref[2]
    np.testing.assert_allclose(new[0], ref[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(new[1], ref[1], rtol=0, atol=1e-12)


def test_fortran_ordered_warm_start_matches_reference():
    # A warm start in any memory order must be iterated, not frozen.
    data = _dataset(9, n=120, d=3)
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "nw")
    warm = np.asfortranarray(_engine.nw_solve(ws, [0.2, 0.25, 0.3])[0])
    h = np.array([0.22, 0.25, 0.3])
    ref_m, ref_sweeps, _ = reference_nw_solve(ws, h, init=warm)
    fit = backfit_nw(data, h, GRID, init=warm, workspace=ws)
    assert fit.iterations == ref_sweeps
    np.testing.assert_allclose(fit.components, ref_m, rtol=0, atol=1e-12)
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    m, s, _, _ = _engine.ll_solve(ws, [0.2, 0.25, 0.3])
    init = (np.asfortranarray(m), np.asfortranarray(s))
    ref = reference_ll_solve(ws, h, init=init)
    new = _engine.ll_solve(ws, h, init=init)
    assert new[2] == ref[2]
    np.testing.assert_allclose(new[0], ref[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(new[1], ref[1], rtol=0, atol=1e-12)


def test_nan_init_raises_numeric_error():
    data = _dataset(3, n=60, d=2)
    bad = np.zeros((2, GRID.size))
    bad[1, 4] = np.nan
    with pytest.raises(NumericError):
        _engine.ll_solve(
            _engine.Workspace(data, GRID, BIWEIGHT, "ll"), [0.3, 0.3],
            init=(bad, np.zeros_like(bad)),
        )
    with pytest.raises(NumericError):
        _engine.nw_solve(_engine.Workspace(data, GRID, BIWEIGHT, "nw"), [0.3, 0.3], init=bad)


def test_level_only_workspace_yields_the_level_product():
    # A selection, a backfit and a marginal fit on Nadaraya-Watson
    # workspaces build no slope statistics and only G x G blocks; a local
    # linear workspace builds only stacked 2G x 2G blocks.
    data = _dataset(5, n=50, d=2)
    g = GRID.size
    spec = BandwidthSearchSpec(candidates=[0.3, 0.35, 0.4, 0.45, 0.5], h0=[0.3, 0.4])
    level_only = {"nw": [], "ll": []}

    class Recording(_engine._AxisStats):
        __slots__ = ()

        def __init__(self, ws, j, h):
            super().__init__(ws, j, h)
            no_slopes = self.inv is None and self.ll is None and self.p1 is None
            level_only[ws.smoother].append(no_slopes)

    with mock.patch.object(_engine, "_AxisStats", Recording):
        ws = _engine.Workspace(data, GRID, BIWEIGHT, "nw")
        (block,) = ws._pair_blocks(0, 1, 0.3, 0.4)
        assert block.shape == (g, g)
        _engine.nw_solve(ws, [0.3, 0.4])
        assert ws._pair_blocks(0, 1, 0.3, 0.4)[0] is block
        select_pls(data, "nw", spec, GRID, workspace=ws)
        backfit_nw(data, [0.5, 0.3], GRID, workspace=ws)
        marginal_nw(data, 1, 0.5, GRID)
        ll = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
        select_pls(data, "ll", spec, GRID, workspace=ll)
        (stacked,) = ll._pair_blocks(0, 1, 0.3, 0.4)
    sa = ws.axis(0, 0.3)
    ref = _ref_pair_blocks(ws, 0, 1, 0.3, 0.4)[0]
    np.testing.assert_allclose(block, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    assert all(st.inv is None for st in ws._axes.values())
    assert sa.ll is None
    assert level_only["nw"] and all(level_only["nw"])
    assert all(blk.shape == (g, g) for (blk,) in ws._pairs.values())
    assert level_only["ll"] and not any(level_only["ll"])
    assert all(blk.shape == (2 * g, 2 * g) for (blk,) in ll._pairs.values())
    wawb, bawb, wabb, babb = _ref_pair_blocks(ll, 0, 1, 0.3, 0.4)
    ref = np.block([[wawb, wabb], [bawb, babb]])
    np.testing.assert_allclose(stacked, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 4),
    warm=st.booleans(),
    data_h=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_every_start_axis_reaches_the_reference_fixed_point(seed, d, warm, data_h):
    # Selectors sweep from the scanned axis; the order changes the path,
    # not the fixed point.  A cold start from axis 0 is the default path.
    data = _dataset(seed, n=80, d=d)
    h = np.array([data_h.draw(st.floats(0.12, 0.8)) for _ in range(d)])
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    nw_ws = _engine.Workspace(data, GRID, BIWEIGHT, "nw")
    ref_m, ref_s, _, _ = reference_ll_solve(ws, h, tol=1e-13)
    ref_nw, _, _ = reference_nw_solve(nw_ws, h, tol=1e-13)
    ll_init = nw_init = None
    if warm:
        near = h * 1.1
        ll_init = _engine.ll_solve(ws, near)[:2]
        nw_init = _engine.nw_solve(nw_ws, near)[0]
    # Both stop where a sweep moves the state by less than tol on the
    # state's scale, so they agree to that scale.
    ll_atol = 1e-12 * max(1.0, np.abs(ref_m).max(), np.abs(ref_s).max())
    nw_atol = 1e-12 * max(1.0, np.abs(ref_nw).max())
    for start in range(d):
        m, s, _, _ = _engine.ll_solve(ws, h, ll_init, tol=1e-13, start_axis=start)
        np.testing.assert_allclose(m, ref_m, rtol=0, atol=ll_atol)
        np.testing.assert_allclose(s, ref_s, rtol=0, atol=ll_atol)
        m, _, _ = _engine.nw_solve(nw_ws, h, nw_init, tol=1e-13, start_axis=start)
        np.testing.assert_allclose(m, ref_nw, rtol=0, atol=nw_atol)
    cold = _engine.ll_solve(ws, h)
    assert cold[2] == reference_ll_solve(ws, h)[2]
    fit = backfit_ll(data, h, GRID, workspace=ws)
    assert fit.components.tobytes() == cold[0].tobytes()
    assert fit.sweep_changes == cold[3]


# -- folded coupling blocks -------------------------------------------------
#
# The solvers copy folded blocks that ``Workspace.prepare`` holds.  The
# reference below assembles the whole operator inside each solve instead:
# scatter the pair blocks, scale by the quadrature weights, then fold in
# the moment inverse (LL) or divide by the marginal density (NW).  Both
# must give the same numbers bit for bit.


def _assembled_coupling(ws, h, r, scan):
    d = ws.data.d
    out = np.zeros((d, r, d, r))
    # Each pair from the band side that a solve in this scan reads.
    for a, b, ha, hb in ws._pair_keys([float(v) for v in h], scan):
        (blk,) = ws._pair_blocks(a, b, ha, hb)
        out[a, :, b, :] = blk
        out[b, :, a, :] = blk.T
    out *= np.tile(ws.tau, (d, r // ws.grid.size))
    return out.reshape(d, r, d * r)


def assembled_nw_solve(ws, h, init=None, tol=1e-6, max_sweeps=200, start_axis=0, scan=None):
    d, g = ws.data.d, ws.grid.size
    axes = [ws.axis(j, h[j]) for j in range(d)]
    base = np.array([ax.a0 / ax.p for ax in axes]) - ws.ybar
    p = np.array([ax.p for ax in axes])
    ops = _assembled_coupling(ws, h, g, scan)
    ops /= p[:, :, None]
    m = np.zeros((d, g))
    if init is not None:
        m[:] = init
    changes = _engine._sweeps(m, ops, lambda: base, tol, max_sweeps, start_axis)
    m -= (m * (ws.tau * p)).sum(axis=1, keepdims=True)
    return m, len(changes), changes


def assembled_ll_solve(ws, h, init=None, tol=1e-6, max_sweeps=200, start_axis=0, scan=None):
    d, g = ws.data.d, ws.grid.size
    axes = [ws.axis(j, h[j]) for j in range(d)]
    inv = np.array([ax.inv for ax in axes])
    i11, i12, i22 = inv[:, 0], inv[:, 1], inv[:, 2]
    p = np.array([ax.p for ax in axes])
    p1 = np.array([ax.p1 for ax in axes])
    c = np.array([np.concatenate(ax.ll) for ax in axes])
    q = np.concatenate([i11 * p + i12 * p1, i12 * p + i22 * p1], axis=1)
    norm = np.concatenate([ws.tau * p, ws.tau * p1], axis=1)
    ops = _assembled_coupling(ws, h, 2 * g, scan)
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

    changes = _engine._sweeps(state, ops, rhs, tol, max_sweeps, start_axis)
    shift = (state * norm).sum(axis=1, keepdims=True)
    return state[:, :g] - shift, state[:, g:].copy(), len(changes), changes


def _bits(out):
    """A solve's output with every array as bytes, for exact comparison."""
    return [x.tobytes() if isinstance(x, np.ndarray) else x for x in out]


def _held_pairs(ws):
    return set(ws._folded)


def _pairs_of(keys, d):
    return {
        (a, b, float(h[a]), float(h[b]))
        for h in keys
        for a in range(d)
        for b in range(a + 1, d)
    }


@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 4),
    smoother=st.sampled_from(["ll", "nw"]),
    warm=st.booleans(),
    as_scan=st.booleans(),
    data_h=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_solves_on_folded_blocks_equal_whole_operator_assembly(
    seed, d, smoother, warm, as_scan, data_h
):
    data = _dataset(seed, n=80, d=d)
    h = [data_h.draw(st.floats(0.12, 0.8)) for _ in range(d)]
    j = data_h.draw(st.integers(0, d - 1))
    keys = [tuple(h[:j] + [c] + h[j + 1 :]) for c in (0.15, 0.2, 0.3, h[j])]
    solve = _engine.ll_solve if smoother == "ll" else _engine.nw_solve
    reference = assembled_ll_solve if smoother == "ll" else assembled_nw_solve
    ws = _engine.Workspace(data, GRID, BIWEIGHT, smoother)
    ref_ws = _engine.Workspace(data, GRID, BIWEIGHT, smoother)
    if as_scan:
        ws.prepare(keys)
        assert _held_pairs(ws) == _pairs_of(keys, d)
    for start in range(d):
        init = None
        for key in keys:
            got = solve(ws, key, init, start_axis=start)
            want = reference(ref_ws, key, init, start_axis=start)
            assert _bits(got) == _bits(want)
            if warm:
                init = want[:2] if smoother == "ll" else want[0]
    # A scan's solves read the scan's blocks; one at a time, each solve
    # holds its own.
    assert _held_pairs(ws) == _pairs_of(keys if as_scan else keys[-1:], d)


def test_store_holds_only_the_latest_preparing_call():
    data = _dataset(11, n=80, d=3)
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    scan = [(c, 0.3, 0.4) for c in (0.15, 0.2, 0.25)]
    ws.prepare(scan)
    assert _held_pairs(ws) == _pairs_of(scan, 3)
    held = dict(ws._folded)
    # Keys whose blocks are all held change nothing, and the blocks of a
    # later call that needs a new one are reused, not refolded.
    ws.prepare(scan[:2])
    _engine.ll_solve(ws, scan[1])
    assert ws._folded == held
    other = [(0.2, c, 0.4) for c in (0.3, 0.35)]
    ws.prepare(other)
    assert _held_pairs(ws) == _pairs_of(other, 3)
    for key, blocks in ws._folded.items():
        if key in held:
            assert blocks is held[key]


@pytest.mark.parametrize("smoother", ["ll", "nw"])
def test_candidate_with_a_failing_axis_is_flagged_as_with_assembly(smoother):
    # A bandwidth far below the grid spacing leaves observations with no
    # grid mass, so every candidate with 0.004 on an axis fails in its
    # axis build; its pairs are never built or folded.
    data = _dataset(5, n=300, d=2)
    spec = BandwidthSearchSpec(
        candidates=[0.004, 0.1, 0.15, 0.2, 0.3], h0=[0.1, 0.15]
    )

    def fields(sel):
        trace = [(t["h"].tobytes(), t["criterion"]) for t in sel.trace]
        return sel.bandwidths.tobytes(), sel.criterion, sel.flags, trace

    ws = _engine.Workspace(data, GRID, BIWEIGHT, smoother)
    got = fields(select_pls(data, smoother, spec, GRID, workspace=ws))
    assert not any(0.004 in key[2:] for key in ws._folded)
    with mock.patch.object(_engine, "ll_solve", assembled_ll_solve), \
            mock.patch.object(_engine, "nw_solve", assembled_nw_solve):
        want = fields(select_pls(data, smoother, spec, GRID))
    assert got == want
    assert len(got[2]) == 1 and got[2][0].endswith("candidate fits failed")
