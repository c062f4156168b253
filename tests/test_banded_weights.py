"""Banded kernel weights against the dense definition.

A workspace keeps, per (axis, bandwidth), only the grid points each
observation's kernel support can reach, with the observations in the
axis's sort order.  These tests scatter the band back and compare it and
its statistics with ``weight_matrix``; check that a pair block depends on
its key and band side alone, not on who built it; and bound the memory
the caches keep.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothfit import (
    BIWEIGHT,
    EPANECHNIKOV,
    Dataset,
    Grid,
    SimConfig,
    backfit_nw,
    custom_kernel,
    generate,
    select_pls,
    weight_matrix,
)
from smoothfit import _engine
from smoothfit.errors import EmptyNeighborhoodError

GRID = Grid.regular(25)

# Nonzero up to and including |t| = 1, where the built-in kernels vanish.
UNIFORM = custom_kernel(lambda t: np.where(np.abs(t) <= 1.0, 0.5, 0.0), "uniform")


def _scattered(st, g):
    """The band of ``st`` back in dense (G, n) form and input order, and
    the mask of the entries it stores."""
    n = st.w.shape[1]
    dense, inside = np.zeros((g, n)), np.zeros((g, n), dtype=bool)
    for first, start, stop in st.runs:
        dense[first : first + st.width, start:stop] = st.w[:, start:stop]
        inside[first : first + st.width, start:stop] = True
    if st.order is not None:
        dense[:, st.order], inside[:, st.order] = dense.copy(), inside.copy()
    return dense, inside


def _close(got, want, rtol):
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.abs(want).max())


@st.composite
def _samples(draw):
    n = draw(st.integers(5, 400))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, 2))
    # Ties, exact grid points, and both ends of the unit interval.
    special = rng.choice([0.0, 1.0, 0.5, 1.0 / 24.0, 0.3], size=n // 3)
    x[: n // 3, 0] = special
    x[n // 3 : n // 2, 0] = np.round(x[n // 3 : n // 2, 0] * 48) / 48
    return Dataset(x=x, y=rng.normal(0.0, 1.0, n))


@given(
    data=_samples(),
    h=st.one_of(st.floats(0.004, 1.0), st.sampled_from([1 / 48, 1 / 24, 2 / 24, 0.5])),
    kernel=st.sampled_from([BIWEIGHT, EPANECHNIKOV, UNIFORM]),
    grid=st.sampled_from([GRID, Grid.regular(9)]),
)
@settings(max_examples=120, deadline=None)
def test_band_matches_the_dense_weights(data, h, kernel, grid):
    # Band every axis narrower than the grid, whatever n.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_BAND_RUN", 0)
        _check_band(data, h, kernel, grid)


def _check_band(data, h, kernel, grid):
    g, n = grid.size, data.n
    x = data.x[:, 0]
    try:
        w = weight_matrix(kernel, h, grid, x)
    except EmptyNeighborhoodError as dense_err:
        ws = _engine.Workspace(data, grid, kernel, "ll")
        with pytest.raises(EmptyNeighborhoodError) as band_err:
            ws.axis(0, h)
        assert band_err.value.axis == 0
        assert band_err.value.where == dense_err.where
        return
    ws = _engine.Workspace(data, grid, kernel, "ll")
    # A grid point with no observation within h fails the build there.
    uncovered = np.flatnonzero(w.sum(axis=1) <= 0.0)
    if uncovered.size:
        with pytest.raises(EmptyNeighborhoodError) as band_err:
            ws.axis(0, h)
        assert band_err.value.axis == 0
        assert band_err.value.where == grid.points[uncovered[0]]
        return
    ax = ws.axis(0, h)
    assert ax.width <= g and ax.w.shape == (ax.width, n) and ax.b.shape == (0, n)
    assert (ax.order is None) == (ax.width == g)
    dense, inside = _scattered(ax, g)
    assert not np.any(w[~inside])
    np.testing.assert_allclose(dense, w, rtol=1e-14, atol=0)
    offset = x[None, :] - grid.points[:, None]
    _close(ax.p, w.mean(axis=1), 1e-13)
    _close(ax.a0, w @ data.y / n, 1e-13)
    _close(ax.p1, (w * offset).mean(axis=1), 1e-13)
    _close(ax.m11, (w * offset * offset).mean(axis=1), 1e-13)
    _close(ax.a1, (w * offset) @ data.y / n, 1e-13)


def _banded_sample(monkeypatch):
    """An n = 600 m1 sample with the band rule lowered, so that banded
    axes, shared layouts and both band sides take part, and its search
    spec: candidates 0-20 are banded on every axis, 21-24 dense."""
    monkeypatch.setattr(_engine, "_BAND_RUN", 10)
    cfg = SimConfig(model="m1", n=600, rho=0.5, seed=8)
    data, _ = generate(cfg, 0)
    return data, cfg.search_spec()


def _workspace(data, slopes):
    return _engine.Workspace(data, GRID, BIWEIGHT, "ll" if slopes else "nw")


def _scan_keys(h, j, cands):
    return [h[:j] + (c,) + h[j + 1 :] for c in cands]


@pytest.mark.parametrize("slopes", [False, True])
def test_pair_block_depends_on_its_key_and_band_side(slopes, monkeypatch):
    data, spec = _banded_sample(monkeypatch)
    solve = _engine.ll_solve if slopes else _engine.nw_solve
    cands = [float(c) for c in spec.candidates]
    h = tuple(cands[i] for i in (3, 9, 6))

    def scan(j):
        def build():
            ws = _workspace(data, slopes)
            ws.prepare(_scan_keys(h, j, cands), scan=j)
            return ws
        return build

    def solves():
        ws = _workspace(data, slopes)
        solve(ws, h)
        for j in range(3):
            solve(ws, h, scan=j)
        return ws

    def history():
        # Scans and solves in another order on one workspace.
        ws = _workspace(data, slopes)
        for j in (2, 1, 0):
            ws.prepare(_scan_keys(h, j, cands[::3]), scan=j)
        solve(ws, h)
        return ws

    sources = {
        "on demand": lambda: _workspace(data, slopes),
        "solves": solves,
        "scan of 0": scan(0),
        "scan of 1": scan(1),
        "history": history,
    }
    # Every (key, band side) of the pair scanned either way, band side
    # first, and of the other pairs at h.
    keys = [(0, 1, c, h[1]) for c in cands] + [(0, 1, h[0], c) for c in cands]
    keys += [(0, 2, h[0], h[2]), (1, 2, h[1], h[2])]
    keys += [(b, a, hb, ha) for a, b, ha, hb in keys]
    built, by = {}, {}
    for name, source in sources.items():
        ws = source()
        by[name] = set(ws._pairs)
        built[name] = [ws._pair_blocks(*key)[0].tobytes() for key in keys]
    assert all(blocks == built["on demand"] for blocks in built.values())
    # Each source built some of these blocks itself, and the scans built
    # the scanned axis's side, banded and dense.
    for name in sources:
        assert name == "on demand" or by[name] & set(keys), name
    probe = _workspace(data, slopes)
    for j, name in enumerate(["scan of 0", "scan of 1"]):
        sides = {key[0] for key in by[name] if j in key[:2]}
        assert sides == {j}
        dense = {probe.axis(j, key[2]).order is None for key in by[name] if key[0] == j}
        assert dense == {True, False}


@pytest.mark.parametrize("slopes", [False, True])
def test_the_two_band_sides_of_a_key_agree_to_rounding(slopes, monkeypatch):
    data, spec = _banded_sample(monkeypatch)
    ws = _workspace(data, slopes)
    cands = [float(c) for c in spec.candidates]
    sides = set()
    for ha in cands[::4]:
        for hb in cands[1::4]:
            one = ws._pair_blocks(0, 1, ha, hb)[0]
            other = ws._pair_blocks(1, 0, hb, ha)[0]
            _close(one, other.T, 1e-14)
            sides.add((ws.axis(0, ha).order is None, ws.axis(1, hb).order is None))
    # Banded and dense axes on either side.
    assert sides == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("slopes", [False, True])
def test_a_scan_lays_each_partner_out_once_per_group(slopes, monkeypatch):
    # In a scan, the scanned axis is the band side of each of its pairs,
    # banded or dense, so each fixed partner is laid out once per group
    # of candidates, banded or dense; pairs whose band sides are on one
    # axis, alike dense or banded, and whose partner is one entry share a
    # layout, and the scan's pairs are built in sorted key order.
    data, spec = _banded_sample(monkeypatch)
    cands = [float(c) for c in spec.candidates]
    h = tuple(cands[i] for i in (3, 9, 6))
    laid = []
    lay_out = _engine._lay_out

    def counting(*args):
        laid.append(args[0])
        return lay_out(*args)

    monkeypatch.setattr(_engine, "_lay_out", counting)
    for j in range(3):
        laid.clear()
        ws = _workspace(data, slopes)
        ws.prepare(_scan_keys(h, j, cands), scan=j)
        groups = {
            (a, ws.axis(a, ha).order is None, id(ws.axis(b, hb))) for a, b, ha, hb in ws._pairs
        }
        assert len(laid) == len(groups) < len(ws._pairs)
        # One layout per fixed partner for the banded candidates, one for
        # the dense ones, and one for the pair of fixed axes, on the side
        # of the one scanned last before j.
        k, l = sorted((k for k in range(3) if k != j), key=lambda k: (k - j - 1) % 3)
        fixed = {k: id(ws.axis(k, h[k])) for k in (k, l)}
        want = {(j, dense, fixed[k]) for k in fixed for dense in (False, True)}
        assert groups == want | {(l, False, fixed[k])}
        assert len(laid) == 5
        assert ws._layout is None and ws._layout_buf is None


def test_nadaraya_watson_does_not_depend_on_the_workspace_history():
    data, _ = generate(SimConfig(model="m1", n=200, rho=0.5, seed=17), 0)
    tuples = [(0.1, 0.2, 0.3), (0.25, 0.08, 0.15), (0.4, 0.4, 0.12)]
    served = _engine.Workspace(data, GRID, BIWEIGHT, "nw")
    for h in tuples:
        backfit_nw(data, h[::-1], GRID, workspace=served)
    for h in tuples:
        fresh = backfit_nw(data, h, GRID)
        again = backfit_nw(data, h, GRID, workspace=served)
        assert again.components.tobytes() == fresh.components.tobytes()
        assert again.iterations == fresh.iterations


def test_a_large_local_linear_selection_keeps_banded_weights_only():
    cfg = SimConfig(model="m1", n=5000, rho=0.5, seed=4)
    data, _ = generate(cfg, 0)
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    select_pls(data, "ll", cfg.search_spec(), GRID, workspace=ws)
    g, n = GRID.size, data.n
    assert ws._axes
    for st in ws._axes.values():
        assert st.inv is not None and st.w.size < g * n and st.b.size == 0
    kept = sum(st.w.nbytes for st in ws._axes.values())
    assert kept <= len(ws._axes) * g * n * 8 / 2


# The slope weights an entry does not keep, and the pair product and
# layout over them stored, as references for the ones formed on demand.


def _stored_slopes(st, points):
    """``w`` over ``b = w * (X - u)`` per run, in the entry's order."""
    b = np.empty_like(st.w)
    for first, start, stop in st.runs:
        b[:, start:stop] = st.w[:, start:stop] * (
            st.x[start:stop] - points[first : first + st.width, None]
        )
    return np.vstack([st.w, b])


def _stored_layout(st, wb, order, g):
    k, n = st.width, wb.shape[1]
    pos = order if st.order is None else st.rank if order is None else st.rank[order]
    # Row-major, as the engine's layout buffer: the products' BLAS calls
    # depend on the memory order.
    out = np.empty((2 * g, n))
    for i, half in enumerate((wb[:k], wb[k:])):
        if st.order is not None:
            dense = np.zeros((g, n))
            for first, start, stop in st.runs:
                dense[first : first + k, start:stop] = half[:, start:stop]
            half = dense
        out[i * g : (i + 1) * g] = half if pos is None else half[:, pos]
    return out


def _stored_product(band, wb, layout, g, n):
    k = band.width
    out = np.zeros((2 * g, 2 * g))
    prod = out if k == g else np.empty((2 * k, 2 * g))
    for first, start, stop in band.runs:
        lay = layout[:, start:stop].T
        w = wb[:k, start:stop]
        np.matmul(w, lay[:, :g], out=prod[:k, :g])
        np.matmul(w, lay[:, g:], out=prod[:k, g:])
        np.matmul(wb[k:, start:stop], lay, out=prod[k:])
        if prod is not out:
            out[first : first + k] += prod[:k]
            out[g + first : g + first + k] += prod[k:]
    return out / n


@pytest.mark.parametrize("kernel", [BIWEIGHT, EPANECHNIKOV], ids=lambda k: k.name)
@pytest.mark.parametrize("n", [200, 3000])
def test_slope_weights_formed_on_demand_match_stored_ones(n, kernel):
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 1.0, (n, 2))
    data = Dataset(x=x, y=np.sin(4 * x[:, 0]) + x[:, 1] + rng.normal(0.0, 0.1, n))
    ws = _engine.Workspace(data, GRID, kernel, "ll")
    g, points = GRID.size, GRID.points
    hs = (0.08, 0.25, 0.4)
    buf = np.empty((2 * g, n))
    seen = set()
    for ha in hs:
        for hb in hs:
            sa, sb = ws.axis(0, ha), ws.axis(1, hb)
            flip = _engine._band_side(sa, sb)
            band, other = (sb, sa) if flip else (sa, sb)
            seen.add((band.order is None, other.order is None, flip))
            want = _stored_layout(other, _stored_slopes(other, points), band.order, g)
            got, _ = _engine._lay_out(other, band.order, points, buf, None)
            assert got.tobytes() == want.tobytes()
            block = _stored_product(band, _stored_slopes(band, points), want, g, n)
            # The block is keyed by its band side, named first.
            key = (1, 0, hb, ha) if flip else (0, 1, ha, hb)
            assert ws._pair_blocks(*key)[0].tobytes() == block.tobytes()
    # A dense axis is the wider band, so it is never the partner of a
    # banded band side.
    assert not any(not band_dense and other_dense for band_dense, other_dense, _ in seen)
    if n == 200:
        assert seen == {(True, True, False)}
    else:
        # Banded and dense band sides, either side of the pair.
        assert {(True, False, False), (True, False, True), (False, False, False),
                (False, False, True), (True, True, False)} <= seen


@pytest.mark.parametrize("n", [400, 1000, 5000, 20000])
def test_the_band_layout_equals_the_per_observation_search(n):
    # The build searches the G grid points among the sorted observations;
    # its width and runs must be those of searching each observation's
    # support among the grid points.  Besides uniform draws, observations
    # sit at the grid points plus or minus h and plus or minus h with the
    # slack, where most searches meet a tie; on the samples of the latter
    # alone, one side each, the observations that meet a tie are the
    # widest.
    rng = np.random.default_rng(n)
    g, points = GRID.size, GRID.points
    # Some of them whole multiples of the grid step.
    hs = (0.01, 0.02, 1 / 24, 0.06, 0.125, 0.13, 0.25, 0.3, 0.5, 0.9)

    def at(steps, size):
        edges = np.concatenate([points + step for step in steps])
        edges = edges[(edges >= 0.0) & (edges <= 1.0)]
        return rng.choice(edges, size, replace=len(edges) < size)

    x = rng.uniform(0.0, 1.0, (n, 2))
    steps = [s * h for h in hs for s in (1.0, -1.0)]
    steps += [s * (h + _engine._SUPPORT_SLACK) for h in hs for s in (1.0, -1.0)]
    x[: n // 2, 1] = at(steps, n // 2)
    samples = [(xs, hs) for xs in x.T]
    samples += [(at([side * (h + _engine._SUPPORT_SLACK)], n), [h])
                for h in hs for side in (1.0, -1.0)]
    for xs, widths in samples:
        xs = np.sort(xs)
        for h in widths:
            reach = h + _engine._SUPPORT_SLACK
            lo = np.searchsorted(points, xs - reach)
            width = int((np.searchsorted(points, xs + reach, side="right") - lo).max())
            first = np.minimum(lo, g - width)
            cut = (np.flatnonzero(np.diff(first)) + 1).tolist()
            runs = list(zip(first[[0, *cut]].tolist(), [0, *cut], [*cut, n]))
            assert _engine._band(points, xs, h) == (width, runs)


def _clamped(st, h, points):
    """How many observations of the banded ``st`` have their first grid
    point clamped down to G - width."""
    lo = np.searchsorted(points, st.x - h - _engine._SUPPORT_SLACK)
    return int(np.count_nonzero(lo > len(points) - st.width))


@pytest.mark.parametrize("slopes", [False, True], ids=["level", "slopes"])
@pytest.mark.parametrize("kernel", [BIWEIGHT, EPANECHNIKOV], ids=lambda k: k.name)
def test_one_pass_layouts_match_the_stored_ones(kernel, slopes):
    # n = 3000: h = 0.08 keeps the whole grid (its runs would be short),
    # h = 0.25 and 0.4 are banded.
    n = 3000
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, (n, 2))
    data = Dataset(x=x, y=np.cos(3 * x[:, 1]) + rng.normal(0.0, 0.1, n))
    ws = _engine.Workspace(data, GRID, kernel, "ll" if slopes else "nw")
    g, points = GRID.size, GRID.points
    rows = (2 if slopes else 1) * g
    dense = [ws.axis(j, 0.08) for j in (0, 1)]
    banded = {(j, h): ws.axis(j, h) for j in (0, 1) for h in (0.25, 0.4)}
    assert all(st.order is None for st in dense)
    for (j, h), st in banded.items():
        assert st.order is not None and _clamped(st, h, points) > 0
    cases = [(st, dense[1 - j].order) for (j, _), st in banded.items()]
    cases += [(st, ws.axis(1 - j, 0.4).order) for (j, _), st in banded.items()]
    cases += [(dense[0], dense[1].order)]
    for st, order in cases:
        want = _stored_layout(st, _stored_slopes(st, points), order, g)[:rows]
        got, _ = _engine._lay_out(st, order, points, np.empty((rows, n)), None)
        assert got.shape == (rows, n) and got.tobytes() == want.tobytes()
    # Through the pair path, the memo's buffer holds the layout's rows and
    # no more.
    assert ws._layout_buf is None
    ws._pair_blocks(1, 0, 0.4, 0.25)
    band, other = banded[1, 0.4], banded[0, 0.25]
    want = _stored_layout(other, _stored_slopes(other, points), band.order, g)[:rows]
    assert ws._layout_buf.shape == (rows, n)
    assert ws._layout[2].tobytes() == want.tobytes()


@pytest.mark.parametrize("slopes", [False, True], ids=["level", "slopes"])
def test_a_layout_resets_only_what_the_last_one_wrote(slopes, monkeypatch):
    # One band side, partners wide, narrow, dense (gathered into the
    # band's order, which writes the whole buffer) and narrow again:
    # each layout in the memo's reused buffer is the stored one, bit for
    # bit, though only a dense one before it makes the buffer refilled.
    data, _ = _banded_sample(monkeypatch)
    ws = _workspace(data, slopes)
    g, n, points = GRID.size, data.n, GRID.points
    rows = (2 if slopes else 1) * g
    band = ws.axis(0, 0.1)
    for h in (0.4, 0.08, 0.6, 0.09, 0.3):
        ws._pair_blocks(0, 1, 0.1, h)
        other = ws.axis(1, h)
        want = _stored_layout(other, _stored_slopes(other, points), band.order, g)[:rows]
        _, partner, layout, written = ws._layout
        assert partner is other and layout.tobytes() == want.tobytes()
        if other.order is None:
            assert written is None
        else:
            base, width = written
            assert base.shape == (n,) and width == other.width


def test_a_local_linear_scan_keeps_only_the_level_weights():
    cfg = SimConfig(model="m1", n=5000, rho=0.5, seed=4)
    data, _ = generate(cfg, 0)
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    h = (0.1, 0.1, 0.1)
    ws.prepare([(c, *h[1:]) for c in cfg.search_spec().candidates])
    assert len(ws._axes) == 27
    # Each entry keeps its level weights at its band's width and no slope
    # weights: half the bytes of the two stored together.
    for st in ws._axes.values():
        assert st.inv is not None and st.b.shape == (0, data.n)
        assert st.w.nbytes == st.width * data.n * 8
