"""Property-based checks of the solver invariants.

Random small datasets and bandwidth vectors inside the default search
range must always produce fits whose structural identities hold: the
intercept is the response mean, every component satisfies its norming
constraint, and the curves solve their own fixed-point equations to the
sweep tolerance (verified through the density-module path, which shares
no code with the solver's cached fast path).  Random residual criteria,
curvature matrices, weights and bandwidths check that the plug-in
selectors score the error expansion of ``aase_hat``, as a sum over the
observations, wherever they evaluate it, and that the pl_star step is
the closed-form optimum.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from smoothfit import (
    BIWEIGHT,
    BandwidthSearchSpec,
    Dataset,
    Grid,
    aase_hat,
    backfit_ll,
    backfit_nw,
    fixed_point_residual_ll,
    fixed_point_residual_nw,
    local_moments,
    marginal_density,
    select_pl,
    selectors,
)
from smoothfit._engine import Workspace
from smoothfit.criteria import _expansion, _mean_square, _optimal_bandwidth

GRID = Grid.regular(25)


def _dataset(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    y = rng.normal(0.0, 0.2, n)
    for j in range(d):
        y = y + np.sin((j + 2.0) * x[:, j])
    return Dataset(x=x, y=y)


@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 3),
    data_h=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_nw_backfit_invariants(seed, d, data_h):
    data = _dataset(seed, n=80, d=d)
    h = [data_h.draw(st.floats(0.12, 0.8)) for _ in range(d)]
    fit = backfit_nw(data, h, GRID, tol=1e-9)
    assert fit.intercept == data.y.mean()
    for j in range(d):
        dens = marginal_density(data, j, h[j], GRID, BIWEIGHT).values
        assert abs(GRID.integrate(dens * fit.components[j])) < 1e-8
    assert fixed_point_residual_nw(data, fit) < 1e-6


@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 3),
    data_h=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_ll_backfit_invariants(seed, d, data_h):
    data = _dataset(seed, n=80, d=d)
    h = [data_h.draw(st.floats(0.12, 0.8)) for _ in range(d)]
    fit = backfit_ll(data, h, GRID, tol=1e-9)
    assert fit.intercept == data.y.mean()
    for j in range(d):
        mom = local_moments(data, j, h[j], GRID, BIWEIGHT)
        norming = GRID.integrate(mom.m00 * fit.components[j]) + GRID.integrate(
            mom.p1 * fit.slopes[j]
        )
        assert abs(norming) < 1e-8
    assert fixed_point_residual_ll(data, fit) < 1e-6


def _expansion_by_observation(rss, curv, w, h, kernel):
    """The error expansion as a sum over the observations."""
    n = curv.shape[0]
    combined = curv @ (h * h)
    variance = rss * kernel.r_k * float(np.sum(1.0 / (n * h)))
    return variance + float(np.sum(w * combined * combined)) * kernel.mu2**2 / (4.0 * n)


@given(
    seed=st.integers(0, 10_000),
    d=st.integers(1, 4),
    mode=st.sampled_from(["full_grid", "coordinate"]),
)
@settings(max_examples=16, deadline=None)
def test_pl_searches_score_the_error_expansion(seed, d, mode):
    # select_pl runs on a fixed random curvature matrix; every surface it
    # scores, the product grid or one axis's candidates with the others
    # at the previous iterate, and the criterion it records, must equal
    # aase_hat and the per-observation formula at each point.
    rng = np.random.default_rng(seed)
    n = 60
    x = rng.uniform(0.0, 1.0, (n, d))
    data = Dataset(x=x, y=rng.uniform(0.1, 10.0) * (np.sin(3 * x).sum(axis=1)
                                                     + rng.normal(0.0, 0.3, n)))
    curv = rng.normal(0.0, rng.uniform(0.1, 20.0), (n, d))
    w = rng.uniform(0.0, 2.0, n)
    cands = np.sort(rng.uniform(0.12, 0.8, 5))
    spec = BandwidthSearchSpec(cands, rng.uniform(cands[0], cands[-1], d), max_outer=2)
    scored = []

    def recording(rss, q, h, n, kernel):
        out = _expansion(rss, q, h, n, kernel)
        scored.append((rss, h, out))
        return out

    with mock.patch.object(selectors, "_expansion", recording), \
            mock.patch.object(selectors, "_curvature_matrix", lambda *args: curv):
        sel = select_pl(data, spec, mode, GRID, weights=w)
    # The criterion recorded is the last surface's minimum, or for the
    # coordinate search, the expansion at the point it chose.
    assert scored and sel.criterion == np.min(scored[-1][2])
    for rss, h, out in scored:
        out = np.asarray(out)
        for flat in rng.choice(out.size, min(out.size, 6), replace=False):
            idx = np.unravel_index(flat, out.shape)
            point = np.array([np.broadcast_to(hj, out.shape)[idx] for hj in h])
            expected = aase_hat(data, rss, curv, point, BIWEIGHT, w).value
            assert abs(out[idx] - expected) <= 1e-12 * expected
            reference = _expansion_by_observation(rss, curv, w, point, BIWEIGHT)
            assert abs(out[idx] - reference) <= 1e-12 * reference


@given(seed=st.integers(0, 10_000), d=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_pl_star_step_is_the_optimal_bandwidth(seed, d):
    # The step clamps the closed-form optimum into the box, bitwise, and
    # the optimum is the formula as written out here.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    data = Dataset(x=rng.uniform(0.0, 1.0, (n, d)), y=np.zeros(n))
    spec = BandwidthSearchSpec(np.geomspace(0.05, 0.5, 5), np.full(d, 0.1))
    curv = rng.normal(0.0, rng.uniform(0.01, 50.0), (n, d))
    rss = float(rng.uniform(1e-4, 1.0))
    flags = []
    ws = Workspace(data, GRID, BIWEIGHT, "ll")
    h, crit = selectors._pl_star_step(ws, spec, None)(spec.h0, rss, curv, flags)
    assert crit == rss
    for j in range(d):
        q_jj = _mean_square(curv[:, j], np.ones(n), n)
        raw = _optimal_bandwidth(n, rss, q_jj, BIWEIGHT)
        written = (float(n) ** (-0.2) * (rss * BIWEIGHT.r_k) ** 0.2
                   * (q_jj * BIWEIGHT.mu2**2) ** (-0.2))
        assert raw == written
        assert h[j] == np.clip(raw, spec.b_lo, spec.b_hi)
