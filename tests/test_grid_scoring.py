"""Grid-space scoring of grid-search candidates.

Every grid-search criterion scores a candidate's level curves through a
quadratic form built once per search, not through a sum over the data.
The scorer must equal the direct sum at the data, and the selections
must be the ones the direct criteria make.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothfit import (
    BIWEIGHT,
    Dataset,
    Grid,
    TrimSpec,
    oracle_ase_bandwidth,
    pls,
    select_pls,
    select_single,
)
from smoothfit._engine import Workspace
from smoothfit.criteria import _criterion_weights
from smoothfit.selectors import (
    _FitCache,
    _grid_search,
    _GridScorer,
    _MarginalFit,
    _mean_square,
)
from smoothfit.simulate import SimConfig, _select_ase1, generate


def _direct(ws, target, weights, intercept, axes, levels):
    fitted = np.full(ws.data.n, intercept)
    for j in axes:
        fitted += ws.component_at_data(j, levels[j])
    return _mean_square(target - fitted, weights, ws.data.n)


@st.composite
def _scoring_case(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(5, 400))
    g = draw(st.sampled_from([5, 9, 25]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    # Ties, observations on grid points, and the interval ends.
    if draw(st.booleans()):
        x[: n // 3] = x[n // 3 : 2 * (n // 3)]
    if draw(st.booleans()):
        x[::4] = rng.integers(0, g, x[::4].shape) / (g - 1)
    x[0, :] = 0.0
    x[-1, :] = 1.0
    # Level curves that a target is built from, plus noise of any size
    # (down to none), scored at the same curves or perturbed ones.
    true_levels = rng.normal(size=(d, g))
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 1.0]))
    perturb = draw(st.sampled_from([0.0, 1e-6, 0.01, 1.0]))
    weights = draw(st.sampled_from(["none", "vector", "trim"]))
    target_kind = draw(st.sampled_from(["y", "truth"]))
    intercept_kind = draw(st.sampled_from(["ybar", "zero"]))
    single = draw(st.booleans())
    return dict(x=x, g=g, rng=rng, true_levels=true_levels, noise=noise,
                perturb=perturb, weights=weights, target_kind=target_kind,
                intercept_kind=intercept_kind, single=single)


@settings(max_examples=150, deadline=None)
@given(case=_scoring_case())
def test_scorer_equals_the_direct_sum(case):
    x, g, rng = case["x"], case["g"], case["rng"]
    n, d = x.shape
    grid = Grid.regular(g)
    axes = [int(rng.integers(d))] if case["single"] else list(range(d))
    offset = 0.7
    truth = np.full(n, offset)
    probe = Workspace(Dataset(x=x, y=np.zeros(n)), grid, BIWEIGHT, "ll")
    for j in axes:
        truth += probe.component_at_data(j, case["true_levels"][j])
    y = truth + case["noise"] * rng.normal(size=n)
    ws = Workspace(Dataset(x=x, y=y), grid, BIWEIGHT, "ll")
    target = y if case["target_kind"] == "y" else truth
    intercept = ws.ybar if case["intercept_kind"] == "ybar" else 0.0
    if case["weights"] == "none":
        weights = None
    elif case["weights"] == "vector":
        weights = rng.uniform(0.0, 2.0, n)
    else:
        weights = _criterion_weights(None, TrimSpec.from_margin(d, 0.2), x)
    scorer = _GridScorer(ws, target, weights, intercept, axes)
    levels = case["true_levels"] + case["perturb"] * rng.normal(size=(d, g))
    levels[axes[0]] += offset - intercept
    # The scorer must leave the caller's levels alone.
    before = levels.copy()
    value = scorer(levels)
    np.testing.assert_array_equal(levels, before)
    direct = _direct(ws, target, weights, intercept, axes, levels)
    assert value >= 0.0
    assert abs(value - direct) <= 1e-10 * direct


def test_noiseless_fit_scores_by_the_direct_sum(grid25):
    # Where the form cancels below its guard the scorer returns the
    # direct sum itself, bitwise.
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, (300, 2))
    levels = np.stack([grid25.points, -0.5 * grid25.points**2])
    probe = Workspace(Dataset(x=x, y=np.zeros(300)), grid25, BIWEIGHT, "ll")
    y = 1.0 + probe.component_at_data(0, levels[0]) + probe.component_at_data(1, levels[1])
    ws = Workspace(Dataset(x=x, y=y), grid25, BIWEIGHT, "ll")
    levels[0] += 1.0 - ws.ybar
    scorer = _GridScorer(ws, y, None, ws.ybar, [0, 1])
    value = scorer(levels)
    assert value == _direct(ws, y, None, ws.ybar, [0, 1], levels)
    assert 0.0 <= value < 1e-28


@pytest.mark.parametrize("smoother", ["ll", "nw"])
def test_noisy_selection_never_reads_the_data(grid25, smoother, monkeypatch):
    # Residual criteria sit at the noise level, far above the guard, so
    # no candidate of a pls search is interpolated back to the data.
    cfg = SimConfig(model="m1", n=200, seed=8)
    data, _ = generate(cfg, 0)

    def fail(*args, **kwargs):
        raise AssertionError("a candidate was scored at the data")

    monkeypatch.setattr(Workspace, "fitted_at_data", fail)
    monkeypatch.setattr(Workspace, "component_at_data", fail)
    sel = select_pls(data, smoother, cfg.search_spec(), grid25)
    assert sel.converged


# ---------------------------------------------------------------------------
# the direct criteria as they were before grid-space scoring: the fits
# gave the fitted values at the data along with the levels


def _ref_pls_criterion(data, mw, k0):
    """Penalized residual criterion of a fit, residuals weighted by ``mw``."""

    def criterion(key, fitted, levels):
        return pls(_mean_square(data.y - fitted, mw, data.n), key, k0, data.n).value

    return criterion


def _ref_ase_criterion(ws, target, mw, component=None):
    """True average squared error of the fitted surface against
    ``target``, or with ``component`` of that level curve alone."""

    def criterion(key, fitted, levels):
        if component is not None:
            fitted = ws.component_at_data(component, levels[component])
        return _mean_square(fitted - target, mw, ws.data.n)

    return criterion


def _at_data(criterion, fits):
    """A direct criterion run on the levels-only fit interface."""
    return lambda key, levels: criterion(
        key, fits.ws.fitted_at_data(fits.intercept, levels), levels
    )


def _same_selection(new, ref):
    np.testing.assert_array_equal(new.bandwidths, ref.bandwidths)
    assert new.outer_iterations == ref.outer_iterations
    assert new.converged == ref.converged
    assert new.flags == ref.flags
    assert len(new.trace) == len(ref.trace)
    for a, b in zip(new.trace, ref.trace):
        np.testing.assert_array_equal(a["h"], b["h"])
        assert a["criterion"] == pytest.approx(b["criterion"], rel=1e-10, abs=0)
    assert new.criterion == pytest.approx(ref.criterion, rel=1e-10, abs=0)


@pytest.mark.parametrize("seed,rho", [(1, 0.0), (2, 0.5), (3, 0.0), (4, 0.5)])
def test_backfit_searches_select_what_the_direct_criteria_select(grid25, seed, rho):
    cfg = SimConfig(model="m1", n=150, rho=rho, seed=seed)
    data, truth = generate(cfg, 0)
    spec = cfg.search_spec()
    k0 = BIWEIGHT.k0
    ones = _criterion_weights(None, None, data.x)
    trimmed = _criterion_weights(None, spec.nw_trim(data.d), data.x)
    total = np.asarray(truth.total(data.x), dtype=float)
    comp = np.asarray(truth.components[1](data.x[:, 1]) - truth.centers[1], dtype=float)
    for smoother in ("ll", "nw"):
        mw = ones if smoother == "ll" else trimmed
        ws = Workspace(data, grid25, BIWEIGHT, smoother)
        new = select_pls(data, smoother, spec, grid25, workspace=ws)
        fits = _FitCache(ws, 1e-6, 200)
        ref = _grid_search(fits, _at_data(_ref_pls_criterion(data, mw, k0), fits), spec, "pls")
        _same_selection(new, ref)

        new = oracle_ase_bandwidth(data, truth.total, smoother, spec, workspace=ws)
        fits = _FitCache(ws, 1e-6, 200)
        crit = _at_data(_ref_ase_criterion(ws, total, mw), fits)
        _same_selection(new, _grid_search(fits, crit, spec, "ase_oracle"))

        new = oracle_ase_bandwidth(
            data, None, smoother, spec, criterion="ase_j", component=1,
            component_truth=lambda t: truth.components[1](t) - truth.centers[1],
            workspace=ws,
        )
        fits = _FitCache(ws, 1e-6, 200)
        crit = _at_data(_ref_ase_criterion(ws, comp, mw, 1), fits)
        _same_selection(new, _grid_search(fits, crit, spec, "ase_oracle"))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_marginal_searches_select_what_the_direct_criteria_select(grid25, seed):
    cfg = SimConfig(model="m2", n=200, seed=seed)
    data, truth = generate(cfg, 0)
    spec = cfg.search_spec()
    ws = Workspace(data, grid25, BIWEIGHT, "ll")
    new = select_single(data, "pls1", spec, grid25, workspace=ws)
    fits = _MarginalFit(ws)
    crit = _at_data(_ref_pls_criterion(data, None, BIWEIGHT.k0), fits)
    _same_selection(new, _grid_search(fits, crit, spec, "pls1", once=True))

    new = _select_ase1(data, truth, spec, ws)
    fits = _MarginalFit(ws)
    target = truth.components[0](data.x[:, 0])
    crit = _at_data(_ref_ase_criterion(ws, target, None), fits)
    _same_selection(new, _grid_search(fits, crit, spec, "ase1", once=True))
