"""The one backfit entry of both smoothers: argument checks, the kernel a
fit records, and the residual checks that read it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import smoothfit
from smoothfit import (
    BIWEIGHT,
    EPANECHNIKOV,
    Dataset,
    Grid,
    SimConfig,
    backfit_ll,
    backfit_nw,
    custom_kernel,
    fixed_point_residual_ll,
    fixed_point_residual_nw,
    generate,
    marginal_ll,
    marginal_nw,
)
from smoothfit import _engine
from smoothfit.errors import InvalidBandwidthError

from conftest import make_additive_dataset

_BACKFITS = {
    "nw": (backfit_nw, fixed_point_residual_nw),
    "ll": (backfit_ll, fixed_point_residual_ll),
}
_MARGINALS = {"nw": marginal_nw, "ll": marginal_ll}


@pytest.fixture(scope="module")
def m1_pair():
    """The first two covariates of an m1 sample (n = 200, seed 3)."""
    data, _ = generate(SimConfig(model="m1", n=200, seed=3), 0)
    return Dataset(x=data.x[:, :2], y=data.y)


@pytest.mark.parametrize("smoother", sorted(_BACKFITS))
def test_residual_check_defaults_to_the_kernel_of_the_fit(m1_pair, smoother):
    # Checked against the biweight system, a converged epanechnikov fit
    # read a residual of 0.55 (local linear) or 0.026 (Nadaraya-Watson).
    backfit, residual = _BACKFITS[smoother]
    fit = backfit(m1_pair, [0.2, 0.25], kernel=EPANECHNIKOV, tol=1e-10)
    assert fit.kernel is EPANECHNIKOV
    assert residual(m1_pair, fit) < 1e-8
    assert residual(m1_pair, fit, EPANECHNIKOV) == residual(m1_pair, fit)


@pytest.mark.parametrize("smoother", sorted(_BACKFITS))
def test_residual_check_rejects_another_kernel_than_the_fits(m1_pair, smoother):
    backfit, residual = _BACKFITS[smoother]
    fit = backfit(m1_pair, [0.2, 0.25], kernel=EPANECHNIKOV, tol=1e-10)
    with pytest.raises(ValueError, match="kernel 'biweight' differs from the fit's 'epanechnikov'"):
        residual(m1_pair, fit, BIWEIGHT)


@pytest.mark.parametrize("smoother", sorted(_BACKFITS))
def test_a_fit_records_the_kernel_of_its_workspace(smoother):
    backfit, residual = _BACKFITS[smoother]
    data = make_additive_dataset(seed=51, n=120, d=2)
    triweight = custom_kernel(
        lambda t: 35.0 / 32.0 * np.clip(1.0 - t * t, 0.0, None) ** 3, "triweight")
    for kernel in (EPANECHNIKOV, triweight):
        ws = _engine.workspace_for(data, smoother, Grid.regular(21), kernel)
        fit = backfit(data, [0.3, 0.35], workspace=ws, tol=1e-10)
        assert fit.kernel is ws.kernel and fit.grid is ws.grid
        assert residual(data, fit) < 1e-8
    assert backfit(data, [0.3, 0.35]).kernel is BIWEIGHT


@pytest.mark.parametrize("smoother", sorted(_BACKFITS))
def test_every_backfit_goes_through_the_engine_solver(monkeypatch, smoother):
    # The solver is looked up on ``_engine`` at each call, so a wrapper
    # put there (as the benchmark tracer does) sees every backfit.
    name = f"{smoother}_solve"
    orig, calls = getattr(_engine, name), []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return orig(*args, **kwargs)

    monkeypatch.setattr(_engine, name, counted)
    data = make_additive_dataset(seed=52, n=80, d=2)
    _BACKFITS[smoother][0](data, [0.3, 0.35])
    assert len(calls) == 1 and calls[0].tolist() == [0.3, 0.35]


@pytest.mark.parametrize("h", [np.nan, np.inf, -0.2, 0.0])
@pytest.mark.parametrize("smoother", sorted(_BACKFITS))
def test_a_bandwidth_that_is_not_finite_and_positive_is_rejected(smoother, h):
    # NaN used to pass the "h > 0" tests: a marginal fit came back all
    # NaN, and a local linear backfit raised KeyError from its fold store.
    data = make_additive_dataset(seed=53, n=80, d=3)
    grid = Grid.regular(25)
    ws = _engine.workspace_for(data, smoother, grid)
    with pytest.raises(InvalidBandwidthError, match="finite and positive"):
        _BACKFITS[smoother][0](data, [0.2, h, 0.2], workspace=ws)
    assert not ws._axes and not ws._fits
    with pytest.raises(InvalidBandwidthError, match="finite and positive"):
        _MARGINALS[smoother](data, 1, h, grid)


@pytest.mark.parametrize("j", [-1, 2])
@pytest.mark.parametrize("smoother", sorted(_MARGINALS))
def test_a_marginal_fit_rejects_an_axis_out_of_range(smoother, j):
    # j = -1 used to return the curve of the last covariate, and j = d
    # raised IndexError.
    data = make_additive_dataset(seed=54, n=80, d=2)
    with pytest.raises(ValueError, match=f"axis {j} out of range for d=2"):
        _MARGINALS[smoother](data, j, 0.3, Grid.regular(25))


def _is_workspace_call(node) -> bool:
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and "Workspace" in (
        getattr(func, "id", None), getattr(func, "attr", None))


def test_only_workspace_for_builds_a_workspace():
    # Every fit and selection takes its sample, grid and kernel from one
    # place, so ``Workspace(`` is called in ``_engine.workspace_for`` only.
    calls, total = [], 0
    for path in sorted(Path(smoothfit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        total += sum(map(_is_workspace_call, ast.walk(tree)))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls += [(path.name, fn.name) for node in ast.walk(fn)
                          if _is_workspace_call(node)]
    assert total == 1 and calls == [("_engine.py", "workspace_for")]
