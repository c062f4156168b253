"""The selector table is the one source of which selector runs with
which smoother and on how many covariates; the study and command-line
dispatch chains must agree with it."""

import argparse

import numpy as np
import pytest

from smoothfit import _engine, simulate
from smoothfit.cli import build_parser
from smoothfit.data import Grid
from smoothfit.kernels import get_kernel
from smoothfit.selectors import _SELECTORS, SelectionResult, _check_selector
from smoothfit.simulate import SimConfig, generate

_PAIRS = [
    (name, smoother)
    for name, (smoothers, _) in _SELECTORS.items()
    for smoother in smoothers
]


@pytest.mark.parametrize("name, smoother", _PAIRS)
def test_every_selector_runs_through_the_study_dispatch(name, smoother):
    single = _SELECTORS[name][1]
    config = SimConfig(
        model="m2" if single else "m1", n=60, seed=5, selectors=(name,),
        smoother=smoother, search_num=7, max_outer=4,
    )
    data, truth = generate(config, 0)
    ws = _engine.workspace_for(
        data, config.smoother, Grid.regular(config.grid_size), get_kernel(config.kernel)
    )
    sel = simulate._run_selector(name, data, truth, config, config.search_spec(), ws)
    assert isinstance(sel, SelectionResult)
    assert sel.bandwidths.shape == (config.d,)
    assert np.all(np.isfinite(sel.bandwidths))


def _method_choices(parser):
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command in ("fit", "select"):
        (method,) = (
            a for a in subparsers.choices[command]._actions if a.dest == "method"
        )
        yield from method.choices


def test_every_command_line_method_is_a_table_name():
    choices = set(_method_choices(build_parser()))
    assert choices
    for choice in choices:
        _check_selector(choice.replace("-", "_"), "ll")


@pytest.mark.parametrize("name, smoother", [
    (name, smoother)
    for name, (smoothers, _) in _SELECTORS.items()
    for smoother in ("nw", "ll") if smoother not in smoothers
])
def test_a_smoother_outside_the_table_is_rejected(name, smoother):
    with pytest.raises(ValueError, match=f"selector {name!r} needs the"):
        _check_selector(name, smoother)


@pytest.mark.parametrize("name", sorted(_SELECTORS))
def test_the_number_of_covariates_is_checked_against_the_table(name):
    single = _SELECTORS[name][1]
    _check_selector(name, "ll", 1 if single else 3)
    with pytest.raises(ValueError, match="covariate"):
        _check_selector(name, "ll", 3 if single else 1)
