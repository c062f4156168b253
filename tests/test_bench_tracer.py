"""The benchmark's span tracer still finds every layer it patches.

``benchmarks/spans.py`` replaces package functions by name for the
duration of a traced run; a refactor that renames or moves one of them
would silently break ``--trace 1``.  This loads the tracer as it is,
without writing anything into the benchmark directory.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from smoothfit import (
    BIWEIGHT, Grid, SimConfig, _engine, cli, generate, selectors, simulate,
)

from conftest import make_gap_dataset

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _runs():
    """A one-replicate m2 study and a small m1 pls selection, looked up
    through the modules at call time as the tracer expects."""
    report = simulate.run_study(SimConfig(model="m2", n=120, replicates=1, seed=8))
    cfg = SimConfig(model="m1", n=120, seed=9, search_num=8)
    data, _ = generate(cfg, 0)
    sel = simulate.select_pls(data, "ll", cfg.search_spec(), Grid.regular(25))
    return report.replicates, sel


def test_traced_run_records_every_layer_and_restores_the_package(spans):
    owners = (_engine, _engine.Workspace, selectors, simulate, simulate.SimReport, cli)
    before = [dict(vars(owner)) for owner in owners]
    plain_records, plain_sel = _runs()

    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced_records, traced_sel = _runs()

    names = {span[0] for span in tracer.spans}
    for name in ("selector.ase1", "selector.pls1", "selector.pl1", "selector.pls",
                 "ll_solve", "curvature", "axis.build", "pair.build"):
        assert name in names, name
    metrics = spans.layer_metrics(tracer)
    assert metrics["selector.ase1.outer_iterations"][0] == 1
    assert metrics["selector.pls1.outer_iterations"][0] == 1

    assert traced_records == plain_records
    np.testing.assert_array_equal(traced_sel.bandwidths, plain_sel.bandwidths)
    assert [(t["h"].tolist(), t["criterion"]) for t in traced_sel.trace] == [
        (t["h"].tolist(), t["criterion"]) for t in plain_sel.trace]
    assert (traced_sel.outer_iterations, traced_sel.criterion, traced_sel.flags) == (
        plain_sel.outer_iterations, plain_sel.criterion, plain_sel.flags)

    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        for attr, value in saved.items():
            assert now[attr] is value, f"{owner.__name__}.{attr} not restored"


def test_traced_large_selection_counts_every_axis_build(spans):
    # n * G = 2700 * 25 weights per axis build, above 2^16: a large-n
    # selection, whose axes are built through ``Workspace.axis`` as at
    # small n, so each build is one span.
    cfg = SimConfig(model="m1", n=2700, seed=9, search_num=6)
    data, _ = generate(cfg, 0)
    grid = Grid.regular(25)
    ws = _engine.Workspace(data, grid, BIWEIGHT, "ll")
    tracer = spans.Tracer()
    with spans.traced(tracer):
        simulate.select_pls(data, "ll", cfg.search_spec(), grid, workspace=ws)
    builds = [span for span in tracer.spans if span[0] == "axis.build"]
    assert 0 < len(builds) == len(ws._axes)


def test_traced_failed_axis_build_is_one_build(spans, monkeypatch):
    # Axis 0 at h = 0.1 leaves grid points with no observation within h,
    # so that build fails; its later lookups raise the kept error and read
    # as hits, like those of a built axis.
    data = make_gap_dataset(d=2, n=300)
    spec = selectors.BandwidthSearchSpec(
        candidates=[0.1, 0.2, 0.25, 0.3, 0.4], h0=[0.2, 0.3]
    )
    built = []

    class Counting(_engine._AxisStats):
        __slots__ = ()

        def __init__(self, ws, j, h):
            built.append((j, h))
            super().__init__(ws, j, h)

    monkeypatch.setattr(_engine, "_AxisStats", Counting)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        sel = simulate.select_pls(data, "nw", spec, Grid.regular(25))
    assert sel.flags == ["1 candidate fits failed"]
    assert (0, 0.1) in built and len(set(built)) == len(built)
    builds = [span for span in tracer.spans if span[0] == "axis.build"]
    assert len(builds) == len(built)
    assert sum("error" in span[4] for span in builds) == 1
