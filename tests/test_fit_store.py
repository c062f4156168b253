"""The workspace's store of solved backfits, shared by the selectors.

Selectors that run on one workspace, as those of a simulation replicate
do, read each other's solved backfits: the first solve of a bandwidth
tuple wins.  Each selection must still come out as it does on a fresh
workspace, each must still flag its own failed candidates, and the
public backfits must neither read nor fill the store.
"""

import numpy as np
import pytest

from smoothfit import (
    BIWEIGHT,
    BandwidthSearchSpec,
    Dataset,
    Grid,
    backfit_ll,
    backfit_nw,
    oracle_ase_bandwidth,
    select_pl,
    select_pl_star,
    select_pls,
)
from smoothfit import _engine
from smoothfit.selectors import _FitCache
from smoothfit.simulate import SimConfig, generate

GRID = Grid.regular(25)


def _fields(sel):
    return (sel.bandwidths.tolist(), sel.outer_iterations, sel.converged, sel.flags)


def _selectors(data, truth, spec, smoother):
    runs = {
        "ase": lambda ws: oracle_ase_bandwidth(
            data, truth.total, smoother, spec, grid=GRID, workspace=ws
        ),
        "pls": lambda ws: select_pls(data, smoother, spec, GRID, workspace=ws),
    }
    if smoother == "ll":
        runs["pl"] = lambda ws: select_pl(data, spec, "full_grid", GRID, workspace=ws)
        runs["pl_star"] = lambda ws: select_pl_star(data, spec, GRID, workspace=ws)
    return runs


class _CountSolves:
    def __init__(self, monkeypatch):
        self.calls = 0
        for name in ("ll_solve", "nw_solve"):
            monkeypatch.setattr(_engine, name, self._counted(getattr(_engine, name)))

    def _counted(self, solve):
        def wrapper(*args, **kwargs):
            self.calls += 1
            return solve(*args, **kwargs)
        return wrapper


@pytest.mark.parametrize("smoother,seed", [("ll", 3), ("ll", 4), ("nw", 5)])
def test_shared_selections_equal_fresh_ones_in_either_order(smoother, seed, monkeypatch):
    cfg = SimConfig(model="m1", n=150, rho=0.5, seed=seed)
    data, truth = generate(cfg, 0)
    spec = cfg.search_spec()
    runs = _selectors(data, truth, spec, smoother)
    fresh = {name: _fields(run(None)) for name, run in runs.items()}
    counter = _CountSolves(monkeypatch)
    for order in (list(runs), list(runs)[::-1]):
        ws = _engine.Workspace(data, GRID, BIWEIGHT, smoother)
        for name in order:
            assert _fields(runs[name](ws)) == fresh[name], (order, name)
    # The oracle and pls start with the same scan, so the second of them
    # reads that scan's fits from the store instead of solving them.
    ws = _engine.Workspace(data, GRID, BIWEIGHT, smoother)
    counter.calls = 0
    runs["ase"](ws)
    alone = counter.calls
    runs["pls"](ws)
    shared = counter.calls - alone
    counter.calls = 0
    runs["pls"](_engine.Workspace(data, GRID, BIWEIGHT, smoother))
    assert shared <= counter.calls - spec.candidates.size


def test_a_shared_failed_candidate_is_flagged_by_both_selectors(monkeypatch):
    # With one covariate, a bandwidth far below the grid spacing leaves
    # observations with no grid mass, so that candidate's backfit fails.
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (300, 1))
    data = Dataset(x=x, y=x[:, 0] ** 2 + rng.normal(0.0, 0.1, 300))
    spec = BandwidthSearchSpec(candidates=[0.004, 0.1, 0.15, 0.2, 0.3], h0=[0.1])
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    first = select_pls(data, "ll", spec, GRID, workspace=ws)
    counter = _CountSolves(monkeypatch)
    second = oracle_ase_bandwidth(data, lambda t: t[:, 0] ** 2, "ll", spec, workspace=ws)
    assert counter.calls == 0
    assert ws._fits[(1e-6, 200, (0.004,))] is None
    assert first.flags == second.flags == ["1 candidate fits failed"]


def test_public_backfits_start_cold_and_bypass_the_store():
    cfg = SimConfig(model="m1", n=150, rho=0.5, seed=6)
    data, truth = generate(cfg, 0)
    spec = cfg.search_spec()
    for smoother, backfit in (("ll", backfit_ll), ("nw", backfit_nw)):
        ws = _engine.Workspace(data, GRID, BIWEIGHT, smoother)
        sel = select_pls(data, smoother, spec, GRID, workspace=ws)
        stored = dict(ws._fits)
        shared = backfit(data, sel.bandwidths, GRID, workspace=ws)
        alone = backfit(data, sel.bandwidths, GRID)
        assert shared.iterations == alone.iterations
        assert shared.components.tobytes() == alone.components.tobytes()
        assert ws._fits == stored


@pytest.mark.parametrize("smoother", ["ll", "nw"])
def test_public_backfits_on_a_banded_selection_workspace_equal_fresh_ones(
    smoother, monkeypatch
):
    # Banded axes (the band rule lowered): the selection's scans build
    # pair blocks on the scanned axis's band side, and a public backfit
    # reads those of its own, so it equals a fresh one bit for bit.
    monkeypatch.setattr(_engine, "_BAND_RUN", 10)
    cfg = SimConfig(model="m1", n=600, rho=0.5, seed=6)
    data, _ = generate(cfg, 0)
    ws = _engine.Workspace(data, GRID, BIWEIGHT, smoother)
    sel = select_pls(data, smoother, cfg.search_spec(), GRID, workspace=ws)
    narrow_sides = [
        (a, b, ha, hb) for a, b, ha, hb in ws._pairs
        if ws.axis(b, hb).order is not None and ws.axis(a, ha).width < ws.axis(b, hb).width
    ]
    assert narrow_sides
    stored = dict(ws._fits)
    backfit = backfit_ll if smoother == "ll" else backfit_nw
    for h in (sel.bandwidths, sel.trace[0]["h"]):
        shared = backfit(data, h, GRID, workspace=ws)
        alone = backfit(data, h, GRID)
        assert shared.iterations == alone.iterations
        assert shared.components.tobytes() == alone.components.tobytes()
    assert ws._fits == stored


def test_scan_warm_starts_extrapolate_along_the_scanned_axis():
    cfg = SimConfig(model="m1", n=120, seed=7)
    data, _ = generate(cfg, 0)
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    fits = _FitCache(ws, 1e-6, 200)
    assert fits._warm_start((0.2, 0.3, 0.3)) == (None, 0)
    fits.fit((0.2, 0.3, 0.3))
    _, last = fits.recent[-1]
    init, start = fits._warm_start((0.2, 0.35, 0.3))
    assert start == 1 and init is last
    # Two axes moved: the last fit, swept from axis 0.
    init, start = fits._warm_start((0.25, 0.35, 0.3))
    assert start == 0 and init is last
    fits.fit((0.2, 0.35, 0.3))
    (_, prev), (_, last) = fits.recent
    init, start = fits._warm_start((0.2, 0.45, 0.3))
    assert start == 1
    for got, a, b in zip(init, last, prev):
        np.testing.assert_allclose(got, a + 2.0 * (a - b), rtol=1e-15, atol=1e-15)
    # The scan turns to another axis: no extrapolation across the turn.
    init, start = fits._warm_start((0.2, 0.35, 0.4))
    assert start == 2 and init is last


def test_solved_keys_are_not_prepared_again():
    # A scan that a selector already solved on this workspace folds no
    # coupling blocks: pls after the ase oracle must not fold for tuples
    # it will read from the store.
    cfg = SimConfig(model="m1", n=120, seed=5)
    data, _ = generate(cfg, 0)
    ws = _engine.Workspace(data, GRID, BIWEIGHT, "ll")
    fits = _FitCache(ws, 1e-6, 200)
    scan = [(c, 0.3, 0.35) for c in (0.2, 0.25, 0.3)]
    fits.prepare(scan)
    for key in scan:
        fits.fit(key)
    ws._folded = {}
    _FitCache(ws, 1e-6, 200).prepare(scan)
    assert ws._folded == {}
    _FitCache(ws, 1e-6, 200).prepare(scan + [(0.2, 0.4, 0.35)])
    assert set(ws._folded) == {
        (0, 1, 0.2, 0.4), (0, 2, 0.2, 0.35), (1, 2, 0.4, 0.35)
    }
