"""The pair cache holds one outer iteration of a grid search.

Each coordinate scan's ``Workspace.prepare`` that has a key to solve
advances a scan clock and first drops the pair blocks that no
``prepare`` built or read during the last d scans.  A block depends on
its key and band side alone, so a dropped block that is needed again is
rebuilt bitwise, and no selection or study changes.  These tests check
the bound, that the outputs are the same with the window disabled, the
rebuild, and that plug-in loops, which scan nothing, and scans with
nothing to solve leave the window as it is.
"""

import pickle
from dataclasses import replace

import pytest

from smoothfit import BIWEIGHT, Grid, SimConfig, generate, run_study, select_pl_star, select_pls
from smoothfit import _engine

GRID = Grid.regular(25)


def _sample(n, monkeypatch):
    """An m1 sample on which a local linear pls takes three outer
    iterations and solves keys in the third, and its search spec; at
    n = 600 ``_BAND_RUN`` is lowered so that most candidates are banded."""
    if n == 600:
        monkeypatch.setattr(_engine, "_BAND_RUN", 10)
    cfg = SimConfig(model="m1", n=n, rho=0.5, seed={200: 14, 600: 4}[n])
    data, _ = generate(cfg, 0)
    return data, cfg.search_spec()


class _CountProducts:
    def __init__(self, monkeypatch):
        self.calls = 0
        product = _engine._pair_product

        def counted(*args):
            self.calls += 1
            return product(*args)

        monkeypatch.setattr(_engine, "_pair_product", counted)


def _without_window(monkeypatch):
    monkeypatch.setattr(_engine.Workspace, "_tick", lambda ws: None)


def _selection(sel):
    return pickle.dumps((sel.bandwidths, sel.criterion, sel.trace, sel.flags,
                         sel.outer_iterations, sel.converged))


@pytest.mark.parametrize("n", [200, 600], ids=["dense", "banded"])
def test_the_cache_holds_no_block_untouched_for_d_scans(n, monkeypatch):
    data, spec = _sample(n, monkeypatch)
    products = _CountProducts(monkeypatch)
    ws = _engine.Workspace(data, GRID, BIWEIGHT)
    sel = select_pls(data, "ll", replace(spec, max_outer=3), workspace=ws)
    d = data.d
    assert sel.outer_iterations == 3
    # Scans whose keys are all solved leave the clock as it is.
    assert 2 * d < ws._clock < 3 * d
    assert ws._pairs
    assert all(ws._seen[key] >= ws._clock - d for key in ws._pairs)
    # The window let blocks go: fewer are held than were built.
    assert len(ws._pairs) < products.calls


@pytest.mark.parametrize("smoother", ["ll", "nw"])
@pytest.mark.parametrize("n", [200, 600], ids=["dense", "banded"])
def test_a_selection_is_the_same_without_the_window(n, smoother, monkeypatch):
    data, spec = _sample(n, monkeypatch)

    def select():
        ws = _engine.Workspace(data, GRID, BIWEIGHT)
        return _selection(select_pls(data, smoother, spec, workspace=ws)), len(ws._pairs)

    windowed, held = select()
    _without_window(monkeypatch)
    unbounded, held_without = select()
    assert unbounded == windowed
    # The window let blocks go.
    assert held < held_without


def test_an_m1_replicate_is_the_same_without_the_window(monkeypatch):
    cfg = SimConfig(model="m1", n=200, rho=0.5, replicates=1, seed=5,
                    selectors=("ase", "pls", "pl", "pl_star"))
    products = _CountProducts(monkeypatch)
    windowed = pickle.dumps(run_study(cfg).replicates)
    built = products.calls
    _without_window(monkeypatch)
    products.calls = 0
    assert pickle.dumps(run_study(cfg).replicates) == windowed
    assert built > products.calls


@pytest.mark.parametrize("smoother", ["ll", "nw"])
@pytest.mark.parametrize("n", [200, 600], ids=["dense", "banded"])
def test_a_dropped_block_is_rebuilt_bitwise(n, smoother, monkeypatch):
    data, spec = _sample(n, monkeypatch)
    cands = [float(c) for c in spec.candidates]
    ws = _engine.Workspace(data, GRID, BIWEIGHT)
    h = [cands[3], cands[9], cands[6]]

    def scan(j):
        keys = []
        for c in cands:
            h[j] = c
            keys.append(tuple(h))
        ws.prepare(keys, smoother, scan=j)
        h[j] = cands[12]

    scan(0)
    held = {key: blocks[0].copy() for key, blocks in ws._pairs.items()}
    # Every bandwidth has moved since, so the next scan of axis 0 reads
    # none of the first scan's blocks, and the scan after it drops them.
    for j in (1, 2, 0):
        scan(j)
    assert held.keys() <= ws._pairs.keys()
    scan(1)
    dropped = held.keys() - ws._pairs.keys()
    assert dropped and len(dropped) >= len(held) // 2
    for key in sorted(dropped):
        assert ws._pair_blocks(*key)[0].tobytes() == held[key].tobytes()


def test_a_pl_star_run_drops_nothing(monkeypatch):
    data, spec = _sample(200, monkeypatch)
    products = _CountProducts(monkeypatch)
    ws = _engine.Workspace(data, GRID, BIWEIGHT)
    sel = select_pl_star(data, spec, GRID, workspace=ws)
    assert sel.outer_iterations > 1
    assert ws._clock == 0
    assert len(ws._pairs) == products.calls > 0


def test_switching_to_slopes_clears_the_window():
    data, _ = _sample(200, None)
    ws = _engine.Workspace(data, GRID, BIWEIGHT)
    ws.prepare([(0.2, 0.2, 0.2), (0.3, 0.2, 0.2)], "nw", scan=0)
    assert ws._clock == 1 and ws._seen and ws._pairs
    ws.switch_to_slopes()
    assert not ws._seen and not ws._pairs and not ws._axes


def test_a_scan_with_nothing_to_solve_leaves_the_clock():
    # The fit store skips solved keys, so such a scan reads no block.
    data, _ = _sample(200, None)
    ws = _engine.Workspace(data, GRID, BIWEIGHT)
    ws.prepare([], "nw", scan=0)
    ws.prepare([(0.2, 0.2, 0.2)], "nw")
    assert ws._clock == 0
    ws.prepare([(0.2, 0.2, 0.2)], "nw", scan=1)
    assert ws._clock == 1
