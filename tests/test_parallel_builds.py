"""Cache fills on build threads give the serial numbers.

``Workspace.prepare`` builds a scan's (or a solve's) missing axes on
threads it starts and joins at large n, and then its pairs on the
calling thread.  These tests force it on at small n (work threshold 1)
with more threads than a small machine has cores and a short switch
interval, and compare every selection with the serial one bitwise, on
dense weights (n = 300) and on banded ones (n = 2000 on a 9-point grid).
"""

import collections
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from smoothfit import (
    BandwidthSearchSpec,
    Dataset,
    Grid,
    SimConfig,
    generate,
    oracle_ase_bandwidth,
    run_study,
    select_pl_star,
    select_pls,
)
from smoothfit import _engine

from conftest import make_gap_dataset

GRID = Grid.regular(25)


@pytest.fixture
def threads(monkeypatch):
    """Counts axis builds and pair products run off the main thread and
    the executors of build threads started, and returns a switch that
    sends every later cache fill through four build threads."""
    seen = {"axis": [], "pair": 0, "executors": 0}
    lock = threading.Lock()
    axis_cls, pair_fn = _engine._AxisStats, _engine._pair_product

    def on_worker():
        return threading.current_thread() is not threading.main_thread()

    class Axis(axis_cls):
        __slots__ = ()

        def __init__(self, ws, j, h, slopes):
            if on_worker():
                with lock:
                    seen["axis"].append((j, h))
            super().__init__(ws, j, h, slopes)

    def pair(*args):
        if on_worker():
            with lock:
                seen["pair"] += 1
        return pair_fn(*args)

    class Executor(_engine.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            with lock:
                seen["executors"] += 1

    monkeypatch.setattr(_engine, "_AxisStats", Axis)
    monkeypatch.setattr(_engine, "_pair_product", pair)
    monkeypatch.setattr(_engine, "ThreadPoolExecutor", Executor)
    interval = sys.getswitchinterval()

    def enable():
        monkeypatch.setattr(_engine, "_PARALLEL_WORK", 1)
        monkeypatch.setattr(_engine, "_build_threads", 4)
        sys.setswitchinterval(1e-5)

    enable.seen = seen
    yield enable
    sys.setswitchinterval(interval)


def _m1(n):
    cfg = SimConfig(model="m1", n=n, rho=0.5, seed=31)
    data, truth = generate(cfg, 0)
    return data, truth, cfg.search_spec()


@pytest.fixture(scope="module")
def m1_sample():
    return _m1(300)


def _fields(sel):
    return (
        sel.bandwidths.tobytes(),
        sel.method,
        sel.outer_iterations,
        sel.converged,
        sel.criterion,
        [(t["h"].tobytes(), t["criterion"]) for t in sel.trace],
        sel.flags,
    )


def _selections(data, truth, spec, grid=GRID):
    return [
        _fields(sel)
        for sel in (
            select_pls(data, "ll", spec, grid),
            select_pls(data, "nw", spec, grid),
            select_pl_star(data, spec, grid),
            oracle_ase_bandwidth(data, truth.total, "ll", spec, grid=grid),
        )
    ]


def _threaded_against_serial(n, grid, threads):
    """Selects serially, then with forced threaded fills, and returns the
    widths of the serially built axes."""
    data, truth, spec = _m1(n)
    widths = []

    class Recording(_engine._AxisStats):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            widths.append(self.width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_AxisStats", Recording)
        serial = _selections(data, truth, spec, grid)
    assert threads.seen == {"axis": [], "pair": 0, "executors": 0}
    threads()
    threaded = _selections(data, truth, spec, grid)
    # Axes are built on the build threads, pairs on the calling thread.
    assert threads.seen["axis"] and threads.seen["pair"] == 0
    assert threaded == serial
    return widths


def test_threaded_fills_select_bitwise_what_serial_fills_select(threads):
    # n = 300 keeps every axis dense (one run over the whole grid).
    widths = _threaded_against_serial(300, GRID, threads)
    assert set(widths) == {GRID.size}


def test_threaded_fills_on_banded_weights_select_what_serial_fills_select(threads):
    # n = 2000 on a 9-point grid bands the narrow axes and keeps the
    # widest ones dense.
    grid = Grid.regular(9)
    widths = _threaded_against_serial(2000, grid, threads)
    assert min(widths) < grid.size == max(widths)


def test_failed_build_in_a_worker_is_one_failed_candidate(threads):
    # With one covariate, a bandwidth far below the grid spacing leaves
    # observations with no grid mass, so that candidate's axis build
    # raises EmptyNeighborhoodError.
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (300, 1))
    data = Dataset(x=x, y=x[:, 0] ** 2 + rng.normal(0.0, 0.1, 300))
    spec = BandwidthSearchSpec(candidates=[0.004, 0.1, 0.15, 0.2, 0.3], h0=[0.1])
    serial = _fields(select_pls(data, "ll", spec, GRID))
    threads()
    threaded = _fields(select_pls(data, "ll", spec, GRID))
    assert (0, 0.004) in threads.seen["axis"]
    assert threaded == serial
    assert serial[-1] == ["1 candidate fits failed"]


def test_no_pool_below_the_work_threshold(m1_sample, threads, monkeypatch):
    # n <= 500 on the default grid always builds on the calling thread.
    assert 500 * GRID.size < _engine._PARALLEL_WORK
    monkeypatch.setattr(_engine, "_build_threads", 2)
    data, truth, spec = m1_sample
    _selections(data, truth, spec)
    assert threads.seen == {"axis": [], "pair": 0, "executors": 0}


def _build_threads_alive():
    return [t.name for t in threading.enumerate() if t.name.startswith("smoothfit-build")]


def test_build_threads_are_joined_before_a_fill_returns(m1_sample, threads):
    data, _, spec = m1_sample
    assert not _build_threads_alive()
    threads()
    select_pls(data, "ll", spec, GRID)
    assert threads.seen["executors"] and threads.seen["axis"]
    assert not _build_threads_alive()


def _two_covariates_with_a_failing_candidate(case):
    """d = 2, n = 300, and the candidate (axis 0, h) whose build raises.

    ``"observation"``: axis 0 uniform, so that its 0.004 candidate leaves
    observations with no grid mass; axis 1 on the grid points, where the
    same candidate builds.  ``"grid point"``: axis 0 with no observation
    within 0.1 of the grid points 0.458333 .. 0.541667, so that its 0.1
    candidate leaves grid points with no observations; axis 1 uniform.
    """
    if case == "grid point":
        data = make_gap_dataset(d=2, n=300)
        spec = BandwidthSearchSpec(candidates=[0.1, 0.2, 0.25, 0.3, 0.4], h0=[0.2, 0.4])
        return data, spec, 0.1
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (300, 2))
    x[:, 1] = np.round(x[:, 1] * 24) / 24
    y = x[:, 0] ** 2 + np.sin(3 * x[:, 1]) + rng.normal(0.0, 0.1, 300)
    spec = BandwidthSearchSpec(candidates=[0.004, 0.1, 0.15, 0.2, 0.3], h0=[0.1, 0.1])
    return Dataset(x=x, y=y), spec, 0.004


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("work", [None, 1])
@pytest.mark.parametrize("smoother,case", [
    pytest.param("ll", "observation", id="ll"),
    pytest.param("nw", "observation", id="nw"),
    pytest.param("ll", "grid point", id="ll-uncovered-grid-point"),
])
def test_a_failed_axis_build_is_not_tried_again(work, smoother, case, monkeypatch):
    if work is not None:
        monkeypatch.setattr(_engine, "_PARALLEL_WORK", work)
        monkeypatch.setattr(_engine, "_build_threads", 2)
    built = collections.Counter()

    class Counting(_engine._AxisStats):
        __slots__ = ()

        def __init__(self, ws, j, h, slopes):
            built[j, h] += 1
            super().__init__(ws, j, h, slopes)

    monkeypatch.setattr(_engine, "_AxisStats", Counting)
    data, spec, bad = _two_covariates_with_a_failing_candidate(case)
    sel = select_pls(data, smoother, spec, GRID)
    assert sel.flags == ["1 candidate fits failed"]
    # The scan's fill tries it once; the solve's own fill skips it, and
    # the solve's lookup raises the kept error.  No axis is built twice.
    assert built[0, bad] == 1 and set(built.values()) == {1}


def _select_in_child(data, spec):
    return select_pls(data, "nw", spec, GRID).bandwidths


def test_processes_started_after_a_threaded_build_finish(m1_sample, threads):
    data, _, spec = m1_sample
    threads()
    expected = select_pls(data, "nw", spec, GRID).bandwidths
    assert threads.seen["axis"]
    # A study's worker processes build serially; a forked child starts
    # build threads of its own.
    base = dict(model="m1", n=60, replicates=2, seed=13, selectors=("pls",),
                search_num=8)
    serial = run_study(SimConfig(workers=1, **base))
    pooled = run_study(SimConfig(workers=2, **base))
    assert pooled.replicates == serial.replicates
    if "fork" not in multiprocessing.get_all_start_methods():
        return
    with multiprocessing.get_context("fork").Pool(1) as pool:
        h = pool.apply_async(_select_in_child, (data, spec)).get(timeout=60)
    assert h.tobytes() == expected.tobytes()
