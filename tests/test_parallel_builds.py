"""Cache fills in the processes a study starts.

Every axis is built on the thread that fills the cache.  A study with
more than one worker runs its replicates in processes started with
``simulate._one_blas_thread``, after the parent may have built axes on a
BLAS with threads of its own.  These tests check that a selection in
such a process builds what it builds in this one, and selects the same.
"""

import collections
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from smoothfit import (
    BandwidthSearchSpec,
    Dataset,
    Grid,
    SimConfig,
    generate,
    run_study,
    select_pls,
    simulate,
)
from smoothfit import _engine

from conftest import make_gap_dataset

GRID = Grid.regular(25)


@pytest.fixture(scope="module")
def m1_sample():
    cfg = SimConfig(model="m1", n=300, rho=0.5, seed=31)
    data, _ = generate(cfg, 0)
    return data, cfg.search_spec()


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


def _counted_selection(smoother, case):
    """Selects with every warning an error, and returns the selection's
    flags and how often each (axis, h) was built, with the bad h."""
    built = collections.Counter()

    class Counting(_engine._AxisStats):
        __slots__ = ()

        def __init__(self, ws, j, h, slopes):
            built[j, h] += 1
            super().__init__(ws, j, h, slopes)

    data, spec, bad = _two_covariates_with_a_failing_candidate(case)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(_engine, "_AxisStats", Counting)
        warnings.simplefilter("error")
        sel = select_pls(data, smoother, spec, GRID)
    return sel.flags, dict(built), bad


@pytest.mark.parametrize("workers", [None, 1])
@pytest.mark.parametrize("smoother,case", [
    pytest.param("ll", "observation", id="ll"),
    pytest.param("nw", "observation", id="nw"),
    pytest.param("ll", "grid point", id="ll-uncovered-grid-point"),
])
def test_a_failed_axis_build_is_not_tried_again(workers, smoother, case):
    # workers=None selects in this process; workers=1 in one process
    # started as a study starts its processes.
    if workers is None:
        flags, built, bad = _counted_selection(smoother, case)
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=simulate._one_blas_thread
        ) as pool:
            flags, built, bad = pool.submit(
                _counted_selection, smoother, case
            ).result(timeout=60)
    expected = ["1 candidate fits failed"]
    if case == "grid point":
        # The uniform axis 1 settles on the last candidate, 0.4.
        expected.append("axis 1: at the upper end of the search box")
    assert flags == expected
    # The scan's fill tries it once; the solve's own fill skips it, and
    # the solve's lookup raises the kept error.  No axis is built twice.
    assert built[0, bad] == 1 and set(built.values()) == {1}


def _select_in_child(data, spec):
    return select_pls(data, "nw", spec, GRID).bandwidths


def test_processes_started_after_a_threaded_build_finish(m1_sample):
    # The builds here run on this process's BLAS, threaded or not; the
    # processes started after them select what this process selects.
    data, spec = m1_sample
    expected = select_pls(data, "nw", spec, GRID).bandwidths
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
