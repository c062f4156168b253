import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from smoothfit import Dataset, Grid

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Property tests draw the same examples on every run.
settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")


def run_module(*argv):
    """``python -m <argv>`` in a child process that imports the package
    from this source tree, as pytest's ``pythonpath`` does in-process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True,
                          text=True, env=env)


@pytest.fixture(scope="session")
def grid25():
    return Grid.regular(25)


def make_additive_dataset(seed, n=150, d=3, noise=0.1, funcs=None):
    """Random covariates on the cube plus an additive response."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    if funcs is None:
        funcs = [lambda t: t**2, lambda t: np.sin(2 * t), lambda t: t**4][:d]
    y = rng.normal(0.0, noise, n)
    for j, fn in enumerate(funcs):
        y = y + fn(x[:, j])
    return Dataset(x=x, y=y)


def make_gap_dataset(d=1, n=200, seed=0):
    """Covariate 0 on [0, 0.35] and [0.65, 1], a gap wider than 2h at
    h = 0.1, so that the grid points 0.458333 .. 0.541667 of a 25-point
    grid have no observation within h; any further covariates uniform."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    x[:, 0] = 0.7 * x[:, 0]
    x[:, 0] += np.where(x[:, 0] < 0.35, 0.0, 0.3)
    y = np.sin(3 * x[:, 0]) + rng.normal(0.0, 0.1, n)
    return Dataset(x=x, y=y)


@pytest.fixture
def dataset3(grid25):
    return make_additive_dataset(seed=101)


@pytest.fixture
def dataset2():
    return make_additive_dataset(seed=202, n=120, d=2)
