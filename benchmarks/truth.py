"""The benchmark's own data generator and generating truth.

These do not call the package: the select workload's CSV comes from
here, and every error the benchmark reports is measured against these
functions, so a change to the package's simulation code cannot move the
yardstick.  The design matches the paper's models: m1 is
``x1^2 + x2^3 + x3^4``, m2 is ``x^2``; covariates are normal with mean
0.5, variance 0.5 and common correlation rho, truncated to the unit cube
by rejection; noise is normal with variance 0.01.
"""

from __future__ import annotations

import numpy as np

NOISE_SD = 0.1
COV_VARIANCE = 0.5


def m1_truth(x: np.ndarray) -> np.ndarray:
    return x[:, 0] ** 2 + x[:, 1] ** 3 + x[:, 2] ** 4


def m2_truth(x: np.ndarray) -> np.ndarray:
    return x[:, 0] ** 2


def sample_m1(n: int, rho: float, rng: np.random.Generator):
    """n rows of m1 data: covariates (n, 3) and responses (n,)."""
    d = 3
    cov = COV_VARIANCE * ((1.0 - rho) * np.eye(d) + rho * np.ones((d, d)))
    chol = np.linalg.cholesky(cov)
    kept, have = [], 0
    while have < n:
        cand = 0.5 + rng.standard_normal((4 * n, d)) @ chol.T
        cand = cand[np.all((cand >= 0.0) & (cand <= 1.0), axis=1)]
        kept.append(cand)
        have += cand.shape[0]
    x = np.concatenate(kept)[:n]
    y = m1_truth(x) + rng.normal(0.0, NOISE_SD, n)
    return x, y


def write_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    """CSV with header x1,...,xd,y; 17 significant digits round-trip
    every double exactly."""
    header = ",".join([f"x{j + 1}" for j in range(x.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header,
               comments="", fmt="%.17g")


def read_csv(path):
    """Covariates and responses back from a CSV written by ``write_csv``."""
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return arr[:, :-1], arr[:, -1]
