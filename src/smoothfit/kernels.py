"""Kernel functions, their moments, and boundary renormalization on [0,1].

A smoothing kernel here is a symmetric probability density supported on
``[-1, 1]``.  Near the edges of the unit interval the kernel is divided
by the mass it actually places on ``[0, 1]``, so that for every data
point ``v`` the weight function ``u -> boundary_weight(k, h, u, v)``
integrates to one over the unit interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidBandwidthError, NumericError

__all__ = [
    "KernelSpec",
    "BIWEIGHT",
    "EPANECHNIKOV",
    "get_kernel",
    "custom_kernel",
    "kernel_moments",
    "boundary_weight",
]


@dataclass(frozen=True)
class KernelSpec:
    """A symmetric compact-support kernel with precomputed moments.

    Attributes
    ----------
    name : str
        Kernel identifier ("biweight", "epanechnikov", or "custom").
    fn : callable
        Vectorized density, zero outside ``[-1, 1]``.
    cdf : callable
        Antiderivative ``t -> integral of fn over [-1, t]``, clamped to
        ``[0, 1]`` outside the support.
    k0 : float
        Density value at the origin.
    r_k : float
        Integral of the squared density (the roughness).
    mu2 : float
        Second moment, integral of ``t**2 * fn(t)``.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    k0: float
    r_k: float
    mu2: float

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


def _inside(t) -> np.ndarray:
    """``clip(1 - t * t, 0, None)``, computed in one new array."""
    t = np.asarray(t, dtype=float)
    inside = np.multiply(t, t, out=np.empty_like(t))
    np.subtract(1.0, inside, out=inside)
    return np.clip(inside, 0.0, None, out=inside)


def _biweight_fn(t: np.ndarray) -> np.ndarray:
    inside = _inside(t)
    out = (15.0 / 16.0) * inside
    out *= inside
    return out


def _biweight_cdf(t: np.ndarray) -> np.ndarray:
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    return (15.0 / 16.0) * (t - 2.0 * t**3 / 3.0 + t**5 / 5.0) + 0.5


def _epanechnikov_fn(t: np.ndarray) -> np.ndarray:
    return 0.75 * _inside(t)


def _epanechnikov_cdf(t: np.ndarray) -> np.ndarray:
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    return 0.75 * (t - t**3 / 3.0) + 0.5


BIWEIGHT = KernelSpec(
    name="biweight",
    fn=_biweight_fn,
    cdf=_biweight_cdf,
    k0=15.0 / 16.0,
    r_k=5.0 / 7.0,
    mu2=1.0 / 7.0,
)

EPANECHNIKOV = KernelSpec(
    name="epanechnikov",
    fn=_epanechnikov_fn,
    cdf=_epanechnikov_cdf,
    k0=0.75,
    r_k=0.6,
    mu2=0.2,
)

_BUILTINS = {"biweight": BIWEIGHT, "epanechnikov": EPANECHNIKOV}


def get_kernel(name: str) -> KernelSpec:
    """Look up a built-in kernel by name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(_BUILTINS)}"
        ) from None


def _gauss_legendre(num: int, lo: float, hi: float):
    nodes, weights = np.polynomial.legendre.leggauss(num)
    half = (hi - lo) / 2.0
    return half * nodes + (lo + hi) / 2.0, half * weights


def _quad(fn, lo: float, hi: float, num: int = 64) -> float:
    x, w = _gauss_legendre(num, lo, hi)
    return float(w @ np.asarray(fn(x), dtype=float))


def custom_kernel(fn: Callable[[np.ndarray], np.ndarray], name: str = "custom") -> KernelSpec:
    """Build a KernelSpec from a user-supplied density on [-1, 1].

    The density must be symmetric, vanish outside ``[-1, 1]``, and
    integrate to one.  Moments are computed by 64-point Gauss-Legendre
    quadrature; a 96-point check guards against quadrature failure.

    Raises
    ------
    ValueError
        If the density is asymmetric, negative, or not normalized.
    NumericError
        If the quadrature has not converged at 64 points.
    """
    probe = np.linspace(0.0, 1.0, 257)
    vals = np.asarray(fn(probe), dtype=float)
    if np.any(vals < -1e-12):
        raise ValueError("kernel density must be nonnegative")
    if not np.allclose(vals, np.asarray(fn(-probe), dtype=float), atol=1e-12):
        raise ValueError("kernel density must be symmetric about zero")
    outside = np.asarray(fn(np.array([-1.5, 1.5, 2.0])), dtype=float)
    if np.any(np.abs(outside) > 1e-12):
        raise ValueError("kernel density must vanish outside [-1, 1]")

    def moment(g):
        lo = _quad(g, -1.0, 1.0, 64)
        hi = _quad(g, -1.0, 1.0, 96)
        if abs(hi - lo) > 1e-9 * max(1.0, abs(hi)):
            raise NumericError(
                f"kernel moment quadrature did not converge ({lo} vs {hi})"
            )
        return hi

    total = moment(fn)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"kernel density must integrate to 1, got {total!r}")

    def cdf(t):
        t = np.asarray(t, dtype=float)
        flat = np.clip(np.atleast_1d(t), -1.0, 1.0)
        out = np.array([_quad(fn, -1.0, float(ti), 64) for ti in flat])
        return out.reshape(t.shape) if t.shape else float(out[0])

    return KernelSpec(
        name=name,
        fn=fn,
        cdf=cdf,
        k0=float(fn(np.array(0.0))),
        r_k=moment(lambda t: np.asarray(fn(t)) ** 2),
        mu2=moment(lambda t: t**2 * np.asarray(fn(t))),
    )


def kernel_moments(kernel: KernelSpec) -> dict:
    """Return the kernel constants used by the selection criteria.

    ``k0`` is the density at zero, ``r_k`` the integrated squared
    density, and ``mu2`` the second moment.
    """
    return {"k0": kernel.k0, "r_k": kernel.r_k, "mu2": kernel.mu2}


def boundary_weight(kernel: KernelSpec, h: float, u, v):
    """Kernel weight at grid point ``u`` for data point ``v``, renormalized
    so it integrates to one in ``u`` over the unit interval.

    Equals ``K((v - u)/h) / integral_0^1 K((v - w)/h) dw``.  Whenever the
    data point sits at least ``h`` from both edges the denominator equals
    ``h`` and the value reduces to the ordinary scaled kernel
    ``K((v - u)/h) / h``.

    Parameters
    ----------
    kernel : KernelSpec
    h : float
        Bandwidth, must be positive.
    u, v : float or ndarray
        Grid point(s) and data point(s) in ``[0, 1]``.  Broadcast together.

    Returns
    -------
    float or ndarray
        Nonnegative weight; zero when the kernel support does not reach
        ``u``, or when it places no mass on ``[0, 1]`` at all.
    """
    if not np.isscalar(h) or h <= 0:
        raise InvalidBandwidthError(f"bandwidth must be a positive scalar, got {h!r}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u < 0) or np.any(u > 1) or np.any(v < 0) or np.any(v > 1):
        raise ValueError("boundary_weight arguments must lie in [0, 1]")
    numer = kernel.fn((v - u) / h)
    denom = h * (kernel.cdf(v / h) - kernel.cdf((v - 1.0) / h))
    scalar = numer.shape == () and np.asarray(denom).shape == ()
    numer, denom = np.atleast_1d(numer), np.atleast_1d(denom)
    out = np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0), 0.0)
    return float(out[0]) if scalar else out
