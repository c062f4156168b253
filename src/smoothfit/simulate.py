"""Monte Carlo harness for the additive-model bandwidth selectors.

Two benchmark designs are built in: a three-component model with
polynomial components of increasing curvature (``m1``), and its
single-covariate restriction (``m2``).  Covariates are joint normals
with common pairwise correlation, rejection-sampled to the unit cube;
errors are mean-zero Gaussian.  A study draws seeded replicates, runs
the configured selectors on each, evaluates the true average squared
errors at the chosen bandwidths, and aggregates.

Replicates use counter-based substreams of the master seed, so results
are bitwise reproducible and independent of execution order (including
parallel execution).
"""

from __future__ import annotations

import ctypes
import json
import numbers
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import _engine
from .backfit_ll import backfit_ll
from .backfit_nw import backfit_nw
from .criteria import _mean_square, ase, ase_j
from .curvature import pilot_bandwidth
from .data import Dataset, Grid
from .errors import SamplerDegenerateError, SmoothfitError
from .kernels import get_kernel
from .selectors import (
    _SELECTORS,
    BandwidthSearchSpec,
    _ase_criterion,
    _check_selector,
    _grid_search,
    _MarginalFit,
    oracle_ase_bandwidth,
    select_pl,
    select_pl_star,
    select_pls,
    select_single,
)

__all__ = [
    "SimConfig",
    "TrueModel",
    "SimReport",
    "sample_covariates",
    "generate",
    "run_study",
]

_MODEL_COMPONENTS = {
    "m1": (lambda x: x**2, lambda x: x**3, lambda x: x**4),
    "m2": (lambda x: x**2,),
}


def _check_design(d: int, rho: float, variance: float) -> None:
    """Raise ValueError unless ``rho`` is a common correlation that ``d``
    normals can have (-1/(d-1) < rho < 1; |rho| < 1 for d = 1) and
    ``variance`` is finite and positive."""
    lower = -1.0 / (d - 1) if d > 1 else -1.0
    if not lower < rho < 1.0:
        raise ValueError(f"correlation {rho} is infeasible for d={d}")
    if not 0 < variance < np.inf:
        raise ValueError("covariate variance must be positive and finite")


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation study."""

    model: str
    n: int
    rho: float = 0.0
    sigma2: float = 0.01
    replicates: int = 1
    seed: int = 0
    selectors: tuple = ()
    smoother: str = "ll"
    kernel: str = "biweight"
    pilot_factor: float = 1.5
    cov_variance: float = 0.5
    grid_size: int = 25
    search_lo: float = 0.25
    search_hi: float = 2.5
    search_num: int = 25
    h0: float = 0.1
    outer_tol: float = 1e-3
    max_outer: int = 25
    fit_tol: float = 1e-6
    workers: int = 1

    def __post_init__(self):
        if self.model not in _MODEL_COMPONENTS:
            raise ValueError(f"unknown model {self.model!r}")
        # Stored as int, so that ``asdict`` gives JSON-ready values.
        for name in ("n", "replicates", "grid_size", "search_num", "max_outer", "workers"):
            _engine.check_count(name, getattr(self, name))
            object.__setattr__(self, name, int(getattr(self, name)))
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))
        Grid.regular(self.grid_size)
        if self.n < 20:
            raise ValueError("need a sample size of at least 20")
        _check_design(self.d, self.rho, self.cov_variance)
        if not 0 < self.sigma2 < np.inf:
            raise ValueError("noise variance must be positive and finite")
        get_kernel(self.kernel)
        # A bad pilot factor fails here rather than in every replicate.
        pilot_bandwidth(1.0, self.pilot_factor)
        if isinstance(self.selectors, str):
            raise ValueError(f"selectors must be a sequence of names, got {self.selectors!r}")
        chosen = tuple(self.selectors) or tuple(
            name for name, (smoothers, single) in _SELECTORS.items()
            if name != "pl_coord" and single == (self.d == 1)
            and self.smoother in smoothers
        )
        if not chosen:
            raise ValueError(
                f"model {self.model!r} has no selector for smoother {self.smoother!r}"
            )
        if len(set(chosen)) < len(chosen):
            raise ValueError(f"selectors must name each selector once, got {chosen}")
        for name in chosen:
            _check_selector(name, self.smoother, self.d)
        object.__setattr__(self, "selectors", chosen)
        _engine.check_tolerance("fit_tol", self.fit_tol)
        # A bad search box or outer-loop control fails here rather than
        # in every replicate.
        self.search_spec()

    @property
    def d(self) -> int:
        return len(_MODEL_COMPONENTS[self.model])

    def search_spec(self) -> BandwidthSearchSpec:
        return BandwidthSearchSpec.for_sample_size(
            self.n,
            self.d,
            lo_factor=self.search_lo,
            hi_factor=self.search_hi,
            num=self.search_num,
            h0=self.h0,
            outer_tol=self.outer_tol,
            max_outer=self.max_outer,
        )


@dataclass(frozen=True)
class TrueModel:
    """The data-generating truth attached to one simulated dataset.

    ``centers`` holds the sample means of each component over the
    realized covariates; the backfit estimates components only up to
    those constants, so component-wise errors compare against the
    centered truth.
    """

    components: tuple
    centers: np.ndarray
    noise: np.ndarray

    def total(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0])
        for j, fn in enumerate(self.components):
            out += fn(x[:, j])
        return out

    def centered_component(self, j: int):
        fn, c = self.components[j], float(self.centers[j])
        return lambda t: fn(np.asarray(t, dtype=float)) - c


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    )


def sample_covariates(
    n: int,
    d: int,
    rho: float,
    rng: np.random.Generator,
    variance: float = 0.5,
) -> np.ndarray:
    """Truncated joint normal covariates on the unit cube.

    Rows are drawn from a normal with mean 0.5 on every axis, common
    variance, and common pairwise correlation ``rho``, and kept only
    when all coordinates land in [0, 1], until ``n`` rows accumulate.

    Raises
    ------
    SamplerDegenerateError
        If fewer than one row per thousand draws is accepted.
    ValueError
        If ``rho`` is not a common correlation that ``d`` normals can
        have, or the variance is not finite and positive.
    """
    _check_design(d, rho, variance)
    cov = variance * ((1.0 - rho) * np.eye(d) + rho * np.ones((d, d)))
    chol = np.linalg.cholesky(cov)
    out = np.empty((n, d))
    filled = 0
    tried = 0
    batch = max(4 * n, 1000)
    while filled < n:
        z = rng.standard_normal((batch, d))
        cand = 0.5 + z @ chol.T
        keep = cand[np.all((cand >= 0.0) & (cand <= 1.0), axis=1)]
        tried += batch
        take = min(n - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
        if tried >= 100_000 and filled / tried < 1e-3:
            raise SamplerDegenerateError(
                f"acceptance rate {filled / tried:.2e} after {tried} draws"
            )
    return out


def generate(config: SimConfig, replicate: int = 0):
    """Draw one dataset from the configured model.

    Returns ``(Dataset, TrueModel)``.  Deterministic in
    ``(config.seed, replicate)``.
    """
    rng = _replicate_rng(config.seed, replicate)
    comps = _MODEL_COMPONENTS[config.model]
    d = len(comps)
    x = sample_covariates(config.n, d, config.rho, rng, config.cov_variance)
    noise = rng.normal(0.0, np.sqrt(config.sigma2), config.n)
    y = noise.copy()
    for j, fn in enumerate(comps):
        y += fn(x[:, j])
    centers = np.array([fn(x[:, j]).mean() for j, fn in enumerate(comps)])
    return Dataset(x=x, y=y), TrueModel(components=comps, centers=centers, noise=noise)


# ---------------------------------------------------------------------------
# per-replicate execution


def _select_ase1(data, truth, spec, ws):
    """Oracle scan of the single-covariate marginal fit."""
    fits = _MarginalFit(ws)
    criterion = _ase_criterion(fits, truth.components[0](data.x[:, 0]), None)
    return _grid_search(fits, criterion, spec, "ase1", once=True)


def _run_selector(name, data, truth, config, spec, ws):
    if name == "pls":
        return select_pls(
            data, config.smoother, spec, workspace=ws, fit_tol=config.fit_tol
        )
    if name == "pl" or name == "pl_coord":
        return select_pl(
            data, spec, "full_grid" if name == "pl" else "coordinate",
            pilot_factor=config.pilot_factor, workspace=ws, fit_tol=config.fit_tol,
        )
    if name == "pl_star":
        return select_pl_star(
            data, spec, pilot_factor=config.pilot_factor, workspace=ws,
            fit_tol=config.fit_tol,
        )
    if name == "ase":
        return oracle_ase_bandwidth(
            data, truth.total, config.smoother, spec, workspace=ws,
            fit_tol=config.fit_tol,
        )
    if name == "pls1" or name == "pl1":
        return select_single(
            data, name, spec, pilot_factor=config.pilot_factor, workspace=ws
        )
    if name == "ase1":
        return _select_ase1(data, truth, spec, ws)
    raise ValueError(f"unknown selector {name!r}")


def _marginal_ase1(data, truth, h, ws):
    """Noncentered component error of the plain local linear fit."""
    curve = ws.axis(0, h).ll[0]
    err = ws.component_at_data(0, curve) - truth.components[0](data.x[:, 0])
    return _mean_square(err, None, data.n)


def _run_replicate(config: SimConfig, replicate: int) -> dict:
    data, truth = generate(config, replicate)
    spec = config.search_spec()
    ws = _engine.workspace_for(
        data, config.smoother, Grid.regular(config.grid_size), get_kernel(config.kernel)
    )
    record = {"replicate": replicate, "selectors": {}, "failures": {}}
    single = config.d == 1
    for name in config.selectors:
        try:
            sel = _run_selector(name, data, truth, config, spec, ws)
        except SmoothfitError as err:
            record["failures"][name] = str(err)
            continue
        entry = {
            "h": sel.bandwidths.tolist(),
            "iterations": sel.outer_iterations,
            "converged": sel.converged,
        }
        if single:
            entry["ase_j"] = [_marginal_ase1(data, truth, sel.bandwidths[0], ws)]
            entry["ase"] = entry["ase_j"][0]
        else:
            backfit = backfit_ll if config.smoother == "ll" else backfit_nw
            fit = backfit(data, sel.bandwidths, tol=config.fit_tol, workspace=ws)
            entry["ase"] = ase(data, fit, truth.total).value
            entry["ase_j"] = [
                ase_j(data, fit, j, truth.centered_component(j)).value
                for j in range(config.d)
            ]
        record["selectors"][name] = entry
    oracle_name = "ase1" if single else "ase"
    oracle = record["selectors"].get(oracle_name)
    if oracle is not None:
        href = np.asarray(oracle["h"])
        for name, entry in record["selectors"].items():
            entry["log_h_diff_vs_oracle"] = (
                np.log(np.asarray(entry["h"])) - np.log(href)
            ).tolist()
    return record


# ---------------------------------------------------------------------------
# study-level aggregation


@dataclass
class SimReport:
    """Aggregated study results plus the per-replicate records."""

    config: dict
    d: int
    replicates: list
    summary: dict = field(default_factory=dict)
    schema_version: int = 1

    @classmethod
    def build(cls, config: SimConfig, records: list) -> "SimReport":
        report = cls(config=asdict(config), d=config.d, replicates=records)
        report.summary = report._summarize(config)
        return report

    def _summarize(self, config: SimConfig) -> dict:
        out = {}
        for name in config.selectors:
            entries = [
                r["selectors"][name] for r in self.replicates
                if name in r["selectors"]
            ]
            failed = sum(1 for r in self.replicates if name in r["failures"])
            if not entries:
                out[name] = {"count": 0, "failed": failed, "unconverged": 0}
                continue
            ases = np.array([e["ase"] for e in entries])
            asej = np.array([e["ase_j"] for e in entries])
            hsel = np.array([e["h"] for e in entries])
            iters = np.array([e["iterations"] for e in entries])
            count = len(entries)
            # Standard errors are undefined for a single replicate; emit
            # null rather than NaN so the JSON stays strictly valid.
            if count >= 2:
                se_ase = float(ases.std(ddof=1) / np.sqrt(count))
                se_ase_j = (asej.std(axis=0, ddof=1) / np.sqrt(count)).tolist()
            else:
                se_ase = None
                se_ase_j = [None] * asej.shape[1]

            out[name] = {
                "count": count,
                "failed": failed,
                "unconverged": sum(1 for e in entries if not e["converged"]),
                "mean_ase": float(ases.mean()),
                "se_ase": se_ase,
                "mean_ase_j": asej.mean(axis=0).tolist(),
                "se_ase_j": se_ase_j,
                "mean_h": hsel.mean(axis=0).tolist(),
                "mean_iterations": float(iters.mean()),
                "max_iterations": int(iters.max()),
                "ase_sorted": np.sort(ases).tolist(),
            }
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "config": self.config,
                "d": self.d,
                "summary": self.summary,
                "replicates": self.replicates,
            },
            indent=2,
            sort_keys=True,
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "SimReport":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        report = cls(
            config=raw["config"], d=raw["d"], replicates=raw["replicates"],
            schema_version=raw["schema_version"],
        )
        report.summary = raw["summary"]
        return report

    def quantile_rows(self):
        """Rows (selector, rank, level, sorted ase) for quantile plots."""
        for name, agg in self.summary.items():
            values = agg.get("ase_sorted", [])
            count = len(values)
            for i, v in enumerate(values, start=1):
                yield name, i, i / count, v

    def logdiff_rows(self):
        """Rows (selector, replicate, axis, log bandwidth difference)."""
        for rec in self.replicates:
            for name, entry in rec["selectors"].items():
                diffs = entry.get("log_h_diff_vs_oracle")
                if diffs is None:
                    continue
                for j, v in enumerate(diffs):
                    yield name, rec["replicate"], j, v


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _one_blas_thread() -> None:
    """Process initializer: this process runs its BLAS calls on one
    thread, so that a pool of study processes does not also start BLAS
    threads.

    It calls the thread setter that numpy's bundled OpenBLAS exports;
    with any other BLAS it does nothing.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*.so*"):
        try:
            setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _pool_size(config: SimConfig) -> int:
    """Worker processes for a study: never more than the replicates or
    the CPUs available to the process."""
    return min(config.workers, config.replicates, _available_cpus())


def run_study(config: SimConfig) -> SimReport:
    """Run the configured study and aggregate the results.

    Selector failures on a replicate are recorded and excluded from the
    affected selector's averages; everything else proceeds.  With
    ``config.workers > 1`` replicates run in parallel processes (at most
    one per replicate and per CPU), with identical results to a serial
    run; each of those processes runs its BLAS calls on one thread.
    """
    reps = range(config.replicates)
    workers = _pool_size(config)
    if workers > 1:
        # Imported here: it loads multiprocessing, which nothing else
        # that imports this module (the command line, say) needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_one_blas_thread
        ) as pool:
            records = list(pool.map(_run_replicate, [config] * config.replicates, reps))
    else:
        records = [_run_replicate(config, r) for r in reps]
    return SimReport.build(config, records)
