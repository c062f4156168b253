"""Covariate sampling, data generation, and the study harness."""

import ctypes
import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from smoothfit import SimConfig, generate, run_study, sample_covariates, simulate
from smoothfit.errors import SamplerDegenerateError
from smoothfit.simulate import SimReport, _pool_size


class TestSampleCovariates:
    def test_inside_cube(self):
        rng = np.random.default_rng(0)
        x = sample_covariates(500, 3, 0.5, rng)
        assert x.shape == (500, 3)
        assert np.all((x >= 0) & (x <= 1))

    def test_symmetric_truncation_centers_at_half(self):
        rng = np.random.default_rng(1)
        n = 20000
        x = sample_covariates(n, 3, 0.0, rng)
        # mean of a symmetric truncation is exactly 1/2; allow 3 MC se
        se = x.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - 0.5) < 3 * se)

    def test_determinism(self):
        a = sample_covariates(100, 3, 0.5, np.random.default_rng(42))
        b = sample_covariates(100, 3, 0.5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_correlation_matches_bruteforce_oracle(self):
        # Truncation to the cube changes the correlation; compare the
        # sampler's empirical correlation against an independent
        # large-sample rejection oracle.
        rng = np.random.default_rng(3)
        big = 1_000_000
        cov = 0.5 * ((1 - 0.5) * np.eye(2) + 0.5 * np.ones((2, 2)))
        z = rng.standard_normal((big, 2)) @ np.linalg.cholesky(cov).T + 0.5
        keep = z[np.all((z >= 0) & (z <= 1), axis=1)]
        oracle = np.corrcoef(keep.T)[0, 1]

        n = 30000
        x = sample_covariates(n, 2, 0.5, np.random.default_rng(4))
        got = np.corrcoef(x.T)[0, 1]
        se = (1 - oracle**2) / np.sqrt(n)
        assert abs(got - oracle) < 3 * se

    def test_infeasible_correlation(self):
        with pytest.raises(ValueError):
            sample_covariates(10, 3, -0.9, np.random.default_rng(0))

    def test_degenerate_acceptance(self):
        with pytest.raises(SamplerDegenerateError):
            sample_covariates(
                50, 3, 0.0, np.random.default_rng(0), variance=500.0
            )


class TestGenerate:
    def test_zero_noise_limit_is_additive(self):
        cfg = SimConfig(model="m1", n=50, sigma2=1e-30, replicates=1, seed=5)
        data, truth = generate(cfg)
        np.testing.assert_allclose(data.y, truth.total(data.x), atol=1e-12)

    def test_deterministic_given_seed(self):
        cfg = SimConfig(model="m1", n=60, rho=0.5, replicates=1, seed=6)
        d1, t1 = generate(cfg, 3)
        d2, t2 = generate(cfg, 3)
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(t1.noise, t2.noise)

    def test_replicates_differ(self):
        cfg = SimConfig(model="m1", n=60, replicates=2, seed=6)
        d1, _ = generate(cfg, 0)
        d2, _ = generate(cfg, 1)
        assert not np.array_equal(d1.x, d2.x)

    def test_noise_variance(self):
        cfg = SimConfig(model="m2", n=4000, sigma2=0.01, replicates=1, seed=7)
        data, truth = generate(cfg)
        resid = data.y - truth.total(data.x)
        se = 0.01 * np.sqrt(2.0 / (data.n - 1))
        assert abs(resid.var() - 0.01) < 3 * se

    def test_centered_components(self):
        cfg = SimConfig(model="m1", n=80, replicates=1, seed=8)
        data, truth = generate(cfg)
        for j in range(3):
            centered = truth.centered_component(j)(data.x[:, j])
            assert centered.mean() == pytest.approx(0.0, abs=1e-14)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(model="m3", n=100)
        with pytest.raises(ValueError):
            SimConfig(model="m1", n=10)
        with pytest.raises(ValueError):
            SimConfig(model="m1", n=100, replicates=0)
        with pytest.raises(ValueError):
            SimConfig(model="m1", n=100, rho=1.0)
        with pytest.raises(ValueError):
            SimConfig(model="m2", n=100, selectors=("pls",))
        for bad in (0.0, -1e-6, np.nan, np.inf):
            with pytest.raises(ValueError, match="fit_tol"):
                SimConfig(model="m1", n=100, fit_tol=bad)
        # The search spec is built once up front, so a bad outer-loop
        # control or search box fails before any replicate runs.
        with pytest.raises(ValueError, match="max_outer"):
            SimConfig(model="m1", n=100, max_outer=0)
        with pytest.raises(ValueError, match="outer_tol"):
            SimConfig(model="m1", n=100, outer_tol=np.nan)
        with pytest.raises(ValueError, match="candidates"):
            SimConfig(model="m1", n=100, search_num=3)
        for bad in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match="workers"):
                SimConfig(model="m1", n=100, workers=bad)

    def test_default_selectors(self):
        assert SimConfig(model="m1", n=100).selectors == (
            "ase", "pls", "pl", "pl_star",
        )
        assert SimConfig(model="m2", n=100).selectors == ("ase1", "pls1", "pl1")
        assert SimConfig(model="m1", n=100, smoother="nw").selectors == ("ase", "pls")

    @pytest.mark.parametrize("model, selectors", [
        ("m1", ("pl",)), ("m1", ("pl_coord",)), ("m1", ("pls", "pl_star")),
        ("m2", ()), ("m2", ("pls1",)),
    ])
    def test_nadaraya_watson_needs_a_backfit_grid_search(self, model, selectors):
        with pytest.raises(ValueError, match="smoother"):
            SimConfig(model=model, n=100, smoother="nw", selectors=selectors)


@pytest.fixture(scope="module")
def small_report():
    cfg = SimConfig(
        model="m2", n=60, replicates=3, seed=11,
        selectors=("ase1", "pls1", "pl1"),
    )
    return cfg, run_study(cfg)


class TestRunStudy:

    def test_reproducible(self, small_report):
        cfg, report = small_report
        again = run_study(cfg)
        assert report.to_json() == again.to_json()

    def test_summary_recomputable_from_replicates(self, small_report):
        _, report = small_report
        for name, agg in report.summary.items():
            values = [
                r["selectors"][name]["ase"]
                for r in report.replicates
                if name in r["selectors"]
            ]
            assert agg["mean_ase"] == pytest.approx(np.mean(values), rel=1e-12)
            assert agg["ase_sorted"] == sorted(values)

    def test_log_diffs_vs_oracle(self, small_report):
        _, report = small_report
        rec = report.replicates[0]
        assert rec["selectors"]["ase1"]["log_h_diff_vs_oracle"] == [0.0]
        pls1 = rec["selectors"]["pls1"]
        expected = float(
            np.log(pls1["h"][0]) - np.log(rec["selectors"]["ase1"]["h"][0])
        )
        assert pls1["log_h_diff_vs_oracle"][0] == pytest.approx(expected)

    def test_json_roundtrip(self, small_report, tmp_path):
        _, report = small_report
        path = tmp_path / "report.json"
        report.save(path)
        loaded = SimReport.load(path)
        assert loaded.to_json() == report.to_json()
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == 1

    def test_export_rows(self, small_report):
        _, report = small_report
        q = list(report.quantile_rows())
        assert len(q) == 9  # 3 selectors x 3 replicates
        assert q[0][2] == pytest.approx(1 / 3)
        ld = list(report.logdiff_rows())
        assert len(ld) == 9

    def test_parallel_matches_serial(self):
        base = dict(
            model="m2", n=60, replicates=2, seed=12, selectors=("pls1",)
        )
        serial = run_study(SimConfig(workers=1, **base))
        parallel = run_study(SimConfig(workers=2, **base))
        # identical results; only the echoed worker count may differ
        assert serial.replicates == parallel.replicates
        assert serial.summary == parallel.summary

    def test_pool_size_is_clamped(self, monkeypatch):
        # Only the clamp is computed here; no process is started.  The
        # study pool counts the CPUs available to the process.
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        base = dict(model="m2", n=50, selectors=("pls1",))
        assert _pool_size(SimConfig(workers=64, replicates=200, **base)) == 2
        assert _pool_size(SimConfig(workers=64, replicates=1, **base)) == 1
        assert _pool_size(SimConfig(workers=1, replicates=200, **base)) == 1
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 1)
        assert _pool_size(SimConfig(workers=2, replicates=5, **base)) == 1

    def test_single_replicate_has_null_standard_errors(self):
        cfg = SimConfig(model="m2", n=50, replicates=1, seed=14,
                        selectors=("pls1",))
        report = run_study(cfg)
        agg = report.summary["pls1"]
        assert agg["se_ase"] is None
        assert agg["se_ase_j"] == [None]
        # strict JSON: no NaN tokens
        json.loads(report.to_json())
        assert "NaN" not in report.to_json()

    def test_multivariate_entries(self):
        cfg = SimConfig(
            model="m1", n=60, replicates=2, seed=13,
            selectors=("pls", "pl_star"), search_num=8,
        )
        report = run_study(cfg)
        entry = report.replicates[0]["selectors"]["pls"]
        assert len(entry["h"]) == 3
        assert len(entry["ase_j"]) == 3
        assert report.summary["pls"]["count"] == 2

    def test_unconverged_selections_are_counted(self):
        # One outer iteration cannot meet outer_tol from h0, so every
        # pl_star selection stops unconverged and the summary says so.
        cfg = SimConfig(
            model="m1", n=60, replicates=2, seed=13,
            selectors=("pl_star",), search_num=8, max_outer=1,
        )
        report = run_study(cfg)
        agg = report.summary["pl_star"]
        assert agg["count"] == 2
        assert all(
            not r["selectors"]["pl_star"]["converged"] for r in report.replicates
        )
        assert agg["unconverged"] == agg["count"]
        assert agg["max_iterations"] == 1
        converged = run_study(
            SimConfig(model="m1", n=60, replicates=2, seed=13,
                      selectors=("pl_star",), search_num=8)
        )
        assert converged.summary["pl_star"]["unconverged"] == 0


def _openblas_threads():
    """numpy's bundled OpenBLAS's thread getter, or None without it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas*.so*"):
        get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return get
    return None


def _blas_threads_in_child():
    return _openblas_threads()()


def test_study_processes_run_one_blas_thread():
    get = _openblas_threads()
    if get is None or "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs numpy's bundled OpenBLAS and fork")
    mine = get()
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(1, initializer=simulate._one_blas_thread) as pool:
        assert pool.apply_async(_blas_threads_in_child).get(timeout=60) == 1
    assert get() == mine
