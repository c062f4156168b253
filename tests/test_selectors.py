"""Bandwidth selectors: grid searches, plug-in updates, oracles."""

import numpy as np
import pytest

from smoothfit import (
    BIWEIGHT,
    BandwidthSearchSpec,
    Dataset,
    Grid,
    ase,
    backfit_ll,
    marginal_ll,
    oracle_ase_bandwidth,
    pls,
    rss,
    select_pl,
    select_pl_star,
    select_pls,
    select_single,
    theoretical_hstar,
)
from smoothfit._engine import Workspace
from smoothfit.errors import SelectorFailureError
from smoothfit.simulate import SimConfig, _select_ase1, generate

from conftest import make_additive_dataset, make_gap_dataset


class TestBandwidthSearchSpec:
    def test_default_box(self):
        spec = BandwidthSearchSpec.for_sample_size(200, 3)
        scale = 200 ** (-0.2)
        assert spec.b_lo == pytest.approx(0.25 * scale)
        assert spec.b_hi == pytest.approx(2.5 * scale)
        assert spec.candidates.size == 25
        np.testing.assert_allclose(spec.h0, 0.1)

    def test_h0_clipped_into_box(self):
        spec = BandwidthSearchSpec.for_sample_size(50, 1)
        assert spec.h0[0] >= spec.b_lo

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthSearchSpec(
                candidates=np.array([0.3, 0.2, 0.1, 0.05, 0.01]),
                h0=np.array([0.1]),
            )
        with pytest.raises(ValueError):
            BandwidthSearchSpec(
                candidates=np.geomspace(0.1, 0.5, 10), h0=np.array([0.9])
            )
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                BandwidthSearchSpec(
                    candidates=np.append(np.geomspace(0.1, 0.5, 9), bad),
                    h0=np.array([0.2]),
                )
            with pytest.raises(ValueError):
                BandwidthSearchSpec(
                    candidates=np.geomspace(0.1, 0.5, 10), h0=np.array([bad])
                )
        good = dict(candidates=np.geomspace(0.1, 0.5, 10), h0=np.array([0.2]))
        for bad in (0, -1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="max_outer"):
                BandwidthSearchSpec(max_outer=bad, **good)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="outer_tol"):
                BandwidthSearchSpec(outer_tol=bad, **good)
        assert BandwidthSearchSpec(max_outer=np.int64(1), **good).max_outer == 1

    def test_bad_solver_controls_fail_before_any_fit(self, dataset2, grid25):
        spec = BandwidthSearchSpec.for_sample_size(dataset2.n, 2, num=5)
        for kwargs in (dict(fit_tol=0.0), dict(fit_tol=np.nan), dict(max_sweeps=0)):
            with pytest.raises(ValueError):
                select_pls(dataset2, "ll", spec, grid25, **kwargs)

    def test_nw_trim_margin_capped(self):
        spec = BandwidthSearchSpec.for_sample_size(200, 2)
        trim = spec.nw_trim(2)
        assert trim.active
        assert trim.lower[0] == pytest.approx(0.25)
        assert trim.upper[0] == pytest.approx(0.75)


class TestSelectPLS:
    def test_single_axis_matches_exhaustive_scan(self, grid25):
        data = make_additive_dataset(seed=31, n=100, d=1)
        spec = BandwidthSearchSpec.for_sample_size(100, 1)
        sel = select_pls(data, "ll", spec, grid25)
        # independent exhaustive scan over the same candidates
        vals = []
        for cand in spec.candidates:
            fit = backfit_ll(data, [cand], grid25)
            vals.append(pls(rss(data, fit), [cand], BIWEIGHT.k0, data.n).value)
        assert sel.bandwidths[0] == spec.candidates[int(np.argmin(vals))]
        assert sel.criterion == pytest.approx(min(vals), rel=1e-10)

    def test_single_axis_agrees_with_single_covariate_pls(self, grid25):
        data = make_additive_dataset(seed=32, n=90, d=1)
        spec = BandwidthSearchSpec.for_sample_size(90, 1)
        a = select_pls(data, "ll", spec, grid25)
        b = select_single(data, "pls1", spec, grid25)
        assert a.bandwidths[0] == b.bandwidths[0]
        assert a.criterion == pytest.approx(b.criterion, rel=1e-10)

    def test_symmetric_problem_symmetric_bandwidths(self, grid25):
        # Exchangeable covariates with identical components: symmetrize
        # the sample by appending the coordinate-swapped copy, so the
        # criterion surface is exactly exchange-invariant.  On this
        # instance its product-grid minimizer is on the diagonal and the
        # scans recover it with equal bandwidths.
        rng = np.random.default_rng(1)
        half = rng.uniform(0, 1, (60, 2))
        x = np.vstack([half, half[:, ::-1]])
        y_half = half[:, 0] ** 2 + half[:, 1] ** 2 + rng.normal(0, 0.1, 60)
        data = Dataset(x=x, y=np.concatenate([y_half, y_half]))
        spec = BandwidthSearchSpec.for_sample_size(data.n, 2)
        sel = select_pls(data, "ll", spec, grid25)
        assert sel.bandwidths[0] == sel.bandwidths[1]

    def test_matches_product_grid_argmin(self, grid25):
        # Coordinate descent lands on the full product-grid minimizer on
        # a well-conditioned instance.
        data = make_additive_dataset(seed=44, n=90, d=2)
        spec = BandwidthSearchSpec.for_sample_size(90, 2, num=8)
        sel = select_pls(data, "ll", spec, grid25)
        best, best_val = None, np.inf
        for a in spec.candidates:
            for b in spec.candidates:
                fit = backfit_ll(data, [a, b], grid25)
                val = pls(rss(data, fit), [a, b], BIWEIGHT.k0, data.n).value
                if val < best_val:
                    best, best_val = (a, b), val
        np.testing.assert_allclose(sel.bandwidths, best)

    def test_works_for_nw_with_trim(self, grid25):
        data = make_additive_dataset(seed=34, n=120, d=2)
        spec = BandwidthSearchSpec.for_sample_size(120, 2)
        sel = select_pls(data, "nw", spec, grid25)
        assert np.all(sel.bandwidths >= spec.b_lo)
        assert np.all(sel.bandwidths <= spec.b_hi)
        assert sel.converged

    def test_trace_criterion_non_increasing(self, grid25, dataset3):
        spec = BandwidthSearchSpec.for_sample_size(dataset3.n, 3)
        sel = select_pls(data=dataset3, smoother="ll", spec=spec, grid=grid25)
        crits = [t["criterion"] for t in sel.trace]
        assert all(b <= a + 1e-14 for a, b in zip(crits, crits[1:]))

    def test_few_outer_iterations_on_benchmark(self, grid25):
        cfg = SimConfig(model="m1", n=200, rho=0.0, replicates=1, seed=77)
        data, _ = generate(cfg, 0)
        spec = cfg.search_spec()
        sel = select_pls(data, "ll", spec, grid25)
        assert sel.outer_iterations <= 10

    def test_invalid_smoother(self, grid25, dataset2):
        spec = BandwidthSearchSpec.for_sample_size(dataset2.n, 2)
        with pytest.raises(ValueError):
            select_pls(dataset2, "loess", spec, grid25)


class TestSelectPL:
    def test_zero_noise_linear_picks_largest_bandwidth(self, grid25):
        rng = np.random.default_rng(35)
        x = rng.uniform(0, 1, (80, 2))
        data = Dataset(x=x, y=0.8 * x[:, 0] - 0.3 * x[:, 1])
        spec = BandwidthSearchSpec.for_sample_size(80, 2)
        sel = select_pl(data, spec, "full_grid", grid25)
        np.testing.assert_allclose(sel.bandwidths, spec.b_hi)

    def test_modes_agree_for_single_axis(self, grid25):
        data = make_additive_dataset(seed=36, n=90, d=1)
        spec = BandwidthSearchSpec.for_sample_size(90, 1)
        a = select_pl(data, spec, "full_grid", grid25)
        b = select_pl(data, spec, "coordinate", grid25)
        assert a.bandwidths[0] == b.bandwidths[0]

    def test_bandwidths_inside_box(self, grid25, dataset3):
        spec = BandwidthSearchSpec.for_sample_size(dataset3.n, 3)
        sel = select_pl(dataset3, spec, "full_grid", grid25)
        assert np.all(sel.bandwidths >= spec.b_lo - 1e-15)
        assert np.all(sel.bandwidths <= spec.b_hi + 1e-15)
        assert sel.converged

    def test_unknown_mode(self, grid25, dataset2):
        spec = BandwidthSearchSpec.for_sample_size(dataset2.n, 2)
        with pytest.raises(ValueError):
            select_pl(dataset2, spec, "random", grid25)

    def test_grid_criterion_matches_direct_formula(self, grid25, dataset2):
        # The vectorized product-grid surface and the scalar criterion
        # function must agree at the selected point.
        from smoothfit import aase_hat
        from smoothfit.selectors import _curvature_matrix
        from smoothfit._engine import Workspace

        spec = BandwidthSearchSpec.for_sample_size(dataset2.n, 2, num=10)
        sel = select_pl(dataset2, spec, "full_grid", grid25, fit_tol=1e-11)
        prev_h = spec.h0 if len(sel.trace) == 1 else sel.trace[-2]["h"]
        ws = Workspace(dataset2, grid25, BIWEIGHT)
        fit = backfit_ll(dataset2, prev_h, grid25, workspace=ws, tol=1e-11)
        rss_val = rss(dataset2, fit).value
        curv = _curvature_matrix(ws, fit.components, prev_h, 1.5, "linear", BIWEIGHT)
        direct = aase_hat(dataset2, rss_val, curv, sel.bandwidths, BIWEIGHT)
        assert sel.criterion == pytest.approx(direct.value, rel=1e-8)


class TestSelectPLStar:
    def test_scale_equivariance_of_update(self, grid25):
        # Scaling the responses scales the residual criterion by c^2 and
        # the curvature by c; the closed-form update is invariant.
        data = make_additive_dataset(seed=37, n=100, d=2)
        scaled = Dataset(x=data.x, y=3.0 * data.y)
        spec = BandwidthSearchSpec.for_sample_size(100, 2, max_outer=1)
        a = select_pl_star(data, spec, grid25)
        b = select_pl_star(scaled, spec, grid25)
        np.testing.assert_allclose(a.bandwidths, b.bandwidths, rtol=1e-12)

    def test_flat_component_clamps_to_box_top(self, grid25):
        rng = np.random.default_rng(38)
        x = rng.uniform(0, 1, (60, 1))
        data = Dataset(x=x, y=np.full(60, 2.0))
        spec = BandwidthSearchSpec.for_sample_size(60, 1)
        sel = select_pl_star(data, spec, grid25)
        assert sel.bandwidths[0] == pytest.approx(spec.b_hi)
        assert any("curvature" in f or "clamped" in f for f in sel.flags)

    def test_inside_box_and_converges(self, grid25, dataset3):
        spec = BandwidthSearchSpec.for_sample_size(dataset3.n, 3)
        sel = select_pl_star(dataset3, spec, grid25)
        assert np.all(sel.bandwidths >= spec.b_lo - 1e-15)
        assert np.all(sel.bandwidths <= spec.b_hi + 1e-15)


class TestSelectSingle:
    def test_requires_one_axis(self, grid25, dataset2):
        spec = BandwidthSearchSpec.for_sample_size(dataset2.n, 2)
        with pytest.raises(ValueError):
            select_single(dataset2, "pls1", spec, grid25)

    def test_pl1_iterates_and_stays_in_box(self, grid25):
        data = make_additive_dataset(seed=39, n=110, d=1)
        spec = BandwidthSearchSpec.for_sample_size(110, 1)
        sel = select_single(data, "pl1", spec, grid25)
        assert spec.b_lo <= sel.bandwidths[0] <= spec.b_hi
        assert sel.outer_iterations >= 2

    @pytest.mark.parametrize("method", ["pls1", "pl1"])
    def test_shared_workspace_gives_same_selection(self, grid25, method):
        data = make_additive_dataset(seed=41, n=90, d=1)
        spec = BandwidthSearchSpec.for_sample_size(90, 1)
        ws = Workspace(data, grid25, BIWEIGHT)
        shared = select_single(data, method, spec, grid25, workspace=ws)
        alone = select_single(data, method, spec, grid25)
        assert ws._axes
        np.testing.assert_array_equal(shared.bandwidths, alone.bandwidths)
        assert shared.criterion == alone.criterion

    @pytest.mark.parametrize("n,seed", [(60, 3), (110, 4), (200, 5), (400, 6)])
    def test_marginal_searches_match_their_multi_covariate_twins(self, grid25, n, seed):
        # With one covariate the backfit is the centred marginal fit, so
        # pl1 is pl_star's iteration and ase1 an exhaustive scan of the
        # marginal fit's true error.
        for rep in range(3):
            cfg = SimConfig(model="m2", n=n, seed=seed)
            data, truth = generate(cfg, rep)
            spec = cfg.search_spec()
            pl1 = select_single(data, "pl1", spec, grid25)
            star = select_pl_star(data, spec, grid25)
            np.testing.assert_allclose(pl1.bandwidths, star.bandwidths, rtol=1e-10)
            assert pl1.outer_iterations == star.outer_iterations
            assert pl1.converged == star.converged

            x = data.x[:, 0]
            errors = [
                np.mean((np.interp(x, grid25.points, marginal_ll(data, 0, c, grid25)[0])
                         - x**2) ** 2)
                for c in spec.candidates
            ]
            ws = Workspace(data, grid25, BIWEIGHT)
            ase1 = _select_ase1(data, truth, spec, ws)
            assert ase1.bandwidths[0] == spec.candidates[int(np.argmin(errors))]
            assert ase1.outer_iterations == 1 and ase1.converged

    @pytest.mark.parametrize("method", ["pls1", "pl1"])
    def test_grid_point_without_observations_raises(self, grid25, method):
        # Below h = 0.15 the grid point 0.5 has no observation within h,
        # so every candidate's marginal fit fails: pls1 has no candidate
        # left, and pl1 cannot fit at its start.
        data = make_gap_dataset()
        spec = BandwidthSearchSpec(candidates=np.linspace(0.1, 0.14, 5), h0=[0.1])
        with pytest.raises(SelectorFailureError):
            select_single(data, method, spec, grid25)

    def test_failed_candidate_is_skipped_and_flagged(self, grid25):
        # h = 0.1 fails as above; pls1 goes on to the valid candidates, as
        # select_pls does with more covariates.
        data = make_gap_dataset()
        spec = BandwidthSearchSpec(candidates=[0.1, 0.2, 0.25, 0.3, 0.4], h0=[0.1])
        sel = select_single(data, "pls1", spec, grid25)
        assert sel.bandwidths[0] >= 0.2
        assert sel.flags == ["1 candidate fits failed"]

    def test_unknown_method(self, grid25):
        data = make_additive_dataset(seed=40, n=50, d=1)
        spec = BandwidthSearchSpec.for_sample_size(50, 1)
        with pytest.raises(ValueError):
            select_single(data, "cv", spec, grid25)


class TestOracle:
    def test_dominates_pls_on_its_criterion(self, grid25):
        # The oracle minimizes the realized error over the same schedule
        # and grid, so it must not lose to the data-driven choice.
        for rep in range(6):
            cfg = SimConfig(model="m1", n=120, rho=0.0, replicates=1, seed=909)
            data, truth = generate(cfg, rep)
            spec = BandwidthSearchSpec.for_sample_size(120, 3)
            ws = Workspace(data, grid25, BIWEIGHT)
            orc = oracle_ase_bandwidth(
                data, truth.total, "ll", spec, workspace=ws
            )
            sel = select_pls(data, "ll", spec, grid25, workspace=ws)
            fo = backfit_ll(data, orc.bandwidths, grid25, workspace=ws)
            fp = backfit_ll(data, sel.bandwidths, grid25, workspace=ws)
            assert (
                ase(data, fo, truth.total).value
                <= ase(data, fp, truth.total).value + 1e-15
            )

    def test_single_axis_matches_exhaustive_scan(self, grid25):
        data = make_additive_dataset(seed=41, n=90, d=1)
        truth = lambda x: x[:, 0] ** 2 + np.sin(2 * x[:, 0])
        spec = BandwidthSearchSpec.for_sample_size(90, 1)
        sel = oracle_ase_bandwidth(data, truth, "ll", spec, grid=grid25)
        vals = []
        for cand in spec.candidates:
            fit = backfit_ll(data, [cand], grid25)
            vals.append(ase(data, fit, truth).value)
        assert sel.bandwidths[0] == spec.candidates[int(np.argmin(vals))]

    def test_zero_noise_in_family_reaches_zero_error(self, grid25):
        # Additive linear truth without noise is inside the local linear
        # family, so the oracle's criterion bottoms out at rounding
        # level.  Every candidate ties there, so the selected bandwidth
        # itself is tie-degenerate and not asserted.
        rng = np.random.default_rng(45)
        x = rng.uniform(0, 1, (70, 2))
        y = 0.9 * x[:, 0] + 0.4 * x[:, 1]
        data = Dataset(x=x, y=y)
        truth = lambda pts: 0.9 * pts[:, 0] + 0.4 * pts[:, 1]
        spec = BandwidthSearchSpec.for_sample_size(70, 2, num=8)
        sel = oracle_ase_bandwidth(data, truth, "ll", spec, grid=grid25)
        assert sel.criterion < 1e-15

    def test_component_criterion_needs_truth(self, grid25, dataset2):
        spec = BandwidthSearchSpec.for_sample_size(dataset2.n, 2)
        with pytest.raises(ValueError):
            oracle_ase_bandwidth(
                dataset2, lambda x: x[:, 0], "ll", spec, criterion="ase_j"
            )


_SELECTORS = {
    "pls": lambda data, spec, ws: select_pls(data, "ll", spec, workspace=ws),
    "pl_grid": lambda data, spec, ws: select_pl(data, spec, "full_grid", workspace=ws),
    "pl_coord": lambda data, spec, ws: select_pl(data, spec, "coordinate", workspace=ws),
    "pl_star": lambda data, spec, ws: select_pl_star(data, spec, workspace=ws),
    "pls1": lambda data, spec, ws: select_single(data, "pls1", spec, workspace=ws),
    "pl1": lambda data, spec, ws: select_single(data, "pl1", spec, workspace=ws),
    "oracle": lambda data, spec, ws: oracle_ase_bandwidth(
        data, lambda x: x.sum(axis=1), "ll", spec, workspace=ws
    ),
}


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("name", sorted(_SELECTORS))
def test_h0_of_the_wrong_length_is_rejected_before_any_fit(grid25, name, extra):
    d = 1 if name in ("pls1", "pl1") else 2
    data = make_additive_dataset(seed=44, n=80, d=d)
    spec = BandwidthSearchSpec.for_sample_size(data.n, d + extra)
    ws = Workspace(data, grid25, BIWEIGHT)
    with pytest.raises(ValueError, match=f"h0 holds {d + extra} bandwidths for {d}"):
        _SELECTORS[name](data, spec, ws)
    assert not ws._axes and not ws._fits


class TestTheoreticalHstar:
    def test_worked_example(self):
        # Homoskedastic noise 0.01, curvature 2, uniform density, unit
        # weight, biweight kernel, n=200.
        h = theoretical_hstar(
            noise_var_fn=lambda t: np.full_like(t, 0.01),
            density_fn=lambda t: np.ones_like(t),
            curvature_fn=lambda t: np.full_like(t, 2.0),
            kernel=BIWEIGHT,
            n=200,
        )
        expected = 200 ** (-0.2) * (0.01 * 5 / 7) ** 0.2 * (4 / 49) ** (-0.2)
        assert h == pytest.approx(expected, rel=1e-10)
        assert h == pytest.approx(0.213, abs=5e-4)

    def test_noise_scaling(self):
        args = dict(
            density_fn=lambda t: np.ones_like(t),
            curvature_fn=lambda t: np.full_like(t, 2.0),
            kernel=BIWEIGHT,
            n=200,
        )
        h1 = theoretical_hstar(lambda t: np.full_like(t, 0.01), **args)
        h2 = theoretical_hstar(lambda t: np.full_like(t, 0.02), **args)
        assert h2 / h1 == pytest.approx(2 ** 0.2, rel=1e-12)

    def test_curvature_scaling(self):
        args = dict(
            noise_var_fn=lambda t: np.full_like(t, 0.01),
            density_fn=lambda t: np.ones_like(t),
            kernel=BIWEIGHT,
            n=200,
        )
        h1 = theoretical_hstar(curvature_fn=lambda t: np.full_like(t, 2.0), **args)
        h2 = theoretical_hstar(curvature_fn=lambda t: np.full_like(t, 6.0), **args)
        assert h2 / h1 == pytest.approx(3 ** (-0.4), rel=1e-12)

    def test_zero_curvature_flagged_infinite(self):
        h = theoretical_hstar(
            noise_var_fn=lambda t: np.full_like(t, 0.01),
            density_fn=lambda t: np.ones_like(t),
            curvature_fn=lambda t: np.zeros_like(t),
            kernel=BIWEIGHT,
            n=200,
        )
        assert np.isinf(h)
