"""Error criteria: residual, penalized, and truth-based averages."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothfit import (
    BIWEIGHT,
    CriterionValue,
    Dataset,
    Grid,
    TrimSpec,
    aase_hat,
    ase,
    ase_j,
    backfit_ll,
    pls,
    rss,
)


class _StubFit:
    """Fixed predictions, for arithmetic checks."""

    def __init__(self, values, grid=None, components=None):
        self.values = np.asarray(values, dtype=float)
        self.grid = grid
        self.components = components

    def predict(self, x):
        return self.values


class TestTrimSpec:
    def test_margin_mask(self):
        trim = TrimSpec.from_margin(2, 0.25)
        x = np.array([[0.5, 0.5], [0.1, 0.5], [0.3, 0.8]])
        np.testing.assert_array_equal(trim.mask(x), [True, False, False])

    def test_disabled_keeps_all(self):
        trim = TrimSpec.disabled(2)
        x = np.array([[0.0, 1.0], [0.5, 0.5]])
        assert trim.mask(x).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrimSpec(lower=np.array([0.6]), upper=np.array([0.4]))

    @pytest.mark.parametrize("lower, upper", [
        ([np.nan] * 3, [1.0] * 3), ([0.0] * 3, [np.nan] * 3),
        ([-np.inf], [0.5]), ([0.5], [np.inf]),
    ])
    def test_an_active_trim_needs_finite_cuts(self, lower, upper):
        # A NaN cut kept no observation, so select_pls scored 0.0 at every
        # candidate and returned the smallest one.
        with pytest.raises(ValueError, match="each cut must be finite"):
            TrimSpec(lower=np.array(lower), upper=np.array(upper))
        TrimSpec(lower=np.array(lower), upper=np.array(upper), active=False)


class TestRss:
    def test_perfect_fit_zero(self):
        data = Dataset(x=np.array([[0.2], [0.8]]), y=np.array([1.0, 2.0]))
        assert rss(data, _StubFit(data.y)).value == 0.0

    def test_mean_fit_gives_biased_variance(self):
        rng = np.random.default_rng(0)
        data = Dataset(x=rng.uniform(0, 1, (50, 1)), y=rng.normal(0, 1, 50))
        out = rss(data, _StubFit(np.full(50, data.y.mean())))
        assert out.value == pytest.approx(data.y.var(), abs=1e-12)

    def test_two_point_arithmetic(self):
        data = Dataset(x=np.array([[0.3], [0.6]]), y=np.array([0.0, 2.0]))
        out = rss(data, _StubFit([1.0, 1.0]))
        assert out.value == pytest.approx(1.0, abs=1e-15)
        assert out.n_used == 2

    def test_trim_restricts_sum(self):
        data = Dataset(
            x=np.array([[0.05], [0.5], [0.95]]), y=np.array([1.0, 1.0, 1.0])
        )
        out = rss(data, _StubFit(np.zeros(3)), trim=TrimSpec.from_margin(1, 0.2))
        # only the middle point survives; division is still by n
        assert out.value == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert out.n_used == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (40, 2))
        y = rng.normal(0, 1, 40)
        grid = Grid.regular(25)
        fit = backfit_ll(Dataset(x=x, y=y), [0.3, 0.3], grid)
        truth = lambda pts: pts[:, 0] + pts[:, 1]
        base_rss = rss(Dataset(x=x, y=y), fit).value
        base_ase = ase(Dataset(x=x, y=y), fit, truth).value
        perm = rng.permutation(40)
        shuffled = Dataset(x=x[perm], y=y[perm])
        assert rss(shuffled, fit).value == pytest.approx(base_rss, rel=1e-12)
        assert ase(shuffled, fit, truth).value == pytest.approx(base_ase, rel=1e-12)


class TestPls:
    def test_zero_rss(self):
        assert pls(0.0, [0.1], BIWEIGHT.k0, 100).value == 0.0

    def test_worked_example(self):
        # RSS=1, n=200, three axes at h=0.1, biweight: penalty factor
        # 1 + 2*3*0.9375/20 = 1.28125.
        out = pls(1.0, [0.1, 0.1, 0.1], BIWEIGHT.k0, 200)
        assert out.value == pytest.approx(1.28125, abs=1e-15)

    def test_single_axis_formula(self):
        rss_val = 0.37
        out = pls(rss_val, [0.2], BIWEIGHT.k0, 150)
        assert out.value == pytest.approx(
            rss_val * (1 + 2 * 0.9375 / (150 * 0.2)), abs=1e-15
        )

    @given(
        st.floats(1e-6, 10.0),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
        st.integers(10, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_ratio_identity(self, rss_val, h, n):
        out = pls(rss_val, h, BIWEIGHT.k0, n)
        ratio = out.value / rss_val
        expected = 1 + 2 * BIWEIGHT.k0 * sum(1.0 / (n * hj) for hj in h)
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_accepts_criterion_value(self):
        inp = CriterionValue(value=0.5, n_used=77)
        out = pls(inp, [0.1], BIWEIGHT.k0, 100)
        assert out.n_used == 77


class TestAse:
    def test_perfect_recovery(self):
        data = Dataset(x=np.array([[0.4], [0.6]]), y=np.zeros(2))
        truth = lambda x: x[:, 0]
        assert ase(data, _StubFit(data.x[:, 0]), truth).value == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(2)
        data = Dataset(x=rng.uniform(0, 1, (30, 1)), y=np.zeros(30))
        truth = lambda x: x[:, 0]
        out = ase(data, _StubFit(data.x[:, 0] + 0.3), truth)
        assert out.value == pytest.approx(0.09, abs=1e-14)

    def test_two_point_arithmetic(self):
        data = Dataset(x=np.array([[0.3], [0.7]]), y=np.zeros(2))
        truth = lambda x: np.zeros(x.shape[0])
        out = ase(data, _StubFit([0.1, np.sqrt(0.03)]), truth)
        assert out.value == pytest.approx(0.02, abs=1e-12)


class TestAseJ:
    def _fit_with_component(self, grid, values):
        comps = np.array([values])
        return _StubFit(None, grid=grid, components=comps)

    def test_exact_component(self):
        grid = Grid.regular(25)
        fit = self._fit_with_component(grid, grid.points**2)
        data = Dataset(x=grid.points[:, None], y=np.zeros(25))
        out = ase_j(data, fit, 0, lambda t: t**2)
        assert out.value == pytest.approx(0.0, abs=1e-30)

    def test_constant_offset(self):
        grid = Grid.regular(25)
        fit = self._fit_with_component(grid, grid.points + 0.2)
        data = Dataset(x=grid.points[:, None], y=np.zeros(25))
        out = ase_j(data, fit, 0, lambda t: t)
        assert out.value == pytest.approx(0.04, abs=1e-14)

    def test_two_point_arithmetic(self):
        grid = Grid.regular(25)
        fit = self._fit_with_component(grid, np.zeros(25))
        data = Dataset(x=np.array([[0.0], [1.0]]), y=np.zeros(2))
        out = ase_j(
            data, fit, 0,
            lambda t: np.where(t < 0.5, np.sqrt(0.1), -np.sqrt(0.3) * t),
        )
        assert out.value == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("j", [-1, 1])
    def test_an_axis_out_of_range_is_rejected(self, j):
        # j = -1 scored the last axis, and j = d raised IndexError.
        grid = Grid.regular(25)
        fit = self._fit_with_component(grid, grid.points)
        data = Dataset(x=grid.points[:, None], y=np.zeros(25))
        with pytest.raises(ValueError, match=f"axis {j} out of range for d=1"):
            ase_j(data, fit, j, lambda t: t)


class TestAaseHat:
    def test_zero_curvature_is_variance_only(self):
        rng = np.random.default_rng(3)
        data = Dataset(x=rng.uniform(0, 1, (40, 2)), y=np.zeros(40))
        h = [0.1, 0.2]
        out = aase_hat(data, 0.02, np.zeros((40, 2)), h, BIWEIGHT)
        expected = 0.02 * BIWEIGHT.r_k * (1 / (40 * 0.1) + 1 / (40 * 0.2))
        assert out.value == pytest.approx(expected, rel=1e-14)

    def test_worked_example(self):
        # One axis, RSS=0.01, n=200, h=0.1, squared curvature 4: variance
        # 0.01*(5/7)/20 and bias 0.25*(1e-4*4)*(1/49).
        data = Dataset(
            x=np.random.default_rng(4).uniform(0, 1, (200, 1)), y=np.zeros(200)
        )
        curv = np.full((200, 1), 2.0)
        out = aase_hat(data, 0.01, curv, [0.1], BIWEIGHT)
        expected = 0.01 * (5 / 7) / 20 + 0.25 * (1e-4 * 4.0) / 49
        assert out.value == pytest.approx(expected, rel=1e-12)
        assert out.value == pytest.approx(3.5918e-4, rel=1e-3)

    def test_unique_interior_minimum_in_single_axis(self):
        data = Dataset(
            x=np.random.default_rng(5).uniform(0, 1, (100, 1)), y=np.zeros(100)
        )
        curv = np.full((100, 1), 2.0)
        hs = np.geomspace(0.02, 1.0, 60)
        vals = np.array(
            [aase_hat(data, 0.01, curv, [h], BIWEIGHT).value for h in hs]
        )
        k = int(np.argmin(vals))
        assert 0 < k < len(hs) - 1
        assert np.all(np.diff(vals[: k + 1]) < 0)
        assert np.all(np.diff(vals[k:]) > 0)

    def test_shape_validation(self):
        data = Dataset(x=np.full((5, 2), 0.5), y=np.zeros(5))
        with pytest.raises(ValueError):
            aase_hat(data, 0.01, np.zeros((5, 3)), [0.1, 0.1], BIWEIGHT)
