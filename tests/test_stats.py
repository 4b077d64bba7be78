import math

import numpy as np
import pytest

from domtest import (
    OdcCurve,
    TwoSampleData,
    empirical_odc,
    ks_statistic,
    odc_area_functional,
    wmw_statistic,
)

from oracles import area_excess_brute, quadrature_area


def _random_curve(rng, max_n=60):
    n1 = int(rng.integers(1, max_n))
    n2 = int(rng.integers(1, max_n))
    data = TwoSampleData(x1=rng.random(n1), x2=rng.random(n2))
    return empirical_odc(data), data


class TestEffectiveSize:
    """Full separation: KS is sqrt(T_n) with T_n = n1*n2/(n1+n2), and WMW is
    sqrt(T_n)/n2 * sum_i (1 - i/n2) = sqrt(T_n)*(n2-1)/(2*n2)."""

    @pytest.mark.parametrize("n1,n2,t_n", [(2, 2, 1.0), (500, 500, 250.0), (100, 400, 80.0)])
    def test_examples(self, n1, n2, t_n):
        x1 = np.arange(n1, dtype=np.float64)
        data = TwoSampleData(x1=x1, x2=n1 + np.arange(n2, dtype=np.float64))
        assert ks_statistic(data).value == math.sqrt(t_n)
        wmw = wmw_statistic(empirical_odc(data)).value
        assert math.isclose(wmw, math.sqrt(t_n) * (n2 - 1) / (2 * n2), rel_tol=1e-14)


class TestWmwStatistic:
    def test_fully_above(self):
        curve = empirical_odc(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0]))
        assert wmw_statistic(curve).value == 0.25

    def test_dominated(self):
        curve = empirical_odc(TwoSampleData(x1=[3.0, 4.0], x2=[1.0, 2.0]))
        assert wmw_statistic(curve).value == 0.0

    def test_on_diagonal(self):
        curve = empirical_odc(TwoSampleData(x1=[1.0, 3.0], x2=[2.0, 4.0]))
        assert wmw_statistic(curve).value == 0.0

    def test_zero_iff_below_diagonal(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            curve, _ = _random_curve(rng)
            value = wmw_statistic(curve).value
            below = np.all(curve.values <= curve.grid)
            assert (value == 0.0) == bool(below)

    def test_large_n_sum_does_not_wrap(self):
        # first sample wholly below the second at n1 = n2 = n: the excess
        # sum is n*n*(n-1)/2, and n1*n2**2 is past 2**63
        n = 2_700_000
        curve = OdcCurve(values=np.ones(n), n1=n, n2=n)
        excess = n * n * (n - 1) // 2
        expected = math.sqrt(n * n / (2 * n)) * (excess / (n * n * n))
        assert wmw_statistic(curve).value == expected


class TestAreaFunctional:
    def test_fully_above(self):
        curve = empirical_odc(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0]))
        assert odc_area_functional(curve).value == 0.5

    def test_dominated(self):
        curve = empirical_odc(TwoSampleData(x1=[3.0, 4.0], x2=[1.0, 2.0]))
        assert odc_area_functional(curve).value == 0.0

    def test_sandwich_random(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            curve, _ = _random_curve(rng)
            wmw = wmw_statistic(curve).value
            area = odc_area_functional(curve).value
            sqrt_tn = math.sqrt(curve.n1 * curve.n2 / (curve.n1 + curve.n2))
            upper = wmw + sqrt_tn * (1.0 / (2.0 * curve.n2))
            assert wmw <= area
            assert area <= np.nextafter(upper, np.inf)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            curve, _ = _random_curve(rng, max_n=20)
            exact = odc_area_functional(curve).value
            approx = quadrature_area(curve.values, curve.n1, curve.n2, grid=200_000)
            sqrt_tn = math.sqrt(curve.n1 * curve.n2 / (curve.n1 + curve.n2))
            assert abs(approx - exact) <= 2.0 * sqrt_tn / 200_000

    def test_matches_cell_loop_on_tied_unequal_n(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            n1, n2 = (int(n) for n in rng.choice(np.arange(1, 60), size=2, replace=False))
            data = TwoSampleData(x1=rng.integers(0, 6, n1), x2=rng.integers(0, 6, n2))
            curve = empirical_odc(data)
            extra = area_excess_brute(curve.counts, n1, n2)
            sqrt_tn = math.sqrt(n1 * n2 / (n1 + n2))
            expected = wmw_statistic(curve).value + sqrt_tn * (extra / (2 * n1**2 * n2**2))
            assert odc_area_functional(curve).value == expected

    def test_large_n_sum_does_not_wrap(self):
        # every cell of the all-ones curve is full, so the excess numerator is
        # n * n**2, past 2**63 at this n
        n = 2_700_000
        curve = OdcCurve(values=np.ones(n), n1=n, n2=n)
        expected = wmw_statistic(curve).value + math.sqrt(n / 2) * (n**3 / (2 * n**4))
        assert odc_area_functional(curve).value == expected

    def test_quadrature_analytic_corner(self):
        curve = empirical_odc(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0]))
        approx = quadrature_area(curve.values, 2, 2, grid=1_000_000)
        assert abs(approx - 0.5) <= 1e-5


class TestKsStatistic:
    def test_full_separation(self):
        assert ks_statistic(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0])).value == 1.0

    def test_dominated(self):
        assert ks_statistic(TwoSampleData(x1=[3.0, 4.0], x2=[1.0, 2.0])).value == 0.0

    def test_interleaved(self):
        assert ks_statistic(TwoSampleData(x1=[1.0, 3.0], x2=[2.0, 4.0])).value == 0.5

    def test_zero_iff_first_cdf_below(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            _, data = _random_curve(rng)
            value = ks_statistic(data).value
            pooled = np.concatenate([data.x1, data.x2])
            diffs = [
                np.mean(data.x1 <= x) - np.mean(data.x2 <= x) for x in pooled
            ]
            assert (value == 0.0) == bool(max(diffs) <= 0)


class TestScaleInvariance:
    def test_monotone_transforms(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            _, data = _random_curve(rng)
            wmw = wmw_statistic(empirical_odc(data)).value
            ks = ks_statistic(data).value
            for g in (np.exp, lambda x: x**3 + 7.0):
                moved = TwoSampleData(x1=g(data.x1), x2=g(data.x2))
                assert wmw_statistic(empirical_odc(moved)).value == wmw
                assert ks_statistic(moved).value == ks
