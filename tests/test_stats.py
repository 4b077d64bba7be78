import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domtest import (
    OdcCurve,
    Pairing,
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


@st.composite
def _any_data(draw):
    """Tied or untied samples, equal or unequal sizes, either pairing."""
    matched = draw(st.booleans())
    n1 = draw(st.integers(1, 15))
    n2 = n1 if matched else draw(st.integers(1, 15))
    if draw(st.booleans()):
        values = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
        x1 = draw(st.lists(values, min_size=n1, max_size=n1))
        x2 = draw(st.lists(values, min_size=n2, max_size=n2))
    else:
        pooled = draw(
            st.lists(st.floats(-1e6, 1e6), min_size=n1 + n2, max_size=n1 + n2, unique=True)
        )
        x1, x2 = pooled[:n1], pooled[n1:]
    pairing = Pairing.MATCHED if matched else Pairing.INDEPENDENT
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing)


@settings(max_examples=300, deadline=None)
@given(_any_data())
@example(TwoSampleData(x1=[1.0], x2=[2.0]))
@example(TwoSampleData(x1=[2.0], x2=[1.0], pairing=Pairing.MATCHED))
@example(TwoSampleData(x1=[0.0, 0.0, 1.0], x2=[0.0]))
# every cell carries its full triangle, so area meets the upper bound
@example(TwoSampleData(x1=[-1.0, 0.0, 0.5, 2.0, 2.0], x2=[-1.0, 0.0, 0.5, 2.0, 2.0]))
def test_statistics_are_nonnegative_floats_in_the_sandwich(data):
    curve = empirical_odc(data)
    wmw = wmw_statistic(curve)
    area = odc_area_functional(curve)
    ks = ks_statistic(data)
    for value in (wmw, area, ks):
        assert type(value) is float
        assert math.isfinite(value) and value >= 0.0
    # the bound rounded as odc_area_functional rounds it: sqrt(T_n)/(2*n2),
    # divided last, can fall two ulps below an area that reaches it
    n1, n2 = data.n1, data.n2
    upper = wmw + math.sqrt(n1 * n2 / (n1 + n2)) * (1.0 / (2.0 * n2))
    assert wmw <= area <= np.nextafter(upper, np.inf)


class TestEffectiveSize:
    """Full separation: KS is sqrt(T_n) with T_n = n1*n2/(n1+n2), and WMW is
    sqrt(T_n)/n2 * sum_i (1 - i/n2) = sqrt(T_n)*(n2-1)/(2*n2)."""

    @pytest.mark.parametrize("n1,n2,t_n", [(2, 2, 1.0), (500, 500, 250.0), (100, 400, 80.0)])
    def test_examples(self, n1, n2, t_n):
        x1 = np.arange(n1, dtype=np.float64)
        data = TwoSampleData(x1=x1, x2=n1 + np.arange(n2, dtype=np.float64))
        assert ks_statistic(data) == math.sqrt(t_n)
        wmw = wmw_statistic(empirical_odc(data))
        assert math.isclose(wmw, math.sqrt(t_n) * (n2 - 1) / (2 * n2), rel_tol=1e-14)


class TestWmwStatistic:
    def test_fully_above(self):
        curve = empirical_odc(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0]))
        assert wmw_statistic(curve) == 0.25

    def test_dominated(self):
        curve = empirical_odc(TwoSampleData(x1=[3.0, 4.0], x2=[1.0, 2.0]))
        assert wmw_statistic(curve) == 0.0

    def test_on_diagonal(self):
        curve = empirical_odc(TwoSampleData(x1=[1.0, 3.0], x2=[2.0, 4.0]))
        assert wmw_statistic(curve) == 0.0

    def test_zero_iff_below_diagonal(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            curve, _ = _random_curve(rng)
            value = wmw_statistic(curve)
            below = np.all(curve.values <= curve.grid)
            assert (value == 0.0) == bool(below)

    def test_large_n_sum_does_not_wrap(self):
        # first sample wholly below the second at n1 = n2 = n: the excess
        # sum is n*n*(n-1)/2, and n1*n2**2 is past 2**63
        n = 2_700_000
        curve = OdcCurve(counts=np.full(n, n), n1=n, n2=n)
        excess = n * n * (n - 1) // 2
        expected = math.sqrt(n * n / (2 * n)) * (excess / (n * n * n))
        assert wmw_statistic(curve) == expected


class TestAreaFunctional:
    def test_fully_above(self):
        curve = empirical_odc(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0]))
        assert odc_area_functional(curve) == 0.5

    def test_dominated(self):
        curve = empirical_odc(TwoSampleData(x1=[3.0, 4.0], x2=[1.0, 2.0]))
        assert odc_area_functional(curve) == 0.0

    def test_sandwich_random(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            curve, _ = _random_curve(rng)
            wmw = wmw_statistic(curve)
            area = odc_area_functional(curve)
            sqrt_tn = math.sqrt(curve.n1 * curve.n2 / (curve.n1 + curve.n2))
            upper = wmw + sqrt_tn * (1.0 / (2.0 * curve.n2))
            assert wmw <= area
            assert area <= np.nextafter(upper, np.inf)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            curve, _ = _random_curve(rng, max_n=20)
            exact = odc_area_functional(curve)
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
            expected = wmw_statistic(curve) + sqrt_tn * (extra / (2 * n1**2 * n2**2))
            assert odc_area_functional(curve) == expected

    def test_large_n_sum_does_not_wrap(self):
        # every cell of the all-ones curve is full, so the excess numerator is
        # n * n**2, past 2**63 at this n
        n = 2_700_000
        curve = OdcCurve(counts=np.full(n, n), n1=n, n2=n)
        expected = wmw_statistic(curve) + math.sqrt(n / 2) * (n**3 / (2 * n**4))
        assert odc_area_functional(curve) == expected

    def test_quadrature_analytic_corner(self):
        curve = empirical_odc(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0]))
        approx = quadrature_area(curve.values, 2, 2, grid=1_000_000)
        assert abs(approx - 0.5) <= 1e-5


class TestKsStatistic:
    def test_full_separation(self):
        assert ks_statistic(TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0])) == 1.0

    def test_dominated(self):
        assert ks_statistic(TwoSampleData(x1=[3.0, 4.0], x2=[1.0, 2.0])) == 0.0

    def test_interleaved(self):
        assert ks_statistic(TwoSampleData(x1=[1.0, 3.0], x2=[2.0, 4.0])) == 0.5

    def test_zero_iff_first_cdf_below(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            _, data = _random_curve(rng)
            value = ks_statistic(data)
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
            wmw = wmw_statistic(empirical_odc(data))
            ks = ks_statistic(data)
            for g in (np.exp, lambda x: x**3 + 7.0):
                moved = TwoSampleData(x1=g(data.x1), x2=g(data.x2))
                assert wmw_statistic(empirical_odc(moved)) == wmw
                assert ks_statistic(moved) == ks
