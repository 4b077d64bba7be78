import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from domtest import (
    OdcCurve,
    Pairing,
    TwoSampleData,
    empirical_odc,
    rank_profile,
)

from oracles import ecdf_brute, empirical_quantile, odc_brute


def _random_data(rng, max_n=60):
    n1 = int(rng.integers(1, max_n))
    n2 = int(rng.integers(1, max_n))
    return TwoSampleData(x1=rng.random(n1), x2=rng.random(n2))


class TestValidation:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            TwoSampleData(x1=[], x2=[1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TwoSampleData(x1=[1.0, np.nan], x2=[1.0])
        with pytest.raises(ValueError):
            TwoSampleData(x1=[1.0], x2=[np.inf])

    def test_matched_needs_equal_sizes(self):
        with pytest.raises(ValueError):
            TwoSampleData(x1=[1.0, 2.0], x2=[1.0], pairing=Pairing.MATCHED)

    def test_ties_detected(self):
        assert TwoSampleData(x1=[1.0, 2.0], x2=[2.0]).ties_detected
        assert not TwoSampleData(x1=[1.0, 2.0], x2=[3.0]).ties_detected

    def test_odc_curve_rejects_decreasing(self):
        with pytest.raises(ValueError):
            OdcCurve(values=[1.0, 0.5], n1=2, n2=2)

    def test_odc_curve_rejects_off_grid(self):
        with pytest.raises(ValueError):
            OdcCurve(values=[0.3, 0.9], n1=2, n2=2)

    @pytest.mark.parametrize("values", [[0.5, 1.5], [-0.5, 1.0], [0.4, 1.0]])
    def test_odc_curve_values_must_be_counts_over_n1(self, values):
        # above n1, below 0 and between grid points all fail the one comparison
        with pytest.raises(ValueError, match=re.escape("multiples k/2 with 0 <= k <= 2")):
            OdcCurve(values=values, n1=2, n2=2)

    def test_odc_curve_accepts_exact_floats_at_large_n1(self):
        # k/n1 scales back to k only within n1 * 2**-52, far above 1e-8 here
        n1 = 1_000_000_009
        k = np.sort(np.random.default_rng(12).integers(0, n1 + 1, 200))
        curve = OdcCurve(values=k / n1, n1=n1, n2=200)
        assert_array_equal(curve.counts, k)
        assert curve.values.tobytes() == (k / n1).tobytes()

    @pytest.mark.parametrize(
        "values,n1,n2",
        [
            ([0.5, np.nan], 2, 2),
            ([0.5, np.inf], 2, 2),
            ([-np.inf, 1.0], 2, 2),
            ([0.4, 0.8], 2.5, 2),
            ([1.0], True, 1),
            ([0.5, 1.0], 2, 0),
        ],
    )
    def test_odc_curve_rejects_bad_input(self, values, n1, n2):
        with pytest.raises(ValueError):
            OdcCurve(values=values, n1=n1, n2=n2)


class TestEcdf:
    """The first sample's ECDF, as the ODC reads it at each second-sample value:
    R_hat(i/n2) is the fraction of x1 at or below the i-th smallest x2."""

    @pytest.mark.parametrize(
        "x,expected",
        [(2.0, 2.0 / 3.0), (0.0, 0.0), (3.5, 1.0)],
    )
    def test_examples(self, x, expected):
        assert empirical_odc(TwoSampleData(x1=[1.0, 2.0, 3.0], x2=[x])).values[0] == expected

    def test_step_function_shape(self):
        rng = np.random.default_rng(11)
        sample = rng.random(25)
        below, above = sample.min() - 1.0, sample.max()
        xs = np.concatenate([[below, above], sample, rng.random(50)])
        curve = empirical_odc(TwoSampleData(x1=sample, x2=xs))
        assert_array_equal(curve.values, [ecdf_brute(sample, x) for x in np.sort(xs)])
        assert curve.values[0] == 0.0 and curve.values[-1] == 1.0
        # right-continuity: at a jump the value equals the limit from above
        x0 = float(sample[0])
        at_jump = empirical_odc(TwoSampleData(x1=sample, x2=[x0])).values[0]
        past_jump = empirical_odc(TwoSampleData(x1=sample, x2=[np.nextafter(x0, np.inf)])).values[0]
        assert at_jump == past_jump == ecdf_brute(sample, x0)


class TestEmpiricalQuantile:
    @pytest.mark.parametrize(
        "u,expected",
        [(0.5, 3.0), (1.0, 5.0), (0.01, 1.0)],
    )
    def test_examples(self, u, expected):
        assert empirical_quantile([5.0, 1.0, 3.0], u) == expected

    @pytest.mark.parametrize("u", [0.0, -0.1, 1.0001])
    def test_domain_errors(self, u):
        with pytest.raises(ValueError):
            empirical_quantile([1.0, 2.0], u)

    def test_is_generalized_inverse(self):
        rng = np.random.default_rng(13)
        sample = rng.random(17)
        for u in rng.uniform(0.001, 1.0, size=50):
            q = empirical_quantile(sample, float(u))
            assert ecdf_brute(sample, q) >= u
            below = q - 1e-12
            if below >= sample.min():
                assert ecdf_brute(sample, below) < u or q == sample.min()


class TestEmpiricalOdc:
    @pytest.mark.parametrize(
        "x1,x2,expected",
        [
            ([1.0, 2.0], [3.0, 4.0], [1.0, 1.0]),
            ([3.0, 4.0], [1.0, 2.0], [0.0, 0.0]),
            ([1.0, 3.0], [2.0, 4.0], [0.5, 1.0]),
        ],
    )
    def test_examples(self, x1, x2, expected):
        curve = empirical_odc(TwoSampleData(x1=x1, x2=x2))
        assert_array_equal(curve.values, expected)

    def test_matches_brute(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            data = _random_data(rng)
            curve = empirical_odc(data)
            assert_array_equal(curve.values, odc_brute(data.x1, data.x2))

    def test_rank_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            data = _random_data(rng)
            base = empirical_odc(data).values
            for g in (np.exp, lambda x: x**3 + 7.0):
                moved = TwoSampleData(x1=g(data.x1), x2=g(data.x2), pairing=data.pairing)
                assert_array_equal(empirical_odc(moved).values, base)

    def test_monotone_and_on_grid(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            data = _random_data(rng)
            curve = empirical_odc(data)
            assert np.all(np.diff(curve.values) >= 0)
            assert np.all(curve.values >= 0) and np.all(curve.values <= 1)
            scaled = curve.values * data.n1
            assert_allclose(scaled, np.rint(scaled), atol=1e-9)

    def test_counts_roundtrip(self):
        data = TwoSampleData(x1=np.arange(7.0), x2=np.arange(3.0) + 0.5)
        curve = empirical_odc(data)
        assert_array_equal(curve.counts / data.n1, curve.values)

    def test_counts_cached_and_read_only(self):
        curve = OdcCurve(values=[0.25, 0.5, 1.0], n1=4, n2=3)
        assert curve.counts is curve.counts
        assert_array_equal(curve.counts, [1, 2, 4])
        with pytest.raises(ValueError):
            curve.counts[0] = 0

    def test_tied_x2_well_defined(self):
        # duplicate second-sample values get the same ODC value regardless of order
        a = empirical_odc(TwoSampleData(x1=[1.0, 2.0, 3.0], x2=[2.0, 2.0, 1.0]))
        b = empirical_odc(TwoSampleData(x1=[1.0, 2.0, 3.0], x2=[1.0, 2.0, 2.0]))
        assert_array_equal(a.values, b.values)


class TestRankProfile:
    def test_comonotone(self):
        data = TwoSampleData(x1=[10.0, 20.0], x2=[5.0, 6.0], pairing=Pairing.MATCHED)
        u, v = rank_profile(data)
        assert_array_equal(u, [1, 2], strict=True)
        assert_array_equal(v, [1, 2], strict=True)

    def test_antithetic(self):
        data = TwoSampleData(x1=[10.0, 20.0], x2=[6.0, 5.0], pairing=Pairing.MATCHED)
        u, v = rank_profile(data)
        assert_array_equal(u, [1, 2], strict=True)
        assert_array_equal(v, [2, 1], strict=True)

    def test_single_pair(self):
        data = TwoSampleData(x1=[7.0], x2=[9.0], pairing=Pairing.MATCHED)
        u, v = rank_profile(data)
        assert_array_equal(u, [1], strict=True)
        assert_array_equal(v, [1], strict=True)

    def test_independent_rejected(self):
        data = TwoSampleData(x1=[1.0, 2.0], x2=[3.0, 4.0])
        with pytest.raises(ValueError):
            rank_profile(data)

    def test_permutation_without_ties(self):
        rng = np.random.default_rng(17)
        n = 23
        data = TwoSampleData(x1=rng.random(n), x2=rng.random(n), pairing=Pairing.MATCHED)
        u, v = rank_profile(data)
        expected = np.arange(1, n + 1)
        assert_array_equal(np.sort(u), expected)
        assert_array_equal(np.sort(v), expected)
