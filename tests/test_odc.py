import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

    @pytest.mark.parametrize(
        "counts, n1, n2",
        [
            ([0.0, 1.0], 2, 2),  # float counts, integer-valued ones too
            (np.array([0.0, 2.0], dtype=np.float32), 2, 2),
            ([0.5, 1.0], 2, 2),
            ([0.0, np.nan], 2, 2),
            ([True, True], 2, 2),
            (["0", "1"], 2, 2),
            ([[0, 1]], 2, 2),  # not a vector
            ([[0], [1]], 2, 2),
            (np.int64(1), 2, 1),
            ([0, 1, 2], 2, 2),  # the wrong length
            ([1], 2, 2),
            ([-1, 1], 2, 2),  # a count below 0 or above n1
            ([1, 3], 2, 2),
            (np.array([2**64 - 1], dtype=np.uint64), 2, 1),
            ([2, 1], 2, 2),  # decreasing
            ([0, 2, 1], 2, 3),
            ([0, 1], 2.0, 2),  # bad n1 or n2
            ([0, 1], True, 2),
            ([0, 0], 0, 2),
            ([0, 1], 2, 0),
            ([0, 1], 2, np.float64(2)),
        ],
    )
    def test_odc_curve_rejects_bad_input(self, counts, n1, n2):
        with pytest.raises(ValueError):
            OdcCurve(counts=counts, n1=n1, n2=n2)


_COUNT_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]


@settings(max_examples=200, deadline=None)
@given(
    n1=st.one_of(st.integers(1, 200), st.integers(1, 2**62)),
    n2=st.integers(1, 40),
    dtype=st.sampled_from(_COUNT_DTYPES),
    data=st.data(),
)
def test_odc_values_are_the_counts_over_n1(n1, n2, dtype, data):
    top = min(n1, np.iinfo(dtype).max)
    counts = sorted(data.draw(st.lists(st.integers(0, top), min_size=n2, max_size=n2)))
    curve = OdcCurve(counts=np.array(counts, dtype=dtype), n1=np.int64(n1), n2=n2)
    want = np.array(counts, dtype=np.int64)
    assert_array_equal(curve.counts, want, strict=True)
    assert curve.values.tobytes() == (want / n1).tobytes()
    assert type(curve.n1) is int and curve.n1 == n1
    assert not curve.counts.flags.writeable and not curve.values.flags.writeable


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

    def test_counts_copied_and_read_only(self):
        given_counts = np.array([1, 2, 4])
        curve = OdcCurve(counts=given_counts, n1=4, n2=3)
        given_counts[0] = 0
        assert_array_equal(curve.counts, [1, 2, 4])
        assert_array_equal(curve.values, [0.25, 0.5, 1.0])
        with pytest.raises(ValueError):
            curve.counts[0] = 0
        with pytest.raises(ValueError):
            curve.values[0] = 0.0

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
