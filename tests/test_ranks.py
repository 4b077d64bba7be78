"""The one rank pass per dataset: ``TwoSampleData._ranks`` and its readers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from domtest import (
    BootstrapConfig,
    Pairing,
    OdcCurve,
    StatKind,
    TwoSampleData,
    VarianceProfile,
    bootstrap_odc,
    draw_weights,
    empirical_odc,
    ks_statistic,
    rank_profile,
    run_test,
    variance_profile,
    wmw_statistic,
)
from domtest.bootstrap import _Prepared, _screened, _variances
from domtest.stats import _wmw_value

from oracles import ecdf_brute, ks_excess_brute, odc_brute

# few distinct values, so most draws carry heavy ties; -0.0 and 0.0 compare equal
_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 3.0])


@st.composite
def _tied_data(draw):
    matched = draw(st.booleans())
    n1 = draw(st.integers(1, 12))
    n2 = n1 if matched else draw(st.integers(1, 12))
    x1 = draw(st.lists(_VALUES, min_size=n1, max_size=n1))
    x2 = draw(st.lists(_VALUES, min_size=n2, max_size=n2))
    pairing = Pairing.MATCHED if matched else Pairing.INDEPENDENT
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing)


@settings(max_examples=300, deadline=None)
@given(_tied_data())
def test_rank_readers_match_brute_force(data):
    x1, x2 = list(data.x1), list(data.x2)
    n1, n2 = data.n1, data.n2
    curve = empirical_odc(data)
    counts = [sum(a <= b for a in x1) for b in sorted(x2)]
    assert_array_equal(curve.values, odc_brute(x1, x2))
    assert curve.counts.tolist() == counts
    assert curve.values.tobytes() == (np.array(counts) / n1).tobytes()
    excess = sum(max(k * n2 - i * n1, 0) for i, k in enumerate(counts, 1))
    assert wmw_statistic(curve) == math.sqrt(n1 * n2 / (n1 + n2)) * (excess / (n1 * n2 * n2))
    best = ks_excess_brute(x1, x2)
    expected_ks = math.sqrt(n1 * n2 / (n1 + n2)) * (max(best, 0) / (n1 * n2))
    assert ks_statistic(data) == expected_ks
    pooled = np.concatenate([data.x1, data.x2])
    assert data.ties_detected == (np.unique(pooled).size < pooled.size)
    if data.pairing is Pairing.MATCHED:
        u, v = rank_profile(data)
        assert u.dtype == v.dtype == np.int64
        assert u.tolist() == [sum(b <= a for b in x1) for a in x1]
        assert v.tolist() == [sum(a <= b for a in x2) for b in x2]
        assert_array_equal(u / n1, [ecdf_brute(x1, a) for a in x1])
        assert_array_equal(v / n2, [ecdf_brute(x2, b) for b in x2])


def test_dataset_is_sorted_once(monkeypatch):
    calls = {"argsort": 0, "sort": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    rng = np.random.default_rng(61)
    x1 = rng.integers(0, 9, 40).astype(float)
    x2 = rng.integers(0, 9, 40).astype(float)
    data = TwoSampleData(x1=x1, x2=x2, pairing=Pairing.MATCHED)
    monkeypatch.setattr(np, "argsort", counted("argsort", np.argsort))
    monkeypatch.setattr(np, "sort", counted("sort", np.sort))
    for kind in (StatKind.WMW, StatKind.KS):
        run_test(data, BootstrapConfig(num_reps=49, seed=2, statistic_kind=kind))
    empirical_odc(data)
    ks_statistic(data)
    variance_profile(data)
    for _ in range(3):
        bootstrap_odc(data, draw_weights(data, rng))
    assert calls == {"argsort": 2, "sort": 0}


def test_cached_arrays_reject_writes():
    data = TwoSampleData(x1=[3.0, 1.0, 2.0], x2=[2.0, 5.0])
    assert data._ranks is data._ranks
    prep = _Prepared(data)
    for arr in (*data._ranks, prep.perm1, prep.perm2, prep.cnt1, prep.cnt2):
        with pytest.raises(ValueError):
            arr[0] = 0


# ``run_test`` reads its observed statistic and its screen from the rank cache
# through private integer helpers; the public functions wrap the same helpers.
_SINGLE = [
    TwoSampleData(x1=[1.0], x2=[1.0], pairing=Pairing.MATCHED),
    TwoSampleData(x1=[2.0], x2=[0.0, 2.0, 2.0, 3.0]),
]


def _exact_wmw(counts, n1, n2):
    excess = sum(max(int(k) * n2 - i * n1, 0) for i, k in enumerate(counts, 1))
    return math.sqrt(n1 * n2 / (n1 + n2)) * (excess / (n1 * n2 * n2))


@settings(max_examples=300, deadline=None)
@given(_tied_data())
@example(_SINGLE[0])
@example(_SINGLE[1])
def test_observed_wmw_from_the_rank_cache_equals_wmw_statistic(data):
    counts = data._ranks[2][data.n1 :]
    assert counts.dtype == np.int64
    got = _wmw_value(counts, data.n1, data.n2)
    assert got.hex() == wmw_statistic(empirical_odc(data)).hex()


def test_observed_wmw_takes_int64_counts_past_int32_products():
    # n1*n2 = 2**32: each ``m * n2`` wraps in int32, never in int64
    n1, n2 = 2**20, 2**12
    rng = np.random.default_rng(83)
    counts = np.sort(rng.integers(0, n1 + 1, n2))
    curve = OdcCurve(counts=counts, n1=n1, n2=n2)
    want = _exact_wmw(counts, n1, n2)
    assert _wmw_value(curve.counts, n1, n2) == want == wmw_statistic(curve)
    data = TwoSampleData(x1=rng.random(n1), x2=rng.random(n2) ** 0.5)
    report = run_test(data, BootstrapConfig(num_reps=1))
    assert report.statistic == _exact_wmw(data._ranks[2][n1:], n1, n2)


@settings(max_examples=300, deadline=None)
@given(_tied_data())
@example(_SINGLE[0])
@example(_SINGLE[1])
def test_screen_from_the_rank_cache_equals_the_public_objects(data):
    n1, n2 = data.n1, data.n2
    public = variance_profile(data)
    assert_array_equal(_variances(data), public.v, strict=True)
    odc, m = empirical_odc(data), _Prepared(data).m
    for tau in (0.3, 0.75, 2.0):
        screened = math.sqrt(n1 * n2 / (n1 + n2)) * (odc.values - odc.grid)
        # a dropped column is recentered at n1, where every excess clips to 0
        want = np.where(screened >= -tau * np.sqrt(public.v), m, m.dtype.type(n1))
        assert_array_equal(_screened(m, n1, lambda: _variances(data), tau), want, strict=True)
    assert _screened(m, n1, lambda: _variances(data), math.inf) is m


@pytest.mark.parametrize("pairing", list(Pairing))
@pytest.mark.parametrize("kind", [StatKind.WMW, StatKind.KS])
@pytest.mark.parametrize("tau", [0.75, math.inf])
def test_run_test_builds_no_value_object(monkeypatch, pairing, kind, tau):
    rng = np.random.default_rng(29)
    data = TwoSampleData(
        x1=rng.integers(0, 7, 30).astype(float),
        x2=rng.integers(1, 8, 30).astype(float),
        pairing=pairing,
    )
    config = BootstrapConfig(tau=tau, num_reps=99, seed=3, statistic_kind=kind)
    expected = run_test(TwoSampleData(data.x1, data.x2, pairing), config)

    def refuse(self):
        raise AssertionError(f"run_test built a {type(self).__name__}")

    for cls in (OdcCurve, VarianceProfile):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert run_test(data, config) == expected
