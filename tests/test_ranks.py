"""The one rank pass per dataset: ``TwoSampleData._ranks`` and its readers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from domtest import (
    BootstrapConfig,
    Pairing,
    StatKind,
    TwoSampleData,
    bootstrap_odc,
    draw_weights,
    empirical_odc,
    ks_statistic,
    rank_profile,
    run_test,
    variance_profile,
    wmw_statistic,
)
from domtest.bootstrap import _Prepared

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
    assert wmw_statistic(curve).value == math.sqrt(n1 * n2 / (n1 + n2)) * (excess / (n1 * n2 * n2))
    best = ks_excess_brute(x1, x2)
    expected_ks = math.sqrt(n1 * n2 / (n1 + n2)) * (max(best, 0) / (n1 * n2))
    assert ks_statistic(data).value == expected_ks
    pooled = np.concatenate([data.x1, data.x2])
    assert data.ties_detected == (np.unique(pooled).size < pooled.size)
    if data.pairing is Pairing.MATCHED:
        prof = rank_profile(data)
        assert_array_equal(prof.u_ranks, [ecdf_brute(x1, a) for a in x1])
        assert_array_equal(prof.v_ranks, [ecdf_brute(x2, b) for b in x2])


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
