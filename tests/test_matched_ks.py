"""Matched-pair KS draws from one running sum over the merged pooled order.

Matched pairs share one weight vector ``w``, so the recentered KS numerator
at every pooled point is a single running sum over both sorted samples taken
together. These tests check that pass draw for draw against the two-sample
reduction ``_Prepared.ks_draws(w, w)`` and against the definition, on wide
grids where 32-bit sums would wrap, and bound its memory.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from domtest import BootstrapConfig, Pairing, StatKind, TwoSampleData, run_test
from domtest.bootstrap import _bootstrap_draws, _counts, _multinomial_rows, _Prepared
from domtest.stats import _sqrt_tn

from oracles import ks_recentered_brute

# few distinct values, so most datasets carry heavy ties
_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.0])


@st.composite
def _matched_data(draw):
    n = draw(st.integers(1, 25))
    shape = draw(st.sampled_from(["tied", "untied", "all-tied", "x1 == x2"]))
    if shape == "untied":
        values = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)
    elif shape == "all-tied":
        values = st.just(1.0)
    else:
        values = _VALUES
    x1 = draw(st.lists(values, min_size=n, max_size=n))
    x2 = x1 if shape == "x1 == x2" else draw(st.lists(values, min_size=n, max_size=n))
    return TwoSampleData(x1=x1, x2=x2, pairing=Pairing.MATCHED)


@settings(max_examples=300, deadline=None)
@given(
    data=_matched_data(),
    num_reps=st.integers(1, 40),
    chunk_rows=st.sampled_from([1, 3, None]),
    batch_rows=st.sampled_from([7, None]),
    seed=st.integers(0, 2**32 - 1),
)
@example(data=TwoSampleData(x1=[2.0], x2=[1.0], pairing=Pairing.MATCHED),
         num_reps=5, chunk_rows=1, batch_rows=None, seed=0)
@example(data=TwoSampleData(x1=[1.0] * 6, x2=[1.0] * 6, pairing=Pairing.MATCHED),
         num_reps=9, chunk_rows=3, batch_rows=7, seed=1)
@example(data=TwoSampleData(x1=[0.0, 2.0, 0.5, 2.0], x2=[0.0, 2.0, 0.5, 2.0],
                            pairing=Pairing.MATCHED),
         num_reps=12, chunk_rows=None, batch_rows=None, seed=2)
def test_engine_equals_two_sample_reduction_and_definition(
    data, num_reps, chunk_rows, batch_rows, seed
):
    n = data.n1
    per_row = 2 * n
    config = BootstrapConfig(num_reps=num_reps, seed=seed, statistic_kind=StatKind.KS)
    with pytest.MonkeyPatch.context() as mp:
        if batch_rows is not None:
            mp.setattr("domtest.bootstrap._BATCH_ELEMENTS", batch_rows * per_row)
        chunk_elements = 1 << 40 if chunk_rows is None else chunk_rows * per_row
        mp.setattr("domtest.bootstrap._CHUNK_ELEMENTS", chunk_elements)
        prep = _Prepared(data)
        got = _bootstrap_draws(prep, config, np.random.default_rng(seed))
    # Matched pairs draw only x1 rows, so the whole stream is one call.
    w = _counts(np.random.default_rng(seed).integers(0, n, size=(num_reps, n)))
    assert_array_equal(got, _Prepared(data).ks_draws(w, w))
    best = [ks_recentered_brute(data.x1, data.x2, row, row) for row in w]
    assert_array_equal(got, np.array(best) * (_sqrt_tn(n, n) / (n * n)))


@pytest.mark.parametrize("n, dtype", [(32_767, np.int32), (40_000, np.int64)])
def test_wide_grid_matches_int64_formula(n, dtype):
    # The recentered numerator reaches 2*n*n - 2*n: just below 2**31 at
    # n = 32767, where 32-bit sums still hold it, and beyond it at n = 40000.
    # Pair 0 holds the smallest x1 and the largest x2; putting all mass on it
    # gives that extreme draw.
    x1 = np.concatenate([[0.0], np.arange(n - 1) + n + 1.0])
    x2 = np.concatenate([[10.0 * n], np.arange(1.0, n)])
    data = TwoSampleData(x1=x1, x2=x2, pairing=Pairing.MATCHED)
    prep = _Prepared(data)
    assert prep.ks_dtype is dtype
    w = np.zeros((2, n), dtype=np.int64)
    w[0, 0] = n
    w[1] = _multinomial_rows(np.random.default_rng(13), n, 1)[0]
    draws = prep.ks_shared(w)

    zeros = np.zeros((2, 1), dtype=np.int64)
    cum1 = np.concatenate([zeros, np.cumsum(w[:, prep.perm1], axis=1)], axis=1)
    cum2 = np.concatenate([zeros, np.cumsum(w[:, prep.perm2], axis=1)], axis=1)
    cnt1 = prep.cnt1.astype(np.int64)
    cnt2 = prep.cnt2.astype(np.int64)
    diff = (cum1[:, cnt1] - cnt1) * n - (cum2[:, cnt2] - cnt2) * n
    best = np.maximum(diff.max(axis=1), 0)
    assert best[0] == 2 * n * n - 2 * n
    assert_array_equal(draws, best * (math.sqrt(n / 2) / (n * n)))


def test_matched_ks_builds_no_prefix_state():
    rng = np.random.default_rng(3)
    x1, x2 = rng.integers(0, 5, 30).astype(float), rng.integers(0, 5, 30).astype(float)
    config = BootstrapConfig(num_reps=20, seed=1, statistic_kind=StatKind.KS)
    matched = _Prepared(TwoSampleData(x1=x1, x2=x2, pairing=Pairing.MATCHED))
    _bootstrap_draws(matched, config, np.random.default_rng(1))
    assert "ks_merged" in vars(matched)
    assert "ks_base" not in vars(matched)
    independent = _Prepared(TwoSampleData(x1=x1, x2=x2))
    _bootstrap_draws(independent, config, np.random.default_rng(1))
    assert "ks_base" in vars(independent)
    assert "ks_merged" not in vars(independent)


def test_matched_ks_run_test_peak_memory():
    # Matched KS holds no prefix matrix (400 x 5001, 8 MB at this size): only
    # its two per-call sub-chunk buffers and one sub-chunk's counts.
    rng = np.random.default_rng(5)
    data = TwoSampleData(
        x1=rng.random(5000), x2=rng.random(5000) ** 1.2, pairing=Pairing.MATCHED
    )
    config = BootstrapConfig(num_reps=999, seed=1, statistic_kind=StatKind.KS)
    tracemalloc.start()
    try:
        run_test(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, f"peak {peak / 1e6:.1f} MB"
