"""KS draws from one running sum over the merged pooled order.

Matched pairs share one weight vector ``w``; independent samples join each
row's x1 weights to its x2 weights. Either way the recentered KS numerator at
every pooled point is a single running sum over both sorted samples taken
together. These tests check the streamed engine draw for draw against the
one-shot reduction ``_Prepared.ks_draws`` and against the definition, on wide
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
def _ks_data(draw):
    matched = draw(st.booleans())
    n1 = draw(st.integers(1, 25))
    shape = draw(st.sampled_from(["tied", "untied", "all-tied", "x1 == x2"]))
    n2 = n1 if matched or shape == "x1 == x2" else draw(st.integers(1, 25))
    if shape == "untied":
        values = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)
    elif shape == "all-tied":
        values = st.just(1.0)
    else:
        values = _VALUES
    x1 = draw(st.lists(values, min_size=n1, max_size=n1))
    x2 = x1 if shape == "x1 == x2" else draw(st.lists(values, min_size=n2, max_size=n2))
    pairing = Pairing.MATCHED if matched else Pairing.INDEPENDENT
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing)


@settings(max_examples=300, deadline=None)
@given(
    data=_ks_data(),
    num_reps=st.integers(1, 40),
    chunk_rows=st.sampled_from([1, 3, None]),
    batch_rows=st.sampled_from([7, None]),
    seed=st.integers(0, 2**32 - 1),
    int64=st.booleans(),
)
@example(data=TwoSampleData(x1=[2.0], x2=[1.0], pairing=Pairing.MATCHED),
         num_reps=5, chunk_rows=1, batch_rows=None, seed=0, int64=False)
@example(data=TwoSampleData(x1=[1.0] * 6, x2=[1.0] * 6, pairing=Pairing.MATCHED),
         num_reps=9, chunk_rows=3, batch_rows=7, seed=1, int64=False)
@example(data=TwoSampleData(x1=[0.0, 2.0, 0.5, 2.0], x2=[0.0, 2.0, 0.5, 2.0],
                            pairing=Pairing.MATCHED),
         num_reps=12, chunk_rows=None, batch_rows=None, seed=2, int64=True)
@example(data=TwoSampleData(x1=[2.0], x2=[0.5, 2.0, 2.0, -1.0, 0.5]),
         num_reps=17, chunk_rows=3, batch_rows=7, seed=3, int64=False)
@example(data=TwoSampleData(x1=[0.5, 0.5, 3.0, 0.5, -1.0, 3.0, 0.5], x2=[0.5, 3.0, 0.5]),
         num_reps=23, chunk_rows=3, batch_rows=7, seed=4, int64=True)
def test_engine_equals_two_sample_reduction_and_definition(
    data, num_reps, chunk_rows, batch_rows, seed, int64
):
    n1, n2 = data.n1, data.n2
    matched = data.pairing is Pairing.MATCHED
    per_row = n1 + n2
    config = BootstrapConfig(num_reps=num_reps, seed=seed, statistic_kind=StatKind.KS)
    with pytest.MonkeyPatch.context() as mp:
        if batch_rows is not None:
            mp.setattr("domtest.bootstrap._BATCH_ELEMENTS", batch_rows * per_row)
        chunk_elements = 1 << 40 if chunk_rows is None else chunk_rows * per_row
        mp.setattr("domtest.bootstrap._CHUNK_ELEMENTS", chunk_elements)
        prep = _Prepared(data)
        if int64:
            prep.ks_dtype = np.int64  # the buffers of wide grids, on small data
        got = _bootstrap_draws(prep, config, np.random.default_rng(seed))
    # Each batch draws all its x1 rows, then all its x2 rows; matched pairs
    # share the x1 rows.
    replay = np.random.default_rng(seed)
    batch = num_reps if batch_rows is None else batch_rows
    w1, w2 = [], []
    for done in range(0, num_reps, batch):
        rows = min(batch, num_reps - done)
        w1.append(_counts(replay.integers(0, n1, size=(rows, n1))))
        w2.append(w1[-1] if matched else _counts(replay.integers(0, n2, size=(rows, n2))))
    w1, w2 = np.concatenate(w1), np.concatenate(w2)
    assert_array_equal(got, _Prepared(data).ks_draws(w1, w2))
    best = [ks_recentered_brute(data.x1, data.x2, r1, r2) for r1, r2 in zip(w1, w2)]
    assert_array_equal(got, np.array(best) * (_sqrt_tn(n1, n2) / (n1 * n2)))


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


def test_matched_ks_builds_no_prefix_state(monkeypatch):
    # Both pairings build the one merged-order table. Independent samples
    # keep a batch matrix of x1 counts (7 rows here, sub-chunks of 3);
    # matched pairs allocate nothing with a batch's rows.
    rng = np.random.default_rng(3)
    x1, x2 = rng.integers(0, 5, 30).astype(float), rng.integers(0, 5, 30).astype(float)
    config = BootstrapConfig(num_reps=20, seed=1, statistic_kind=StatKind.KS)
    monkeypatch.setattr("domtest.bootstrap._BATCH_ELEMENTS", 7 * 60)
    monkeypatch.setattr("domtest.bootstrap._CHUNK_ELEMENTS", 3 * 60)
    empty = np.empty
    shapes = []

    def recorded(shape, *args, **kwargs):
        shapes.append(np.atleast_1d(shape)[0])
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recorded)
    for pairing, batch_matrices in ((Pairing.MATCHED, 0), (Pairing.INDEPENDENT, 1)):
        shapes.clear()
        prep = _Prepared(TwoSampleData(x1=x1, x2=x2, pairing=pairing))
        _bootstrap_draws(prep, config, np.random.default_rng(1))
        assert "ks_merged" in vars(prep)
        assert shapes.count(7) == batch_matrices


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
