"""The draw-indexed bootstrap engine against the count-matrix reduction.

``run_test`` reduces raw category draws (row r resamples ``x1[c1[r]]`` and
``x2[c2[r]]``) without building count matrices. These tests check it draw
for draw against ``oracles.wmw_draws_reference``, which works from the
per-row counts of the same draws, and bound the engine's peak memory.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from domtest import BootstrapConfig, Pairing, StatKind, TwoSampleData, run_test
from domtest.bootstrap import _bootstrap_draws, _categories, _counts, _Prepared

from oracles import odc_counts_reference, wmw_draws_reference

# few distinct values, so most datasets carry heavy ties
_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.0])
_TAUS = st.sampled_from([math.inf, 0.75, 0.3])


def _row_counts(categories, n):
    return np.array([np.bincount(row, minlength=n) for row in categories], dtype=np.int64)


@st.composite
def _draw_case(draw):
    matched = draw(st.booleans())
    n1 = draw(st.integers(1, 14))
    n2 = n1 if matched else draw(st.integers(1, 14))
    untied = draw(st.booleans())
    if untied:
        values = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)
    else:
        values = _VALUES
    x1 = draw(st.lists(values, min_size=n1, max_size=n1))
    x2 = draw(st.lists(values, min_size=n2, max_size=n2))
    pairing = Pairing.MATCHED if matched else Pairing.INDEPENDENT
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c1 = rng.integers(0, n1, size=(rows, n1))
    c2 = c1 if matched else rng.integers(0, n2, size=(rows, n2))
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing), c1, c2


@settings(max_examples=400, deadline=None)
@given(case=_draw_case(), tau=_TAUS)
@example(
    case=(
        TwoSampleData(x1=[1.0], x2=[0.0, 1.0, 1.0, 2.0]),
        np.zeros((2, 1), int),
        np.array([[1, 1, 2, 3], [0, 0, 0, 0]]),
    ),
    tau=0.75,
)
@example(
    case=(
        TwoSampleData(x1=[2.0, 1.0, 1.0], x2=[1.0]),
        np.array([[1, 2, 0], [0, 0, 0]]),
        np.zeros((2, 1), int),
    ),
    tau=math.inf,
)
def test_draw_indexed_rows_equal_count_reference(case, tau):
    data, c1, c2 = case
    prep = _Prepared(data)
    keep = prep.keep_columns(tau)
    w1, w2 = _row_counts(c1, data.n1), _row_counts(c2, data.n2)
    want_odc, _ = odc_counts_reference(data.x1, data.x2, w1, w2)
    assert_array_equal(prep.odc_counts(c1, c2), want_odc)
    want = wmw_draws_reference(data.x1, data.x2, w1, w2, keep)
    assert_array_equal(prep.wmw_rows(c1, c2, keep), want)
    assert_array_equal(prep.wmw_draws(w1, w2, keep), want)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_categories_round_trip_through_bincount(n, rows, seed):
    draws = np.random.default_rng(seed).integers(0, n, size=(rows, n))
    w = _row_counts(draws, n)
    assert_array_equal(_counts(draws), w)
    categories = _categories(w)
    assert categories.shape == (rows, n)
    assert_array_equal(categories, np.sort(draws, axis=1))
    assert_array_equal(_counts(categories), w)


@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
@pytest.mark.parametrize("kind", [StatKind.WMW, StatKind.KS])
def test_engine_replays_the_draw_schedule(monkeypatch, pairing, kind):
    # Several batches of 7 rows: each batch draws all its x1 rows, then all
    # its x2 rows (matched pairs share the x1 rows), from one stream.
    rng = np.random.default_rng(71)
    n1 = 19
    n2 = n1 if pairing is Pairing.MATCHED else 26
    data = TwoSampleData(
        x1=rng.integers(0, 6, n1).astype(float),
        x2=rng.integers(0, 6, n2).astype(float),
        pairing=pairing,
    )
    monkeypatch.setattr("domtest.bootstrap._BATCH_ELEMENTS", 7 * (n1 + n2))
    monkeypatch.setattr("domtest.bootstrap._CHUNK_ELEMENTS", 3 * (n1 + n2))
    config = BootstrapConfig(tau=0.75, num_reps=30, seed=4, statistic_kind=kind)
    prep = _Prepared(data)
    got = _bootstrap_draws(prep, config, np.random.default_rng(9))

    replay = np.random.default_rng(9)
    want = []
    for done in range(0, 30, 7):
        rows = min(7, 30 - done)
        c1 = replay.integers(0, n1, size=(rows, n1))
        c2 = c1 if pairing is Pairing.MATCHED else replay.integers(0, n2, size=(rows, n2))
        w1, w2 = _row_counts(c1, n1), _row_counts(c2, n2)
        if kind is StatKind.WMW:
            want.append(wmw_draws_reference(data.x1, data.x2, w1, w2, prep.keep_columns(0.75)))
        else:
            want.append(prep.ks_draws(w1, w2))
    assert_array_equal(got, np.concatenate(want))


def test_wmw_run_test_peak_memory():
    # One batch of category draws per sample is 400 x 5000 int64, 16 MB. The
    # engine may hold one batch of each sample plus cache-sized temporaries,
    # but never the previous batch while it draws the next.
    rng = np.random.default_rng(5)
    data = TwoSampleData(x1=rng.random(5000), x2=rng.random(5000) ** 1.2)
    config = BootstrapConfig(num_reps=999, seed=1)
    tracemalloc.start()
    try:
        run_test(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6, f"peak {peak / 1e6:.1f} MB"
