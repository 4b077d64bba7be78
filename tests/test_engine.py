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


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.MT19937, np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
    ids=lambda g: g.__name__,
)
@pytest.mark.parametrize("bound", [1, 2, 7, 4999, 2**31 + 11, 2**32 + 5])
def test_integers_over_row_blocks_equal_one_call(bit_generator, bound):
    # Independent samples draw each batch one sub-chunk of rows at a time.
    # That keeps the seeded draws only because ``integers`` buffers nothing
    # outside the bit generator's state. The odd-length prefix leaves half of
    # a 64-bit word buffered for the 32-bit path (bounds up to 2**32).
    whole, split = (np.random.Generator(bit_generator(123)) for _ in range(2))
    for gen in (whole, split):
        gen.integers(0, 7, size=3)
    want = whole.integers(0, bound, size=(11, 13))
    got = np.concatenate([split.integers(0, bound, size=(r, 13)) for r in (1, 4, 2, 3, 1)])
    assert_array_equal(got, want)
    # both generators are left in the same state, half-word buffer included
    assert_array_equal(split.integers(0, 7, size=5), whole.integers(0, 7, size=5))
    assert split.random() == whole.random()


@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
@pytest.mark.parametrize("kind", [StatKind.WMW, StatKind.KS])
def test_run_test_holds_no_batch_of_draws(kind, pairing):
    # Both pairings stream their category draws: a batch holds at most one
    # batch matrix (WMW head rows, 400 x 5001 int32, or independent KS's x1
    # counts, 400 x 5000 int32; 8 MB each) and cache-sized sub-chunk buffers,
    # never a batch of draws (400 x 5000 int64, 16 MB per sample).
    rng = np.random.default_rng(5)
    data = TwoSampleData(x1=rng.random(5000), x2=rng.random(5000) ** 1.2, pairing=pairing)
    config = BootstrapConfig(num_reps=999, seed=1, statistic_kind=kind)
    tracemalloc.start()
    try:
        run_test(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, f"peak {peak / 1e6:.1f} MB"


def test_prepared_builds_only_what_its_statistic_reads():
    data = TwoSampleData(x1=[0.5, 2.0, 1.0], x2=[1.0, 3.0])
    c1, c2 = np.array([[0, 0, 2]]), np.array([[1, 0]])
    wmw = _Prepared(data)
    wmw.odc_counts(c1, c2)
    ks = _Prepared(data)
    ks.ks_draws(_counts(c1), _counts(c2))
    assert {"g1", "rank2"} <= vars(wmw).keys()
    assert "ks_merged" not in vars(wmw)
    assert "ks_merged" in vars(ks)
    assert not {"g1", "rank2"} & vars(ks).keys()


@st.composite
def _dataset(draw):
    matched = draw(st.booleans())
    n1 = draw(st.integers(1, 30))
    n2 = n1 if matched else draw(st.integers(1, 30))
    if draw(st.booleans()):
        values = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)
    else:
        values = _VALUES
    x1 = draw(st.lists(values, min_size=n1, max_size=n1))
    x2 = draw(st.lists(values, min_size=n2, max_size=n2))
    pairing = Pairing.MATCHED if matched else Pairing.INDEPENDENT
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing)


@settings(max_examples=150, deadline=None)
@given(
    data=_dataset(),
    tau=st.sampled_from([0.3, 0.75, 1.5]),
    seed=st.integers(0, 2**64 - 1),
)
def test_screened_critical_value_at_most_standard(data, tau, seed):
    # Same seed, same weights: each screened draw sums a subset of the
    # standard draw's nonnegative cells, so it can only be smaller.
    fin = run_test(data, BootstrapConfig(tau=tau, num_reps=99, seed=seed))
    std = run_test(data, BootstrapConfig(tau=math.inf, num_reps=99, seed=seed))
    assert fin.statistic == std.statistic
    assert fin.critical_value <= std.critical_value
    assert fin.p_value <= std.p_value

