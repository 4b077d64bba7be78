"""The draw-indexed bootstrap engine against the count-matrix reduction.

``run_test`` reduces raw category draws (row r resamples ``x1[c1[r]]`` and
``x2[c2[r]]``) without building count matrices. These tests check it draw
for draw against ``oracles.wmw_draws_reference``, which works from the
per-row counts of the same draws, bound the engine's peak memory and check
how long it keeps each draw matrix.
"""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from domtest import (
    BootstrapConfig, BootstrapWeights, Pairing, StatKind, TwoSampleData, bootstrap_odc, run_test,
)
from domtest.bootstrap import _bootstrap_draws, _column_counts, _Prepared

from oracles import (
    categories_of, kept_columns, ks_draws, odc_counts_reference, row_counts, wmw_draws,
    wmw_draws_reference,
)

# few distinct values, so most datasets carry heavy ties
_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.0])
_TAUS = st.sampled_from([math.inf, 0.75, 0.3])


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
    keep = kept_columns(data, tau)
    w1, w2 = row_counts(c1, data.n1), row_counts(c2, data.n2)
    want_odc, _ = odc_counts_reference(data.x1, data.x2, w1, w2)
    assert_array_equal(prep.odc_tail(prep.wmw_head(prep.g1[c1]), np.sort(prep.rank2[c2])), want_odc)
    want = wmw_draws_reference(data.x1, data.x2, w1, w2, keep)
    assert_array_equal(wmw_draws(prep, w1, w2, keep), want)


@settings(max_examples=400, deadline=None)
@given(case=_draw_case())
@example(
    case=(
        TwoSampleData(x1=[1.0], x2=[0.0, 1.0, 1.0, 2.0]),
        np.zeros((1, 1), int),
        np.array([[3, 3, 1, 3]]),
    ),
)
@example(
    case=(
        TwoSampleData(x1=[2.0, 1.0, 1.0], x2=[1.0, 0.0, 1.0], pairing=Pairing.MATCHED),
        np.array([[1, 1, 0]]),
        np.array([[1, 1, 0]]),
    ),
)
def test_bootstrap_odc_equals_count_reference(case):
    # the one-row public op builds its hits and sorted ranks straight from
    # the weights, with no category draws; row 0 of each case is its weights
    data, c1, c2 = case
    w1, w2 = row_counts(c1[:1], data.n1), row_counts(c2[:1], data.n2)
    want, _ = odc_counts_reference(data.x1, data.x2, w1, w2)
    got = bootstrap_odc(data, BootstrapWeights(w1=w1[0], w2=w2[0]))
    assert_array_equal(got.counts, want[0], strict=True)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    rows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_categories_round_trip_through_bincount(n, rows, seed):
    draws = np.random.default_rng(seed).integers(0, n, size=(rows, n))
    w = row_counts(draws, n)
    assert_array_equal(_column_counts(draws.copy()).T, w)
    categories = categories_of(w)
    assert categories.shape == (rows, n)
    assert_array_equal(categories, np.sort(draws, axis=1))
    assert_array_equal(_column_counts(categories).T, w)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 40),
    n=st.integers(1, 61),
    seed=st.integers(0, 2**32 - 1),
)
def test_take_over_its_own_indices_equals_a_fresh_gather(rows, n, seed):
    # WMW's lookups overwrite their draw matrix: int64 hits over the int64
    # draws, and int32 ranks over the front half of the draws' words, where
    # rank p lands in word p // 2, which ``take`` has already read.
    rng = np.random.default_rng(seed)
    table64 = rng.integers(-(2**62), 2**62, size=n)
    table32 = rng.integers(-(2**31), 2**31, size=n, dtype=np.int32)
    draws = rng.integers(0, n, size=(rows, n))
    c = draws.copy()
    assert np.take(table64, c, out=c, mode="clip") is c
    assert_array_equal(c, table64[draws.copy()])
    c = draws.copy()
    front = c.ravel().view(np.int32)[: c.size].reshape(c.shape)
    assert np.take(table32, c, out=front, mode="clip") is front
    assert_array_equal(front, table32[draws.copy()])


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
        w1, w2 = row_counts(c1, n1), row_counts(c2, n2)
        if kind is StatKind.WMW:
            keep = kept_columns(data, 0.75)
            want.append(wmw_draws_reference(data.x1, data.x2, w1, w2, keep))
        else:
            want.append(ks_draws(prep, w1, w2))
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
    # batch matrix (WMW head rows, 400 x 5001 16-bit counts, or independent
    # KS's x1 counts, 400 x 5000 16-bit counts; 4 MB each) and cache-sized
    # sub-chunk buffers, never a batch of draws (400 x 5000 int64, 16 MB per
    # sample).
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


@pytest.mark.parametrize(
    "kind, pairing",
    [(StatKind.WMW, Pairing.INDEPENDENT), (StatKind.WMW, Pairing.MATCHED),
     (StatKind.KS, Pairing.INDEPENDENT)],
)
def test_batch_matrix_holds_16_bit_counts(kind, pairing):
    # The paths that keep a batch matrix trace 6.3-7.8 MB with 16-bit counts;
    # 32-bit counts would add 4 MB, past this bound.
    rng = np.random.default_rng(5)
    data = TwoSampleData(x1=rng.random(5000), x2=rng.random(5000) ** 1.2, pairing=pairing)
    config = BootstrapConfig(num_reps=999, seed=1, statistic_kind=kind)
    tracemalloc.start()
    try:
        run_test(data, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9e6, f"peak {peak / 1e6:.1f} MB"


class _ScriptedRng:
    """A generator whose ``integers`` hands out the rows of given category
    draws in order, one matrix per sample, told apart by their bound."""

    def __init__(self, *draws):
        self.rows = {c.shape[1]: iter(c) for c in draws}

    def integers(self, low, high, size):
        assert low == 0 and size[1] == high
        return np.array([next(self.rows[high]) for _ in range(size[0])])


@pytest.mark.parametrize("n1, dtype", [(65_535, np.uint16), (65_536, np.int32)])
@pytest.mark.parametrize("kind", [StatKind.WMW, StatKind.KS])
def test_batch_matrix_counts_up_to_n1(kind, n1, dtype):
    # Every count in a batch matrix is at most n1, so 16 bits hold them up to
    # n1 = 65535 and 32 bits beyond. Row 1 puts all its x1 weight on the
    # smallest x1, so its WMW head reads n1 at every x2 and its KS count of
    # that x1 is n1; 16-bit counts would wrap that to 0 at n1 = 65536. Three
    # rows, one per sub-chunk, run on the draw-ahead helper.
    data = TwoSampleData(x1=np.arange(n1) / n1, x2=[2.0, 0.25, 0.5, 0.25])
    prep = _Prepared(data)
    assert prep.count_dtype is dtype
    rng = np.random.default_rng(3)
    c1 = rng.integers(0, n1, size=(3, n1))
    c1[1] = 0
    c2 = rng.integers(0, 4, size=(3, 4))
    config = BootstrapConfig(tau=math.inf, num_reps=3, statistic_kind=kind)
    got = _bootstrap_draws(prep, config, _ScriptedRng(c1, c2))
    w1, w2 = row_counts(c1, n1), row_counts(c2, 4)
    if kind is StatKind.WMW:
        want = wmw_draws_reference(data.x1, data.x2, w1, w2, None)
    else:
        want = ks_draws(prep, w1, w2)
    assert want[1] > 0
    assert_array_equal(got, want)


class _WeakRng:
    """A generator whose ``integers`` keeps a weak reference to each draw
    matrix it returns, and notes which earlier ones are alive at each call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn, self.alive_at_draws = [], []

    def integers(self, low, high, size):
        self.alive_at_draws.append(_alive(self.drawn))
        c = self.rng.integers(low, high, size=size)
        self.drawn.append(weakref.ref(c))
        return c


def _alive(refs):
    return [i for i, ref in enumerate(refs) if ref() is not None]


@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
@pytest.mark.parametrize("kind", [StatKind.WMW, StatKind.KS])
def test_draw_matrices_are_released_by_their_reduction(monkeypatch, pairing, kind):
    # Sub-chunks of 6 rows, drawn inline so that every draw and reduction runs
    # in a fixed order on this thread. No draw matrix outlives its step: WMW
    # looks each one up in place, so exactly the draw matrix of the sub-chunk
    # it reduces is alive, and KS holds exactly the count matrix of the
    # columns its tree reduces.
    monkeypatch.setattr("domtest.bootstrap._drawn_ahead", lambda stream: stream)
    monkeypatch.setattr("domtest.bootstrap._CHUNK_ELEMENTS", 400)
    rng = np.random.default_rng(6)
    data = TwoSampleData(x1=rng.random(30), x2=rng.random(30), pairing=pairing)
    counted, alive_at_reduce = [], []

    def counting(categories):
        w = _column_counts(categories)
        counted.append(weakref.ref(w))
        return w

    monkeypatch.setattr("domtest.bootstrap._column_counts", counting)
    rng_spy = _WeakRng(7)

    def spying(method, refs):
        original = getattr(_Prepared, method)

        def spy(self, *args, **kwargs):
            alive_at_reduce.append(_alive(refs))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_Prepared, method, spy)

    spying("wmw_head", rng_spy.drawn)
    spying("odc_tail", rng_spy.drawn)
    spying("ks_shared", counted)
    config = BootstrapConfig(num_reps=40, statistic_kind=kind)
    _bootstrap_draws(_Prepared(data), config, rng_spy)
    # 7 sub-chunks per sample; each x1 sub-chunk makes one WMW head, each
    # finished sub-chunk one WMW tail or one KS tree. A matched sub-chunk
    # makes both of its WMW reductions from one draw matrix, and an
    # independent KS tree reads x2 sub-chunk k, the 8 + k-th drawn.
    matched = pairing is Pairing.MATCHED
    assert rng_spy.alive_at_draws == [[]] * (7 if matched else 14)
    if kind is StatKind.WMW:
        assert alive_at_reduce == [[k // 2 if matched else k] for k in range(14)]
    else:
        assert alive_at_reduce == [[k if matched else 7 + k] for k in range(7)]


def test_prepared_builds_only_what_its_statistic_reads():
    data = TwoSampleData(x1=[0.5, 2.0, 1.0], x2=[1.0, 3.0])
    c1, c2 = np.array([[0, 0, 2]]), np.array([[1, 0]])
    wmw = _Prepared(data)
    wmw.odc_tail(wmw.wmw_head(wmw.g1[c1]), np.sort(wmw.rank2[c2]))
    ks = _Prepared(data)
    ks_draws(ks, row_counts(c1, 3), row_counts(c2, 2))
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

