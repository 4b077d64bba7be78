"""The bootstrap's category draws, made ahead on a helper thread.

``_bootstrap_draws`` makes its ``integers`` calls on one helper thread when a
sample takes more than one sub-chunk, and inline otherwise. Each draw matrix
comes with its ``ahead`` still to apply (WMW's lookups or KS's counting,
both in place), and ``_drawn_ahead`` applies it on the helper only while its
one-place queue is full; otherwise the caller does. These tests check that
every split gives the inline draws and leaves ``rng`` in the same state, that
each draw matrix gets ``ahead`` exactly once and only the helper draws, that
the tables ``ahead`` reads are built before the helper starts, that only
multi-sub-chunk calls start the thread, and that an exception on either side
reaches the caller with no thread left behind.
"""

import functools
import itertools
import math
import queue
import sys
import threading
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from domtest import BootstrapConfig, Pairing, StatKind, TwoSampleData, run_test
from domtest import bootstrap
from domtest.bootstrap import _bootstrap_draws, _Prepared

_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.0])
_HELPER = "domtest-draws"

# The answers of the queue's ``full()`` check, one per item in order: the
# helper applies ``ahead`` to item i exactly when answer i is True.
_REGIMES = {
    "helper": lambda: itertools.repeat(True),
    "caller": lambda: itertools.repeat(False),
    "alternate": lambda: itertools.cycle([True, False]),
}


def _finishes(call, seconds=30):
    """Run ``call`` on a daemon thread and return or raise its outcome, or fail
    if it has not finished within ``seconds``: a deadlock must not hang the
    suite. No other thread may be alive afterwards that was not before."""
    before = threading.enumerate()
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"the call did not finish within {seconds} s"
    assert threading.enumerate() == before
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _counting_threads(mp):
    """Patch ``bootstrap._column_counts`` to record the name of each calling
    thread."""
    names, counts = [], bootstrap._column_counts

    def spy(categories):
        names.append(threading.current_thread().name)
        return counts(categories)

    mp.setattr(bootstrap, "_column_counts", spy)
    return names


def _forced(mp, regime, on_put=lambda box: None):
    """Patch into ``bootstrap.queue`` a ``Queue`` whose ``full()`` answers as
    ``_REGIMES[regime]`` says, so the helper applies ``ahead`` on the items it
    picks whatever the load; ``on_put`` sees each box the helper puts."""
    answers = _REGIMES[regime]()

    class Forced(queue.Queue):
        def full(self):
            return next(answers)

        def put(self, box, *args, **kwargs):
            on_put(box)
            super().put(box, *args, **kwargs)

    mp.setattr(bootstrap, "queue", types.SimpleNamespace(Queue=Forced, Empty=queue.Empty))


class _DrawSpy:
    """A generator whose ``integers`` records the thread of each call and a
    weak reference to each draw matrix, and a stream wrapper that records the
    thread that finishes each item, which applies that item's ``ahead``."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drew, self.drawn, self.finished = [], [], []

    def integers(self, low, high, size):
        self.drew.append(threading.current_thread().name)
        c = self.rng.integers(low, high, size=size)
        self.drawn.append(weakref.ref(c))
        return c

    def items(self, stream):
        for i, work in enumerate(stream):
            # item i carries the matrix of ``integers`` call i
            assert len(self.drew) == i + 1
            yield functools.partial(self._finish, i, work)

    def _finish(self, i, work):
        self.finished.append((i, threading.current_thread().name))
        return work()


def _draws(prep, config, seed, mp, drawn_ahead):
    """``_bootstrap_draws`` on a ``_DrawSpy``, with ``drawn_ahead`` in place of
    ``_drawn_ahead``, or the stream read inline when it is None; returns the
    draws, the spy and the number of ``_drawn_ahead`` calls."""
    spy, calls = _DrawSpy(seed), []

    def wrapped(stream):
        calls.append(None)
        stream = spy.items(stream)
        return stream if drawn_ahead is None else drawn_ahead(stream)

    mp.setattr(bootstrap, "_drawn_ahead", wrapped)
    return _bootstrap_draws(prep, config, spy), spy, len(calls)


def _check_split(data, kind, tau, num_reps, chunk_rows, batch_rows, seed, regime):
    """The draws through the helper, under ``regime`` (None: real timing),
    equal the inline draws and leave ``rng`` in the same state; only the
    helper draws, and each draw matrix gets ``ahead`` exactly once, on the
    thread the regime picks."""
    per_row = data.n1 + data.n2
    config = BootstrapConfig(tau=tau, num_reps=num_reps, statistic_kind=kind)
    prep = _Prepared(data)
    here, drawn_ahead = threading.current_thread().name, bootstrap._drawn_ahead
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "_BATCH_ELEMENTS", batch_rows * per_row)
        mp.setattr(bootstrap, "_CHUNK_ELEMENTS", chunk_rows * per_row)
        counting = _counting_threads(mp)
        inline, inline_spy, _ = _draws(prep, config, seed, mp, None)
        inline_counting = counting[:]
        if regime is not None:
            _forced(mp, regime)
        ahead, spy, helpers = _draws(prep, config, seed, mp, drawn_ahead)
    assert_array_equal(ahead, inline)
    assert spy.rng.bit_generator.state == inline_spy.rng.bit_generator.state
    # the helper runs exactly when a sample takes more than one sub-chunk,
    # and then it makes every ``integers`` call
    assert helpers == (num_reps > min(chunk_rows, batch_rows))
    items = len(spy.drew)
    assert spy.drew == [_HELPER if helpers else here] * items
    assert inline_spy.drew == [here] * items
    # every item is finished once, in order when inline; KS counts each draw
    # matrix once, on the thread that finished it, and WMW counts none
    assert inline_spy.finished == [(i, here) for i in range(items)] * helpers
    finished = sorted(spy.finished)
    assert [i for i, _ in finished] == list(range(items)) * helpers
    where = [name for _, name in finished]
    assert set(where) <= {_HELPER, here}
    if regime is not None and helpers:
        answers = _REGIMES[regime]()
        assert where == [_HELPER if next(answers) else here for _ in range(items)]
    counted = counting[len(inline_counting) :]
    if kind is StatKind.WMW:
        assert counting == []
    else:
        assert inline_counting == [here] * items
        assert sorted(counted) == (sorted(where) if helpers else [here] * items)


def _data(n1, n2, pairing, seed=3):
    rng = np.random.default_rng(seed)
    return TwoSampleData(
        x1=rng.integers(0, 7, n1).astype(float),
        x2=rng.integers(0, 7, n2).astype(float),
        pairing=pairing,
    )


@st.composite
def _case(draw):
    matched = draw(st.booleans())
    n1 = draw(st.integers(1, 12))
    n2 = n1 if matched else draw(st.integers(1, 12))
    if draw(st.booleans()):
        values = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)
    else:
        values = _VALUES  # heavy ties
    x1 = draw(st.lists(values, min_size=n1, max_size=n1))
    x2 = draw(st.lists(values, min_size=n2, max_size=n2))
    pairing = Pairing.MATCHED if matched else Pairing.INDEPENDENT
    return TwoSampleData(x1=x1, x2=x2, pairing=pairing)


@settings(max_examples=150, deadline=None)
@given(
    data=_case(),
    kind=st.sampled_from([StatKind.WMW, StatKind.KS]),
    tau=st.sampled_from([math.inf, 0.75]),
    num_reps=st.integers(1, 40),
    chunk_rows=st.integers(1, 5),
    batch_rows=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(data=TwoSampleData(x1=[0.5], x2=[0.5]), kind=StatKind.WMW, tau=0.75,
         num_reps=9, chunk_rows=1, batch_rows=4, seed=1)
@example(data=TwoSampleData(x1=[0.0, 2.0, 2.0], x2=[2.0, 0.0, 3.0], pairing=Pairing.MATCHED),
         kind=StatKind.KS, tau=math.inf, num_reps=31, chunk_rows=2, batch_rows=7, seed=2)
@example(data=TwoSampleData(x1=[2.0], x2=[0.5, 2.0, 2.0, -1.0, 0.5]), kind=StatKind.KS,
         tau=math.inf, num_reps=17, chunk_rows=3, batch_rows=5, seed=3)
def test_drawn_ahead_equals_inline(data, kind, tau, num_reps, chunk_rows, batch_rows, seed):
    _check_split(data, kind, tau, num_reps, chunk_rows, batch_rows, seed, regime=None)


@settings(max_examples=150, deadline=None)
@given(
    data=_case(),
    kind=st.sampled_from([StatKind.WMW, StatKind.KS]),
    tau=st.sampled_from([math.inf, 0.75]),
    num_reps=st.integers(2, 40),
    chunk_rows=st.integers(1, 5),
    batch_rows=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    regime=st.sampled_from(sorted(_REGIMES)),
)
@example(data=TwoSampleData(x1=[0.0, 2.0, 2.0], x2=[2.0, 0.0, 3.0], pairing=Pairing.MATCHED),
         kind=StatKind.WMW, tau=0.75, num_reps=31, chunk_rows=2, batch_rows=7, seed=2,
         regime="alternate")
@example(data=TwoSampleData(x1=[2.0, 0.5], x2=[0.5, 2.0, 2.0, -1.0, 0.5]), kind=StatKind.WMW,
         tau=math.inf, num_reps=17, chunk_rows=1, batch_rows=1, seed=3, regime="helper")
@example(data=TwoSampleData(x1=[2.0], x2=[0.5, 2.0, 2.0, -1.0, 0.5]), kind=StatKind.KS,
         tau=math.inf, num_reps=17, chunk_rows=3, batch_rows=5, seed=3, regime="caller")
def test_every_forced_split_equals_inline(
    data, kind, tau, num_reps, chunk_rows, batch_rows, seed, regime
):
    # Whichever items the helper finishes, the draws and ``rng`` are the inline ones.
    _check_split(data, kind, tau, num_reps, chunk_rows, batch_rows, seed, regime)


@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
@pytest.mark.parametrize("kind", [StatKind.WMW, StatKind.KS])
@pytest.mark.parametrize("num_reps, threads", [(1, 0), (500, 0), (999, 1)])
def test_only_a_call_of_several_sub_chunks_starts_a_thread(
    thread_starts, pairing, kind, num_reps, threads
):
    # At n = 100 a sub-chunk holds 655 rows: a B = 1 replication and the
    # B = 500 study case take one per sample and start no thread.
    data = _data(100, 100, pairing)
    config = BootstrapConfig(num_reps=num_reps, statistic_kind=kind)
    run_test(data, config)
    assert thread_starts == ["domtest-draws"] * threads


@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
@pytest.mark.parametrize("num_reps, sub_chunks", [(1, 1), (500, 1), (999, 2)])
def test_ks_counts_each_draw_once_and_only_the_helper_draws(
    monkeypatch, thread_starts, pairing, num_reps, sub_chunks
):
    # At n = 100 a sub-chunk holds 655 rows, so only B = 999 starts the helper.
    # It then makes every ``integers`` call, and each draw matrix is counted
    # once, by the helper or the caller.
    counting = _counting_threads(monkeypatch)
    spy = _DrawSpy(0)
    data = _data(100, 100, pairing)
    run_test(data, BootstrapConfig(num_reps=num_reps, statistic_kind=StatKind.KS), rng=spy)
    calls = sub_chunks * (1 if pairing is Pairing.MATCHED else 2)
    here = threading.current_thread().name
    assert thread_starts == [_HELPER] * (sub_chunks > 1)
    assert spy.drew == [_HELPER if thread_starts else here] * calls
    assert len(counting) == calls
    assert set(counting) <= ({_HELPER, here} if thread_starts else {here})


@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
def test_wmw_tables_are_built_before_the_helper_starts(monkeypatch, thread_starts, pairing):
    # Forced to look every draw up on the helper, the call must still build
    # ``g1`` and ``rank2`` on the caller before the helper starts:
    # ``functools.cached_property`` takes no lock from Python 3.12 on, so two
    # threads reading a table first could each build it.
    built = []
    for name in ("g1", "rank2"):

        def spy(self, name=name, build=vars(_Prepared)[name].func):
            built.append((name, threading.current_thread().name, len(thread_starts)))
            return build(self)

        table = functools.cached_property(spy)
        table.__set_name__(_Prepared, name)
        monkeypatch.setattr(_Prepared, name, table)
    _forced(monkeypatch, "helper")
    data = _data(100, 100, pairing)
    report = run_test(data, BootstrapConfig(num_reps=999))
    here = threading.current_thread().name
    assert thread_starts == [_HELPER]
    assert built == [("g1", here, 0), ("rank2", here, 0)]
    monkeypatch.undo()
    assert run_test(data, BootstrapConfig(num_reps=999)) == report


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
def test_wmw_draws_are_released_after_their_reduction_on_either_thread(
    monkeypatch, pairing, regime
):
    # Sub-chunks of 6 rows, 7 per sample, through the helper. Each item the
    # helper finishes is queued with its lookups written over its own draw
    # matrix, and at each WMW reduction of item k draw matrix k is alive and
    # 0 to k - 1 are gone, whichever thread looked them up; later ones may be
    # in flight. Matched items make a head and a tail, independent x1 items
    # a head and x2 items a tail.
    monkeypatch.setattr(bootstrap, "_CHUNK_ELEMENTS", 400)
    matched = pairing is Pairing.MATCHED
    rng = _DrawSpy(7)
    alive, queued = [], []

    def on_put(box):
        if isinstance(box, list):
            c, item = rng.drawn[len(queued)](), box[0]
            if not callable(item):  # finished: its hits, or else its ranks, sit in ``c``
                item = next(x for x in item[4] if x is not None)
                queued.append(c is not None and np.shares_memory(item, c))
            else:
                queued.append(c is not None)

    _forced(monkeypatch, regime, on_put)

    def spying(method):
        original = getattr(_Prepared, method)

        def spy(self, *args, **kwargs):
            k = len(alive) // 2 if matched else len(alive)
            alive.append([i for i, ref in enumerate(rng.drawn[: k + 1]) if ref() is not None])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_Prepared, method, spy)

    spying("wmw_head")
    spying("odc_tail")
    data = _data(30, 30, pairing)
    got = _finishes(lambda: _bootstrap_draws(_Prepared(data), BootstrapConfig(num_reps=40), rng))
    assert len(rng.drawn) == (7 if matched else 14)
    assert queued == [True] * len(rng.drawn)
    assert alive == [[k // 2 if matched else k] for k in range(14)]
    monkeypatch.setattr(bootstrap, "_drawn_ahead", lambda stream: stream)
    inline = _bootstrap_draws(_Prepared(data), BootstrapConfig(num_reps=40), _DrawSpy(7))
    assert_array_equal(got, inline)


@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
@pytest.mark.parametrize("kind", [StatKind.WMW, StatKind.KS])
def test_no_thread_outlives_the_call(pairing, kind):
    data = _data(60, 60, pairing)
    report = _finishes(
        lambda: run_test(data, BootstrapConfig(num_reps=999, seed=8, statistic_kind=kind))
    )
    # the draws, and so the report, are those of the inline stream
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "_drawn_ahead", lambda stream: stream)
        assert run_test(data, BootstrapConfig(num_reps=999, seed=8, statistic_kind=kind)) == report


def test_concurrent_calls_keep_their_streams(monkeypatch):
    # Six callers at once on a short switch interval, each call with its own
    # helper and 40 sub-chunks per sample: every report equals its serial one.
    monkeypatch.setattr(bootstrap, "_CHUNK_ELEMENTS", 5 * 60)
    kinds = [(pairing, kind) for pairing in Pairing for kind in (StatKind.WMW, StatKind.KS)]
    cases = [
        (_data(30, 30, pairing), BootstrapConfig(num_reps=200, seed=seed, statistic_kind=kind))
        for seed, (pairing, kind) in enumerate(kinds + kinds[:2])
    ]
    want = [run_test(data, config) for data, config in cases]
    got = [None] * len(cases)

    def call(i):
        got[i] = run_test(*cases[i])

    def all_at_once():
        callers = [threading.Thread(target=call, args=[i]) for i in range(len(cases))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _finishes(all_at_once, seconds=120)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


class _EngineFailure(Exception):
    pass


@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
@pytest.mark.parametrize("kind, method", [(StatKind.WMW, "wmw_head"), (StatKind.KS, "ks_shared")])
@pytest.mark.parametrize("fail_at", [1, 2, 7, 40])
def test_engine_exception_stops_the_helper(monkeypatch, pairing, kind, method, fail_at):
    # 40 sub-chunks per sample: the helper is drawing ahead, or blocked on a
    # full queue, when the engine raises on its k-th sub-chunk.
    data = _data(30, 30, pairing)
    monkeypatch.setattr(bootstrap, "_CHUNK_ELEMENTS", 5 * 60)
    calls = []
    original = getattr(_Prepared, method)

    def failing(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise _EngineFailure(f"sub-chunk {fail_at}")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(_Prepared, method, failing)
    config = BootstrapConfig(num_reps=200, statistic_kind=kind)
    with pytest.raises(_EngineFailure, match=f"sub-chunk {fail_at}$"):
        _finishes(lambda: run_test(data, config))


class _DrawFailure(BaseException):
    """Not an ``Exception``: the helper must pass on any exception."""


class _FailingRng:
    """A generator whose ``integers`` raises on its k-th call."""

    def __init__(self, fail_at, error):
        self.rng = np.random.default_rng(4)
        self.fail_at, self.error, self.calls = fail_at, error, 0

    def integers(self, low, high, size):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.error(f"draw {self.calls}")
        return self.rng.integers(low, high, size=size)


@pytest.mark.parametrize("pairing", [Pairing.INDEPENDENT, Pairing.MATCHED])
@pytest.mark.parametrize("kind", [StatKind.WMW, StatKind.KS])
@pytest.mark.parametrize("fail_at", [1, 2, 9, 40])
@pytest.mark.parametrize("error", [ValueError, _DrawFailure])
def test_helper_exception_reaches_the_caller(monkeypatch, pairing, kind, fail_at, error):
    # 40 x1 sub-chunks (and 40 x2 sub-chunks for independent samples)
    data = _data(30, 30, pairing)
    monkeypatch.setattr(bootstrap, "_CHUNK_ELEMENTS", 5 * 60)
    rng = _FailingRng(fail_at, error)
    config = BootstrapConfig(num_reps=200, statistic_kind=kind)
    with pytest.raises(error, match=f"draw {fail_at}$"):
        _finishes(lambda: run_test(data, config, rng=rng))
    # the helper made no call after the one that raised
    assert rng.calls == fail_at
