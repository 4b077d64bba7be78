"""The bootstrap's category draws, made one sub-chunk ahead on a helper thread.

``_bootstrap_draws`` makes its ``integers`` calls on one helper thread when a
sample takes more than one sub-chunk, and inline otherwise; KS counts each
draw matrix in place (``_column_counts``) where it was drawn. These tests
check that both give the same draws and leave ``rng`` in the same state, that
only multi-sub-chunk calls start the thread, that the helper then does all of
KS's counting, and that an exception on either side reaches the caller with
no thread left behind.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from domtest import BootstrapConfig, Pairing, StatKind, TwoSampleData, run_test
from domtest import bootstrap
from domtest.bootstrap import _bootstrap_draws, _Prepared

_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.0])


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
    per_row = data.n1 + data.n2
    config = BootstrapConfig(tau=tau, num_reps=num_reps, statistic_kind=kind)
    prep = _Prepared(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "_BATCH_ELEMENTS", batch_rows * per_row)
        mp.setattr(bootstrap, "_CHUNK_ELEMENTS", chunk_rows * per_row)
        helpers, drawn_ahead = [], bootstrap._drawn_ahead

        def spy(stream):
            helpers.append(stream)
            return drawn_ahead(stream)

        mp.setattr(bootstrap, "_drawn_ahead", spy)
        counting = _counting_threads(mp)
        ahead_rng = np.random.default_rng(seed)
        ahead = _bootstrap_draws(prep, config, ahead_rng)
        mp.setattr(bootstrap, "_drawn_ahead", lambda stream: stream)
        inline_rng = np.random.default_rng(seed)
        inline = _bootstrap_draws(prep, config, inline_rng)
    # the helper runs exactly when a sample takes more than one sub-chunk, and
    # then it counts every KS draw matrix; WMW counts none
    assert len(helpers) == (num_reps > min(chunk_rows, batch_rows))
    calls = len(counting) // 2
    assert (calls > 0) == (kind is StatKind.KS)
    here = threading.current_thread().name
    where = "domtest-draws" if helpers else here
    assert counting == [where] * calls + [here] * calls
    assert_array_equal(ahead, inline)
    assert ahead_rng.bit_generator.state == inline_rng.bit_generator.state


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
def test_ks_counts_run_on_the_helper_whenever_it_starts(
    monkeypatch, thread_starts, pairing, num_reps, sub_chunks
):
    # At n = 100 a sub-chunk holds 655 rows, so only B = 999 starts the helper.
    counting = _counting_threads(monkeypatch)
    data = _data(100, 100, pairing)
    run_test(data, BootstrapConfig(num_reps=num_reps, statistic_kind=StatKind.KS))
    calls = sub_chunks * (1 if pairing is Pairing.MATCHED else 2)
    where = "domtest-draws" if thread_starts else threading.current_thread().name
    assert counting == [where] * calls
    assert thread_starts == ["domtest-draws"] * (sub_chunks > 1)


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
