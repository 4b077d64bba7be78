"""Bootstrap machinery for the dominance tests.

Resampling uses multinomial weights drawn independently of the data: with
independent samples each sample gets its own equal-probability multinomial,
with matched pairs a single weight vector is shared so pairs are resampled
jointly. Each draw yields a bootstrap ODC recentered at the empirical ODC;
the modified variant drops grid cells that fall more than ``tau`` estimated
standard deviations below the diagonal, which sharpens power when the true
curve touches the diagonal on part of the unit interval. Setting
``tau = inf`` keeps every cell and reproduces the standard bootstrap draw
bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .odc import (
    OdcCurve, Pairing, RankProfile, TwoSampleData, _check_int, _check_real, empirical_odc,
    rank_profile,
)
from .stats import StatKind, _sqrt_tn, ks_statistic, wmw_statistic

__all__ = [
    "BootstrapWeights",
    "VarianceProfile",
    "BootstrapConfig",
    "TestReport",
    "draw_weights",
    "bootstrap_odc",
    "bootstrap_statistic_standard",
    "bootstrap_statistic_modified",
    "variance_profile",
    "empirical_copula_diag",
    "critical_value",
    "run_test",
]

# Cap on weight elements drawn by one batch of bootstrap rows. This fixes the
# seeded draw schedule: with independent samples a batch draws all its w1
# rows before its w2 rows, so a different cap hands different random numbers
# to each sample and changes every seeded report. Tune ``_CHUNK_ELEMENTS``
# for speed, never this.
_BATCH_ELEMENTS = 4_000_000

# Grid elements per sub-chunk of a batch. The engine works through a batch a
# few rows at a time so that its temporaries stay in cache; the draws do not
# depend on this value. Up to two sub-chunks of draws wait ahead of the engine
# (see ``_drawn_ahead``); at 1 << 17 the traced peak is below that of 1 << 18
# with none waiting.
_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True, eq=False)
class BootstrapWeights:
    """Multinomial resampling counts for each sample, in observation order."""

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.int64)
        w2 = np.asarray(self.w2, dtype=np.int64)
        for name, w in (("w1", w1), ("w2", w2)):
            if w.ndim != 1 or w.size == 0:
                raise ValueError(f"{name} must be a nonempty vector")
            if np.any(w < 0) or int(w.sum()) != w.size:
                raise ValueError(f"{name} must be multinomial counts summing to its length")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    """Estimated variances of the normalized ODC at each grid point."""

    v: np.ndarray
    mode: Pairing

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        if (v < 0).any():
            raise ValueError("variance estimates must be nonnegative")
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class BootstrapConfig:
    """Parameters of a bootstrap dominance test.

    ``tau`` may be ``math.inf`` for the standard bootstrap. ``eta`` is a small
    floor applied to the critical value; the default 0 disables it, which is
    how the test is normally run.
    """

    alpha: float = 0.05
    tau: float = 0.75
    num_reps: int = 999
    eta: float = 0.0
    seed: int = 0
    statistic_kind: StatKind = StatKind.WMW

    def __post_init__(self):
        for name in ("alpha", "tau", "eta"):
            _check_real(name, getattr(self, name))
            # numpy scalars pass the check; store Python floats so reports serialize.
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0.0 < self.alpha < 0.5):
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive (inf allowed), got {self.tau}")
        _check_int("num_reps", self.num_reps, 1)
        # numpy integers pass the check; store Python ints so reports serialize.
        object.__setattr__(self, "num_reps", int(self.num_reps))
        if not (self.eta >= 0.0):
            raise ValueError("eta must be nonnegative")
        _check_int("seed", self.seed, 0)
        if self.seed >= 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))
        if self.statistic_kind not in (StatKind.WMW, StatKind.KS):
            raise ValueError(f"unsupported statistic kind: {self.statistic_kind}")


@dataclass(frozen=True)
class TestReport:
    """Outcome of one dominance test plus every parameter that produced it;
    ``run_test`` fills the config's fields from ``BootstrapConfig`` by name."""

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    ties_detected: bool
    alpha: float
    tau: float
    num_reps: int
    eta: float
    seed: int
    pairing: Pairing
    n1: int
    n2: int
    statistic_kind: StatKind


def _row_offsets(rows: int, width: int, dtype) -> np.ndarray:
    """Flat index of the first element of each row of a (rows, width) matrix."""
    return np.arange(0, rows * width, width, dtype=dtype)[:, None]


def _counts(categories: np.ndarray) -> np.ndarray:
    """Row-wise counts of a matrix of category draws, one column per category."""
    rows, n = categories.shape
    flat = categories + _row_offsets(rows, n, np.int64)
    return np.bincount(flat.ravel(), minlength=rows * n).reshape(rows, n)


def _categories(w: np.ndarray) -> np.ndarray:
    """Category draws with row-wise counts ``w``, in category order; each row
    of ``w`` must sum to its length. ``_counts`` inverts it."""
    rows, n = w.shape
    return np.repeat(np.tile(np.arange(n), rows), w.ravel()).reshape(rows, n)


def _multinomial_rows(rng: np.random.Generator, categories: int, nrows: int) -> np.ndarray:
    """Draw ``nrows`` equal-probability multinomial count vectors.

    Each row is built from ``categories`` independent uniform category draws,
    counted, which is exactly multinomial.
    """
    return _counts(rng.integers(0, categories, size=(nrows, categories)))


def draw_weights(data: TwoSampleData, rng: np.random.Generator) -> BootstrapWeights:
    """One set of bootstrap weights for ``data``.

    Matched pairs share a single weight vector across both samples, so pairs
    are kept intact by the resampling.
    """
    w1 = _multinomial_rows(rng, data.n1, 1)[0]
    if data.pairing is Pairing.MATCHED:
        return BootstrapWeights(w1=w1, w2=w1)
    return BootstrapWeights(w1=w1, w2=_multinomial_rows(rng, data.n2, 1)[0])


def bootstrap_odc(data: TwoSampleData, weights: BootstrapWeights) -> OdcCurve:
    """Bootstrap ODC: the ODC of the weighted resample, on the grid ``i/n2``.

    Grid value ``i-1`` is the weighted first-sample ECDF evaluated at the
    bootstrap quantile ``inf{x : F2_star(x) >= i/n2}``. This is a one-row
    call into the batched engine that ``run_test`` uses.
    """
    if weights.w1.size != data.n1 or weights.w2.size != data.n2:
        raise ValueError("weight lengths do not match the sample sizes")
    c1, c2 = _categories(weights.w1[None]), _categories(weights.w2[None])
    counts = _Prepared(data).odc_counts(c1, c2)[0]
    return OdcCurve(values=counts / data.n1, n1=data.n1, n2=data.n2)


def _recentered_statistic(odc_star: OdcCurve, odc: OdcCurve, keep: np.ndarray | None) -> float:
    if odc_star.n1 != odc.n1 or odc_star.n2 != odc.n2:
        raise ValueError("bootstrap and empirical curves must share the same grid")
    excess = (odc_star.counts - odc.counts)[None]
    return float(_wmw_sums(excess, keep, odc.n1, odc.n2)[0])


def bootstrap_statistic_standard(odc_star: OdcCurve, odc: OdcCurve) -> float:
    """Recentered bootstrap statistic: scaled sum of max(R_star - R_hat, 0)."""
    return _recentered_statistic(odc_star, odc, None)


def bootstrap_statistic_modified(
    odc_star: OdcCurve, odc: OdcCurve, v: VarianceProfile, tau: float
) -> float:
    """Bootstrap statistic with cells far below the diagonal zeroed out.

    Cell ``i`` survives when ``sqrt(T_n)*(R_hat(i/n2) - i/n2)`` is no less
    than ``-tau*sqrt(v[i])``; with ``tau = inf`` every cell survives and the
    standard statistic is recovered exactly.
    """
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive (inf allowed), got {tau}")
    if v.v.size != odc.n2:
        raise ValueError("variance profile does not match the grid")
    return _recentered_statistic(odc_star, odc, _kept_columns(odc.counts, odc.n1, lambda: v, tau))


def _kept_columns(counts: np.ndarray, n1: int, profile, tau: float) -> np.ndarray | None:
    """Grid columns kept by the screen of ``bootstrap_statistic_modified``, None
    for all; ``profile()`` gives the ``VarianceProfile``, read only for finite tau."""
    if math.isinf(tau):
        return None
    n2 = counts.size
    grid = np.arange(1, n2 + 1, dtype=np.float64) / n2
    return np.flatnonzero(_sqrt_tn(n1, n2) * (counts / n1 - grid) >= -tau * np.sqrt(profile().v))


def _wmw_sums(excess: np.ndarray, keep: np.ndarray | None, n1: int, n2: int) -> np.ndarray:
    """Row-wise WMW bootstrap draws from recentered ODC numerators (clipped
    in place), summed in exact integers before the one float scaling."""
    np.maximum(excess, 0, out=excess)
    if keep is not None:
        excess = np.take(excess, keep, axis=1)
    return excess.sum(axis=1, dtype=np.int64) * (_sqrt_tn(n1, n2) / (n1 * n2))


def empirical_copula_diag(ranks: RankProfile) -> np.ndarray:
    """Empirical copula on the diagonal: entry ``i-1`` counts pairs whose
    normalized ranks both sit at or below ``i/n``, divided by ``n``."""
    n = ranks.n
    hist = np.bincount(np.maximum(ranks.u_counts, ranks.v_counts), minlength=n + 1)
    return np.cumsum(hist)[1:] / n


def variance_profile(data: TwoSampleData) -> VarianceProfile:
    """Gridwise variance estimates for the normalized empirical ODC.

    Independent samples admit the closed form ``i/n2 - i^2/n2^2``; matched
    pairs replace the product term with the empirical copula diagonal, which
    keeps the estimate rank-based.
    """
    n2 = data.n2
    i = np.arange(1, n2 + 1, dtype=np.float64)
    if data.pairing is Pairing.MATCHED:
        diag = empirical_copula_diag(rank_profile(data))
        v = i / n2 - diag
    else:
        v = i / n2 - i**2 / n2**2
    return VarianceProfile(v=np.maximum(v, 0.0), mode=data.pairing)


def critical_value(draws, alpha: float) -> float:
    """Empirical upper quantile of bootstrap draws, as an infimum.

    Returns the ``(N-c)``-th smallest draw, with ``c`` the largest count such
    that ``c/N <= alpha`` in the p-value's float arithmetic, so a statistic
    exceeds it exactly when its p-value is at most ``alpha``.
    """
    arr = np.asarray(draws, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("need at least one bootstrap draw")
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    n = arr.size
    k = n - int(np.count_nonzero(np.arange(1, n) / n <= alpha))
    return float(np.partition(arr, k - 1)[k - 1])


class _Prepared:
    """Per-dataset quantities reused across all bootstrap replications.

    WMW is reduced in two stages: a head from a row's x1 draws, then the
    row's draw from its head and its x2 draws. KS reduces each row in one
    pass over the merged pooled order (``ks_shared``), from the weights that
    matched pairs share or from a row's x1 weights joined to its x2 weights.
    The fields that only one statistic reads are built on first use, so WMW
    draws never build the KS state and KS draws never build the WMW state.
    """

    def __init__(self, data: TwoSampleData):
        self.data = data
        self.n1 = data.n1
        self.n2 = data.n2
        self.perm1, self.perm2, self.cnt1, self.cnt2 = data._ranks
        self.m = self.cnt1[self.n1 :].astype(np.int32)
        # Recentered KS differences lie within +-2*n1*n2; int32 holds them
        # up to n1*n2 < 2**30, beyond that int64 does.
        self.ks_dtype = np.int32 if self.n1 * self.n2 < 2**30 else np.int64

    @functools.cached_property
    def g1(self) -> np.ndarray:
        """g1[j] counts the sorted x2 values strictly below x1[j], those with
        m <= p when x1[j] is sorted x1 number p; so a resampled x1[j] counts
        toward ODC cell k exactly when k >= g1[j]."""
        g1 = np.empty(self.n1, dtype=np.int64)
        g1[self.perm1] = np.cumsum(np.bincount(self.m, minlength=self.n1 + 1)[: self.n1])
        return g1

    @functools.cached_property
    def rank2(self) -> np.ndarray:
        """rank2[j] is the position of x2[j] in the sorted second sample;
        int32, which sorts twice as fast as int64."""
        rank2 = np.empty(self.n2, dtype=np.int32)
        rank2[self.perm2] = np.arange(self.n2, dtype=np.int32)
        return rank2

    @functools.cached_property
    def ks_merged(self):
        """``(src, coef, base, ends)`` for KS over the merged order of both
        sorted samples, tied x2 values before tied x1 values: merged point q
        reads weight ``src[q]``, of an x1 (``coef[q] = n2``) or an x2
        (``coef[q] = -n1``) observation, ``base = cumsum(coef)``, and
        ``ends`` lists the positions that close a group of tied values, None
        when all do. x2 observation j reads weight j of the weights that
        matched pairs share, or weight n1 + j of a row's joined x1 | x2
        weights."""
        n1, n2 = self.n1, self.n2
        # Sorted x2 number j follows the x1 values strictly below it, those
        # with cnt2 <= j; sorted x1 number i follows the cnt2[i] x2 values at
        # or below it.
        below = np.cumsum(np.bincount(self.cnt2[:n1], minlength=n2 + 1)[:n2])
        pos1 = np.arange(n1) + self.cnt2[:n1]
        pos2 = np.arange(n2) + below
        src = np.empty(n1 + n2, dtype=np.intp)
        src[pos1] = self.perm1
        src[pos2] = self.perm2 if self.data.pairing is Pairing.MATCHED else self.perm2 + n1
        coef = np.empty(n1 + n2, dtype=np.int64)
        coef[pos1], coef[pos2] = n2, -n1
        base = np.cumsum(coef).astype(self.ks_dtype)
        # A pooled point's value closes the group at position cnt1 + cnt2 - 1.
        groups = np.bincount(self.cnt1 + self.cnt2)
        ends = np.flatnonzero(groups) - 1 if groups.max() > 1 else None
        return src, coef, base, ends

    def keep_columns(self, tau: float) -> np.ndarray | None:
        """Grid columns retained by the contact-set screen, None for all."""
        return _kept_columns(self.m, self.n1, lambda: variance_profile(self.data), tau)

    def wmw_head(self, hits: np.ndarray, out=None) -> np.ndarray:
        """h[r, k] counts the resampled x1 of row r at or below sorted x2
        number k, from the hits ``g1[c1]`` of its category draws ``c1``
        (changed in place). Every count is at most n1, so int32 holds them."""
        rows, width = hits.shape[0], self.n2 + 1
        hits += _row_offsets(rows, width, hits.dtype)
        # int64 hits reach ``bincount`` without a converted copy.
        hist = np.bincount(hits.ravel(), minlength=rows * width).reshape(rows, width)
        return np.cumsum(hist, axis=1, dtype=np.int32, out=out)

    def odc_tail(self, head: np.ndarray, ranks: np.ndarray, out=None) -> np.ndarray:
        """Bootstrap ODC numerators from ``wmw_head`` rows and the ranks
        ``rank2[c2]`` of x2 category draws ``c2`` (sorted in place)."""
        # The i-th smallest resampled x2 is then sorted x2 number ranks[r, i].
        ranks.sort(axis=1)
        ranks += _row_offsets(*head.shape, ranks.dtype)
        # mode="clip" lets ``take`` write into ``out`` without buffering a
        # copy; every index is in range.
        return np.take(head.ravel(), ranks, out=out, mode="clip")

    def odc_counts(self, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
        """Bootstrap ODC numerators from category draws (row r resamples
        ``x1[c1[r]]`` and ``x2[c2[r]]``), one int32 row per row of draws."""
        return self.odc_tail(self.wmw_head(self.g1[c1]), self.rank2[c2])

    def wmw_tail(
        self, head: np.ndarray, ranks: np.ndarray, keep: np.ndarray | None, out=None
    ) -> np.ndarray:
        excess = self.odc_tail(head, ranks, out)
        excess -= self.m
        return _wmw_sums(excess, keep, self.n1, self.n2)

    def ks_shared(self, w: np.ndarray, gathered=None, running=None) -> np.ndarray:
        """KS draws from weights over both samples: the shared weights of
        matched pairs, or each row's x1 weights joined to its x2 weights. The
        recentered numerator ``n2*(cum1 - cnt1) - n1*(cum2 - cnt2)`` at each
        pooled point is one running sum of ``coef*(w[src] - 1)`` over the
        merged order, read where the point's group of tied values ends."""
        src, coef, base, ends = self.ks_merged
        gathered = np.take(w, src, axis=1, out=gathered, mode="clip")
        gathered *= coef
        diff = np.cumsum(gathered, axis=1, dtype=self.ks_dtype, out=running)
        diff -= base
        if ends is not None:
            diff = np.take(diff, ends, axis=1)
        best = np.maximum(diff.max(axis=1), 0)
        return best * (_sqrt_tn(self.n1, self.n2) / (self.n1 * self.n2))


def _drawn_ahead(stream):
    """Yield the items of the iterator ``stream``, which one helper thread
    advances at most two items ahead of the caller.

    Only the helper advances ``stream``, and an exception it raises is raised
    at the caller's matching ``next``. Each item passes in a one-item list that
    the caller empties, so once yielded it is held by the caller alone.
    ``close()``, or the end of ``stream``, stops and joins the helper.
    """
    ready = queue.Queue(maxsize=1)
    stop = threading.Event()

    def produce():
        try:
            for item in stream:
                ready.put([item])
                del item
                if stop.is_set():
                    return
            ready.put(None)
        except BaseException as exc:  # raised by the caller's next
            ready.put(exc)

    helper = threading.Thread(target=produce, name="domtest-draws", daemon=True)
    helper.start()
    try:
        while (box := ready.get()) is not None:
            if isinstance(box, BaseException):
                raise box
            yield box.pop()
    finally:
        stop.set()
        # Emptying the queue frees a blocked put; the helper makes at most one
        # more put after ``stop`` is set, into the emptied queue, and returns.
        with contextlib.suppress(queue.Empty):
            while True:
                ready.get_nowait()
        helper.join()


def _bootstrap_draws(
    prep: _Prepared, config: BootstrapConfig, rng: np.random.Generator
) -> np.ndarray:
    """All bootstrap statistic draws for one test, vectorized in batches.

    Category draws come a batch at a time (see ``_BATCH_ELEMENTS``), all x1
    rows before all x2 rows, and no batch of draws is ever held: each x1
    sub-chunk is drawn and folded at once into a batch matrix, of WMW head
    rows or of independent KS's x1 counts. Matched pairs finish those rows
    from the same draws; independent samples then draw each x2 sub-chunk and
    finish its rows from the batch matrix. Matched KS keeps no batch matrix:
    it finishes each sub-chunk in one pass over the merged pooled order, as
    independent KS does from each row's joined x1 | x2 counts. ``integers``
    takes every value from the bit generator's stream, whose half-word buffer
    lives in the generator state, so k calls of r rows equal one call of k*r
    rows and no draw depends on the sub-chunk size.

    The sub-chunk draws are one stream of ``integers`` calls, known before the
    first is made (``schedule``). When a sample takes more than one sub-chunk,
    one helper thread makes those calls in order, drawing the next sub-chunks
    while the engine reduces the current one (``integers`` releases the GIL),
    and only the helper touches ``rng``; otherwise the calls run inline and no
    thread starts. Either way every draw, and ``rng``'s state after the call,
    are the same.
    """
    data = prep.data
    n1, n2 = data.n1, data.n2
    matched = data.pairing is Pairing.MATCHED
    per_row = n1 + n2
    batch = max(1, min(config.num_reps, _BATCH_ELEMENTS // per_row))
    chunk = max(1, min(batch, _CHUNK_ELEMENTS // per_row))
    out = np.empty(config.num_reps, dtype=np.float64)
    # ``look1`` turns a sub-chunk's x1 draws into what ``fold`` reads, plus,
    # for matched pairs, what ``finish`` reads; ``look2`` does the finish's
    # part for x2 draws. The draws die when they return. A lookup stays bound
    # until the next one is made (independent samples drop the last x1 lookup
    # before their x2 lookups): freed sooner, it lets the heap trim pages that
    # the next sub-chunk faults in again. Both statistics reuse their per-chunk
    # buffers for the whole call.
    if config.statistic_kind is StatKind.WMW:
        keep = prep.keep_columns(config.tau)
        head = np.empty((batch, n2 + 1), dtype=np.int32)
        hits = np.empty((chunk, n1), dtype=np.int64)
        ranks = np.empty((chunk, n2), dtype=np.int32)
        gathered = np.empty((chunk, n2), dtype=np.int32)

        def look1(c1):
            found = np.take(prep.g1, c1, out=hits[: len(c1)], mode="clip")
            return found, look2(c1) if matched else None

        def look2(c2):
            return np.take(prep.rank2, c2, out=ranks[: len(c2)], mode="clip")

        def fold(lo, hi, found):
            prep.wmw_head(found, head[lo:hi])

        def finish(lo, hi, ranks_rows):
            return prep.wmw_tail(head[lo:hi], ranks_rows, keep, gathered[: hi - lo])

    else:
        # ``take`` writes ``out`` only in its source's dtype: the int64 counts
        # that matched pairs share, or the joined counts in ``running``.
        gathered = np.empty((chunk, per_row), dtype=np.int64 if matched else prep.ks_dtype)
        running = np.empty((chunk, per_row), dtype=prep.ks_dtype)
        if not matched:
            head = np.empty((batch, n1), dtype=np.int32)  # the batch's x1 counts

        def look1(c1):
            w = _counts(c1)
            return w, w if matched else None

        def fold(lo, hi, w1):
            if not matched:
                head[lo:hi] = w1

        def finish(lo, hi, w):
            if not matched:
                w = np.concatenate((head[lo:hi], w), axis=1, out=running[: hi - lo])
            return prep.ks_shared(w, gathered[: hi - lo], running[: hi - lo])

        look2 = _counts
    samples = (n1,) if matched else (n1, n2)

    def schedule():
        # Per batch: the x1 sub-chunks, then the x2 sub-chunks for independent samples.
        for done in range(0, config.num_reps, batch):
            rows = min(batch, config.num_reps - done)
            for second, n in enumerate(samples):
                for lo in range(0, rows, chunk):
                    hi = min(lo + chunk, rows)
                    yield done, lo, hi, second, rng.integers(0, n, size=(hi - lo, n))

    draws = schedule()
    if config.num_reps > chunk:  # more than one sub-chunk per sample
        draws = _drawn_ahead(draws)
    try:
        for done, lo, hi, second, c in draws:
            if second:
                x1 = None
                x2 = look2(c)
                del c
            else:
                x1, x2 = look1(c)
                del c
                fold(lo, hi, x1)
            if second or matched:
                out[done + lo : done + hi] = finish(lo, hi, x2)
    finally:
        draws.close()
    return out


def run_test(
    data: TwoSampleData, config: BootstrapConfig, rng: np.random.Generator | None = None
) -> TestReport:
    """Run the full bootstrap dominance test and report the decision.

    Computes the observed statistic, generates ``config.num_reps`` bootstrap
    draws (contact-set screened for the WMW statistic when ``tau`` is finite,
    standard otherwise and always for KS), and rejects the dominance null
    when the statistic exceeds ``max(critical_value, eta)``. The p-value is
    the fraction of draws at or above the observed statistic.

    The report is fully determined by the data, the config, and the stream:
    when ``rng`` is omitted a fresh generator is seeded from ``config.seed``.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    prep = _Prepared(data)
    if config.statistic_kind is StatKind.WMW:
        stat = wmw_statistic(empirical_odc(data)).value
    else:
        stat = ks_statistic(data).value
    draws = _bootstrap_draws(prep, config, rng)
    cv = critical_value(draws, config.alpha)
    p_value = float(np.count_nonzero(draws >= stat)) / config.num_reps
    return TestReport(
        statistic=stat,
        critical_value=cv,
        p_value=p_value,
        reject=bool(stat > max(cv, config.eta)),
        ties_detected=data.ties_detected,
        pairing=data.pairing,
        n1=data.n1,
        n2=data.n2,
        **vars(config),
    )
