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
    OdcCurve, Pairing, TwoSampleData, _as_counts, _check_int, _check_member, _check_real,
    rank_profile,
)
from .stats import StatKind, _sqrt_tn, _wmw_value, ks_statistic

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

# Levels of KS's max-prefix tree (``_Prepared.ks_shared``). Its slot table is
# padded to a multiple of 2**_TREE_LEVELS, and a cumsum over the remaining
# blocks finishes each row. A speed constant: the draws do not depend on it.
_TREE_LEVELS = 5
# Each leaf's index in [0, 2**_TREE_LEVELS) with its bits reversed: the order
# in which ``ks_merged`` lays the tree's leaves out.
_BITREV = np.array([int(f"{r:0{_TREE_LEVELS}b}"[::-1], 2) for r in range(1 << _TREE_LEVELS)])


@dataclass(frozen=True, eq=False)
class BootstrapWeights:
    """Multinomial resampling counts for each sample, in observation order:
    integer vectors, stored as read-only int64."""

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        for name in ("w1", "w2"):
            w = _as_counts(getattr(self, name), name)
            # Counts above the length could wrap the int64 sum round to it.
            if np.any((w < 0) | (w > w.size)) or int(w.sum()) != w.size:
                raise ValueError(f"{name} must be multinomial counts summing to its length")
            object.__setattr__(self, name, w)


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    """Estimated variances of the normalized ODC at each grid point."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        if not (v >= 0).all():  # also rejects nan, which the screen would drop silently
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
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        if not (0.0 < self.alpha < 0.5):
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive (inf allowed), got {self.tau}")
        object.__setattr__(self, "num_reps", _check_int("num_reps", self.num_reps, 1))
        if not (self.eta >= 0.0):
            raise ValueError("eta must be nonnegative")
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))
        if self.seed >= 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        _check_member("statistic kind", self.statistic_kind, StatKind)


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


def _column_counts(categories: np.ndarray) -> np.ndarray:
    """Counts of a matrix of category draws, one row per category and one
    column per row of ``categories``, in C order; counts in place, overwriting
    ``categories``, so no second draw-sized matrix is made."""
    rows, n = categories.shape
    categories *= rows
    categories += np.arange(rows)[:, None]
    return np.bincount(categories.ravel(), minlength=n * rows).reshape(n, rows)


def _multinomial_rows(rng: np.random.Generator, categories: int, nrows: int) -> np.ndarray:
    """Draw ``nrows`` equal-probability multinomial count vectors.

    Each row is built from ``categories`` independent uniform category draws,
    counted, which is exactly multinomial.
    """
    return _column_counts(rng.integers(0, categories, size=(nrows, categories))).T


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
    prep = _Prepared(data)
    # The one row's hits, and its x2 ranks in sorted order: sorted x2 number
    # p repeated by its weight.
    hits = np.repeat(prep.g1, weights.w1)[None]
    ranks = np.repeat(np.arange(data.n2, dtype=np.int32), weights.w2[prep.perm2])[None]
    counts = prep.odc_tail(prep.wmw_head(hits), ranks)[0]
    return OdcCurve(counts=counts, n1=data.n1, n2=data.n2)


def _recentered_statistic(odc_star: OdcCurve, odc: OdcCurve, center: np.ndarray) -> float:
    if odc_star.n1 != odc.n1 or odc_star.n2 != odc.n2:
        raise ValueError("bootstrap and empirical curves must share the same grid")
    return float(_wmw_sums((odc_star.counts - center)[None], odc.n1, odc.n2)[0])


def bootstrap_statistic_standard(odc_star: OdcCurve, odc: OdcCurve) -> float:
    """Recentered bootstrap statistic: scaled sum of max(R_star - R_hat, 0)."""
    return _recentered_statistic(odc_star, odc, odc.counts)


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
    return _recentered_statistic(odc_star, odc, _screened(odc.counts, odc.n1, lambda: v.v, tau))


def _screened(counts: np.ndarray, n1: int, variances, tau: float) -> np.ndarray:
    """ODC numerators ``counts`` with each column the screen drops set to n1,
    where every bootstrap excess clips to 0; ``variances()`` gives the variance
    array, called only for finite tau, so ``tau = inf`` builds none, never
    meets ``-inf * sqrt(0) = nan`` and returns ``counts`` itself."""
    if math.isinf(tau):
        return counts
    n2 = counts.size
    grid = np.arange(1, n2 + 1, dtype=np.float64) / n2
    keep = _sqrt_tn(n1, n2) * (counts / n1 - grid) >= -tau * np.sqrt(variances())
    return np.where(keep, counts, counts.dtype.type(n1))


def _wmw_sums(excess: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Row-wise WMW bootstrap draws from recentered ODC numerators (clipped
    in place), summed in exact integers before the one float scaling."""
    np.maximum(excess, 0, out=excess)
    return excess.sum(axis=1, dtype=np.int64) * (_sqrt_tn(n1, n2) / (n1 * n2))


def _copula_diag(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Empirical copula on the diagonal from the rank numerators ``u`` and ``v``
    of n pairs: entry ``i-1`` counts pairs whose ranks both sit at or below
    ``i``, divided by ``n``."""
    return np.cumsum(np.bincount(np.maximum(u, v), minlength=u.size + 1))[1:] / u.size


def _variances(data: TwoSampleData) -> np.ndarray:
    """``variance_profile(data).v``, straight from the rank cache."""
    n2 = data.n2
    i = np.arange(1, n2 + 1, dtype=np.float64)
    if data.pairing is Pairing.MATCHED:
        return np.maximum(i / n2 - _copula_diag(*rank_profile(data)), 0.0)
    return np.maximum(i / n2 - i**2 / n2**2, 0.0)


def variance_profile(data: TwoSampleData) -> VarianceProfile:
    """Gridwise variance estimates for the normalized empirical ODC.

    Independent samples admit the closed form ``i/n2 - i^2/n2^2``; matched
    pairs replace the product term with the empirical copula diagonal, which
    keeps the estimate rank-based.
    """
    return VarianceProfile(v=_variances(data))


def critical_value(draws, alpha: float) -> float:
    """Empirical upper quantile of bootstrap draws, as an infimum.

    Returns the ``(N-c)``-th smallest draw, with ``c`` the largest count such
    that ``c/N <= alpha`` in the p-value's float arithmetic, so a statistic
    exceeds it exactly when its p-value is at most ``alpha``.
    """
    arr = np.asarray(draws, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("need at least one bootstrap draw")
    if not np.all(np.isfinite(arr)):
        raise ValueError("bootstrap draws must be finite")
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    n = arr.size
    k = n - int(np.count_nonzero(np.arange(1, n) / n <= alpha))
    return float(np.partition(arr, k - 1)[k - 1])


class _Prepared:
    """Per-dataset quantities reused across all bootstrap replications.

    WMW is reduced in two stages: a head from a row's x1 draws, then the
    row's draw from its head and its x2 draws. KS takes x1 and x2 counts in
    a column layout, one column per row (matched pairs pass the counts they
    share as both), and reduces every column at once with a max-prefix tree
    over the merged pooled order (``ks_shared``).
    The fields that only one statistic reads are built on first use, so WMW
    draws never build the KS state and KS draws never build the WMW state.
    All of it reads the rank cache, as do ``run_test``'s observed statistic and
    screen, through ``_wmw_value`` and ``_variances``, with no value object.
    Either statistic's batch matrix counts x1 draws, at most n1 each, in
    ``count_dtype``: 16-bit when n1 < 2**16, which halves it, else int32.
    """

    def __init__(self, data: TwoSampleData):
        self.data = data
        self.n1 = data.n1
        self.n2 = data.n2
        self.perm1, self.perm2, self.cnt1, self.cnt2 = data._ranks
        self.m = self.cnt1[self.n1 :].astype(np.int32)
        self.count_dtype = np.uint16 if self.n1 < 2**16 else np.int32
        # Sums of runs of KS terms lie within +-2*n1*n2; int32 holds them up
        # to n1*n2 < 2**30, beyond that int64 does.
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
        """``(src, off, dtype, height)``: the slot table of ``ks_shared``'s tree.

        The merged order lists both sorted samples, tied x2 values before tied
        x1 values. Merged point q sits in slot
        ``bitrev(q mod 2**K) * (slots / 2**K) + q div 2**K`` (K =
        ``_TREE_LEVELS``), and the slots past the last point pad the table to
        a multiple of 2**K. Slot i reads row ``src[i]`` of ``ks_shared``'s
        terms: x1 observation j is row j, x2 observation j row n1 + j, and
        padding reads the zero row n1 + n2. ``off`` is None when no two pooled
        values tie; otherwise it is 0 at the points that close a group of tied
        values and at the padding, and below ``-2*n1*n2`` elsewhere, so that
        no prefix ending inside a group can be the maximum. ``dtype`` holds
        every sum and best prefix of the tree; ``height`` is the rows of the
        terms buffer, which the tree's sums reuse."""
        n1, n2 = self.n1, self.n2
        # Sorted x2 number j follows the x1 values strictly below it, those
        # with cnt2 <= j; sorted x1 number i follows the cnt2[i] x2 values at
        # or below it.
        below = np.cumsum(np.bincount(self.cnt2[:n1], minlength=n2 + 1)[:n2])
        pos1 = np.arange(n1) + self.cnt2[:n1]
        pos2 = np.arange(n2) + below
        leaves = 1 << _TREE_LEVELS
        blocks = -(-(n1 + n2) // leaves)
        q = np.arange(n1 + n2)
        slot = _BITREV[q % leaves] * blocks + q // leaves
        src = np.full(leaves * blocks, n1 + n2, dtype=np.intp)
        src[slot[pos1]], src[slot[pos2]] = self.perm1, self.perm2 + n1
        # A pooled point's value closes the group at position cnt1 + cnt2 - 1.
        groups = np.bincount(self.cnt1 + self.cnt2)
        off, dtype = None, self.ks_dtype
        if groups.max() > 1:
            # Every best prefix then lies within [-4*n1*n2 - 1, 2*n1*n2], which
            # int32 holds only up to n1*n2 < 2**29.
            dtype = self.ks_dtype if n1 * n2 < 2**29 else np.int64
            off = np.zeros((leaves * blocks, 1), dtype=dtype)
            off[slot] = -2 * n1 * n2 - 1
            off[slot[np.flatnonzero(groups) - 1]] = 0
        return src, off, dtype, max(n1 + n2 + 1, src.size // 2)

    def wmw_head(self, hits: np.ndarray, out=None) -> np.ndarray:
        """h[r, k] counts the resampled x1 of row r at or below sorted x2
        number k, from the hits ``g1[c1]`` of its category draws ``c1``
        (changed in place), in ``count_dtype``."""
        rows, width = hits.shape[0], self.n2 + 1
        hits += _row_offsets(rows, width, hits.dtype)
        # int64 hits reach ``bincount`` without a converted copy.
        hist = np.bincount(hits.ravel(), minlength=rows * width).reshape(rows, width)
        return np.cumsum(hist, axis=1, dtype=self.count_dtype, out=out)

    def odc_tail(self, head: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Bootstrap ODC numerators from ``wmw_head`` rows and the ranks
        ``rank2[c2]`` of x2 category draws ``c2``, each row sorted: the i-th
        smallest resampled x2 is sorted x2 number ``ranks[r, i]``. The
        numerators come in a new array in ``head``'s dtype."""
        ranks += _row_offsets(*head.shape, ranks.dtype)
        return np.take(head.ravel(), ranks, mode="clip")  # every index is in range

    def ks_shared(self, w1: np.ndarray, w2: np.ndarray, terms=None, part=None) -> np.ndarray:
        """KS draws from column counts of x1 (``w1``) and x2 (``w2``), one
        column per row; matched pairs pass their shared counts as both.

        The recentered numerator ``n2*(cum1 - cnt1) - n1*(cum2 - cnt2)`` at
        each pooled point is a prefix sum of terms ``n2*(w1 - 1)`` and
        ``-n1*(w2 - 1)`` over the merged order, and a draw is the largest
        such prefix at the end of a group of tied values. A max-prefix tree
        finds it exactly in integers: a run of points carries its sum s and
        its best prefix b, and runs join as ``(sL + sR, max(bL, sL + bR))``.
        ``ks_merged``'s slot order puts the two runs that each level joins at
        the same row of the two halves of the slots, so every level is a few
        in-place ufunc calls on contiguous blocks; a short cumsum over the
        remaining blocks finishes each column. ``terms`` (``ks_merged``'s
        height) and ``part`` (one row per slot) are buffers in its dtype; the
        last point's prefix is 0, so no draw is negative."""
        n1, n2 = self.n1, self.n2
        src, off, dtype, height = self.ks_merged
        if terms is None:
            terms = np.empty((height, w1.shape[1]), dtype=dtype)
        np.copyto(terms[:n1], w1, casting="unsafe")  # counts fit: at most n1 or n2
        np.copyto(terms[n1 : n1 + n2], w2, casting="unsafe")
        terms[: n1 + n2] -= 1
        terms[:n1] *= n2
        terms[n1 : n1 + n2] *= -n1
        terms[n1 + n2] = 0
        part = np.take(terms, src, axis=0, out=part, mode="clip")
        # Level 1 joins slot i with slot i + half, sums into ``terms`` and best
        # prefixes into the first half of ``part``.
        half = len(src) // 2
        best, sums = part[:half], np.add(part[:half], part[half:], out=terms[:half])
        if off is not None:
            best += off[:half]
            np.add(sums, off[half:], out=part[half:])
        np.maximum(best, sums if off is None else part[half:], out=best)
        for _ in range(_TREE_LEVELS - 1):
            half //= 2
            best[half : 2 * half] += sums[:half]
            np.maximum(best[:half], best[half : 2 * half], out=best[:half])
            sums[:half] += sums[half : 2 * half]
        before = np.cumsum(sums[: half - 1], axis=0, out=sums[: half - 1])
        best[1:half] += before
        return best[:half].max(axis=0) * (_sqrt_tn(n1, n2) / (n1 * n2))


def _drawn_ahead(stream):
    """Yield the items of the iterator ``stream``, which one helper thread
    advances at most two items ahead of the caller.

    Each item of ``stream`` comes with work still to do: it is a function of
    no arguments that returns the finished item. The helper calls it only when
    the one-place queue is still full, so that it would otherwise wait in
    ``put`` while the caller works on the item before; otherwise it hands the
    function over at once, and the caller calls it (``callable``). So each
    item is finished exactly once, on whichever thread is free; the check of
    the queue is a guess about load, and either answer gives the same item.

    Only the helper advances ``stream``, and an exception it raises is raised
    at the caller's matching ``next``. Each item passes in a one-item list that
    the caller empties, so once yielded it is held by the caller alone.
    ``close()``, or the end of ``stream``, stops and joins the helper.
    """
    ready = queue.Queue(maxsize=1)
    stop = threading.Event()

    def produce():
        try:
            for work in stream:
                item = work() if ready.full() else work
                del work  # a finished item drops its inputs here
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
    rows before all x2 rows, one sub-chunk of rows per ``integers`` call, and
    no batch of draws is ever held. ``integers`` takes every value from the
    bit generator's stream, whose half-word buffer lives in the generator
    state, so k calls of r rows equal one call of k*r rows and no draw
    depends on the sub-chunk size.

    A statistic plugs in with two functions. ``ahead(second, c)`` runs once on
    each draw matrix ``c`` and works in place on it: WMW writes its lookups
    over the draws (``g1`` for x1, ``rank2`` plus the row sort for x2; matched
    pairs take the ranks into a new array before the hits), and KS counts them
    (``_column_counts``) into columns of counts. ``step`` reduces one sub-chunk
    and returns its draws once both samples are in. An x1 sub-chunk is folded
    into a batch matrix (WMW head rows, or independent KS's x1 counts, one
    column per row), and each x2 sub-chunk finishes its rows from that matrix.
    Matched pairs finish at once from the x1 sub-chunk, which serves as both
    samples, and matched KS keeps no batch matrix.

    The sub-chunk draws are one stream of ``integers`` calls, known before the
    first is made (``schedule``), each yielded with its ``ahead`` still to
    apply. When a sample takes more than one sub-chunk, one helper thread
    makes those calls in order, drawing the next sub-chunks while the engine
    reduces the current one (``integers`` releases the GIL), and ``ahead``
    runs on the helper or the caller by load (see ``_drawn_ahead``); only the
    helper touches ``rng``. Otherwise the calls and ``ahead`` run inline and
    no thread starts. Either way every draw, and ``rng``'s state after the
    call, are the same.
    """
    data = prep.data
    n1, n2 = data.n1, data.n2
    matched = data.pairing is Pairing.MATCHED
    per_row = n1 + n2
    batch = max(1, min(config.num_reps, _BATCH_ELEMENTS // per_row))
    chunk = max(1, min(batch, _CHUNK_ELEMENTS // per_row))
    drawn_ahead = config.num_reps > chunk  # more than one sub-chunk per sample
    out = np.empty(config.num_reps, dtype=np.float64)
    # Each ``ahead`` works in place on its own draw matrix, and the batch
    # matrix and KS's tree buffers are reused for the whole call.
    if config.statistic_kind is StatKind.WMW:
        center = _screened(prep.m, n1, lambda: _variances(data), config.tau)
        # Built here, before any helper starts: ``ahead`` may run on either
        # thread, and ``cached_property`` takes no lock from Python 3.12 on.
        g1, rank2 = prep.g1, prep.rank2
        head = np.empty((batch, n2 + 1), dtype=prep.count_dtype)

        def ahead(second, c):
            # Lookups overwrite ``c``: ``take`` reads each index before it writes
            # that place of ``out``, and int32 rank p lands in word p // 2, already
            # read. Matched pairs need both, so their ranks go to a new array first.
            x1 = x2 = None
            if second or matched:
                front = None if matched else c.ravel().view(np.int32)[: c.size].reshape(c.shape)
                x2 = np.take(rank2, c, out=front, mode="clip")
                x2.sort(axis=1)
            if not second:
                x1 = np.take(g1, c, out=c, mode="clip")
            return x1, x2

        def step(lo, hi, second, looked):
            x1, x2 = looked
            if x1 is not None:
                prep.wmw_head(x1, head[lo:hi])
            if x2 is None:
                return None
            # The int32 excess goes over the ranks, which ``odc_tail`` has read.
            excess = np.subtract(prep.odc_tail(head[lo:hi], x2), center, out=x2)
            return _wmw_sums(excess, n1, n2)

    else:
        # Column layout: one row per observation or tree slot, one column per
        # bootstrap row, so each sub-chunk views the per-call buffers as
        # contiguous (height, rows) blocks. Both buffers are one allocation:
        # freed at the end of the call, one block of that size leaves the heap
        # untrimmed for the next call's count matrices, where two half-size
        # blocks cost about 500 minor faults per call (glibc, n = 2000).
        src, _, dtype, height = prep.ks_merged
        space = np.empty((height + src.size) * chunk, dtype=dtype)
        terms, part = space[: height * chunk], space[height * chunk :]
        if not matched:
            head = np.empty((n1, batch), dtype=prep.count_dtype)  # the batch's x1 counts

        def ahead(second, c):
            return _column_counts(c)

        def step(lo, hi, second, w):
            if not (second or matched):
                head[:, lo:hi] = w
                return None
            rows = hi - lo
            return prep.ks_shared(
                w if matched else head[:, lo:hi], w,
                terms[: height * rows].reshape(height, rows),
                part[: src.size * rows].reshape(src.size, rows),
            )

    samples = (n1,) if matched else (n1, n2)

    def finish(done, lo, hi, second, c):
        return done, lo, hi, second, ahead(second, c)

    def schedule():
        # Per batch: the x1 sub-chunks, then the x2 sub-chunks for independent
        # samples. Each draw matrix goes straight into its item, so this frame
        # holds none.
        for done in range(0, config.num_reps, batch):
            rows = min(batch, config.num_reps - done)
            for second, n in enumerate(samples):
                for lo in range(0, rows, chunk):
                    hi = min(lo + chunk, rows)
                    yield functools.partial(
                        finish, done, lo, hi, second, rng.integers(0, n, size=(hi - lo, n))
                    )

    draws = _drawn_ahead(schedule()) if drawn_ahead else schedule()
    try:
        for item in draws:
            if callable(item):  # handed over with ``ahead`` still to run
                item = item()
            done, lo, hi, second, looked = item
            if (got := step(lo, hi, second, looked)) is not None:
                out[done + lo : done + hi] = got
            # Keep no draw matrix while the next item's ``ahead`` runs here: one
            # more cost about 470 minor faults per matched KS call at n = 2000.
            del item, looked
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
        stat = _wmw_value(prep.cnt1[prep.n1 :], prep.n1, prep.n2)
    else:
        stat = ks_statistic(data)
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
