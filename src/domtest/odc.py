"""Order-statistics layer for two-sample dominance analysis.

Per-observation ranks and the empirical ordinal dominance curve (ODC), i.e.
the PP-style curve ``u -> F1_hat(Q2_hat(u))`` evaluated on the grid ``i/n2``.
Everything here depends on the data only through ranks, and every function is
pure, so calls are safe from concurrent code without coordination.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Pairing",
    "TwoSampleData",
    "OdcCurve",
    "RankProfile",
    "empirical_odc",
    "rank_profile",
]


class Pairing(Enum):
    """How the two samples were collected."""

    INDEPENDENT = "independent"
    MATCHED = "matched"


def _as_sample(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one observation")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    arr.setflags(write=False)
    return arr


def _check_int(name: str, value, least: int) -> None:
    """Reject anything but a true integer (numpy integers included, bool not)
    of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_real(name: str, value) -> None:
    """Reject anything but a real number (numpy integers and floats included, bool
    not) that converts to a float: an int past the float range does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number within the float range") from None


def _check_member(name: str, value, kind: type) -> None:
    """Reject anything but an instance of ``kind``: an enum's value is no member."""
    if not isinstance(value, kind):
        raise ValueError(f"invalid {name}: {value!r}")


def _grid_counts(name: str, values: np.ndarray, n: int, least: int) -> np.ndarray:
    """Numerators ``k`` of ``values = k/n``, as floats, clipped to ``[least, n]``
    so that one comparison rejects off-grid and out-of-range values alike. A
    value passes within ``max(1e-8, n * 2**-50)`` of ``k`` once scaled by ``n``,
    as every float ``k/n`` does: it scales to within ``n * 2**-52`` of ``k``."""
    scaled = values * n
    counts = np.rint(scaled).clip(least, n)
    if np.abs(scaled - counts).max() > max(1e-8, n * 2.0**-50):
        raise ValueError(f"{name} must be multiples k/{n} with {least} <= k <= {n}")
    return counts


@dataclass(frozen=True, eq=False)
class TwoSampleData:
    """Two univariate samples plus the sampling relationship between them.

    ``x1`` and ``x2`` hold the raw observations. Under matched pairing the
    i-th entries of the two arrays form a pair, so the lengths must agree.
    """

    x1: np.ndarray
    x2: np.ndarray
    pairing: Pairing = Pairing.INDEPENDENT

    def __post_init__(self):
        object.__setattr__(self, "x1", _as_sample(self.x1, "x1"))
        object.__setattr__(self, "x2", _as_sample(self.x2, "x2"))
        _check_member("pairing", self.pairing, Pairing)
        if self.pairing is Pairing.MATCHED and self.x1.size != self.x2.size:
            raise ValueError(
                f"matched pairs need equal sample sizes, got {self.x1.size} and {self.x2.size}"
            )

    @property
    def n1(self) -> int:
        return self.x1.size

    @property
    def n2(self) -> int:
        return self.x2.size

    @property
    def ties_detected(self) -> bool:
        """True when the pooled sample contains duplicate values: a value held
        k times gives k pooled points the same total count."""
        _, _, cnt1, cnt2 = self._ranks
        return bool(np.bincount(cnt1 + cnt2).max() > 1)

    @functools.cached_property
    def _ranks(self):
        """The one sort of the data that every rank-based quantity reads:
        ``(perm1, perm2, cnt1, cnt2)``, the stable argsorts of each sample and
        each sample's right-continuous count at every pooled sorted point
        (sorted x1, then sorted x2), all read-only. ``x1`` and ``x2`` are
        read-only copies, so the cache cannot go stale."""
        perm1 = np.argsort(self.x1, kind="stable")
        perm2 = np.argsort(self.x2, kind="stable")
        pooled = np.concatenate([self.x1[perm1], self.x2[perm2]])
        cnt1 = np.searchsorted(pooled[: self.n1], pooled, side="right")
        cnt2 = np.searchsorted(pooled[self.n1 :], pooled, side="right")
        for arr in (perm1, perm2, cnt1, cnt2):
            arr.setflags(write=False)
        return perm1, perm2, cnt1, cnt2


@dataclass(frozen=True, eq=False)
class OdcCurve:
    """Empirical ODC on the grid ``i/n2``, i = 1..n2, held as integer counts.

    ``counts[i-1]`` is the number of first-sample observations at or below
    the i-th order statistic of the second sample, and ``values = counts/n1``;
    both are read-only. The ``values`` passed in must be multiples of ``1/n1``
    within the tolerance of ``_grid_counts``, which every float ``k/n1`` meets.
    """

    values: np.ndarray
    n1: int
    n2: int
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_int("n1", self.n1, 1)
        _check_int("n2", self.n2, 1)
        values = _as_sample(self.values, "ODC values")
        counts = _grid_counts("ODC values", values, self.n1, 0).astype(np.int64)
        if counts.size != self.n2:
            raise ValueError(f"expected {self.n2} grid values, got {counts.size}")
        if (np.diff(counts) < 0).any():
            raise ValueError("ODC values must be nondecreasing")
        for name, arr in (("counts", counts), ("values", counts / self.n1)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def grid(self) -> np.ndarray:
        """The evaluation grid ``i/n2``, i = 1..n2."""
        return np.arange(1, self.n2 + 1, dtype=np.float64) / self.n2


@dataclass(frozen=True, eq=False)
class RankProfile:
    """Normalized within-sample ranks of matched pairs.

    ``u_ranks[j]`` is the first-sample ECDF evaluated at the j-th first-sample
    observation, and likewise for ``v_ranks``; every entry is ``k/n`` with
    ``1 <= k <= n``, and with no ties each vector is a permutation of
    ``{1/n, ..., 1}``. ``u_counts`` and ``v_counts`` hold those integers
    ``k`` as read-only int64 vectors.
    """

    u_ranks: np.ndarray
    v_ranks: np.ndarray
    u_counts: np.ndarray = field(init=False, repr=False)
    v_counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = _as_sample(self.u_ranks, "u_ranks")
        v = _as_sample(self.v_ranks, "v_ranks")
        if u.size != v.size:
            raise ValueError("rank vectors must have equal length")
        for name, ranks in (("u", u), ("v", v)):
            counts = _grid_counts(f"{name}_ranks", ranks, ranks.size, 1).astype(np.int64)
            counts.setflags(write=False)
            object.__setattr__(self, f"{name}_ranks", ranks)
            object.__setattr__(self, f"{name}_counts", counts)

    @property
    def n(self) -> int:
        return self.u_ranks.size


def _quantile_rank(n: int, level: float) -> int:
    """Smallest k in [1, n] with ``k/n >= level``, compared on the float grid
    ``k/n``: the rank of the infimum quantile at ``level``."""
    return 1 + int(np.count_nonzero(np.arange(1, n) / n < level))


def empirical_odc(data: TwoSampleData) -> OdcCurve:
    """Empirical ordinal dominance curve of ``data`` on the grid ``i/n2``.

    Entry ``i-1`` is the first-sample ECDF at the i-th smallest second-sample
    observation. The result depends only on the joint ranks of the pooled
    observations, so it is invariant under common strictly increasing
    transformations of all data.
    """
    counts = data._ranks[2][data.n1 :]
    return OdcCurve(values=counts / data.n1, n1=data.n1, n2=data.n2)


def rank_profile(data: TwoSampleData) -> RankProfile:
    """Within-sample ECDF ranks of matched pairs, in pair order.

    Only defined for matched pairs; the empirical copula built from these
    ranks has no meaning for two unrelated samples.
    """
    if data.pairing is not Pairing.MATCHED:
        raise ValueError("rank_profile requires matched pairs")
    n = data.n1
    perm1, perm2, cnt1, cnt2 = data._ranks
    u, v = np.empty(n), np.empty(n)
    u[perm1] = cnt1[:n] / n
    v[perm2] = cnt2[n:] / n
    return RankProfile(u_ranks=u, v_ranks=v)
