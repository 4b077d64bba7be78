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


def _check_int(name: str, value, least: int) -> int:
    """``value`` as a Python int: anything but a true integer (numpy integers
    included, bool not) of at least ``least`` is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_real(name: str, value) -> float:
    """``value`` as a Python float, with -0.0 read as 0.0: anything but a real
    number (numpy integers and floats included, bool not) that converts to a
    float is rejected. An int past the float range does not convert, and a
    finite long double past it would become an infinite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
        if abs(real) == np.inf and not np.isinf(value):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"{name} must be a real number within the float range") from None
    return real + 0.0


def _as_counts(values, name: str) -> np.ndarray:
    """A read-only int64 copy of the nonempty integer vector ``values``: any
    other dtype, integer-valued floats included, is rejected."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" or arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty vector of integer counts")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


def _check_member(name: str, value, kind: type) -> None:
    """Reject anything but an instance of ``kind``: an enum's value is no member."""
    if not isinstance(value, kind):
        raise ValueError(f"invalid {name}: {value!r}")


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
    the i-th order statistic of the second sample: a nondecreasing integer
    vector in ``[0, n1]``. It is stored as read-only int64, with the read-only
    ``values = counts/n1``.
    """

    counts: np.ndarray
    n1: int
    n2: int
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n1 = _check_int("n1", self.n1, 1)
        n2 = _check_int("n2", self.n2, 1)
        counts = _as_counts(self.counts, "ODC counts")
        if counts.size != n2:
            raise ValueError(f"expected {n2} grid counts, got {counts.size}")
        if counts[0] < 0 or counts[-1] > n1 or (np.diff(counts) < 0).any():
            raise ValueError(f"ODC counts must be nondecreasing within [0, {n1}]")
        values = counts / n1
        values.setflags(write=False)
        for name, value in (("n1", n1), ("n2", n2), ("counts", counts), ("values", values)):
            object.__setattr__(self, name, value)

    @property
    def grid(self) -> np.ndarray:
        """The evaluation grid ``i/n2``, i = 1..n2."""
        return np.arange(1, self.n2 + 1, dtype=np.float64) / self.n2


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
    return OdcCurve(counts=data._ranks[2][data.n1 :], n1=data.n1, n2=data.n2)


def rank_profile(data: TwoSampleData) -> tuple[np.ndarray, np.ndarray]:
    """Within-sample ranks of matched pairs, in pair order, as the int64 pair
    ``(u, v)``: ``u[j]`` counts the first-sample values at or below ``x1[j]``,
    ``v[j]`` the second-sample values at or below ``x2[j]``, so each lies in
    ``[1, n]``, and ``u / n`` is the first-sample ECDF at ``x1[j]``.

    Only defined for matched pairs; the empirical copula built from these
    ranks has no meaning for two unrelated samples.
    """
    if data.pairing is not Pairing.MATCHED:
        raise ValueError("rank_profile requires matched pairs")
    perm1, perm2, cnt1, cnt2 = data._ranks
    u, v = np.empty_like(cnt1[: data.n1]), np.empty_like(cnt2[data.n1 :])
    u[perm1], v[perm2] = cnt1[: data.n1], cnt2[data.n1 :]
    return u, v
