"""Test statistics measuring empirical violations of stochastic dominance.

The headline statistic is the one-sided Wilcoxon-Mann-Whitney sum: the area
of the grid rectangles where the empirical ODC exceeds the diagonal, scaled
by the square root of the effective sample size. The exact area functional
and the one-sided Kolmogorov-Smirnov supremum are provided alongside it.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .odc import OdcCurve, TwoSampleData

__all__ = [
    "StatKind",
    "wmw_statistic",
    "odc_area_functional",
    "ks_statistic",
]


class StatKind(Enum):
    WMW = "wmw"
    KS = "ks"


def _sqrt_tn(n1: int, n2: int) -> float:
    return math.sqrt(n1 * n2 / (n1 + n2))


def _wmw_value(counts: np.ndarray, n1: int, n2: int) -> float:
    """``wmw_statistic`` of int64 ODC numerators (int32 ``counts * n2`` can wrap)."""
    i = np.arange(1, n2 + 1, dtype=np.int64)
    pos = counts * n2 > i * n1
    excess = n2 * int(counts[pos].sum()) - n1 * int(i[pos].sum())
    return _sqrt_tn(n1, n2) * (excess / (n1 * n2 * n2))


def wmw_statistic(odc: OdcCurve) -> float:
    """One-sided WMW statistic of an empirical ODC.

    Computes ``sqrt(T_n)/n2 * sum_i max(R_hat(i/n2) - i/n2, 0)`` with the sum
    carried out over exact integer numerators, so the result is the correctly
    rounded float of a rational number. The total passes int64 once ``n1*n2**2``
    nears ``2**63``, so it is formed in Python ints from int64 partial sums.
    """
    return _wmw_value(odc.counts, odc.n1, odc.n2)


def odc_area_functional(odc: OdcCurve) -> float:
    """Exact area between the ODC step curve and the diagonal, above it.

    ``sqrt(T_n) * integral of max(R_hat(u) - u, 0)`` evaluated in closed form
    on each grid cell, splitting the cell where the step crosses the diagonal.
    The value is assembled as the WMW statistic plus the exact triangle
    excess, which keeps the bracketing

        wmw <= area <= wmw + sqrt(T_n) * (1/(2*n2))

    intact in floating point, with the bound rounded in that order: the excess
    is accumulated in integer arithmetic over the common denominator
    ``2*n1^2*n2^2`` and rounded once.
    """
    n1, n2 = odc.n1, odc.n2
    base = wmw_statistic(odc)
    # Cell i adds gap**2, gap = m*n2 - (i-1)*n1 clipped to [0, n1]; int64 sums
    # over blocks of cells stay below 2**63 and are added in Python ints.
    sq = np.clip(odc.counts * n2 - np.arange(n2, dtype=np.int64) * n1, 0, n1) ** 2
    step = max(1, (2**63 - 1) // (n1 * n1))
    extra_num = sum(int(sq[j : j + step].sum()) for j in range(0, n2, step))
    denom = 2 * n1 * n1 * n2 * n2
    return base + _sqrt_tn(n1, n2) * (extra_num / denom)


def ks_statistic(data: TwoSampleData) -> float:
    """One-sided two-sample KS statistic ``sqrt(T_n) * sup(F1_hat - F2_hat)``.

    Both ECDFs are piecewise constant with jumps only at observations, so the
    supremum over the real line is attained on the pooled sample points; the
    result is floored at zero.
    """
    n1, n2 = data.n1, data.n2
    _, _, cnt1, cnt2 = data._ranks
    best = int(np.max(cnt1 * n2 - cnt2 * n1))
    return _sqrt_tn(n1, n2) * (max(best, 0) / (n1 * n2))
