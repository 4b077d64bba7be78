"""Large-sample reference distribution for the exchangeable-null case.

When both samples share one continuous distribution and are independent, the
normalized dominance statistic converges to the integral of the positive
part of a Brownian bridge. This module simulates that functional on a grid,
extracts its empirical quantiles, and evaluates the pointwise variance of
the general limit process for a given weight, curve slope, and copula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .odc import _quantile_rank

__all__ = [
    "BridgePathConfig",
    "LimitVarianceInputs",
    "bridge_paths",
    "simulate_bridge_functional",
    "limit_quantiles",
    "limit_variance",
]

_CHUNK_PATHS = 2048


@dataclass(frozen=True)
class BridgePathConfig:
    num_paths: int
    grid_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("num_paths must be positive")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, (int, np.integer))
            or self.seed < 0
        ):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class LimitVarianceInputs:
    """Ingredients of the pointwise limit variance at one interior point.

    ``lam`` is the second-sample weight, ``R_u`` and ``r_u`` the dominance
    curve value and slope at ``u``, and ``C_RuU``/``C_uu`` the copula at
    ``(R_u, u)`` and ``(u, u)``. The copula values must respect the Frechet
    bounds.
    """

    u: float
    lam: float
    R_u: float
    r_u: float
    C_RuU: float
    C_uu: float

    def __post_init__(self):
        if not (0.0 < self.u < 1.0):
            raise ValueError(f"u must lie in (0, 1), got {self.u}")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"lam must lie in (0, 1], got {self.lam}")
        if not (0.0 < self.R_u < 1.0):
            raise ValueError(f"R_u must lie in (0, 1), got {self.R_u}")
        if not (self.r_u >= 0.0):
            raise ValueError(f"r_u must be nonnegative, got {self.r_u}")
        if not (0.0 <= self.C_RuU <= min(self.R_u, self.u)):
            raise ValueError("C_RuU violates the Frechet bounds")
        if not (0.0 <= self.C_uu <= self.u):
            raise ValueError("C_uu violates the Frechet bounds")


def bridge_paths(rng: np.random.Generator, num_paths: int, grid_size: int) -> np.ndarray:
    """Brownian bridge paths on ``j/grid_size``, j = 0..grid_size.

    A scaled Gaussian random walk W is pinned by ``B(u) = W(u) - u*W(1)``,
    which has the exact bridge law at the grid points and is identically
    zero at both endpoints.
    """
    steps = rng.standard_normal((num_paths, grid_size)) * math.sqrt(1.0 / grid_size)
    walk = np.cumsum(steps, axis=1)
    u = np.arange(1, grid_size + 1, dtype=np.float64) / grid_size
    paths = np.empty((num_paths, grid_size + 1), dtype=np.float64)
    paths[:, 0] = 0.0
    paths[:, 1:] = walk - u[np.newaxis, :] * walk[:, -1:]
    return paths


def simulate_bridge_functional(config: BridgePathConfig) -> np.ndarray:
    """Monte Carlo samples of ``integral of max(B(u), 0)`` over (0, 1).

    Integration is a rectangle rule on the simulation grid. Paths are
    generated in fixed-size chunks with independently derived child seeds,
    so a parallel driver assigning chunks to workers reproduces the same
    values in any order.
    """
    g = config.grid_size
    nchunks = (config.num_paths + _CHUNK_PATHS - 1) // _CHUNK_PATHS
    children = np.random.SeedSequence(config.seed).spawn(nchunks)
    out = np.empty(config.num_paths, dtype=np.float64)
    for c in range(nchunks):
        lo = c * _CHUNK_PATHS
        rows = min(_CHUNK_PATHS, config.num_paths - lo)
        paths = bridge_paths(np.random.default_rng(children[c]), rows, g)
        out[lo : lo + rows] = np.maximum(paths[:, 1:], 0.0).sum(axis=1) / g
    return out


def limit_quantiles(samples, levels) -> np.ndarray:
    """Empirical quantiles at the given levels, as infima.

    Uses the k-th smallest sample for the smallest k with ``k/N >= p``, the
    order-statistic rule of ``empirical_quantile``.
    """
    arr = np.asarray(samples, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    lv = np.atleast_1d(np.asarray(levels, dtype=np.float64))
    if not np.all((lv > 0.0) & (lv < 1.0)):
        raise ValueError("quantile levels must lie in (0, 1)")
    srt = np.sort(arr)
    return np.array([srt[_quantile_rank(arr.size, p) - 1] for p in lv])


def limit_variance(inputs: LimitVarianceInputs) -> float:
    """Pointwise variance of the limit process of the normalized ODC.

    Combines a bridge evaluated along the curve, a slope-weighted second
    bridge, and their copula-driven covariance. On the contact set, where
    ``R_u = u`` and ``r_u = 1``, the expression collapses to ``u - C(u, u)``.
    """
    lam, r, R, u = inputs.lam, inputs.r_u, inputs.R_u, inputs.u
    cross = inputs.C_RuU - R * u
    return (
        lam * (R - R * R)
        + (1.0 - lam) * r * r * (u - u * u)
        - 2.0 * math.sqrt(lam) * math.sqrt(1.0 - lam) * r * cross
    )
