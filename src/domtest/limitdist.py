"""Large-sample reference distribution for the exchangeable-null case.

When both samples share one continuous distribution and are independent, the
normalized dominance statistic converges to the integral of the positive
part of a Brownian bridge. This module simulates that functional on a grid
and extracts its empirical quantiles.

The simulation works in place on row blocks of about 2**16 grid elements, so its
memory grows with the grid, not the path count. Chunks of 2048 paths, one child
seed each, run on ``_THREADS`` threads; no sample depends on block or thread count.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .odc import _check_int, _quantile_rank

__all__ = ["BridgePathConfig", "simulate_bridge_functional", "limit_quantiles"]

_CHUNK_PATHS = 2048  # paths per child seed: part of the random stream
_BLOCK_ELEMENTS = 2**16  # grid elements per row block: a cache size, no sample depends on it
_THREADS = 2  # chunk workers; no sample depends on it, so the machine does not set it


@dataclass(frozen=True)
class BridgePathConfig:
    num_paths: int
    grid_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_int("num_paths", self.num_paths, 1)
        _check_int("grid_size", self.grid_size, 2)
        _check_int("seed", self.seed, 0)


def _pinned_walk(rng: np.random.Generator, out: np.ndarray, tmp: np.ndarray, ramp) -> None:
    """Fill each row of the C-contiguous ``out`` with a bridge at ``ramp = j/g``, j = 1..g.

    A scaled Gaussian walk pinned by ``B(u) = W(u) - u*W(1)`` has the exact bridge law
    there. Rows draw from ``rng`` in order, so row blocks equal one matrix; ``tmp`` is scratch.
    """
    rng.standard_normal(out=out)
    out *= math.sqrt(1.0 / out.shape[1])
    np.cumsum(out, axis=1, out=out)
    np.multiply(ramp, out[:, -1:], out=tmp)
    out -= tmp


def simulate_bridge_functional(config: BridgePathConfig) -> np.ndarray:
    """Monte Carlo samples of ``integral of max(B(u), 0)`` over (0, 1).

    Integration is a rectangle rule on the simulation grid. Paths are
    generated in fixed-size chunks with independently derived child seeds, and
    worker k of ``_THREADS`` (the caller is worker 0) fills chunks k, k + T, ...
    with its own row buffers, so the values do not depend on the thread count.
    """
    g, n = config.grid_size, config.num_paths
    block = min(_CHUNK_PATHS, n, max(1, _BLOCK_ELEMENTS // _THREADS // g))
    ramp = np.arange(1, g + 1) / g
    out, errors = np.empty(n, dtype=np.float64), []  # first: a count too large fails at once
    seeds = np.random.SeedSequence(config.seed).spawn((n + _CHUNK_PATHS - 1) // _CHUNK_PATHS)

    def work(first: int) -> None:
        try:
            buf, tmp = np.empty((block, g)), np.empty((block, g))
            for c in range(first, len(seeds), _THREADS):
                rng, end = np.random.default_rng(seeds[c]), min(n, (c + 1) * _CHUNK_PATHS)
                for lo in range(c * _CHUNK_PATHS, end, block):
                    walk = buf[: min(block, end - lo)]
                    _pinned_walk(rng, walk, tmp[: len(walk)], ramp)
                    np.maximum(walk, 0.0, out=walk)
                    out[lo : lo + len(walk)] = walk.sum(axis=1) / g
        except BaseException as exc:  # re-raised below: a chunk left unfilled must not pass
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=[k], name="domtest-bridge")
        for k in range(1, min(_THREADS, len(seeds)))
    ]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out


def limit_quantiles(samples, levels) -> np.ndarray:
    """Empirical quantiles at the given levels, as infima.

    Uses the k-th smallest sample for the smallest k with ``k/N >= p``.
    """
    arr = np.asarray(samples, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    lv = np.atleast_1d(np.asarray(levels, dtype=np.float64))
    if not np.all((lv > 0.0) & (lv < 1.0)):
        raise ValueError("quantile levels must lie in (0, 1)")
    srt = np.sort(arr)
    return np.array([srt[_quantile_rank(arr.size, p) - 1] for p in lv])
